"""rkbudget: explicit Runge-Kutta integration under noisy field evaluations,
closed-form error bounds, and measurement-budget planning.

The package answers two families of questions.  Forward: given a method
and a step count, how large can the final-time error be, with and without
per-evaluation noise?  Inverse: given a target error and the analytic
constants of a problem, how many steps, how many measurement repetitions
per evaluation, and how many total circuit evaluations does each method
order require, and which order is cheapest?
"""

from .bounds import (
    ProblemBounds,
    f_factor,
    global_error_bound_noiseless,
    global_error_bound_noisy,
    lte_bound,
)
from .budget import (
    AnsatzDims,
    BudgetRow,
    InfeasibleShotsError,
    argmin_order,
    budget_table,
    circuit_budget,
    distinct_circuits,
    min_shots,
    min_steps_noiseless,
    min_steps_noisy,
    s_factor,
    sigma_bound,
)
from .harness import (
    CampaignReport,
    delta_to_shots,
    shots_to_delta,
    validate_noiseless_bound,
    validate_noisy_bound,
)
from .integrator import (
    DegenerateSlopeError,
    EvaluationOracle,
    NoiseSpec,
    StepFailureError,
    Trajectory,
    empirical_order,
    integrate,
    rk_step,
)
from .scenarios import (
    AnalyticProblem,
    BlackScholesSpec,
    HeatTransform,
    Scenario,
    apply_overrides,
    bs_transform,
    exp_ode,
    heat_evolve,
    payoff,
    recover_price,
    scenario,
)
from .sensitivity import SweepPoint, SweepSpec, overlap_check, sweep
from .tableaux import (
    BUILTIN_METHODS,
    ButcherTableau,
    MethodProfile,
    builtin_tableau,
    min_stages,
    profile,
    read_tableau_file,
    validate_tableau,
    write_tableau_file,
)
from .toymodel import (
    SingularMatrixError,
    StudyPoint,
    ToyParams,
    ToySystem,
    condition_number,
    kappa_study,
    lip_surface,
    norm_study,
    perturbation_bound,
    perturbation_empirical,
    sample_toy,
    shot_noise_norms,
)

__version__ = "0.1.0"
