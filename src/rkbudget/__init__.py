"""rkbudget: explicit Runge-Kutta integration under noisy field evaluations,
closed-form error bounds, and measurement-budget planning.

The package answers two families of questions.  Forward: given a method
and a step count, how large can the final-time error be, with and without
per-evaluation noise?  Inverse: given a target error and the analytic
constants of a problem, how many steps, how many measurement repetitions
per evaluation, and how many total circuit evaluations does each method
order require, and which order is cheapest?
"""

from .bounds import *
from .budget import *
from .formats import *
from .harness import *
from .integrator import *
from .scenarios import *
from .sensitivity import *
from .tableaux import *
from .toymodel import *

__version__ = "0.1.0"
