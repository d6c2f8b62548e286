"""Butcher tableaus for explicit Runge-Kutta methods.

A tableau is the full definition of one method: the stage coefficients
``a`` (strictly lower triangular), the quadrature weights ``b``, the nodes
``c`` and the claimed convergence order.  Consistency requires that the
weights sum to one and that each row of ``a`` sums to the corresponding
node.  All types in this module are immutable and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ButcherTableau",
    "MethodProfile",
    "builtin_tableau",
    "validate_tableau",
    "profile",
    "min_stages",
    "read_tableau_file",
    "write_tableau_file",
    "BUILTIN_METHODS",
]

CONSISTENCY_TOL = 1e-12

# Minimum number of stages needed to reach a given order.  Below order five
# one stage per order suffices; beyond that the coefficient equations force
# extra stages.  No data is available past order ten.
_MIN_STAGES = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 10: 16}


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of one explicit Runge-Kutta method.

    Parameters
    ----------
    a : (s, s) array
        Stage coupling matrix, strictly lower triangular.
    b : (s,) array
        Quadrature weights, summing to one.
    c : (s,) array
        Stage nodes, ``c[0] == 0`` and ``c[i] == sum(a[i, :i])``.
    order : int
        Claimed convergence order of the method.
    name : str, optional
        Identifier used in reports and CLI output.

    ``stage_rows`` holds, per stage ``i``, the coupling row ``a[i, :i]`` as
    a read-only view and the node ``c[i]`` as a Python float.  They are
    built once here, so a step does not slice ``a`` or index ``c`` at every
    stage; they are not fields and take no part in eq, hash or repr.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        a = _readonly(np.atleast_2d(self.a)) if np.size(self.a) else _readonly(np.zeros((len(self.b), len(self.b))))
        b = _readonly(self.b)
        c = _readonly(self.c)
        if b.ndim != 1 or c.ndim != 1 or len(b) != len(c):
            raise ValueError("b and c must be one-dimensional and of equal length")
        if a.shape != (len(b), len(b)):
            raise ValueError(f"a must be {len(b)}x{len(b)}, got {a.shape}")
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "stage_rows", tuple((a[i, :i], c_i) for i, c_i in enumerate(c.tolist())))

    @property
    def stages(self) -> int:
        return len(self.b)

    # Value semantics over the arrays: the generated field-wise versions
    # would compare ndarrays with ``==`` and hash them, which raises.
    def __eq__(self, other):
        if not isinstance(other, ButcherTableau):
            return NotImplemented
        return self.order == other.order and all(
            np.array_equal(x, y) for x, y in ((self.a, other.a), (self.b, other.b), (self.c, other.c))
        )

    def __hash__(self):
        return hash((self.order, *(tuple(x.ravel().tolist()) for x in (self.a, self.b, self.c))))


@dataclass(frozen=True)
class MethodProfile:
    """Scalar summary of a method as used by the error and budget formulas.

    ``a_max`` and ``b_max`` are the largest coefficient magnitudes of the
    tableau; ``error_const`` is the constant in front of the local
    truncation error and is supplied by the user (there is no general rule
    for computing it).
    """

    order: int
    stages: int
    a_max: float
    b_max: float
    error_const: float

    def __post_init__(self):
        if self.order < 1 or self.stages < 1:
            raise ValueError("order and stages must be positive integers")
        if not 0.0 <= self.a_max < math.inf:  # NaN too
            raise ValueError(_bad_scalar("a_max", self.a_max, "non-negative"))
        if not 0.0 < self.b_max < math.inf:
            raise ValueError(_bad_scalar("b_max", self.b_max, "positive"))
        if not 0.0 < self.error_const < math.inf:
            raise ValueError(_bad_scalar("error_const", self.error_const, "positive"))


def _bad_scalar(name: str, value: float, sign: str) -> str:
    return f"{name} must be finite, got {value!r}" if not math.isfinite(value) else f"{name} must be {sign}"


def builtin_tableau(method_id: str) -> ButcherTableau:
    """Return one of the four built-in explicit methods.

    ``euler`` (order 1), ``heun2`` (order 2), ``kutta3`` (order 3) and
    ``rk4`` (the classical fourth-order method).
    """
    try:
        return BUILTIN_METHODS[method_id]
    except KeyError:
        raise ValueError(f"unknown method {method_id!r}; choose from {sorted(BUILTIN_METHODS)}") from None


def validate_tableau(tableau: ButcherTableau) -> tuple[str, ...]:
    """Check the consistency identities of an explicit tableau.

    Returns the violated identities, one message each; the tuple is empty
    iff the weights sum to one, every row sum of ``a`` matches its node,
    ``c[0] == 0`` and ``a`` is strictly lower triangular, all within
    ``CONSISTENCY_TOL``.  Violations are data, not faults.
    """
    violations = []
    b_sum = float(np.sum(tableau.b))
    if abs(b_sum - 1.0) > CONSISTENCY_TOL:
        violations.append(f"sum(b) != 1 (got {b_sum!r})")
    if tableau.stages and abs(tableau.c[0]) > CONSISTENCY_TOL:
        violations.append(f"c_1 != 0 (got {tableau.c[0]!r})")
    for i in range(1, tableau.stages):
        row_sum = float(np.sum(tableau.a[i, :i]))
        if abs(row_sum - tableau.c[i]) > CONSISTENCY_TOL:
            violations.append(f"row-sum != c_{i + 1} (got {row_sum!r}, expected {tableau.c[i]!r})")
    upper = np.triu(tableau.a)
    if np.any(np.abs(upper) > CONSISTENCY_TOL):
        bad = np.argwhere(np.abs(upper) > CONSISTENCY_TOL)[0]
        violations.append(f"a is not strictly lower triangular (a[{bad[0] + 1},{bad[1] + 1}] != 0)")
    return tuple(violations)


def profile(tableau: ButcherTableau, error_const: float) -> MethodProfile:
    """Extract the scalar profile (order, stages, coefficient maxima) of a valid tableau."""
    violations = validate_tableau(tableau)
    if violations:
        raise ValueError("tableau fails consistency checks: " + "; ".join(violations))
    a_max = float(np.max(np.abs(tableau.a))) if tableau.stages > 1 else 0.0
    b_max = float(np.max(np.abs(tableau.b)))
    return MethodProfile(order=tableau.order, stages=tableau.stages, a_max=a_max, b_max=b_max, error_const=error_const)


def min_stages(order: int) -> int:
    """Minimum stage count that admits the given order (1 <= order <= 10)."""
    if order not in _MIN_STAGES:
        raise ValueError(f"order must be in 1..10, got {order}")
    return _MIN_STAGES[order]


def read_tableau_file(path: str | Path) -> ButcherTableau:
    """Load a tableau from a plain-text file.

    Format: first line ``s p``; then ``s`` lines of rows of ``a`` (row i
    carries i-1 entries, so the first row is blank); then one line of
    ``b`` and one line of ``c``; entries whitespace separated.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty tableau file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: first line must be 's p'")
    s, p = int(head[0]), int(head[1])
    if len(lines) < 1 + s + 2:
        raise ValueError(f"{path}: expected {1 + s + 2} lines, got {len(lines)}")
    a = np.zeros((s, s))
    for i in range(s):
        entries = [float(x) for x in lines[1 + i].split()]
        if len(entries) != i:
            raise ValueError(f"{path}: row {i + 1} of a must have {i} entries, got {len(entries)}")
        a[i, :i] = entries
    b = np.array([float(x) for x in lines[1 + s].split()])
    c = np.array([float(x) for x in lines[2 + s].split()])
    if len(b) != s or len(c) != s:
        raise ValueError(f"{path}: b and c must each have {s} entries")
    return ButcherTableau(a=a, b=b, c=c, order=p, name=Path(path).stem)


def write_tableau_file(path: str | Path, tableau: ButcherTableau) -> None:
    """Write a tableau in the format accepted by :func:`read_tableau_file`."""
    lines = [f"{tableau.stages} {tableau.order}"]
    for i in range(tableau.stages):
        lines.append(" ".join(repr(float(x)) for x in tableau.a[i, :i]))
    lines.append(" ".join(repr(float(x)) for x in tableau.b))
    lines.append(" ".join(repr(float(x)) for x in tableau.c))
    Path(path).write_text("\n".join(lines) + "\n")


BUILTIN_METHODS: dict[str, ButcherTableau] = {
    "euler": ButcherTableau(a=np.zeros((1, 1)), b=[1.0], c=[0.0], order=1, name="euler"),
    "heun2": ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5], c=[0.0, 1.0], order=2, name="heun2"),
    "kutta3": ButcherTableau(
        a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        b=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        c=[0.0, 0.5, 1.0],
        order=3,
        name="kutta3",
    ),
    "rk4": ButcherTableau(
        a=[[0.0] * 4, [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        c=[0.0, 0.5, 0.5, 1.0],
        order=4,
        name="rk4",
    ),
}
