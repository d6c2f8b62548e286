import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkbudget.integrator import _Stages
from rkbudget.tableaux import (
    BUILTIN_METHODS,
    ButcherTableau,
    MethodProfile,
    builtin_tableau,
    min_stages,
    profile,
)


def test_euler_definition():
    t = builtin_tableau("euler")
    assert t.stages == 1
    assert t.order == 1
    assert np.array_equal(t.b, [1.0])
    assert np.array_equal(t.c, [0.0])
    assert np.all(t.a == 0.0)
    profile(t, error_const=1.0)  # consistent


def test_rk4_weights_sum_to_one():
    t = builtin_tableau("rk4")
    np.testing.assert_allclose(t.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert abs(t.b.sum() - 1.0) < 1e-12


def test_heun2_definition():
    t = builtin_tableau("heun2")
    assert np.array_equal(t.c, [0.0, 1.0])
    assert t.a[1, 0] == 1.0
    assert np.array_equal(t.b, [0.5, 0.5])
    profile(t, error_const=1.0)  # consistent


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_builtin_consistency_identities(name):
    t = builtin_tableau(name)
    profile(t, error_const=1.0)  # consistent
    assert abs(t.b.sum() - 1.0) <= 1e-12
    for i in range(1, t.stages):
        assert abs(t.a[i, :i].sum() - t.c[i]) <= 1e-12
    # order equals stages for the built-in range
    assert t.stages == t.order


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        builtin_tableau("rk5")


def violations(tableau) -> list[str]:
    """The violated identities that ``profile`` lists in its ValueError."""
    with pytest.raises(ValueError) as info:
        profile(tableau, error_const=1.0)
    prefix = "tableau fails consistency checks: "
    assert str(info.value).startswith(prefix)
    return str(info.value).removeprefix(prefix).split("; ")


def test_validate_flags_bad_weight_sum():
    t = ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.4], c=[0.0, 1.0], order=2)
    assert violations(t) == ["sum(b) != 1 (got 0.9)"]


def test_validate_flags_bad_row_sum():
    rk4 = builtin_tableau("rk4")
    a = np.array(rk4.a)
    a[2, 1] += 0.1
    t = ButcherTableau(a=a, b=rk4.b, c=rk4.c, order=4)
    assert violations(t) == ["row-sum != c_3 (got 0.6, expected 0.5)"]


def test_validate_flags_upper_triangle():
    t = ButcherTableau(a=[[0.0, 0.5], [0.5, 0.0]], b=[0.5, 0.5], c=[0.0, 0.5], order=2)
    assert violations(t) == ["a is not strictly lower triangular (a[1,2] != 0)"]


def test_profile_rk4():
    prof = profile(builtin_tableau("rk4"), error_const=5.0)
    assert prof.a_max == 1.0
    assert prof.b_max == pytest.approx(1 / 3)
    assert prof.stages == 4
    assert prof.order == 4
    assert prof.error_const == 5.0


def test_profile_euler_and_heun():
    prof = profile(builtin_tableau("euler"), error_const=5.0)
    assert prof.a_max == 0.0
    assert prof.b_max == 1.0
    prof = profile(builtin_tableau("heun2"), error_const=1.0)
    assert prof.a_max == 1.0
    assert prof.b_max == 0.5


def test_profile_rejects_bad_error_const():
    with pytest.raises(ValueError):
        profile(builtin_tableau("rk4"), error_const=0.0)
    with pytest.raises(ValueError):
        profile(builtin_tableau("rk4"), error_const=-1.0)
    with pytest.raises(ValueError, match="^error_const must be finite, got nan$"):
        profile(builtin_tableau("rk4"), error_const=math.nan)


PROFILE = dict(order=2, stages=2, a_max=1.0, b_max=0.5, error_const=1.0)


@pytest.mark.parametrize(
    "name, value, message",
    [(name, value, f"{name} must be finite, got {value!r}")
     for name in ("a_max", "b_max", "error_const") for value in (math.nan, math.inf, -math.inf)]
    + [("a_max", -1.0, "a_max must be non-negative"), ("b_max", 0.0, "b_max must be positive"),
       ("error_const", -1e-300, "error_const must be positive")],
)
def test_method_profile_rejects_bad_scalars(name, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MethodProfile(**{**PROFILE, name: value})


def test_profile_rejects_inconsistent_tableau():
    t = ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.4], c=[0.0, 1.0], order=2)
    with pytest.raises(ValueError, match="consistency"):
        profile(t, error_const=1.0)


HEUN_A = [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "a, b, c, violation",
    [
        (HEUN_A, [0.5, 0.5], [0.0, math.nan], "row-sum != c_2 (got 1.0, expected nan)"),
        (HEUN_A, [0.5, 0.5], [math.nan, 1.0], "c_1 != 0 (got nan)"),
        (HEUN_A, [math.inf, -math.inf], [0.0, 1.0], "sum(b) != 1 (got nan)"),
        (HEUN_A, [0.5, 0.5], [0.1, 1.0], "c_1 != 0 (got 0.1)"),
        (HEUN_A, [0.5, 0.5], [0.0, 0.9], "row-sum != c_2 (got 1.0, expected 0.9)"),
        ([[0.0, math.nan], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0], "a is not strictly lower triangular (a[1,2] != 0)"),
        ([[math.inf, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0], "a is not strictly lower triangular (a[1,1] != 0)"),
    ],
)
def test_consistency_check_sees_nan_and_prints_plain_floats(a, b, c, violation):
    t = ButcherTableau(a=a, b=b, c=c, order=2)
    with pytest.raises(ValueError, match=f"^tableau fails consistency checks: {re.escape(violation)}$"):
        profile(t, error_const=1.0)


@pytest.mark.parametrize("p,s", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 7), (7, 9), (8, 11), (9, 13), (10, 16)])
def test_min_stages_table(p, s):
    assert min_stages(p) == s


@pytest.mark.parametrize("p", [0, 11, -3])
def test_min_stages_range(p):
    with pytest.raises(ValueError):
        min_stages(p)


def test_min_stages_non_decreasing():
    values = [min_stages(p) for p in range(1, 11)]
    assert values == sorted(values)


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_b_max_at_least_mean(name):
    # weights sum to one, so the largest magnitude is at least 1/s
    prof = profile(builtin_tableau(name), error_const=1.0)
    assert prof.b_max >= 1.0 / prof.stages


@st.composite
def any_tableau(draw):
    s = draw(st.integers(1, 8))
    entries = st.floats(allow_nan=False, allow_subnormal=True)
    a = np.tril(draw(arrays(np.float64, (s, s), elements=entries)), k=-1)
    b = draw(arrays(np.float64, s, elements=entries))
    c = draw(arrays(np.float64, s, elements=entries))
    return ButcherTableau(a=a, b=b, c=c, order=draw(st.integers(1, 10)))


def test_tableaus_are_immutable():
    t = builtin_tableau("rk4")
    with pytest.raises(ValueError):
        t.b[0] = 2.0


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_tableau_equality_is_by_identity(name):
    # no caller compares tableaux by value; each one is hashable, as itself
    t = builtin_tableau(name)
    copy = ButcherTableau(a=t.a, b=t.b, c=t.c, order=t.order, name=t.name)
    assert t == t and copy != t
    assert {t: name, copy: "copy"}[t] == name


@given(any_tableau())
def test_stage_rows_are_read_only_views_of_a_and_float_nodes(tableau):
    # an integration binds the rows once; at dt 1 each c_i * dt is the node itself
    rows = _Stages(tableau, (1,), 1.0).rows
    assert len(rows) == tableau.stages
    for i, (index, a_row, c_dt, _, _) in enumerate(rows):
        assert index == i
        assert a_row.base is tableau.a
        assert not a_row.flags.writeable
        assert a_row.tobytes() == tableau.a[i, :i].tobytes()
        assert type(c_dt) is float and c_dt.hex() == float(tableau.c[i]).hex()


def test_stage_rows_leave_repr_alone():
    t = builtin_tableau("rk4")
    assert not any(name in repr(t) for name in ("_violations", "_a_max", "_b_max"))
    assert repr(t).startswith("ButcherTableau(a=array(")
    rebuilt = ButcherTableau(a=t.a, b=t.b, c=t.c, order=t.order, name=t.name)
    assert repr(rebuilt) == repr(t)
