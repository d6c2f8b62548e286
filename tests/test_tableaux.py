import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkbudget.tableaux import (
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


def test_euler_definition():
    t = builtin_tableau("euler")
    assert t.stages == 1
    assert t.order == 1
    assert np.array_equal(t.b, [1.0])
    assert np.array_equal(t.c, [0.0])
    assert np.all(t.a == 0.0)
    assert validate_tableau(t) == ()


def test_rk4_weights_sum_to_one():
    t = builtin_tableau("rk4")
    np.testing.assert_allclose(t.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert abs(t.b.sum() - 1.0) < 1e-12


def test_heun2_definition():
    t = builtin_tableau("heun2")
    assert np.array_equal(t.c, [0.0, 1.0])
    assert t.a[1, 0] == 1.0
    assert np.array_equal(t.b, [0.5, 0.5])
    assert validate_tableau(t) == ()


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_builtin_consistency_identities(name):
    t = builtin_tableau(name)
    assert validate_tableau(t) == ()
    assert abs(t.b.sum() - 1.0) <= 1e-12
    for i in range(1, t.stages):
        assert abs(t.a[i, :i].sum() - t.c[i]) <= 1e-12
    # order equals stages for the built-in range
    assert t.stages == t.order


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        builtin_tableau("rk5")


def test_validate_flags_bad_weight_sum():
    t = ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.4], c=[0.0, 1.0], order=2)
    violations = validate_tableau(t)
    assert len(violations) == 1
    assert "sum(b) != 1" in violations[0]


def test_validate_flags_bad_row_sum():
    rk4 = builtin_tableau("rk4")
    a = np.array(rk4.a)
    a[2, 1] += 0.1
    t = ButcherTableau(a=a, b=rk4.b, c=rk4.c, order=4)
    assert any("row-sum != c_3" in v for v in validate_tableau(t))


def test_validate_flags_upper_triangle():
    t = ButcherTableau(a=[[0.0, 0.5], [0.5, 0.0]], b=[0.5, 0.5], c=[0.0, 0.5], order=2)
    assert any("strictly lower triangular" in v for v in validate_tableau(t))


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


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_tableau_file_roundtrip(tmp_path, name):
    t = builtin_tableau(name)
    path = tmp_path / f"{name}.tab"
    write_tableau_file(path, t)
    loaded = read_tableau_file(path)
    assert loaded.order == t.order
    assert loaded.stages == t.stages
    np.testing.assert_array_equal(loaded.a, t.a)
    np.testing.assert_array_equal(loaded.b, t.b)
    np.testing.assert_array_equal(loaded.c, t.c)
    assert validate_tableau(loaded) == ()


@st.composite
def any_tableau(draw):
    s = draw(st.integers(1, 8))
    entries = st.floats(allow_nan=False, allow_subnormal=True)
    a = np.tril(draw(arrays(np.float64, (s, s), elements=entries)), k=-1)
    b = draw(arrays(np.float64, s, elements=entries))
    c = draw(arrays(np.float64, s, elements=entries))
    return ButcherTableau(a=a, b=b, c=c, order=draw(st.integers(1, 10)))


@given(any_tableau())
def test_tableau_file_roundtrip_any_values(tableau):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tab"
        write_tableau_file(path, tableau)
        loaded = read_tableau_file(path)
    assert loaded == tableau
    for x, y in ((loaded.a, tableau.a), (loaded.b, tableau.b), (loaded.c, tableau.c)):
        assert [v.hex() for v in x.ravel().tolist()] == [v.hex() for v in y.ravel().tolist()]  # signs of zeros too


def test_tableau_file_manual_text(tmp_path):
    path = tmp_path / "heun.tab"
    path.write_text("2 2\n\n1.0\n0.5 0.5\n0.0 1.0\n")
    t = read_tableau_file(path)
    assert t.stages == 2
    assert t.order == 2
    assert t.a[1, 0] == 1.0
    assert validate_tableau(t) == ()


def test_tableau_file_bad_row_width(tmp_path):
    path = tmp_path / "bad.tab"
    path.write_text("2 2\n0.5\n1.0\n0.5 0.5\n0.0 1.0\n")
    with pytest.raises(ValueError, match="row 1"):
        read_tableau_file(path)


def test_tableaus_are_immutable():
    t = builtin_tableau("rk4")
    with pytest.raises(ValueError):
        t.b[0] = 2.0


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_tableau_equality_is_by_value(name):
    t = builtin_tableau(name)
    copy = ButcherTableau(a=t.a.copy(), b=t.b.copy(), c=t.c.copy(), order=t.order, name="copy")
    assert copy == t and not copy != t  # the name is not compared
    assert hash(copy) == hash(t)
    for other in sorted(BUILTIN_METHODS):
        if other != name:
            assert t != builtin_tableau(other)
    assert t != ButcherTableau(a=t.a, b=t.b, c=t.c, order=t.order + 1)
    assert t != name


@given(any_tableau())
def test_stage_rows_are_read_only_views_of_a_and_float_nodes(tableau):
    assert len(tableau.stage_rows) == tableau.stages
    for i, (a_row, c_i) in enumerate(tableau.stage_rows):
        assert a_row.base is tableau.a
        assert not a_row.flags.writeable
        assert a_row.tobytes() == tableau.a[i, :i].tobytes()
        assert type(c_i) is float and c_i.hex() == float(tableau.c[i]).hex()


def test_stage_rows_leave_repr_eq_and_hash_alone():
    t = builtin_tableau("rk4")
    assert "stage_rows" not in repr(t)
    assert repr(t).startswith("ButcherTableau(a=array(")
    rebuilt = ButcherTableau(a=t.a, b=t.b, c=t.c, order=t.order, name=t.name)
    assert rebuilt == t and hash(rebuilt) == hash(t) and repr(rebuilt) == repr(t)


def test_tableau_hash_agrees_with_signed_zero():
    euler = builtin_tableau("euler")
    signed = ButcherTableau(a=[[-0.0]], b=[1.0], c=[-0.0], order=1)
    assert signed == euler
    assert hash(signed) == hash(euler)
    assert len({euler, signed, builtin_tableau("rk4"), builtin_tableau("heun2")}) == 3
