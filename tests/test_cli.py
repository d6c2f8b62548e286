import hashlib
import json
import math

import numpy as np
import pytest

from rkbudget import cli
from rkbudget.cli import DEFAULT_SEED, SEED_ENV_VAR, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- table ---------------------------------------------------------------------


def test_table_classical_anchor(capsys):
    code, out, _ = run_cli(capsys, "table", "--scenario", "classical")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 10
    row4 = next(r for r in rows if r["p"] == "4")
    assert float(row4["cost"]) == pytest.approx(1.01e4, rel=0.015)
    assert row4["N_r"] == ""
    assert row4["flag"] == ""


def test_table_option_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--scenario", "option_pricing", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    row2 = next(r for r in rows if r["p"] == 2)
    assert row2["N_circ"] == pytest.approx(1.62e28, rel=0.015)
    assert row2["flag"] == ""


def test_table_tuned_anchor(capsys):
    code, out, _ = run_cli(capsys, "table", "--scenario", "tuned", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    row1 = next(r for r in rows if r["p"] == 1)
    assert row1["N_circ"] == pytest.approx(1.12e37, rel=0.015)


def test_table_orders_subrange(capsys):
    code, out, _ = run_cli(capsys, "table", "--scenario", "classical", "--orders", "2:4")
    assert code == 0
    rows = parse_csv(out)
    assert [r["p"] for r in rows] == ["2", "3", "4"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--orders", "5:3"), "--orders: range '5:3' is empty"),
        (("table", "--orders", "1:10:0"), "--orders: bad integer range '1:10:0'"),
        (("table", "--orders", "1:2:3:4"), "--orders: bad integer range '1:2:3:4'"),
        (("table", "--orders", "x"), "--orders: bad integer range 'x'"),
        (("toy", "kappa", "--nv", "10:5"), "--nv: range '10:5' is empty"),
        (("toy", "kappa", "--nv", "10:20:0"), "--nv: bad integer range '10:20:0'"),
        (("toy", "norms", "--nv", "20:10:5"), "--nv: range '20:10:5' is empty"),
    ],
)
def test_bad_integer_ranges_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert out == ""


def test_table_unknown_scenario_exits_2(capsys):
    code, out, err = run_cli(capsys, "table", "--scenario", "nope")
    assert code == 2
    assert "unknown scenario" in err
    assert out == ""


def test_table_with_overrides_matches_tuned(capsys, tmp_path):
    path = tmp_path / "ov.txt"
    path.write_text("b_max=0.5\nL_fy=0.1\nT=4\nK=20\n")
    code, out_a, _ = run_cli(
        capsys, "table", "--scenario", "option_pricing", "--overrides", str(path)
    )
    assert code == 0
    code, out_b, _ = run_cli(capsys, "table", "--scenario", "tuned")
    assert code == 0
    assert out_a == out_b


def test_table_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--scenario", "classical", "--output", str(target))
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text())
    assert len(rows) == 10


# sha256 of stdout for the four README invocations, the JSON table of every
# scenario, the tuned CSV table and seeded toy studies: these artifacts must
# stay byte-identical
PINNED_DIGESTS = {
    ("table", "--scenario", "classical"): "0eaa5253e900fed361ba096bd704638bdb807da239ae4baf0de8eab45bd786f1",
    ("table", "--scenario", "option_pricing"): "51ad16bd16bbccfc1ecaa1038f6c7ef135effeee917e88d3790a81e7032963fe",
    ("sweep", "--target", "epsilon", "--mode", "cost"):
        "61a497677ee2a82dffd54f088f2c6546ebf7998bc6ee86b9143aff0d220cc518",
    ("sweep", "--scenario", "option_pricing", "--target", "Sigma", "--mode", "ncirc"):
        "826001333d08cef1565ef0191920aa21e606b494963a2f9ed213b6896263573a",
    ("table", "--scenario", "classical", "--format", "json"):
        "9674d2c3093128c7ba8cf1c0bd41ee675ed7286ace395259ecdc60cdfada6099",
    ("table", "--scenario", "option_pricing", "--format", "json"):
        "81c7ad61bf78308372176ab4d50001b1c4a4acbbd77c8ce530c381fda97851c2",
    ("table", "--scenario", "tuned", "--format", "json"):
        "d6d9edab6c31276af6823646a8276ded959a9efe8dc52423f0a7325bc1395f06",
    ("table", "--scenario", "tuned"): "5f55ec401d0aee3e9834cb0f0a478739e150e4785d1f5d157ff6077475a91ecc",
    ("toy", "lip", "--nv", "25", "--seed", "7"): "006aea15a664d7289a7e41a560804e81195e0c6c3e77ee3443762dde7ba242c0",
    ("toy", "lip", "--nv", "25", "--seed", "7", "--format", "json"):
        "5a8b2c4ec7dd27a172cc9ce7b65017210884f6bf257e2877236c54c6cf2bab84",
    ("toy", "kappa", "--nv", "10:100:10", "--samples", "100", "--seed", "42"):
        "87fac8a6f1779635789d42fe08a9b07841e37b9c9f7aab60424d53a7378754e3",
    ("toy", "norms", "--nv", "25", "--samples", "100", "--seed", "1"):
        "586d5e34bba1a63f3ea447172429fc9c460227244f6743c042924f885c15a916",
    ("validate", "--method", "rk4", "--delta", "0", "--format", "json"):
        "17b9cff75dcec38cd3322b5f65eafa56758da0d9e3753fd09eaae5a06c15c081",
    ("validate", "--method", "euler", "--mode", "clipped", "--delta", "1e-4", "--trials", "50", "--format", "json"):
        "53930726c4e7b4e27eb201ed2e98f0f8ec5cda11ed0748eb7064bd128c328fa1",
    ("validate", "--method", "rk4", "--mode", "gaussian", "--delta", "1e-3", "--trials", "50", "--format", "json"):
        "279e9d49178bf4be57d1aeb05f8edf0bbce2483e790e18df45e7aade49c25164",
    ("convergence", "--method", "rk4"): "ecf708b8c1ae5b6917b92888db0758d61b7460f8895323a04bbe7dedb8a9e08e",
    ("convergence", "--method", "kutta3", "--format", "json"):
        "f091513e1023d21b0210f4af952ae8b4de0a8b38004c5dbadde4f2e59c851668",
    ("sweep", "--target", "epsilon", "--mode", "cost", "--format", "json"):
        "d6971ac3ff87d3aae1bf2d797a5b093114d324b28be5d711df442b5913e05c34",
    ("sweep", "--scenario", "option_pricing", "--target", "Sigma", "--mode", "ncirc", "--format", "json"):
        "f0c145402998d4cf90e43924cd420dc18433018963dc866a4ce0d432d29ea742",
    ("toy", "kappa", "--nv", "10:30:10", "--samples", "30", "--seed", "42", "--format", "json"):
        "660c535c5fabce79c773808666f5190c5bb49463aab0c972856d6d8608a74509",
    ("toy", "norms", "--nv", "25", "--samples", "40", "--seed", "1", "--format", "json"):
        "d5b0342603dd6d32f7cba8f76525074bcce26ff85fb77c353e3f0440ff7181e1",
}


@pytest.mark.parametrize("argv", list(PINNED_DIGESTS), ids="_".join)
def test_pinned_artifacts_are_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


def run_with_overrides(capsys, tmp_path, text, *argv):
    path = tmp_path / "ov.txt"
    path.write_text(text)
    return run_cli(capsys, *argv, "--overrides", str(path))


# the same, for tables whose overrides make rows infeasible (T=2) or push
# cells past the float range (T=1000)
PINNED_OVERRIDE_DIGESTS = {
    ("T=2", "option_pricing", "csv"): "4298ddcb268b316c0ba7d93443ae8a13df70b99b42f902e7f6521b452666430e",
    ("T=2", "option_pricing", "json"): "cab3494f2906496130bcd4af8dd52cd596a2dabf2760ceace421fdfd9af9b38c",
    ("T=1000", "classical", "csv"): "18cdd8c8d0c5835406d3fe1897d390ac478032f643aaff4357f2f051cb0f4d2c",
    ("T=1000", "classical", "json"): "6f0d6f0c1b22b68835f5b6d0413959467d47cc77fe032433157388dd100ec6cf",
}


@pytest.mark.parametrize("key", list(PINNED_OVERRIDE_DIGESTS), ids="_".join)
def test_pinned_override_tables_are_byte_identical(capsys, tmp_path, key):
    text, name, fmt = key
    code, out, _ = run_with_overrides(capsys, tmp_path, text + "\n", "table", "--scenario", name, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OVERRIDE_DIGESTS[key]


@pytest.mark.parametrize(
    "horizon, flagged",
    [
        ("1e-3", list(range(2, 11))),  # closed-form step counts below 1
        ("100", list(range(1, 11))),  # step counts overflow to inf
        # the shot count overflows a float: in bracket**-2 at orders 9-10,
        # only in the final product 9 sigma^2 / L^2 * bracket**-2 at order 8
        ("2", [8, 9, 10]),
    ],
)
def test_table_flags_rows_without_a_shot_count(capsys, tmp_path, horizon, flagged):
    code, out, err = run_with_overrides(capsys, tmp_path, f"T={horizon}\n", "table", "--scenario", "option_pricing")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert [int(r["p"]) for r in rows if r["flag"] == "infeasible"] == flagged
    for r in rows:
        if r["flag"] == "infeasible":
            assert all(math.isnan(float(r[k])) for k in ("N_r", "cost", "N_circ", "ratio"))
        else:
            assert r["flag"] == ""
            assert all(math.isfinite(float(r[k])) for k in ("N_r", "cost", "N_circ"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_flags_rows_whose_cost_overflows(capsys, tmp_path, fmt):
    # T=1.3: order 10 has a finite shot count (~5.1e292), but its cost and
    # circuit budget lie beyond the float range
    code, out, err = run_with_overrides(
        capsys, tmp_path, "T=1.3\n", "table", "--scenario", "option_pricing", "--format", fmt
    )
    assert (code, err) == (0, "")
    rows = parse_csv(out) if fmt == "csv" else json.loads(out, parse_constant=reject_constant)
    assert [int(r["p"]) for r in rows if r["flag"] == "infeasible"] == [10]
    for r in rows:
        cells = [math.nan if r[k] is None else float(r[k]) for k in ("N_r", "cost", "N_circ", "ratio")]
        assert all(map(math.isnan, cells)) if r["flag"] else all(map(math.isfinite, cells))


def test_sweep_flags_points_without_a_shot_count(capsys, tmp_path):
    code, out, err = run_with_overrides(
        capsys, tmp_path, "T=1e-3\n", "sweep", "--scenario", "option_pricing", "--target", "p", "--mode", "ncirc"
    )
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert [r["feasible"] for r in rows] == ["true"] + ["false"] * 9
    assert all(math.isnan(float(r["value"])) for r in rows[1:])


def test_table_still_rejects_non_positive_sigma(capsys, tmp_path):
    code, out, err = run_with_overrides(capsys, tmp_path, "Sigma=0\n", "table", "--scenario", "option_pricing")
    assert code == 2
    assert "sigma must be positive" in err
    assert out == ""


def test_override_nan_constant_exits_2(capsys, tmp_path):
    code, out, err = run_with_overrides(capsys, tmp_path, "T=nan\n", "table")
    assert code == 2
    assert "horizon must be finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("Sigma=nan", "Sigma must be finite"),
        ("Sigma=inf", "Sigma must be finite"),
        ("S=-inf", "S must be finite"),
        ("eta=nan", "eta must be finite"),
        ("eta=7", "eta must lie in (0, 1)"),
        ("eta=0", "eta must lie in (0, 1)"),
        ("eta=1", "eta must lie in (0, 1)"),
        ("K=inf", "K must be finite"),
        ("a_max=nan", "a_max must be finite"),
        ("N_V=2.5", "N_V must be a whole number"),
        ("N_d=1.5", "N_d must be a whole number"),
        ("N=inf", "N must be a whole number"),
    ],
)
def test_override_rejects_bad_values_exits_2(capsys, tmp_path, text, message):
    code, out, err = run_with_overrides(
        capsys, tmp_path, text + "\n", "table", "--scenario", "option_pricing", "--format", "json"
    )
    assert code == 2
    assert message in err
    assert out == ""


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize(
    "argv", [("table",), ("sweep", "--target", "p")], ids=["table", "sweep"]
)
def test_json_is_strict_with_non_finite_cells(capsys, tmp_path, argv):
    # T=1000 drives the classical step counts and costs past the float range
    code, out, _ = run_with_overrides(capsys, tmp_path, "T=1000\n", *argv, "--scenario", "classical", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=reject_constant)
    cells = payload if argv[0] == "table" else payload["p"]
    assert any(v is None for cell in cells for v in cell.values())


# -- sweep ---------------------------------------------------------------------


def test_sweep_epsilon_monotone(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--target", "epsilon", "--mode", "cost", "--points", "9")
    assert code == 0
    rows = parse_csv(out)
    values = [float(r["value"]) for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sweep_sigma_quadratic(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "option_pricing", "--target", "Sigma", "--mode", "ncirc", "--points", "9"
    )
    assert code == 0
    rows = parse_csv(out)
    anchor = next(float(r["value"]) for r in rows if float(r["factor"]) == 1.0)
    for r in rows:
        assert float(r["value"]) == pytest.approx(anchor * float(r["factor"]) ** 2, rel=1e-9)


def test_sweep_unit_factor_agreement(capsys):
    values = []
    for target in ("T", "K", "M", "epsilon"):
        code, out, _ = run_cli(capsys, "sweep", "--target", target, "--points", "5")
        assert code == 0
        rows = parse_csv(out)
        values.append(next(float(r["value"]) for r in rows if float(r["factor"]) == 1.0))
    assert all(v == pytest.approx(values[0], rel=1e-12) for v in values)


def test_sweep_sigma_in_cost_mode_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "--target", "Sigma", "--mode", "cost")
    assert code == 2
    assert "Sigma" in err


# -- toy -----------------------------------------------------------------------


def test_toy_kappa_medians(capsys):
    code, out, _ = run_cli(
        capsys, "toy", "kappa", "--nv", "10:20:10", "--samples", "30", "--seed", "42"
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["N_V"] for r in rows] == ["10", "20"]
    for r in rows:
        nv = int(r["N_V"])
        assert nv <= float(r["median"]) <= nv**3


def test_toy_kappa_byte_identical_reruns(capsys):
    args = ("toy", "kappa", "--nv", "10", "--samples", "30", "--seed", "42")
    code, out_a, _ = run_cli(capsys, *args)
    code, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_toy_seed_changes_output(capsys):
    _, out_a, _ = run_cli(capsys, "toy", "kappa", "--nv", "10", "--samples", "30", "--seed", "1")
    _, out_b, _ = run_cli(capsys, "toy", "kappa", "--nv", "10", "--samples", "30", "--seed", "2")
    assert out_a != out_b


def test_toy_seed_env_override(capsys, monkeypatch):
    _, out_default, _ = run_cli(capsys, "toy", "kappa", "--nv", "10", "--samples", "30", "--seed", "77")
    monkeypatch.setenv("RKBUDGET_SEED", "77")
    _, out_env, _ = run_cli(capsys, "toy", "kappa", "--nv", "10", "--samples", "30")
    assert out_default == out_env


def test_toy_norms_c_median(capsys):
    code, out, _ = run_cli(capsys, "toy", "norms", "--nv", "25", "--samples", "40", "--seed", "3")
    assert code == 0
    rows = parse_csv(out)
    c_rows = [r for r in rows if r["study"] == "norm_C"]
    assert len(c_rows) == 1
    assert 2.5 <= float(c_rows[0]["median"]) <= 10.0


def test_toy_lip_symmetric_surface(capsys):
    code, out, _ = run_cli(capsys, "toy", "lip", "--nv", "6", "--points", "12", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theta1/theta2,")
    matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert matrix.shape == (12, 12)
    off = ~np.eye(12, dtype=bool)
    np.testing.assert_allclose(matrix[off], matrix.T[off], rtol=1e-9)
    assert np.all(np.isnan(np.diag(matrix)))


def test_toy_lip_requires_single_nv(capsys):
    code, _, err = run_cli(capsys, "toy", "lip", "--nv", "5:10:5")
    assert code == 2
    assert "single" in err


@pytest.mark.parametrize(
    "args, message",
    [
        ("lip --lo nan", "--lo and --hi must be finite"),
        ("lip --hi inf", "--lo and --hi must be finite"),
        ("lip --lo=-inf", "--lo and --hi must be finite"),
        ("lip --lo 5 --hi 5", "--lo must be below --hi"),
        ("lip --lo 6 --hi 5", "--lo must be below --hi"),
        ("lip --points 0", "--points must be at least 2"),
        ("lip --points 1", "--points must be at least 2"),
        ("lip --theta nan", "--theta must be finite"),
        ("kappa --theta inf", "--theta must be finite"),
        ("norms --theta=-inf", "--theta must be finite"),
    ],
)
def test_toy_rejects_bad_inputs_exits_2(capsys, args, message):
    study, *rest = args.split()
    code, out, err = run_cli(capsys, "toy", study, "--nv", "4", "--samples", "30", *rest)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("study", ["kappa", "norms"])
@pytest.mark.parametrize("samples", ["5", "-3", "29"])
def test_toy_too_few_samples_exits_2_naming_the_option(capsys, study, samples):
    code, out, err = run_cli(capsys, "toy", study, "--nv", "10", "--samples", samples)
    assert code == 2
    assert err == f"error: --samples: need at least 30 samples per grid point, got {samples}\n"
    assert out == ""


def test_toy_lip_two_points_is_the_smallest_grid(capsys):
    code, out, _ = run_cli(capsys, "toy", "lip", "--nv", "3", "--points", "2", "--lo", "1", "--hi", "2", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert math.isfinite(float(lines[1].split(",")[2]))


# -- validate --------------------------------------------------------------------


def test_validate_noiseless_rk4(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--method", "rk4", "--delta", "0", "--ntau", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0


def test_validate_clipped_euler(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--method",
        "euler",
        "--mode",
        "clipped",
        "--delta",
        "1e-4",
        "--trials",
        "50",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 50
    assert payload["violations"] == 0


def test_validate_gaussian_calibration(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--method",
        "rk4",
        "--mode",
        "gaussian",
        "--delta",
        "1e-3",
        "--eta",
        "0.05",
        "--trials",
        "50",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exceedance_rate"] <= 0.05 + 3 * (0.05 * 0.95 / payload["evaluations"]) ** 0.5


def test_validate_csv_writes_floats_in_full_precision(capsys):
    argv = ("validate", "--method", "euler", "--delta", "0", "--ntau", "10")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    as_map = {r["key"]: r["value"] for r in parse_csv(out)}
    _, text, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(text)
    assert set(as_map) == set(payload) - {"config", "seeds_sample"}
    assert (as_map["evaluations"], as_map["trials"], as_map["violations"]) == ("10", "1", "0")
    assert as_map["exceedance_rate"] == "0.0000000000000000e+00"
    for key in ("violation_rate", "exceedance_rate", "worst_margin"):
        assert as_map[key] == "%.16e" % payload[key]
        assert float(as_map[key]) == payload[key]


# sha256 of validate CSV stdout: the noiseless, clipped and gaussian reports
# with %.16e float cells
VALIDATE_CSV_DIGESTS = {
    ("--method", "rk4", "--delta", "0"): "96077aee5d0ecb4c0402ab229f891bb97ea18710086f3b08dee4e4c85995b071",
    ("--method", "euler", "--mode", "clipped", "--delta", "1e-4", "--trials", "50"):
        "85b07712910e4c7f75cc90286053b744a620ce1871cd7a74106ca149df1d1ed6",
    ("--method", "rk4", "--mode", "gaussian", "--delta", "1e-3", "--trials", "50"):
        "db1f0e19933e339e754ec6073e27ecc6c2276fef68258faad064ef4bc396b4b9",
}


@pytest.mark.parametrize("argv", list(VALIDATE_CSV_DIGESTS), ids="_".join)
def test_validate_csv_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, "validate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_CSV_DIGESTS[argv]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("validate", "--method", "euler", "--delta", "nan"), "delta must be finite and non-negative, got nan"),
        (("validate", "--method", "euler", "--delta", "inf"), "delta must be finite and non-negative, got inf"),
        (("convergence", "--method", "euler", "--horizon", "nan"), "horizon must be finite and positive, got nan"),
        (("convergence", "--method", "euler", "--horizon", "inf"), "horizon must be finite and positive, got inf"),
    ],
    ids=["validate-delta-nan", "validate-delta-inf", "convergence-horizon-nan", "convergence-horizon-inf"],
)
def test_non_finite_inputs_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_validate_csv_output(capsys):
    code, out, _ = run_cli(capsys, "validate", "--method", "euler", "--delta", "0", "--ntau", "10")
    assert code == 0
    rows = parse_csv(out)
    assert {"key", "value"} == set(rows[0])
    as_map = {r["key"]: r["value"] for r in rows}
    assert as_map["violations"] == "0"


# -- convergence -----------------------------------------------------------------


@pytest.mark.parametrize("method,order", [("euler", 1.0), ("heun2", 2.0), ("rk4", 4.0)])
def test_convergence_slopes(capsys, method, order):
    code, out, _ = run_cli(capsys, "convergence", "--method", method, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["slope"] - order) <= 0.15


def test_convergence_csv(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--method", "kutta3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,slope"
    name, slope = lines[1].split(",")
    assert name == "kutta3"
    assert abs(float(slope) - 3.0) <= 0.15


def test_convergence_needs_enough_steps(capsys):
    code, _, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", "8,16")
    assert code == 2
    assert "4 step counts" in err


def test_convergence_rejects_repeated_steps(capsys):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", "64,64,64,64")
    assert code == 2
    assert err == "error: --steps: need at least 4 step counts, all distinct, got '64,64,64,64'\n"
    assert out == ""


@pytest.mark.parametrize("steps", ["8,a,16,32", "8,16,32,", "8,16.0,32,64"])
def test_convergence_non_integer_steps_exit_2_naming_the_option(capsys, steps):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", steps)
    assert code == 2
    assert err == f"error: --steps: expected comma-separated integers, got {steps!r}\n"
    assert out == ""


@pytest.mark.parametrize("steps", ["0,8,16,32", "8,16,32,-64"])
def test_convergence_non_positive_steps_exit_2_naming_the_option(capsys, steps):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", steps)
    assert code == 2
    assert err == f"error: --steps: step counts must be at least 1, got {steps!r}\n"
    assert out == ""


# -- argparse-level failures -------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "--bogus"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# -- one parser per process ------------------------------------------------------


def test_options_do_not_leak_between_calls(capsys):
    code, out, _ = run_cli(capsys, "table", "--orders", "3")
    assert code == 0
    assert [r["p"] for r in parse_csv(out)] == ["3"]
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert [r["p"] for r in parse_csv(out)] == [str(p) for p in range(1, 11)]


@pytest.mark.parametrize("env_seed", [None, "77"], ids=["default", "env"])
def test_seed_does_not_leak_between_calls(capsys, monkeypatch, env_seed):
    argv = ("validate", "--method", "euler", "--delta", "1e-4", "--trials", "5", "--ntau", "10", "--format", "json")
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, seeded, _ = run_cli(capsys, *argv, "--seed", "5")
    assert json.loads(seeded)["config"]["seed"] == 5
    # the environment is read per call, not when the parser was built
    expected_seed = DEFAULT_SEED
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        expected_seed = int(env_seed)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == expected_seed
    _, explicit, _ = run_cli(capsys, *argv, "--seed", str(expected_seed))
    assert out == explicit


@pytest.mark.parametrize(
    "bad_argv",
    [("table", "--scenario", "tuned", "--bogus"), ("sweep", "--target", "nope"), ("table", "--orders")],
    ids=["unknown-flag", "bad-choice", "missing-value"],
)
def test_usage_error_between_calls_leaves_later_output_unchanged(capsys, bad_argv):
    argv = ("table", "--scenario", "classical")
    cli._parser.cache_clear()
    _, fresh, _ = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(list(bad_argv))
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == fresh
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    calls = []
    build_parser = cli.build_parser

    def counting_build_parser():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert run_cli(capsys, "table", "--orders", "2")[0] == 0
    assert run_cli(capsys, "convergence", "--method", "euler", "--format", "json")[0] == 0
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
