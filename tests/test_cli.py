import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rkbudget import cli, toymodel
from rkbudget.cli import DEFAULT_SEED, SEED_ENV_VAR, main
from rkbudget.scenarios import SCENARIO_NAMES
from rkbudget.sensitivity import SWEEP_MODES, SWEEP_TARGETS
from rkbudget.tableaux import BUILTIN_METHODS


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


# Test ids that name a case by a message keep that message's earlier
# wording, from before the options were checked by argparse types, so that
# each case keeps its name.
@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--orders", "5:3"), "argument --orders: range '5:3' is empty\n"),
        (("table", "--orders", "1:10:0"), "argument --orders: bad integer range '1:10:0', expected n, lo:hi or"),
        (("table", "--orders", "1:2:3:4"), "argument --orders: bad integer range '1:2:3:4', expected n, lo:hi or"),
        (("table", "--orders", "x"), "argument --orders: bad integer range 'x', expected n, lo:hi or"),
        (("toy", "kappa", "--nv", "10:5"), "argument --nv: range '10:5' is empty\n"),
        (("toy", "kappa", "--nv", "10:20:0"), "argument --nv: bad integer range '10:20:0', expected n, lo:hi or"),
        (("toy", "norms", "--nv", "20:10:5"), "argument --nv: range '20:10:5' is empty\n"),
        (("sweep", "--target", "K", "--order", "0"), "argument --order: order must be in 1..10, got 0\n"),
        (("sweep", "--target", "K", "--order", "11"), "argument --order: order must be in 1..10, got 11\n"),
        # past the cap, so that no grid of this size is built
        (("sweep", "--target", "K", "--points", "1003"), "argument --points: points must lie in 3..1001, got 1003\n"),
    ],
    ids=["argv0---orders: range '5:3' is empty", "argv1---orders: bad integer range '1:10:0'",
         "argv2---orders: bad integer range '1:2:3:4'", "argv3---orders: bad integer range 'x'",
         "argv4---nv: range '10:5' is empty", "argv5---nv: bad integer range '10:20:0'",
         "argv6---nv: range '20:10:5' is empty", "argv7---order must lie within 1..10, got 0\n",
         "argv8---order must lie within 1..10, got 11\n", "argv9---points must be at most 1001, got 1003\n"],
)
def test_bad_integer_ranges_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert out == ""


def run_with_one_gib_of_address_space(argv) -> subprocess.CompletedProcess:
    """Run the CLI in a child that cannot map more than 1 GiB, so a request
    that builds its values fails there instead of filling the machine."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "rkbudget.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=limit)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--orders", "1:10000000000"), "argument --orders: order must be in 1..10, got 10000000000\n"),
        (("toy", "kappa", "--nv", "1:10000000000"), "--nv 10000000000 would build an array of up to 4e+21 bytes,"),
        (("toy", "norms", "--nv", "0:10000000000"), "argument --nv: n_params must be at least 1, got 0\n"),
    ],
    ids=["argv0-orders must lie within 1..10\n", "argv1---nv 10000000000 would build an array of up to 4e+21 bytes,",
         "argv2---nv: dimensions must be positive, got '0:10000000000'\n"],
)
def test_ranges_of_ten_billion_values_exit_2_without_building_them(argv, message):
    # a list of these values would need ~400 GB
    result = run_with_one_gib_of_address_space(argv)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr.startswith(f"error: {message}")


def test_parsing_a_million_value_range_allocates_no_list():
    tracemalloc.start()
    try:
        values = cli._parse_range("1:1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (len(values), values[0], values[-1]) == (1000000, 1, 1000000)


@pytest.mark.parametrize("text, values", [("4", [4]), ("2:4", [2, 3, 4]), ("1:10:4", [1, 5, 9])])
def test_parsed_ranges_hold_the_values_they_name(text, values):
    assert list(cli._parse_range(text)) == values


# the example once gave [5, 4, 3]: a negative step stopped at hi + 1
@given(lo=st.integers(-20, 20), count=st.integers(0, 10), step=st.integers(-5, 5).filter(bool))
@example(lo=5, count=4, step=-1)
def test_a_range_whose_step_divides_its_span_holds_both_ends(lo, count, step):
    hi = lo + count * step
    values = cli._parse_range(f"{lo}:{hi}:{step}")
    assert (values[0], values[-1], len(values)) == (lo, hi, count + 1)


def test_a_descending_order_range_tables_every_order_it_names(capsys):
    # once only order 3
    assert run_cli(capsys, "table", "--orders", "3:1:-1") == run_cli(capsys, "table", "--orders", "1:3")


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
    # 1000-step noiseless dominance and default convergence runs of the
    # methods the pins above leave out; recorded before the stage rows moved
    # into the tableau, to hold the stepping loop's bytes
    ("validate", "--method", "euler", "--delta", "0", "--ntau", "1000", "--format", "json"):
        "c7a0335408e2ff37d35dc30d310db5a9c227dc8699eec49639e2c95e02e924ab",
    ("validate", "--method", "heun2", "--delta", "0", "--ntau", "1000", "--format", "json"):
        "14a1fe9824620817b64eb866752c6cec19b7ca1f10667819dcf1e5250df3b123",
    ("validate", "--method", "kutta3", "--delta", "0", "--ntau", "1000", "--format", "json"):
        "ccc5a743f1511cf54d667f2c4930d8aff51915654e199ed41f09f5733124e15d",
    ("convergence", "--method", "euler", "--format", "json"):
        "a3447ba3fbdf56705a241248ae92f9599d8b77aa29c10d1172e0a691ff72ba02",
    ("convergence", "--method", "heun2", "--format", "json"):
        "9b62538b2dfd8aa50abd0fbf412a8b816126c72d4151038039e8b14423a5e370",
    # seeds of several 32-bit words, recorded with one default_rng per stream,
    # before the streams were built in one vectorised pass
    ("validate", "--method", "euler", "--mode", "clipped", "--delta", "1e-4", "--trials", "50", "--seed", "4294967297",
     "--format", "json"): "b524cd685538e371b65fce464eae8bc81c8eeee248b57e769f3b3b74a927b65a",
    ("validate", "--method", "rk4", "--mode", "gaussian", "--delta", "1e-3", "--trials", "50", "--seed", "4294967297",
     "--format", "json"): "2581a74decdfaf21ca27cbaf76a5e9484cb76bc965237d3c12c00ab280c09e1f",
    ("toy", "kappa", "--nv", "10:50:10", "--samples", "30", "--seed", "18446744073709551619"):
        "dd4d7f22950505e0cc2a4f992bdf113458eb2b2c739616c839f488cebe761945",
    # default 1000-trial, 100-step clipped campaigns: two- and three-stage
    # sums over a (1000, 1) batch, recorded while the stage sums went through
    # the matmul operator
    ("validate", "--method", "heun2", "--mode", "clipped", "--delta", "1e-4", "--format", "json"):
        "4c23b9211f979978c800a0b9271add4a69859da73286b7fbdd2e86bc9d3004b5",
    ("validate", "--method", "kutta3", "--mode", "clipped", "--delta", "1e-4", "--format", "json"):
        "3b2861e457fba3b1fe287cce4f6b2776176b8a216061e82f29e6ec033f44bcdc",
    # 200-trial campaigns whose field evaluations read strided columns of the
    # stream-major noise block; the first clips 12614 of its 80000 draws
    ("validate", "--method", "rk4", "--mode", "clipped", "--delta", "1e-2", "--eta", "0.5", "--trials", "200",
     "--seed", "11", "--format", "json"): "51c6b1b6d9adbd300299321b9759d6bd9fe7a221eaa028815539eeb6e5327596",
    ("validate", "--method", "kutta3", "--mode", "gaussian", "--delta", "1e-3", "--trials", "200", "--seed", "11",
     "--format", "json"): "357f63c392b9df35b488d3b8d64d4e3ff921cc1e0a227b38fe2a1b0370810b27",
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


# the same, for tables whose overrides make rows infeasible: noisy shot
# counts that overflow (T=2), and noiseless step counts past the float range
# at orders 2-10 (T=1000)
PINNED_OVERRIDE_DIGESTS = {
    ("T=2", "option_pricing", "csv"): "4298ddcb268b316c0ba7d93443ae8a13df70b99b42f902e7f6521b452666430e",
    ("T=2", "option_pricing", "json"): "cab3494f2906496130bcd4af8dd52cd596a2dabf2760ceace421fdfd9af9b38c",
    ("T=1000", "classical", "csv"): "105ac6da03d659c2f5b16e5802bf950451169ffdc71e5f11681caacefc500e99",
    ("T=1000", "classical", "json"): "6b8c0ee5d74fbcc1acc765c8a95c2de8fa1a2ab7530c7ad35ede13755b985da1",
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


def test_table_whose_step_count_underflows_to_zero_flags_the_row(capsys, tmp_path):
    # finite, positive constants whose closed-form step count underflows to
    # 0; the order-1 row divided its own zero cost by itself, then exited 2
    code, out, err = run_with_overrides(capsys, tmp_path, "K=1e-320\nL_ftau=1e-300\n", "table",
                                        "--scenario", "classical")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert float(rows[0]["N_tau"]) == 0.0 and rows[0]["flag"] == "infeasible"
    for r in rows:
        assert math.isnan(float(r["ratio"]))
        if r["flag"]:
            assert math.isnan(float(r["cost"]))
        else:
            assert float(r["N_tau"]) >= 1 and 0 < float(r["cost"]) < math.inf


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
    key, value = text.split("=")
    if key == "eta":
        # eta is no override key (an override file naming it exits 2 with unknown
        # key); its range is checked where validate takes it, as --eta
        code, out, err = run_cli(capsys, "validate", "--method", "euler", "--delta", "0", f"--eta={value}")
    else:
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


# -- boundary fuzz over the whole float range ----------------------------------

FUZZ_KEYS = ("T", "K", "M", "L_fy", "L_ftau", "b_max", "a_max", "epsilon", "Sigma", "N_V", "N_d", "N")
DIM_KEYS = ("N_V", "N_d", "N")  # whole numbers: their magnitudes are rounded up
# an exit 2 names what to change: an override key, the field it sets, or an option
FIELD_NAMES = ("lip_state", "lip_time", "field_bound", "horizon", "target_error", "error_const", "sigma")
NAMES_A_KEY = re.compile(r"(?<![\w-])(%s)(?!\w)|--\w" % "|".join(FUZZ_KEYS + FIELD_NAMES))
# log-uniform over the positive floats, subnormals included
MAGNITUDES = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0**e)


@st.composite
def fuzz_requests(draw):
    argv = [draw(st.sampled_from(("table", "sweep"))), "--scenario", draw(st.sampled_from(SCENARIO_NAMES)),
            "--format", draw(st.sampled_from(("csv", "json")))]
    if argv[0] == "sweep":
        argv += ["--target", draw(st.sampled_from(SWEEP_TARGETS)), "--mode", draw(st.sampled_from(SWEEP_MODES))]
    overrides = draw(st.dictionaries(st.sampled_from(FUZZ_KEYS), MAGNITUDES, min_size=1, max_size=3))
    return argv, {k: float(math.ceil(v)) if k in DIM_KEYS else v for k, v in overrides.items()}


def cell(value):
    """A CSV or JSON cell as a float; empty and null cells read as None."""
    return None if value in ("", None) else float(value)


def records(out, fmt, kind):
    if fmt == "json":
        payload = json.loads(out, parse_constant=reject_constant)
        return payload if kind == "table" else next(iter(payload.values()))
    return [{k: v.lower() == "true" if k == "feasible" else v for k, v in r.items()} for r in parse_csv(out)]


def positive(value):
    return value is not None and 0.0 < value < math.inf


# the examples are inputs that once failed, kept so that a reset hypothesis
# database cannot lose them: ZeroDivisionErrors in `_min_steps` and
# `min_shots`, step counts that underflow to 0 or overflow to inf, sweep
# points reported feasible at 0 or inf, a shot count that underflows to 0,
# a step size that underflows to 0, a distinct-circuit count that
# overflows (as an int, with an OverflowError, or as a float, to inf), and a
# circuit budget whose integer dimension factor overflows the float range
@given(case=fuzz_requests())
@example(case=(["table", "--scenario", "option_pricing", "--format", "json"],
               {"M": 6.9e-14, "epsilon": 6.7e-157, "L_fy": 9.0e-272}))
@example(case=(["table", "--scenario", "classical", "--format", "csv"], {"K": 1e-320, "L_ftau": 1e-300}))
@example(case=(["sweep", "--scenario", "classical", "--format", "json", "--target", "K", "--mode", "cost"],
               {"K": 1e-320, "L_ftau": 1e-300}))
@example(case=(["table", "--scenario", "classical", "--format", "json"], {"T": 1000.0}))
@example(case=(["table", "--scenario", "classical", "--format", "csv"],
               {"M": 1.5856126515785838e67, "K": 7.782664193543613e-166}))
@example(case=(["sweep", "--scenario", "classical", "--format", "json", "--target", "L_fy", "--mode", "cost"],
               {"epsilon": 5.1662813625348214e-272, "b_max": 4.705966194856141e63}))
@example(case=(["table", "--scenario", "tuned", "--format", "json"],
               {"Sigma": 3.634123368994825e-266, "L_ftau": 3.9627463668059665e180, "L_fy": 8.168565551917844e-124}))
@example(case=(["table", "--scenario", "tuned", "--format", "csv"],
               {"K": 1.88434593141715e203, "b_max": 9.508684065478386e-251}))
@example(case=(["table", "--scenario", "classical", "--format", "json"],
               {"T": 6.064892730735215e-249, "K": 5.14767178426778e86, "epsilon": 2.6013808976787164e228}))
@example(case=(["sweep", "--scenario", "tuned", "--format", "json", "--target", "a_max", "--mode", "ncirc"],
               {"epsilon": 4.319603558756895e-111, "L_fy": 2.321109696244633e-297}))
@example(case=(["table", "--scenario", "option_pricing", "--format", "csv"],
               {"M": 2.2664173237444613e224, "T": 1.281818289261668e-54, "L_ftau": 1.2570424444649987e165}))
@example(case=(["table", "--scenario", "option_pricing", "--format", "json"], {"N_V": 1e160}))
@example(case=(["table", "--scenario", "classical", "--format", "csv"], {"N_V": 1e152}))
@example(case=(["table", "--scenario", "option_pricing", "--format", "csv"], {"N_d": 1.1235582092889474e+307}))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_planning_over_the_whole_float_range_flags_what_it_cannot_budget(tmp_path, case):
    # every request either exits 2 naming what to change, or prints rows and
    # points whose unflagged cells are all finite, positive budgets
    argv, overrides = case
    path = tmp_path / "ov.txt"
    path.write_text("".join(f"{k}={v!r}\n" for k, v in overrides.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--overrides", str(path)])
    if code == 2:
        assert out.getvalue() == "" and NAMES_A_KEY.search(err.getvalue()), err.getvalue()
        return
    assert (code, err.getvalue()) == (0, "")
    rows = records(out.getvalue(), argv[4], argv[0])
    if argv[0] == "sweep":
        for point in rows:
            value = cell(point["value"])
            assert positive(value) if point["feasible"] else value is None or math.isnan(value)
        return
    anchor_flagged = cell(rows[0]["p"]) == 1 and rows[0]["flag"] == "infeasible"
    for row in rows:
        counts = {k: cell(row[k]) for k in ("N_tau", "N_r", "cost", "N_circ", "circuits", "ratio")}
        if row["flag"] == "infeasible":
            assert all(counts[k] is None or math.isnan(counts[k]) for k in ("N_r", "cost", "N_circ", "ratio"))
            continue
        assert row["flag"] == "" and counts["N_tau"] >= 1 and positive(counts["cost"])
        assert all(counts[k] is None or positive(counts[k]) for k in ("N_tau", "N_r", "N_circ", "circuits"))
        ratio = counts["ratio"]
        assert ratio is None or math.isnan(ratio) if anchor_flagged else positive(ratio)


# validate and convergence: campaign overrides over the whole float range,
# and horizons up to 1e4 (where exp(horizon/2) is far past the float range)
CAMPAIGN_KEYS = ("T", "K", "M", "L_fy", "L_ftau", "epsilon")
CAMPAIGN_MODES = (("--delta", "0"), ("--delta", "1e-3", "--trials", "2", "--ntau", "5"))


@st.composite
def campaign_requests(draw):
    method = ["--method", draw(st.sampled_from(sorted(BUILTIN_METHODS))),
              "--format", draw(st.sampled_from(("csv", "json")))]
    if draw(st.booleans()):
        return ["convergence", *method, "--horizon", repr(draw(st.floats(0.0, 1e4, exclude_min=True)))], {}
    overrides = draw(st.dictionaries(st.sampled_from(CAMPAIGN_KEYS), MAGNITUDES, min_size=1, max_size=3))
    return ["validate", *method, *draw(st.sampled_from(CAMPAIGN_MODES))], overrides


# the examples once failed: a realized error whose square overflowed was
# measured as inf (a false violation, exit 1), a reference norm that
# overflowed made the convergence floor inf (exit 2 naming nothing), a
# truncation term whose power overflowed escaped as an OverflowError, a
# noisy bound that underflowed to 0 against exact results divided 0 by 0
# (a NaN worst margin and a numpy RuntimeWarning), and a subnormal
# noiseless bound whose margin overflowed in numpy's divide (a RuntimeWarning)
@given(case=campaign_requests())
@example(case=(["validate", "--method", "rk4", "--format", "csv", "--delta", "0"], {"T": 1000.0}))
@example(case=(["convergence", "--method", "rk4", "--format", "csv", "--horizon", "800.0"], {}))
@example(case=(["validate", "--method", "rk4", "--format", "json", "--delta", "0"], {"L_ftau": 1e100}))
@example(case=(["validate", "--method", "euler", "--format", "json", "--delta", "1e-3", "--trials", "2", "--ntau", "5"],
               {"T": 1e-322}))
@example(case=(["validate", "--method", "euler", "--format", "csv", "--delta", "0"], {"T": 1.0, "K": 2.1729236899484e-311}))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("ignore:error bound overflows:RuntimeWarning")  # the bound reads inf there
def test_campaigns_over_the_whole_float_range_exit_0_1_or_2(tmp_path, case):
    # every request exits 0 or 1 with a strict artifact, or 2 naming what to change
    argv, overrides = case
    if overrides:
        path = tmp_path / "ov.txt"
        path.write_text("".join(f"{k}={v!r}\n" for k, v in overrides.items()))
        argv = [*argv, "--overrides", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and NAMES_A_KEY.search(err.getvalue()), err.getvalue()
    elif "json" in argv:
        json.loads(out.getvalue(), parse_constant=reject_constant)


# toy studies, step counts and trial counts: option values over the whole
# float range, of either sign, and fractional or negative counts, at sizes
# that allocate little
NAMES_AN_OPTION = re.compile(r"(?<![\w-])(--)?(nv|samples|theta|lo|hi|points|ntau|trials|steps)(?!\w)")
SIGNED_MAGNITUDES = st.tuples(st.sampled_from((1.0, -1.0)), MAGNITUDES).map(lambda pair: pair[0] * pair[1])
COUNTS = st.one_of(st.integers(-3, 6).map(str), st.floats(-3.0, 6.0).map(repr))


@st.composite
def toy_requests(draw):
    # only the drawn study's own options, so that no request stops at
    # argparse for an option its study does not take
    study = draw(st.sampled_from(("kappa", "norms", "lip")))
    argv = ["toy", study, "--nv", str(draw(st.integers(1, 4))), "--format", draw(st.sampled_from(("csv", "json"))),
            "--seed", "1"]
    if study != "lip":
        return [*argv, f"--theta={draw(SIGNED_MAGNITUDES)!r}", "--samples", "30"]
    return [*argv, f"--lo={draw(SIGNED_MAGNITUDES)!r}", f"--hi={draw(SIGNED_MAGNITUDES)!r}",
            "--points", str(draw(st.integers(1, 5)))]


@st.composite
def count_requests(draw):
    method = ["--method", draw(st.sampled_from(sorted(BUILTIN_METHODS))),
              "--format", draw(st.sampled_from(("csv", "json")))]
    if draw(st.booleans()):
        return ["convergence", *method, "--steps=" + ",".join(draw(st.lists(COUNTS, min_size=4, max_size=5)))]
    return ["validate", *method, "--delta", draw(st.sampled_from(("0", "1e-3"))),
            f"--ntau={draw(COUNTS)}", f"--trials={draw(COUNTS)}"]


def check_request(argv):
    """Run one request: it exits 0 or 1 with a strict artifact and nothing on
    stderr, or 2 naming an option; argparse's own rejections exit 2 too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:
        assert out.getvalue() == "" and NAMES_AN_OPTION.search(err.getvalue()), err.getvalue()
        return
    assert code in (0, 1) and err.getvalue() == "", (code, err.getvalue())
    if "json" in argv:
        json.loads(out.getvalue(), parse_constant=reject_constant)


# the example once exited 0 with a NaN grid: the span --hi - --lo overflowed
@given(argv=toy_requests())
@example(argv=["toy", "lip", "--nv", "3", "--format", "csv", "--lo=-1e308", "--hi=1e308", "--points", "3"])
@settings(max_examples=150, deadline=None)
def test_toy_studies_over_the_whole_float_range_exit_0_or_2(argv):
    check_request(argv)


@given(argv=count_requests())
@settings(max_examples=150, deadline=None)
def test_fractional_and_negative_counts_exit_0_1_or_2(argv):
    check_request(argv)


# -- sweep ---------------------------------------------------------------------


def sweep_targets(mode):
    return [t for t in SWEEP_TARGETS if mode == "ncirc" or t != "Sigma"]


# sha256 of the concatenated stdout of `sweep` over every target the CLI
# accepts for one (scenario, mode, format), recorded while every sweep point
# still ran apply_overrides: the swept constant reaches the ProblemBounds,
# the method profile or sigma, and each route must keep its bytes
PINNED_SWEEP_DIGESTS = {
    ("classical", "cost", "csv"): "012239d03484c29067c01efd78ebdbd490236437d4252c0ae9b453891224c67e",
    ("classical", "cost", "json"): "4a0e59bba9ba5ce7bd30c0082d851d5b5b0edca85dc42568c1b393b852d93872",
    ("option_pricing", "cost", "csv"): "1bba6149255687a9be66d62200e977862e25abb58bb1feeb904e2203c8062311",
    ("option_pricing", "cost", "json"): "28860a41fadf91e65e7e5462132d9cb29d50896c0763bad336e767a04e8bb837",
    ("option_pricing", "ncirc", "csv"): "6a68cf426339e0e40334ead9b1e12e3d698cc649e2820043baf9f9ddd362e26f",
    ("option_pricing", "ncirc", "json"): "5846fce4f181f15b0cdf6dda889ab7bcc5c26d414828dcffedc0ff50f0ed96b2",
    ("tuned", "cost", "csv"): "c5e94d2609c6653ad63970518e64e68ae06713256203ee0892e7b063e8212c90",
    ("tuned", "cost", "json"): "b40c487dbefb6ccb31d8b29bb2c9fe6bc8414cea2965fc021e5e5ec5b55643e7",
    ("tuned", "ncirc", "csv"): "95ed43ceb751a1b4af2368baf4d9a6b62fc0a999149b8f0efeaafa89e827cc27",
    ("tuned", "ncirc", "json"): "634039bf1f9458089a820c69765fe9bc59100c74ecf32470b5e352c550b087ff",
}


@pytest.mark.parametrize("key", list(PINNED_SWEEP_DIGESTS), ids="_".join)
def test_pinned_sweeps_over_every_target_are_byte_identical(capsys, key):
    name, mode, fmt = key
    digest = hashlib.sha256()
    for target in sweep_targets(mode):
        code, out, err = run_cli(capsys, "sweep", "--scenario", name, "--target", target, "--mode", mode,
                                 "--format", fmt)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_SWEEP_DIGESTS[key]


# every constant a sweep can rescale, perturbed away from option_pricing
PERTURBED_OVERRIDES = (
    "T=1.1\nK=3.71\nM=81.5\nL_fy=11.25\nL_ftau=19.3\nb_max=1.375\na_max=0.6875\nepsilon=2.3e-3\nSigma=1.9e8\n"
)
PERTURBED_DIGESTS = {
    "table": "8c102387cfb70a2fdeb3e924d11aa6687073a20dedbc73daaa33334fb8b8e54a",
    "sweep": "e1313a94baedb99855a2d1dc017767fc7e70d1f4c18d1e6c5c8d99b3919a8991",
}


def test_pinned_perturbed_json_table_is_byte_identical(capsys, tmp_path):
    code, out, err = run_with_overrides(capsys, tmp_path, PERTURBED_OVERRIDES, "table", "--scenario",
                                        "option_pricing", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PERTURBED_DIGESTS["table"]


def test_pinned_perturbed_json_sweeps_are_byte_identical(capsys, tmp_path):
    digest = hashlib.sha256()
    for target in sweep_targets("ncirc"):
        code, out, err = run_with_overrides(capsys, tmp_path, PERTURBED_OVERRIDES, "sweep", "--scenario",
                                            "option_pricing", "--target", target, "--mode", "ncirc",
                                            "--format", "json")
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == PERTURBED_DIGESTS["sweep"]


# a swept constant that leaves the float range at the largest factor, or
# reaches 0 at the smallest, exits 2 naming it as an --overrides file would
@pytest.mark.parametrize(
    "name, mode, text, message",
    [
        ("classical", "cost", "K=1e308", "K must be finite, got inf"),
        ("classical", "cost", "T=1e308", "horizon must be finite, got inf"),
        ("option_pricing", "ncirc", "T=1e308", "horizon must be finite, got inf"),
        ("option_pricing", "ncirc", "M=1e308", "field_bound must be finite, got inf"),
        ("option_pricing", "ncirc", "L_fy=1e308", "lip_state must be finite, got inf"),
        ("option_pricing", "ncirc", "L_ftau=1e308", "lip_time must be finite, got inf"),
        ("option_pricing", "ncirc", "epsilon=1e308", "target_error must be finite, got inf"),
        ("option_pricing", "ncirc", "K=1e308", "K must be finite, got inf"),
        ("option_pricing", "ncirc", "a_max=1e308", "a_max must be finite, got inf"),
        ("option_pricing", "ncirc", "b_max=1e308", "b_max must be finite, got inf"),
        ("option_pricing", "ncirc", "Sigma=1e308", "Sigma must be finite, got inf"),
        ("option_pricing", "ncirc", "T=1e-323", "horizon must be strictly positive"),
        ("option_pricing", "ncirc", "K=1e-323", "error_const must be positive"),
        ("option_pricing", "ncirc", "a_max=1e-323", "a_max must be positive for multi-stage methods"),
        ("option_pricing", "ncirc", "b_max=1e-323", "b_max must be positive"),
        ("option_pricing", "ncirc", "Sigma=1e-323", "sigma must be positive"),
    ],
)
def test_sweep_of_a_constant_leaving_the_float_range_exits_2(capsys, tmp_path, name, mode, text, message):
    target = text.split("=")[0]
    code, out, err = run_with_overrides(capsys, tmp_path, text + "\n", "sweep", "--scenario", name,
                                        "--target", target, "--mode", mode)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("points", ["4", "1", "-3"])
def test_sweep_without_factor_1_on_its_grid_exits_2_naming_points(capsys, points):
    code, out, err = run_cli(capsys, "sweep", "--target", "K", "--points", points)
    assert (code, out) == (2, "")
    assert err == ("error: argument --points: points must be an odd integer >= 3 so the grid contains factor 1,"
                   f" got {points}\n")


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


@pytest.mark.parametrize("seed", ["5", "1001"])
@pytest.mark.parametrize("points", [2, 3, 17])
def test_toy_lip_csv_is_the_per_cell_rendering_of_its_surface(capsys, seed, points):
    code, out, _ = run_cli(capsys, "toy", "lip", "--nv", "5", "--points", str(points), "--seed", seed)
    assert code == 0
    _, params = toymodel.sample_toy(5, rng=int(seed))
    grid = np.linspace(0.0, 10.0, points)
    surface = toymodel.lip_surface(params, grid, grid)
    bits = surface.view(np.uint64)
    assert np.array_equal(bits, bits.T)  # the mirrored path
    expected = "theta1/theta2," + ",".join(f"{t:.16e}" for t in grid) + "\n"
    expected += "".join(f"{t:.16e}," + ",".join(f"{v:.16e}" for v in row) + "\n" for t, row in zip(grid, surface))
    assert out == expected


def test_toy_lip_requires_single_nv(capsys):
    assert run_cli(capsys, "toy", "lip", "--nv", "5:10:5") == (2, "",
                                                               "error: argument --nv: invalid int value: '5:10:5'\n")


TOY_REJECTIONS = [
    ("lip --lo nan", "argument --lo: expected a finite number, got nan", "--lo and --hi must be finite"),
    ("lip --hi inf", "argument --hi: expected a finite number, got inf", "--lo and --hi must be finite"),
    ("lip --lo=-inf", "argument --lo: expected a finite number, got -inf", "--lo and --hi must be finite"),
    ("lip --lo 5 --hi 5", "--lo must be below --hi, got 5.0 >= 5.0", "--lo must be below --hi"),
    ("lip --lo 6 --hi 5", "--lo must be below --hi, got 6.0 >= 5.0", "--lo must be below --hi"),
    ("lip --lo=-1e308 --hi=1e308", "--hi - --lo overflows the float range, got --lo -1e+308 and --hi 1e+308",
     "--hi - --lo overflows the float range, got --lo -1e+308 and --hi 1e+308"),
    ("lip --points 0", "argument --points: points must lie in 2..1000, got 0", "--points must be at least 2"),
    ("lip --points 1", "argument --points: points must lie in 2..1000, got 1", "--points must be at least 2"),
    ("lip --points 1001", "argument --points: points must lie in 2..1000, got 1001",
     "--points must be at least 2 and at most 1000, got 1001"),
    ("lip --nv 0", "argument --nv: n_params must be at least 1, got 0", "--nv must be positive, got 0"),
    ("kappa --nv 0:2", "argument --nv: n_params must be at least 1, got 0",
     "--nv: dimensions must be positive, got '0:2'"),
    ("kappa --theta inf", "argument --theta: expected a finite number, got inf", "--theta must be finite"),
    ("norms --theta=-inf", "argument --theta: expected a finite number, got -inf", "--theta must be finite"),
    ("kappa --seed -1", "argument --seed: expected non-negative integer",
     "--seed must be a non-negative integer, got -1"),
    ("norms --seed -1", "argument --seed: expected non-negative integer",
     "--seed must be a non-negative integer, got -1"),
    ("lip --seed -1", "argument --seed: expected non-negative integer",
     "--seed must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize("args, message", [case[:2] for case in TOY_REJECTIONS],
                         ids=[f"{case[0]}-{case[2]}" for case in TOY_REJECTIONS])
def test_toy_rejects_bad_inputs_exits_2(capsys, args, message):
    study, *rest = args.split()
    samples = () if study == "lip" else ("--samples", "30")
    assert run_cli(capsys, "toy", study, "--nv", "4", *samples, *rest) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("study", ["kappa", "norms"])
@pytest.mark.parametrize("samples", ["5", "-3", "29"])
def test_toy_too_few_samples_exits_2_naming_the_option(capsys, study, samples):
    code, out, err = run_cli(capsys, "toy", study, "--nv", "10", "--samples", samples)
    assert code == 2
    assert err == f"error: argument --samples: need at least 30 samples per grid point, got {samples}\n"
    assert out == ""


def test_toy_rejects_a_negative_seed_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    code, out, err = run_cli(capsys, "toy", "lip", "--nv", "4")
    assert (code, out, err) == (2, "", f"error: {SEED_ENV_VAR} must be a non-negative integer, got -1\n")


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


DELTA_MESSAGE = ("argument --delta: delta must lie in [1e-150, 1e+150], where the perturbation norms neither"
                 " underflow nor overflow, or be 0 for no noise; got ")
HORIZON_MESSAGE = "argument --horizon: horizon must be finite and positive, got "


@pytest.mark.parametrize(
    "argv, message",
    [
        (("validate", "--method", "euler", "--delta", "nan"), f"{DELTA_MESSAGE}nan"),
        (("validate", "--method", "euler", "--delta", "inf"), f"{DELTA_MESSAGE}inf"),
        (("validate", "--method", "euler", "--delta=-inf"), f"{DELTA_MESSAGE}-inf"),
        (("convergence", "--method", "euler", "--horizon", "nan"), f"{HORIZON_MESSAGE}nan"),
        (("convergence", "--method", "euler", "--horizon", "inf"), f"{HORIZON_MESSAGE}inf"),
        (("convergence", "--method", "euler", "--horizon=-1"), f"{HORIZON_MESSAGE}-1.0"),
        (("convergence", "--method", "euler", "--horizon", "0"), f"{HORIZON_MESSAGE}0.0"),
    ],
    ids=["validate-delta-nan", "validate-delta-inf", "validate-delta-minus-inf", "convergence-horizon-nan",
         "convergence-horizon-inf", "convergence-horizon-minus-1", "convergence-horizon-0"],
)
def test_non_finite_inputs_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, overrides, message",
    [
        (("validate", "--method", "rk4", "--delta", "0"), "T=2000\n", "T=2000.0"),
        (("convergence", "--method", "rk4", "--horizon", "2000"), None, "--horizon=2000.0"),
    ],
    ids=["validate", "convergence"],
)
def test_horizon_past_the_exact_solutions_range_exits_2_naming_it(capsys, tmp_path, argv, overrides, message):
    # exp(horizon/2) overflowed in the exact solution, with a traceback
    if overrides is None:
        code, out, err = run_cli(capsys, *argv)
    else:
        code, out, err = run_with_overrides(capsys, tmp_path, overrides, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}: the exact solution exp(horizon/2) exceeds the float range\n"


def test_convergence_whose_errors_all_vanish_exits_2(capsys):
    # the DegenerateSlopeError escaped the CLI as a traceback
    code, out, err = run_cli(capsys, "convergence", "--method", "rk4", "--horizon", "1e-300")
    assert (code, out) == (2, "")
    assert err.startswith("error: final errors [0.0, 0.0, 0.0, 0.0, 0.0] at or below machine-precision floor")
    assert err.endswith("; no slope at --horizon 1e-300 with --steps 32,64,128,256,512\n")


@pytest.mark.parametrize(
    "argv, overrides, margin",
    [
        (("--delta", "0"), "T=1000\n", 2.4472906946007421e-53),
        (("--delta", "0"), "L_ftau=1e100\n", 0.0),
        (("--delta", "1e-3", "--trials", "10"), "L_ftau=1e100\n", 0.0),
    ],
    ids=["error-squared-overflows", "noiseless-truncation-overflows", "noisy-truncation-overflows"],
)
@pytest.mark.filterwarnings("ignore:error bound overflows:RuntimeWarning")
def test_validate_past_the_float_range_reports_no_false_violation(capsys, tmp_path, argv, overrides, margin):
    # T=1000: the realized error 1.40e217 squared to inf and "violated" the
    # bound 5.74e269 (exit 1); L_ftau=1e100: lip_time**4 overflowed in a traceback
    code, out, err = run_with_overrides(capsys, tmp_path, overrides, "validate", "--method", "rk4", *argv,
                                        "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=reject_constant)
    assert (payload["violations"], payload["worst_margin"]) == (0, margin)


def test_convergence_past_the_square_overflow_has_a_slope(capsys):
    # exp(400) squared to inf: the floor read inf and the command exited 2
    code, out, err = run_cli(capsys, "convergence", "--method", "rk4", "--horizon", "800")
    assert (code, err) == (0, "")
    assert math.isfinite(float(parse_csv(out)[0]["slope"]))


@pytest.mark.parametrize(
    "argv, overrides, message",
    [
        (("validate", "--method", "euler"), "T=1e-322\n", "T=1e-322: the step T / 100 (--ntau) underflows to 0"),
        (("validate", "--method", "euler", "--ntau", "0"), None, "argument --ntau: n_steps must be at least 1, got 0"),
        (("convergence", "--method", "euler", "--horizon", "5e-324"), None,
         "--horizon=5e-324: the step --horizon / 512 (the largest of --steps) underflows to 0"),
    ],
    ids=["validate-step-underflows", "validate-no-steps", "convergence-step-underflows"],
)
def test_steps_that_cannot_be_taken_exit_2_naming_the_option(capsys, tmp_path, argv, overrides, message):
    if overrides is None:
        code, out, err = run_cli(capsys, *argv)
    else:
        code, out, err = run_with_overrides(capsys, tmp_path, overrides, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# requests whose largest array would pass cli.MAX_ARRAY_BYTES; the first five
# once asked numpy for it and exited 1 with a MemoryError traceback
@pytest.mark.parametrize(
    "argv, message",
    [
        ("validate --method euler --delta 1e-4 --ntau 1000000000000 --trials 1000",
         "--trials 1000 and --ntau 1000000000000 with 1-stage --method euler"
         " would build an array of up to 8e+15 bytes"),
        ("validate --method euler --delta 0 --ntau 1000000000000 --trials 1000",
         "--ntau 1000000000000 with 1-stage --method euler would build an array of up to 8e+12 bytes"),
        ("convergence --method euler --steps 1000000000000,2000000000000,3000000000000,4000000000000",
         "--steps 1000000000000,2000000000000,3000000000000,4000000000000 with 1-stage --method euler"
         " would build an array of up to 3.2e+13 bytes"),
        ("toy kappa --nv 100000 --samples 30", "--nv 100000 would build an array of up to 4e+11 bytes"),
        ("toy lip --nv 100000", "--nv 100000 would build an array of up to 4e+11 bytes"),
        ("toy norms --nv 10:20 --samples 40000000",
         "--samples 40000000 with 11 --nv values would build an array of up to 1.41e+10 bytes"),
    ],
    ids=["validate-noise-block", "validate-states", "convergence-states", "toy-kappa-planes", "toy-lip-planes",
         "toy-norms-samples"],
)
def test_oversized_requests_exit_2_naming_the_options(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}, above the limit of 1073741824 (1 GiB)\n")


def test_a_request_at_the_array_limit_runs(capsys, monkeypatch):
    # eleven states of one float each: 88 bytes
    argv = ("validate", "--method", "euler", "--delta", "0", "--ntau", "10")
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 88)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 87)
    assert run_cli(capsys, *argv)[:2] == (2, "")


# Both once passed every check and stepped for about half an hour: a step
# costs about the same however few trials it carries, so the limit counts
# stage evaluations per trajectory.
@pytest.mark.parametrize(
    "argv, message",
    [
        ("validate --method rk4 --delta 0 --ntau 100000000",
         "--ntau 100000000 with 4-stage --method rk4 would make 4e+08 stage evaluations"),
        ("validate --method rk4 --delta 1e-3 --trials 0 --ntau 100000000",
         "--trials 0 and --ntau 100000000 with 4-stage --method rk4 would make 4e+08 stage evaluations"),
        ("convergence --method euler --steps 1000000,2000000,3000000,4000000",
         "--steps 1000000,2000000,3000000,4000000 with 1-stage --method euler would make 1e+07 stage evaluations"),
    ],
    ids=["validate-noiseless", "validate-no-trials", "convergence"],
)
def test_requests_past_the_stage_evaluation_limit_exit_2_before_stepping(capsys, monkeypatch, argv, message):
    def not_run(*args, **kwargs):
        raise AssertionError("the request ran")

    for name in ("validate_noisy_bound", "empirical_order"):
        monkeypatch.setattr(cli, name, not_run)
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}, above the limit of 4e+06\n")


@pytest.mark.parametrize("noise", [("--delta", "0"), ("--delta", "1e-3", "--trials", "3")], ids=["noiseless", "noisy"])
def test_a_request_at_the_stage_evaluation_limit_runs(capsys, monkeypatch, noise):
    # ten steps of four stage evaluations each, per trial
    argv = ("validate", "--method", "rk4", "--ntau", "10", *noise)
    monkeypatch.setattr(cli, "MAX_STAGE_EVALUATIONS", 40)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_STAGE_EVALUATIONS", 39)
    assert run_cli(capsys, *argv)[:2] == (2, "")


@pytest.mark.parametrize("delta", ["0", "1e-3"], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("method", sorted(BUILTIN_METHODS))
def test_the_stage_evaluation_limit_counts_what_stepping_does(capsys, monkeypatch, method, delta):
    # what the limit counts per trajectory, times the trials when noise is on
    counted = []
    check_size = cli._check_size

    def recording(floats, request, evaluations=0):
        counted.append(evaluations)
        check_size(floats, request, evaluations)

    monkeypatch.setattr(cli, "_check_size", recording)
    trials = 3
    code, out, _ = run_cli(capsys, "validate", "--method", method, "--delta", delta, "--ntau", "7",
                           "--trials", str(trials), "--format", "json")
    assert code == 0 and len(counted) == 1
    assert json.loads(out)["evaluations"] == counted[0] * (trials if delta != "0" else 1)


def test_validate_against_a_noiseless_bound_of_0_counts_a_violation(capsys, tmp_path):
    # the bound underflows to 0; realized / bound divided by zero
    code, out, err = run_with_overrides(capsys, tmp_path, "M=1e-300\nK=1e-300\n", "validate", "--method", "rk4",
                                        "--delta", "0", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out, parse_constant=reject_constant)
    assert (payload["trials"], payload["violations"], payload["worst_margin"]) == (1, 1, None)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--delta", "0", "--eta", "1.5"), "argument --eta: eta must lie in (0, 1), got 1.5\n"),
        (("--delta", "0", "--eta", "nan"), "argument --eta: eta must lie in (0, 1), got nan\n"),
        (("--delta", "0", "--eta", "0"), "argument --eta: eta must lie in (0, 1), got 0.0\n"),
        (("--delta", "0", "--trials", "-5"), "argument --trials: trials must be non-negative, got -5\n"),
        (("--delta", "1e-4", "--eta", "1.5"), "argument --eta: eta must lie in (0, 1), got 1.5\n"),
        (("--delta", "1e-170"), f"{DELTA_MESSAGE}1e-170\n"),
        (("--delta", "1e300"), f"{DELTA_MESSAGE}1e+300\n"),
        (("--delta", "1e-4", "--seed", "-1"), "argument --seed: expected non-negative integer\n"),
        (("--delta", "0", "--seed", "-1"), "argument --seed: expected non-negative integer\n"),
    ],
    ids=["noiseless-eta-1.5", "noiseless-eta-nan", "noiseless-eta-0", "noiseless-trials", "noisy-eta",
         "delta-below-range", "delta-above-range", "negative-seed", "noiseless-negative-seed"],
)
def test_validate_rejects_bad_inputs_with_or_without_noise(capsys, argv, message):
    code, out, err = run_cli(capsys, "validate", "--method", "euler", "--trials", "5", *argv)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert out == ""


def test_noiseless_validate_rejects_a_negative_seed_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    code, out, err = run_cli(capsys, "validate", "--method", "euler", "--delta", "0")
    assert code == 2
    assert err == f"error: {SEED_ENV_VAR} must be a non-negative integer, got -1\n"
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
    assert "4 distinct step counts" in err


def test_convergence_rejects_repeated_steps(capsys):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", "64,64,64,64")
    assert code == 2
    assert err == ("error: argument --steps: need at least 4 distinct step counts for a slope estimate,"
                   " got [64, 64, 64, 64]\n")
    assert out == ""


@pytest.mark.parametrize("steps", ["8,a,16,32", "8,16,32,", "8,16.0,32,64"])
def test_convergence_non_integer_steps_exit_2_naming_the_option(capsys, steps):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", steps)
    assert code == 2
    assert err == f"error: argument --steps: expected comma-separated integers, got {steps!r}\n"
    assert out == ""


@pytest.mark.parametrize("steps", ["0,8,16,32", "8,16,32,-64"])
def test_convergence_non_positive_steps_exit_2_naming_the_option(capsys, steps):
    code, out, err = run_cli(capsys, "convergence", "--method", "euler", "--steps", steps)
    assert code == 2
    first_bad = next(s for s in steps.split(",") if int(s) < 1)
    assert err == f"error: argument --steps: n_steps must be at least 1, got {first_bad}\n"
    assert out == ""


# -- argparse-level failures -------------------------------------------------------


def exit_code(argv) -> int:
    """``main``'s return code, or that of argparse's SystemExit: a bad option
    value reaches ``main`` as an ArgumentError, but whether an unknown flag or
    a missing argument does too depends on the Python version."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_unknown_flag_exits_2(capsys):
    assert exit_code(["table", "--bogus"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert exit_code([]) == 2


@pytest.mark.parametrize(
    "argv",
    [("table",), ("sweep", "--target", "epsilon"), ("convergence", "--method", "euler")],
    ids=["table", "sweep", "convergence"],
)
def test_seed_is_rejected_by_commands_without_randomness(capsys, argv):
    # only toy and validate draw random numbers
    assert exit_code([*argv, "--seed", "5"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_importing_the_cli_leaves_out_the_thread_pool_logging_and_numpy_random():
    # concurrent.futures pulls in logging, tens of milliseconds of every CLI
    # start, and numpy.random about ten more, which only seeded commands use;
    # so no module the CLI imports may pull any of them in
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    modules = "{'concurrent.futures', 'logging', 'numpy.random'}"
    code = f"import sys, rkbudget.cli; print(sorted({modules} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def run_under_one_blas_thread(argv) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "rkbudget.cli", *argv], env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("argv", [argv for argv in PINNED_DIGESTS if argv[:2] == ("toy", "lip")], ids="_".join)
def test_toy_lip_digests_hold_under_one_blas_thread(argv):
    # lip's 25x25 solves fall below OpenBLAS's threading size, so its bytes
    # depend on the seed alone, not on the thread count
    assert hashlib.sha256(run_under_one_blas_thread(argv)).hexdigest() == PINNED_DIGESTS[argv]


@pytest.mark.parametrize(
    "argv", [argv for argv in PINNED_DIGESTS if argv[0] == "validate" and "200" in argv], ids="_".join
)
def test_noisy_batch_digests_hold_under_one_blas_thread(argv):
    # a (200, 1) batch's stage sums are far below OpenBLAS's threading size
    assert hashlib.sha256(run_under_one_blas_thread(argv)).hexdigest() == PINNED_DIGESTS[argv]


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
    assert exit_code(bad_argv) == 2
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


# -- a setting that nothing reads is rejected ------------------------------------


@pytest.mark.parametrize(
    "argv",
    [("toy", "lip", "--theta", "0.5"), ("toy", "lip", "--samples", "30")]
    + [("toy", study, option, "1") for study in ("kappa", "norms") for option in ("--lo", "--hi", "--points")],
    ids=" ".join,
)
def test_an_option_the_study_does_not_read_is_rejected(capsys, argv):
    assert exit_code([*argv[:2], "--nv", "2", *argv[2:]]) == 2
    assert f"error: unrecognized arguments: {argv[2]} {argv[3]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [("--points", "9"), ("--order", "7"), ("--points", "25", "--order", "2")],
                         ids=" ".join)
def test_sweep_over_the_orders_takes_no_grid(capsys, grid):
    code, out, err = run_cli(capsys, "sweep", "--target", "p", *grid)
    assert (code, out) == (2, "")
    assert err == "error: --points and --order do not apply to --target p, which sweeps every order 1..10\n"


@pytest.mark.parametrize("key", ["S", "eta"])
@pytest.mark.parametrize(
    "argv", [("table",), ("sweep", "--target", "K"), ("validate", "--method", "euler", "--delta", "0")],
    ids=["table", "sweep", "validate"],
)
def test_override_keys_no_formula_reads_are_unknown(capsys, tmp_path, key, argv):
    code, out, err = run_with_overrides(capsys, tmp_path, f"{key}=0.5\n", *argv, "--scenario", "option_pricing")
    assert (code, out) == (2, "")
    assert err == f"error: bad override file: line 1: unknown key {key!r}\n"
