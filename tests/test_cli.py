import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import pennyflip as pf
from pennyflip import cli

GOLDEN_ODDS_CSV = (
    "case,strategy,q_win,odds\n"
    "1,rotate or leave as is,1.0,1:0\n"
    "2,rotate 120 degrees about a random axis,0.5000000000000001,1:1\n"
    "3,measure along a random axis,0.6666666666666666,2:1\n"
)

# Reports captured before the CSV became a projection of the JSON results.
GOLDEN_ITERATE_CSV = (
    "n,polarized_weight,q_win\n"
    "1,0.33333333333333326,0.6666666666666666\n"
    "2,0.11111111111111116,0.5555555555555556\n"
    "3,0.03703703703703698,0.5185185185185185\n"
)
GOLDEN_TWIRL_CSV = (
    "theta_degrees,purity,entropy,m00_re,m00_im,m01_re,m01_im,m10_re,m10_im,m11_re,m11_im\n"
    "37.0,0.9999999999999999,2.0777794901414874e-15,0.964042055365588,0.0,"
    "-0.13926706370852365,-0.12357044880587983,-0.13926706370852365,0.12357044880587983,"
    "0.03595794463441199,0.0\n"
)
GOLDEN_MEASURE_CSV = (
    "repeat,polarized_weight,unpolarized_weight,"
    "m00_re,m00_im,m01_re,m01_im,m10_re,m10_im,m11_re,m11_im\n"
    "2,0.8017837257372731,0.19821627426272692,0.8214285714285714,0.0,"
    "0.10714285714285714,-0.21428571428571427,0.10714285714285714,0.21428571428571427,"
    "0.1785714285714286,0.0\n"
)


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(args, capsys):
    code, out, err = run(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_odds_table_json(capsys):
    doc = run_json(["odds-table"], capsys)
    assert doc["config"]["command"] == "odds-table"
    assert doc["config"]["seed"] == 0
    assert doc["config"]["mode"] == "analytic"
    assert doc["duration_ms"] >= 0.0
    rows = doc["results"]["rows"]
    assert [r["case"] for r in rows] == [1, 2, 3]
    assert abs(rows[0]["q_win"] - 1.0) <= 1e-12
    assert abs(rows[1]["q_win"] - 0.5) <= 1e-12
    assert abs(rows[2]["q_win"] - 2 / 3) <= 1e-12
    assert [r["odds"] for r in rows] == ["1:0", "1:1", "2:1"]
    state = cli.pairs_to_matrix(rows[2]["post_state"])
    pf.validate_density(state)
    np.testing.assert_allclose(state, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_odds_table_csv_golden(capsys):
    code, out, err = run(["odds-table", "--format", "csv"], capsys)
    assert code == 0
    assert out == GOLDEN_ODDS_CSV


@pytest.mark.parametrize(
    "args, golden",
    [
        (["iterate", "--n-max", "3"], GOLDEN_ITERATE_CSV),
        (["twirl", "--theta", "37", "--axis", "1,2,3"], GOLDEN_TWIRL_CSV),
        (["measure", "--axis", "1,2,3", "--repeat", "2"], GOLDEN_MEASURE_CSV),
    ],
)
def test_csv_goldens(args, golden, capsys):
    code, out, err = run(args + ["--format", "csv"], capsys)
    assert code == 0, err
    assert out == golden


def test_odds_table_mc(capsys):
    doc = run_json(["odds-table", "--mode", "mc", "--samples", "2000"], capsys)
    rows = doc["results"]["rows"]
    for row in rows:
        assert "std_error" in row
    # the pre-aligned opening state is a fixed point, so case 1 stays exact
    assert abs(rows[0]["q_win"] - 1.0) <= 1e-12
    assert rows[0]["std_error"] <= 1e-7
    assert abs(rows[1]["q_win"] - 0.5) < 0.05
    assert abs(rows[2]["q_win"] - 2 / 3) < 0.05
    code, out, err = run(
        ["odds-table", "--mode", "mc", "--samples", "2000", "--format", "csv"], capsys
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "case,strategy,q_win,odds,std_error"


def test_json_runs_identical_up_to_duration(capsys):
    a = run_json(["odds-table", "--mode", "mc", "--samples", "1000"], capsys)
    b = run_json(["odds-table", "--mode", "mc", "--samples", "1000"], capsys)
    a.pop("duration_ms")
    b.pop("duration_ms")
    assert a == b


def test_csv_runs_byte_identical(capsys):
    args = ["odds-table", "--mode", "mc", "--samples", "1000", "--format", "csv"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_seed_changes_mc_but_not_analytic(capsys):
    args = ["iterate", "--n-max", "3", "--format", "csv"]
    _, a, _ = run(args + ["--seed", "0"], capsys)
    _, b, _ = run(args + ["--seed", "1"], capsys)
    assert a == b
    mc = args + ["--mode", "mc", "--samples", "2000"]
    _, a, _ = run(mc + ["--seed", "0"], capsys)
    _, b, _ = run(mc + ["--seed", "1"], capsys)
    assert a != b


def test_angle_scan_defaults(capsys):
    doc = run_json(["angle-scan"], capsys)
    results = doc["results"]
    assert len(results["rows"]) == 181
    assert abs(results["refined_root_degrees"] - 120.0) < 1e-6
    assert results["argmin_theta_degrees"] == 120.0
    row120 = results["rows"][120]
    assert row120["theta_degrees"] == 120.0
    assert row120["trace_distance_to_mixed"] < 1e-12
    assert results["rows"][0]["purity"] == 1.0
    assert doc["config"]["steps"] == 181


def test_angle_scan_refines_the_fair_angle_to_seven_decimals(capsys):
    root = run_json(["angle-scan"], capsys)["results"]["refined_root_degrees"]
    assert f"{root:.7f}" == "120.0000000"


def test_angle_scan_csv(capsys):
    code, out, err = run(["angle-scan", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_degrees,purity,trace_distance_to_mixed,refined_root_degrees"
    assert len(lines) == 182
    reader = csv.reader(io.StringIO(out))
    next(reader)
    last_col = {row[3] for row in reader}
    assert len(last_col) == 1
    assert abs(float(last_col.pop()) - 120.0) < 1e-6


def test_angle_scan_range_errors(capsys):
    code, out, err = run(["angle-scan", "--theta-min", "100", "--theta-max", "50"], capsys)
    assert code == 2
    assert "error:" in err
    code, out, err = run(["angle-scan", "--steps", "1"], capsys)
    assert code == 2


def test_iterate_analytic(capsys):
    doc = run_json(["iterate", "--n-max", "4"], capsys)
    rows = doc["results"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for row in rows:
        n = row["n"]
        assert abs(row["polarized_weight"] - 3.0 ** (-n)) <= 1e-12
        assert abs(row["q_win"] - (0.5 + 0.5 * 3.0 ** (-n))) <= 1e-12
        assert "mc_q_win" not in row


def test_iterate_sixth_round_polarized_weight(capsys):
    row = run_json(["iterate", "--n-max", "6"], capsys)["results"]["rows"][5]
    assert row["n"] == 6
    assert f"{row['polarized_weight']:.9f}" == "0.001371742"


def test_iterate_mc_columns(capsys):
    code, out, err = run(
        ["iterate", "--n-max", "3", "--mode", "mc", "--samples", "2000", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,polarized_weight,q_win,mc_polarized_weight,mc_q_win,mc_std_error"
    assert len(lines) == 4
    doc = run_json(["iterate", "--n-max", "3", "--mode", "mc", "--samples", "2000"], capsys)
    for row in doc["results"]["rows"]:
        # polarized weight moves at most twice as fast as any matrix entry
        budget = 8 * row["mc_std_error"] + 1e-12
        assert abs(row["mc_polarized_weight"] - row["polarized_weight"]) < budget


def test_iterate_rejects_bad_n(capsys):
    code, out, err = run(["iterate", "--n-max", "0"], capsys)
    assert code == 2


def test_twirl_random_axis_analytic(capsys):
    doc = run_json(["twirl", "--theta", "120"], capsys)
    results = doc["results"]
    assert results["axis"] is None
    state = cli.pairs_to_matrix(results["state"])
    pf.validate_density(state)
    np.testing.assert_allclose(state, pf.MAXIMALLY_MIXED, atol=1e-12)
    assert abs(results["purity"] - 0.5) <= 1e-12
    assert abs(results["entropy"] - math.log(2)) <= 1e-12


def test_twirl_fixed_axis(capsys):
    doc = run_json(["twirl", "--theta", "180", "--axis", "x"], capsys)
    results = doc["results"]
    assert results["axis"] == [1.0, 0.0, 0.0]
    state = cli.pairs_to_matrix(results["state"])
    np.testing.assert_allclose(state, np.diag([0.0, 1.0]), atol=1e-12)
    assert abs(results["entropy"]) <= 1e-12
    doc = run_json(["twirl", "--theta", "90", "--axis", "0,0,5"], capsys)
    assert doc["results"]["axis"] == [0.0, 0.0, 1.0]
    state = cli.pairs_to_matrix(doc["results"]["state"])
    np.testing.assert_allclose(state, pf.SPIN_UP, atol=1e-12)


def test_twirl_mc(capsys):
    doc = run_json(
        ["twirl", "--theta", "120", "--mode", "mc", "--samples", "2000"], capsys
    )
    results = doc["results"]
    se = results["std_error"]
    assert se > 0
    state = cli.pairs_to_matrix(results["state"])
    assert np.max(np.abs(state - pf.MAXIMALLY_MIXED)) < 6 * se


def test_twirl_csv_matches_json_numerals(capsys):
    args = ["twirl", "--theta", "37", "--axis", "1,2,3"]
    doc = run_json(args, capsys)
    code, out, err = run(args + ["--format", "csv"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == (
        "theta_degrees,purity,entropy,"
        "m00_re,m00_im,m01_re,m01_im,m10_re,m10_im,m11_re,m11_im"
    )
    cells = [float(c) for c in row.split(",")]
    results = doc["results"]
    assert cells[0] == results["theta_degrees"]
    assert cells[1] == results["purity"]
    assert cells[2] == results["entropy"]
    flat = [part for pair_row in results["state"] for pair in pair_row for part in pair]
    assert cells[3:] == flat


def test_twirl_axis_errors(capsys):
    code, out, err = run(["twirl", "--theta", "90", "--axis", "random"], capsys)
    assert code == 2
    code, out, err = run(["twirl", "--theta", "90", "--axis", "0,0,0"], capsys)
    assert code == 2


def test_measure_fixed_axes(capsys):
    doc = run_json(["measure", "--axis", "z"], capsys)
    results = doc["results"]
    assert results["axis"] == [0.0, 0.0, 1.0]
    np.testing.assert_allclose(
        cli.pairs_to_matrix(results["state"]), pf.SPIN_UP, atol=1e-12
    )
    assert abs(results["polarized_weight"] - 1.0) <= 1e-12
    doc = run_json(["measure", "--axis", "x"], capsys)
    np.testing.assert_allclose(
        cli.pairs_to_matrix(doc["results"]["state"]), pf.MAXIMALLY_MIXED, atol=1e-12
    )
    assert abs(doc["results"]["polarized_weight"]) <= 1e-12


def test_measure_random_axis(capsys):
    doc = run_json(["measure"], capsys)
    results = doc["results"]
    assert results["axis"] == "random"
    np.testing.assert_allclose(
        cli.pairs_to_matrix(results["state"]), np.diag([2 / 3, 1 / 3]), atol=1e-12
    )
    assert abs(results["polarized_weight"] - 1 / 3) <= 1e-12
    assert abs(results["unpolarized_weight"] - 2 / 3) <= 1e-12


def test_measure_repeat(capsys):
    doc = run_json(["measure", "--repeat", "3"], capsys)
    assert abs(doc["results"]["polarized_weight"] - 1 / 27) <= 1e-12
    doc = run_json(
        ["measure", "--repeat", "2", "--mode", "mc", "--samples", "2000"], capsys
    )
    results = doc["results"]
    budget = 8 * results["std_error"] + 1e-12
    assert abs(results["polarized_weight"] - 1 / 9) < budget


def test_measure_along_huge_and_tiny_axes(capsys):
    reference = run_json(["measure", "--axis=1,1,0"], capsys)
    reference.pop("duration_ms")
    _, reference_csv, _ = run(["measure", "--axis=1,1,0", "--format", "csv"], capsys)
    for axis in ("1e200,1e200,0", "1e-200,1e-200,0"):
        doc = run_json(["measure", f"--axis={axis}"], capsys)
        doc.pop("duration_ms")
        assert doc == reference
        code, out, err = run(["measure", f"--axis={axis}", "--format", "csv"], capsys)
        assert (code, out) == (0, reference_csv), err


def test_measure_argument_errors(capsys):
    assert run(["measure", "--repeat", "0"], capsys)[0] == 2
    assert run(["measure", "--axis", "0,0,0"], capsys)[0] == 2
    assert run(["measure", "--axis", "1,2"], capsys)[0] == 2
    assert run(["measure", "--axis", "1,two,3"], capsys)[0] == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(["odds-table", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["config"]["output"] == str(target)
    assert [r["odds"] for r in doc["results"]["rows"]] == ["1:0", "1:1", "2:1"]


def test_output_file_unwritable(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "report.json"
    code, out, err = run(["odds-table", "--output", str(target)], capsys)
    assert code == 3
    assert "error:" in err


def test_argparse_failures_exit_2():
    for args in (
        ["bogus"],
        ["odds-table", "--mode", "exact"],
        ["odds-table", "--samples", "0"],
        ["odds-table", "--seed", "-1"],
        ["odds-table", "--seed", str(2**64)],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pennyflip.cli", "odds-table", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_ODDS_CSV
