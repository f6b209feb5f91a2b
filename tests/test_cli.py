import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nc_hardy import NcSeries
from nc_hardy.cli import cli, main


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "nc_hardy", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def crossterm_file(tmp_path):
    f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
    path = tmp_path / "crossterm.json"
    path.write_text(json.dumps(f.to_json_dict()))
    return str(path)


@pytest.fixture
def letter_file(tmp_path):
    f = NcSeries(2, {(1,): 1.0})
    path = tmp_path / "letter.json"
    path.write_text(json.dumps(f.to_json_dict()))
    return str(path)


def write_tuple(tmp_path, name, mats):
    arrs = [np.asarray(a, dtype=complex) for a in mats]
    n = arrs[0].shape[0]
    payload = {
        "m": len(arrs),
        "n": n,
        "matrices": [[[[z.real, z.imag] for z in row] for row in a] for a in arrs],
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def _golden_cases() -> dict[str, list[str]]:
    """Output file name -> CLI arguments.  The outputs were captured before the
    `pairing` command's own grid loop was replaced by `hardy.pairing_grid`."""
    f, g = str(GOLDEN / "f.json"), str(GOLDEN / "g.json")
    grid = ["--N", "2", "--N", "3", "--r", "0.5", "--r", "1.0"]
    sampled = ["--samples", "2000", "--seed", "7"]
    cases = {}
    for space in ("polydisc", "ball", "ball-row"):
        for engine in ("exact", "mc", "both"):
            for fmt in ("json", "csv"):
                if fmt == "csv" and engine == "both":
                    continue
                args = ["pairing", f, g, "--space", space, "--engine", engine, "--format", fmt]
                cases[f"pairing-{space}-{engine}.{fmt}"] = (
                    args + grid + (sampled if engine != "exact" else [])
                )
    for engine in ("exact", "mc"):
        for fmt in ("json", "csv"):
            args = ["profile", f, "--space", "ball", "--engine", engine, "--format", fmt]
            cases[f"profile-ball-{engine}.{fmt}"] = (
                args + grid + (sampled if engine == "mc" else [])
            )
    recover = ["recover", f, "--word", "1,2", "--N", "2", "--N", "3", "--r", "0.9"]
    cases["recover-polydisc-exact.json"] = recover + ["--richardson"]
    cases["recover-ball-exact.csv"] = recover + ["--space", "ball", "--format", "csv"]
    cases["recover-polydisc-mc.json"] = recover + ["--engine", "mc", *sampled, "--richardson"]
    cases["recover-ball-mc.csv"] = recover + [
        "--space", "ball", "--engine", "mc", "--format", "csv", *sampled
    ]
    return cases


GOLDEN_CASES = _golden_cases()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    result = CliRunner().invoke(cli, GOLDEN_CASES[name])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


class TestWgCommand:
    def test_order_two_values(self):
        res = run_cli("wg", "--n", "2", "--N", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        rows = {tuple(row["cycle_type"]): row for row in data["rows"]}
        assert rows[(1, 1)]["fraction"] == "1/3"
        assert rows[(2,)]["fraction"] == "-1/6"
        assert rows[(1, 1)]["n_exponent"] == -2

    def test_order_one(self):
        res = run_cli("wg", "--n", "1", "--N", "5")
        assert json.loads(res.stdout)["rows"][0]["value"] == 0.2

    def test_singular_regime_exit_code(self):
        res = run_cli("wg", "--n", "3", "--N", "2")
        assert res.returncode == 2

    def test_usage_error_exit_code(self):
        assert run_cli("wg", "--n", "2").returncode == 1
        assert run_cli("nonsense").returncode == 1


class TestMomentCommand:
    def test_second_moment(self):
        res = run_cli("moment", "--N", "4", "--up", "1,1", "--conj", "1,1")
        data = json.loads(res.stdout)
        assert data["fraction"] == "1/4"
        assert data["exact"] is True

    def test_unbalanced_is_zero(self):
        res = run_cli("moment", "--N", "4", "--up", "1,1")
        assert json.loads(res.stdout)["value"] == 0.0


class TestPairingCommand:
    def test_crossterm_exact(self, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--N", "2", "--r", "1.0", "--engine", "exact",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["rows"][0]["value_re"] == 2.5
        assert data["rows"][0]["exact"] is True

    def test_constant_cells(self, letter_file):
        res = run_cli(
            "pairing", letter_file, letter_file,
            "--N", "2", "--N", "4", "--r", "0.5", "--format", "csv",
        )
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "param_r,param_N,value_re,value_im"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[2]) == 0.25

    def test_csv_determinism(self, crossterm_file):
        args = (
            "pairing", crossterm_file, crossterm_file,
            "--N", "3", "--engine", "mc", "--samples", "2000",
            "--seed", "99", "--format", "csv",
        )
        out1 = run_cli(*args).stdout
        out2 = run_cli(*args).stdout
        assert out1 == out2
        assert "std_error" in out1.split("\n")[0]

    def test_engine_both_reports_deltas(self, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--N", "4", "--engine", "both", "--samples", "5000", "--seed", "5",
        )
        data = json.loads(res.stdout)
        row = data["rows"][0]
        assert "delta_se" in row and "mc" in row
        assert data["flags"]["cross_oracle_within_3se"] is True

    def test_csv_rejects_both(self, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--engine", "both", "--format", "csv",
        )
        assert res.returncode == 1

    def test_malformed_series_names_term(self, tmp_path, crossterm_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "terms": [{"word": [1], "re": 1.0}, {"word": "x", "re": 0.0}]}))
        res = run_cli("pairing", str(bad), crossterm_file)
        assert res.returncode == 1
        assert "term 1" in res.stderr

    def test_non_finite_coefficient_rejected(self, tmp_path, crossterm_file):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"m": 2, "terms": [{"word": [1], "re": float("nan")}]}))
        res = run_cli("pairing", str(bad), crossterm_file)
        assert res.returncode == 1
        assert "term 0" in res.stderr

    def test_m_mismatch_rejected(self, crossterm_file):
        res = run_cli("pairing", crossterm_file, crossterm_file, "--m", "3")
        assert res.returncode == 1

    def test_zero_dimension_is_a_precondition_error(self, crossterm_file):
        args = ["pairing", crossterm_file, crossterm_file, "--N", "0", "--samples", "100"]
        for engine in ("exact", "mc"):
            assert main([*args, "--engine", engine]) == 2


class TestInnerCommand:
    def test_values(self, crossterm_file):
        res = run_cli("inner", crossterm_file, crossterm_file)
        assert json.loads(res.stdout)["re"] == 2.0
        res = run_cli("inner", crossterm_file, crossterm_file, "--space", "ball")
        assert json.loads(res.stdout)["re"] == 0.5


class TestRecoverCommand:
    def test_crossterm_trend(self, crossterm_file):
        res = run_cli(
            "recover", crossterm_file, "--word", "1,2",
            "--N", "2", "--N", "4", "--N", "8",
        )
        data = json.loads(res.stdout)
        assert [row["value_re"] for row in data["rows"]] == [1.25, 1.0625, 1.015625]
        assert data["recovered_re"] == 1.015625

    def test_wrong_length_word_exactly_zero(self, crossterm_file):
        res = run_cli("recover", crossterm_file, "--word", "1", "--N", "2", "--N", "4")
        data = json.loads(res.stdout)
        assert all(row["value_re"] == 0.0 for row in data["rows"])
        assert all(row["exact"] for row in data["rows"])


class TestUpsilonCommand:
    def test_fast_path(self, tmp_path):
        path = write_tuple(tmp_path, "half.json", [0.5 * np.eye(2), 0.5 * np.eye(2)])
        data = json.loads(run_cli("upsilon", path, "--p", "1.0").stdout)
        assert data["status"] == "converged"
        assert abs(data["bound"] - 2.0) < 1e-12

    def test_nilpotent(self, tmp_path):
        path = write_tuple(
            tmp_path, "nil.json", [np.array([[0, 3.0], [0, 0]]), np.zeros((2, 2))]
        )
        data = json.loads(run_cli("upsilon", path).stdout)
        assert data["status"] == "converged"

    def test_diverging_scalar(self, tmp_path):
        path = write_tuple(tmp_path, "one.json", [np.array([[1.0]]), np.array([[0.0]])])
        data = json.loads(run_cli("upsilon", path).stdout)
        assert data["status"] == "diverged"

    def test_non_finite_entry_rejected(self, tmp_path):
        path = write_tuple(tmp_path, "inf.json", [np.array([[np.inf]]), np.zeros((1, 1))])
        res = run_cli("upsilon", path)
        assert res.returncode == 1
        assert "finite" in res.stderr


class TestKernelCommand:
    def test_scalar_geometric(self, tmp_path):
        x = write_tuple(tmp_path, "x.json", [np.array([[0.5]])])
        y = write_tuple(tmp_path, "y.json", [np.array([[0.4]])])
        data = json.loads(run_cli("kernel", x, y, "--max-degree", "30").stdout)
        assert abs(data["value_re"][0][0] - 1.25) < 1e-6
        assert data["tail_bound"] < 1e-6


class TestProfileCommand:
    def test_csv_grid(self, letter_file):
        res = run_cli(
            "profile", letter_file, "--N", "2", "--N", "4", "--r", "0.5", "--r", "1.0"
        )
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "param_r,param_N,value_re,value_im"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == [0.25, 0.25, 1.0, 1.0]

    def test_json_sup_and_limit(self, crossterm_file):
        res = run_cli(
            "profile", crossterm_file, "--N", "1", "--N", "4",
            "--r", "1.0", "--format", "json",
        )
        data = json.loads(res.stdout)
        assert data["s_estimate"] == 4.0
        assert data["limit_inner_product_re"] == 2.0


class TestFreenessCommand:
    def test_alternating_product(self, tmp_path):
        factors = [
            {"letter": 1, "terms": [{"power": 1, "re": 1.0, "im": 0.0}]},
            {"letter": 2, "terms": [{"power": 1, "re": 1.0, "im": 0.0}]},
        ]
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors))
        res = run_cli(
            "freeness", str(path), "--N", "4", "--N", "8",
            "--samples", "4000", "--seed", "11",
        )
        data = json.loads(res.stdout)
        assert len(data["rows"]) == 2
        assert data["final_within_3se"] is True

    def test_non_alternating_rejected(self, tmp_path):
        factors = [
            {"letter": 1, "terms": [{"power": 1, "re": 1.0}]},
            {"letter": 1, "terms": [{"power": 2, "re": 1.0}]},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(factors))
        assert run_cli("freeness", str(path), "--samples", "100").returncode == 1

    def test_constant_factor_rejected(self, tmp_path):
        factors = [{"letter": 1, "terms": [{"power": 0, "re": 1.0}]}]
        path = tmp_path / "const.json"
        path.write_text(json.dumps(factors))
        assert run_cli("freeness", str(path), "--samples", "100").returncode == 1


class TestSelftestCommand:
    def test_exact_subset_passes(self):
        res = run_cli("selftest", "--only", "3", "--only", "4", "--only", "7")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 3

    def test_seed_override_leaves_exact_criteria_unchanged(self):
        out1 = run_cli("selftest", "--only", "3", "--only", "7").stdout
        out2 = run_cli("selftest", "--only", "3", "--only", "7", "--seed", "555").stdout
        # Elapsed times such as "(  0.01s)" vary from run to run; status, name
        # and details must not.
        elapsed = re.compile(r"\(\s*\d+\.\d+s\)")
        strip = lambda text: [
            elapsed.sub("(elapsed)", line) for line in text.splitlines() if "seed" not in line
        ]
        assert strip(out1) == strip(out2)
        assert out1 != out2

    def test_corruption_negative_control(self):
        res = run_cli("selftest", "--only", "1", "--inject-wg-corruption")
        assert res.returncode == 3
        assert "FAIL" in res.stdout


class TestOutputFile:
    def test_out_flag_writes_file(self, letter_file, tmp_path):
        target = tmp_path / "report.csv"
        res = run_cli(
            "pairing", letter_file, letter_file, "--N", "2",
            "--format", "csv", "--out", str(target),
        )
        assert res.returncode == 0
        assert target.read_text().startswith("param_r,param_N")
