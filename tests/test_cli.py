import json
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nc_hardy import NcSeries, acceptance
from nc_hardy.cli import cli, main
from nc_hardy.weingarten import WeingartenTable


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run `nc-hardy ARGS...` in-process through `main`, with its exit code
    and captured output."""

    def run(*args: str) -> CliResult:
        capsys.readouterr()
        code = main(list(args))
        out, err = capsys.readouterr()
        return CliResult(code, out, err)

    return run


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


def _no_call(*args, **kwargs):
    raise AssertionError("the library ran")


GOLDEN = Path(__file__).parent / "golden"


def _golden_cases() -> dict[str, list[str]]:
    """Output file name -> CLI arguments.  The exact outputs were captured before
    the `pairing` command's own grid loop was replaced by `hardy.pairing_grid`;
    the Monte Carlo and `both` outputs were captured again under stream plan 4.
    Under plan 5 the three `pairing-*-both.json` changed only in their
    `"stream_plan"`, and the two Monte Carlo recoveries at r = 0.9
    (`recover-polydisc-mc.json`, `recover-ball-mc.csv`) in their last digits,
    since a recovery became the pairing with X^w at r scaled by r^{-2|w|}."""
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
    def test_order_two_values(self, run_cli):
        res = run_cli("wg", "--n", "2", "--N", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        rows = {tuple(row["cycle_type"]): row for row in data["rows"]}
        assert rows[(1, 1)]["fraction"] == "1/3"
        assert rows[(2,)]["fraction"] == "-1/6"
        assert rows[(1, 1)]["n_exponent"] == -2

    def test_order_one(self, run_cli):
        res = run_cli("wg", "--n", "1", "--N", "5")
        assert json.loads(res.stdout)["rows"][0]["value"] == 0.2

    def test_below_order_values(self, run_cli):
        res = run_cli("wg", "--n", "3", "--N", "2")
        assert res.returncode == 0
        rows = {tuple(row["cycle_type"]): row for row in json.loads(res.stdout)["rows"]}
        assert rows[(1, 1, 1)]["fraction"] == "17/144"
        assert rows[(2, 1)]["fraction"] == "1/144"
        assert rows[(3,)]["fraction"] == "-7/144"

    def test_usage_error_exit_code(self, run_cli):
        assert run_cli("wg", "--n", "2").returncode == 1
        assert run_cli("nonsense").returncode == 1


class TestMomentCommand:
    def test_second_moment(self, run_cli):
        res = run_cli("moment", "--N", "4", "--up", "1,1", "--conj", "1,1")
        data = json.loads(res.stdout)
        assert data["fraction"] == "1/4"
        assert data["exact"] is True

    def test_unbalanced_is_zero(self, run_cli):
        res = run_cli("moment", "--N", "4", "--up", "1,1")
        assert json.loads(res.stdout)["value"] == 0.0

    def test_malformed_index_pair_is_usage_error(self, run_cli):
        for pair in ("a,b", "1", "1,2,3"):
            res = run_cli("moment", "--N", "4", "--up", pair, "--conj", "1,1")
            assert res.returncode == 1, pair
            assert "index pair" in res.stderr

    def test_non_positive_dimension_is_a_precondition_error(self, run_cli):
        for dim in ("0", "-3"):
            res = run_cli("moment", "--N", dim)
            assert res.returncode == 2, dim
            assert res.stdout == ""
            assert "N must be >= 1" in res.stderr


class TestPairingCommand:
    def test_crossterm_exact(self, run_cli, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--N", "2", "--r", "1.0", "--engine", "exact",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["rows"][0]["value_re"] == 2.5
        assert data["rows"][0]["exact"] is True

    def test_constant_cells(self, run_cli, letter_file):
        res = run_cli(
            "pairing", letter_file, letter_file,
            "--N", "2", "--N", "4", "--r", "0.5", "--format", "csv",
        )
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "param_r,param_N,value_re,value_im"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[2]) == 0.25

    def test_csv_determinism(self, run_cli, crossterm_file):
        args = (
            "pairing", crossterm_file, crossterm_file,
            "--N", "3", "--engine", "mc", "--samples", "2000",
            "--seed", "99", "--format", "csv",
        )
        out1 = run_cli(*args).stdout
        out2 = run_cli(*args).stdout
        assert out1 == out2
        assert "std_error" in out1.split("\n")[0]

    def test_engine_both_reports_deltas(self, run_cli, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--N", "4", "--engine", "both", "--samples", "5000", "--seed", "5",
        )
        data = json.loads(res.stdout)
        row = data["rows"][0]
        assert "delta_se" in row and "mc" in row
        assert data["flags"]["cross_oracle_within_3se"] is True

    @pytest.mark.parametrize(
        "series, r",
        [
            (NcSeries(2, {(): 0.3, (1,): 1.0, (1, 2): 0.7j}), "1.0"),
            (NcSeries(1, {(): 0.5, (1,): 1.0, (1, 1): 0.5j, (1, 1, 1): -0.25}), "0.9"),
        ],
    )
    def test_engine_both_agrees_on_one_word_strata(self, run_cli, tmp_path, series, r):
        # on the polydisc every stratum here is one word, so the Monte Carlo
        # value is exact up to rounding, and its SE is the rounding floor
        path = tmp_path / "f.json"
        path.write_text(json.dumps(series.to_json_dict()))
        res = run_cli(
            "pairing", str(path), str(path), "--space", "polydisc", "--r", r,
            "--engine", "both", "--samples", "20000", "--format", "json",
        )
        data = json.loads(res.stdout)
        assert all(row["delta_se"] <= 3.0 for row in data["rows"]), data["rows"]
        assert data["flags"]["cross_oracle_within_3se"] is True

    def test_csv_rejects_both(self, run_cli, crossterm_file):
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--engine", "both", "--format", "csv",
        )
        assert res.returncode == 1

    def test_malformed_series_names_term(self, run_cli, tmp_path, crossterm_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "terms": [{"word": [1], "re": 1.0}, {"word": "x", "re": 0.0}]}))
        res = run_cli("pairing", str(bad), crossterm_file)
        assert res.returncode == 1
        assert "term 1" in res.stderr

    def test_non_finite_coefficient_rejected(self, run_cli, tmp_path, crossterm_file):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"m": 2, "terms": [{"word": [1], "re": float("nan")}]}))
        res = run_cli("pairing", str(bad), crossterm_file)
        assert res.returncode == 1
        assert "term 0" in res.stderr

    def test_m_mismatch_rejected(self, run_cli, crossterm_file):
        res = run_cli("pairing", crossterm_file, crossterm_file, "--m", "3")
        assert res.returncode == 1

    def test_series_on_different_alphabets_is_a_precondition_error(
        self, run_cli, tmp_path, crossterm_file
    ):
        other = tmp_path / "m3.json"
        other.write_text(json.dumps(NcSeries(3, {(1, 3): 1.0}).to_json_dict()))
        res = run_cli("pairing", crossterm_file, str(other))
        assert res.returncode == 2
        assert "precondition error: alphabet sizes differ: 2, 3" in res.stderr

    def test_too_few_samples_is_a_precondition_error(self, run_cli, crossterm_file, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_call)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_call)
        for engine in ("mc", "both"):
            res = run_cli(
                "pairing", crossterm_file, crossterm_file, "--engine", engine, "--samples", "1"
            )
            assert res.returncode == 2, engine
            assert "samples must be >= 2" in res.stderr
            assert res.stdout == ""

    def test_series_alphabet_size_must_be_a_json_integer(self, run_cli, tmp_path, crossterm_file):
        for m in (True, 1.5, "1"):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"m": m, "terms": [{"word": [1], "re": 1.0}]}))
            res = run_cli("pairing", str(bad), crossterm_file)
            assert res.returncode == 1, m
            assert "input error" in res.stderr and '"m" must be an integer' in res.stderr

    def test_zero_dimension_is_a_precondition_error(self, crossterm_file):
        args = ["pairing", crossterm_file, crossterm_file, "--N", "0", "--samples", "100"]
        for engine in ("exact", "mc"):
            assert main([*args, "--engine", engine]) == 2
        # a non-finite radius is refused the same way, before any cell runs
        args = ["pairing", crossterm_file, crossterm_file, "--r", "nan", "--samples", "100"]
        for engine in ("exact", "mc", "both"):
            assert main([*args, "--engine", engine]) == 2

    def test_invalid_level_fails_before_sampling(self, run_cli, crossterm_file, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", no_cell)
        res = run_cli(
            "pairing", crossterm_file, crossterm_file,
            "--N", "16", "--N", "0", "--engine", "mc", "--samples", "1000000",
        )
        assert res.returncode == 2
        assert "N must be >= 1" in res.stderr


class TestGridCommandOptions:
    """What pairing, recover and profile accept, and when they check it."""

    def grid_commands(self, path):
        return (
            ["pairing", path, path, "--N", "2"],
            ["recover", path, "--word", "1,2", "--N", "2"],
            ["profile", path, "--N", "2", "--r", "1.0"],
        )

    def test_exact_engine_ignores_seed_environment(self, run_cli, monkeypatch, crossterm_file):
        monkeypatch.setenv("NC_HARDY_SEED", "abc")
        for args in self.grid_commands(crossterm_file):
            res = run_cli(*args, "--format", "json")
            assert res.returncode == 0, (args, res.stderr)
            config = json.loads(res.stdout)["config"]
            assert "seed" not in config and "samples" not in config
            res = run_cli(*args, "--engine", "mc", "--samples", "100")
            assert res.returncode == 2, args
            assert "precondition error" in res.stderr
        res = run_cli(*self.grid_commands(crossterm_file)[0], "--engine", "both")
        assert res.returncode == 2

    def test_unsupported_choices_rejected_before_reading(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cases = (
            ["recover", str(bad), "--word", "1", "--engine", "both"],
            ["profile", str(bad), "--engine", "both"],
            ["profile", str(bad), "--space", "ball-row"],
            ["inner", str(bad), str(bad), "--space", "ball-row"],
        )
        for args in cases:
            res = run_cli(*args)
            assert res.returncode == 1, args
            assert "Invalid value" in res.stderr and "input error" not in res.stderr
        # the same file is an input error once the options are valid
        res = run_cli("profile", str(bad))
        assert res.returncode == 1 and "input error" in res.stderr


class TestInnerCommand:
    def test_values(self, run_cli, crossterm_file):
        res = run_cli("inner", crossterm_file, crossterm_file)
        assert json.loads(res.stdout)["re"] == 2.0
        res = run_cli("inner", crossterm_file, crossterm_file, "--space", "ball")
        assert json.loads(res.stdout)["re"] == 0.5


class TestRecoverCommand:
    def test_crossterm_trend(self, run_cli, crossterm_file):
        res = run_cli(
            "recover", crossterm_file, "--word", "1,2",
            "--N", "2", "--N", "4", "--N", "8",
        )
        data = json.loads(res.stdout)
        assert [row["value_re"] for row in data["rows"]] == [1.25, 1.0625, 1.015625]
        assert data["recovered_re"] == 1.015625

    def test_richardson_with_one_level_is_a_precondition_error(self, run_cli, crossterm_file):
        for engine in ("exact", "mc"):
            res = run_cli(
                "recover", crossterm_file, "--word", "1,2", "--N", "4",
                "--engine", engine, "--richardson",
            )
            assert res.returncode == 2, engine
            assert res.stdout == ""
            assert "richardson needs at least two distinct levels" in res.stderr

    def test_wrong_length_word_exactly_zero(self, run_cli, crossterm_file):
        res = run_cli("recover", crossterm_file, "--word", "1", "--N", "2", "--N", "4")
        data = json.loads(res.stdout)
        assert all(row["value_re"] == 0.0 for row in data["rows"])
        assert all(row["exact"] for row in data["rows"])


class TestTupleFile:
    def test_sizes_must_be_json_integers(self, run_cli, tmp_path):
        good = {"m": 1, "n": 1, "matrices": [[[[0.5, 0.0]]]]}
        for key in ("m", "n"):
            for value in (True, 1.5, "1"):
                path = tmp_path / "bad.json"
                path.write_text(json.dumps({**good, key: value}))
                for command in (["upsilon", str(path)], ["kernel", str(path), str(path)]):
                    res = run_cli(*command)
                    assert res.returncode == 1, (command, key, value)
                    assert "input error" in res.stderr
                    assert f'"{key}" must be an integer' in res.stderr
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        assert run_cli("upsilon", str(path)).returncode == 0


class TestUpsilonCommand:
    def test_fast_path(self, run_cli, tmp_path):
        path = write_tuple(tmp_path, "half.json", [0.5 * np.eye(2), 0.5 * np.eye(2)])
        data = json.loads(run_cli("upsilon", path, "--p", "1.0").stdout)
        assert data["status"] == "converged"
        assert abs(data["bound"] - 2.0) < 1e-12

    def test_nilpotent(self, run_cli, tmp_path):
        path = write_tuple(
            tmp_path, "nil.json", [np.array([[0, 3.0], [0, 0]]), np.zeros((2, 2))]
        )
        data = json.loads(run_cli("upsilon", path).stdout)
        assert data["status"] == "converged"

    def test_diverging_scalar(self, run_cli, tmp_path):
        path = write_tuple(tmp_path, "one.json", [np.array([[1.0]]), np.array([[0.0]])])
        data = json.loads(run_cli("upsilon", path).stdout)
        assert data["status"] == "diverged"

    def test_non_finite_entry_rejected(self, run_cli, tmp_path):
        path = write_tuple(tmp_path, "inf.json", [np.array([[np.inf]]), np.zeros((1, 1))])
        res = run_cli("upsilon", path)
        assert res.returncode == 1
        assert "finite" in res.stderr

    def test_non_finite_p_is_a_precondition_error(self, tmp_path):
        path = write_tuple(tmp_path, "half.json", [0.5 * np.eye(2)])
        for p in ("nan", "inf"):
            assert main(["upsilon", path, "--p", p]) == 2

    def test_non_finite_threshold_is_a_precondition_error(self, run_cli, tmp_path):
        path = write_tuple(tmp_path, "one.json", [np.array([[1.0]])])
        args = ["upsilon", path, "--max-degree", "5"]
        data = json.loads(run_cli(*args, "--threshold", "3").stdout)
        assert data["status"] == "diverged"
        for threshold in ("nan", "inf"):
            assert main([*args, "--threshold", threshold]) == 2


class TestKernelCommand:
    def test_scalar_geometric(self, run_cli, tmp_path):
        x = write_tuple(tmp_path, "x.json", [np.array([[0.5]])])
        y = write_tuple(tmp_path, "y.json", [np.array([[0.4]])])
        data = json.loads(run_cli("kernel", x, y, "--max-degree", "30").stdout)
        assert abs(data["value_re"][0][0] - 1.25) < 1e-6
        assert data["tail_bound"] < 1e-6

    def test_non_finite_p_is_a_precondition_error(self, tmp_path):
        x = write_tuple(tmp_path, "x.json", [np.array([[0.5]])])
        for p in ("nan", "inf"):
            assert main(["kernel", x, x, "--p", p]) == 2


class TestProfileCommand:
    def test_csv_grid(self, run_cli, letter_file):
        res = run_cli(
            "profile", letter_file, "--N", "2", "--N", "4", "--r", "0.5", "--r", "1.0"
        )
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "param_r,param_N,value_re,value_im"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == [0.25, 0.25, 1.0, 1.0]

    def test_json_sup_and_limit(self, run_cli, crossterm_file):
        res = run_cli(
            "profile", crossterm_file, "--N", "1", "--N", "4",
            "--r", "1.0", "--format", "json",
        )
        data = json.loads(res.stdout)
        assert data["s_estimate"] == 4.0
        assert data["limit_inner_product_re"] == 2.0

    def test_radius_outside_unit_interval_is_a_precondition_error(self, run_cli, crossterm_file):
        for r in ("2.0", "-1", "0"):
            for engine in ("exact", "mc"):
                res = run_cli(
                    "profile", crossterm_file, "--N", "2", "--r", r, "--r", "1.0",
                    "--engine", engine, "--format", "json",
                )
                assert res.returncode == 2, (r, engine)
                assert res.stdout == ""
                assert "precondition error: r must lie in (0, 1]" in res.stderr


class TestFreenessCommand:
    def test_alternating_product(self, run_cli, tmp_path):
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

    def test_non_alternating_rejected(self, run_cli, tmp_path):
        factors = [
            {"letter": 1, "terms": [{"power": 1, "re": 1.0}]},
            {"letter": 1, "terms": [{"power": 2, "re": 1.0}]},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(factors))
        assert run_cli("freeness", str(path), "--samples", "100").returncode == 1

    def test_constant_factor_rejected(self, run_cli, tmp_path):
        factors = [{"letter": 1, "terms": [{"power": 0, "re": 1.0}]}]
        path = tmp_path / "const.json"
        path.write_text(json.dumps(factors))
        assert run_cli("freeness", str(path), "--samples", "100").returncode == 1

    def test_non_finite_coefficient_rejected(self, run_cli, tmp_path):
        for re_part, im_part in ((float("nan"), 0.0), (1.0, float("inf"))):
            factors = [{"letter": 1, "terms": [{"power": 1, "re": re_part, "im": im_part}]}]
            path = tmp_path / "nan.json"
            path.write_text(json.dumps(factors))
            res = run_cli("freeness", str(path), "--N", "2", "--samples", "100")
            assert res.returncode == 1
            assert "input error" in res.stderr and "factor 0" in res.stderr
            assert res.stdout == ""


    def test_non_integer_letter_or_power_rejected(self, run_cli, tmp_path):
        for letter, power in ((1, 1.5), (2.7, 1), (1, True), (True, 1), (1, "1")):
            factors = [{"letter": letter, "terms": [{"power": power, "re": 1.0}]}]
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(factors))
            res = run_cli("freeness", str(path), "--N", "2", "--samples", "100")
            assert res.returncode == 1, (letter, power)
            assert "input error" in res.stderr and "must be an integer" in res.stderr
            assert res.stdout == ""


class TestSelftestCommand:
    def test_exact_subset_passes(self, run_cli):
        res = run_cli("selftest", "--only", "3", "--only", "4", "--only", "7")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 3

    def test_seed_override_leaves_exact_criteria_unchanged(self, run_cli):
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

    def test_default_run_reports_each_criterion_seed(self, run_cli, monkeypatch):
        # NC_HARDY_SEED does not reach the battery: without --seed each
        # sampling criterion uses its own fixed seed, and the header says so.
        monkeypatch.setenv("NC_HARDY_SEED", "-5")
        res = run_cli("selftest", "--only", "2", "--only", "3")
        assert res.returncode == 0
        header = res.stdout.splitlines()[0]
        assert header == "nc-hardy selftest (seeds: criterion 2 = 91002)"
        exact_only = run_cli("selftest", "--only", "3").stdout.splitlines()[0]
        assert exact_only == "nc-hardy selftest (no selected criterion draws seeded samples)"

    def test_seed_flag_is_reported(self, run_cli):
        res = run_cli("selftest", "--only", "3", "--seed", "555")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "nc-hardy selftest (seed = 555)"

    def test_corruption_negative_control(self, run_cli, monkeypatch):
        # One wrong Weingarten value breaks the Gram relation criterion 1 checks.
        class CorruptTable(WeingartenTable):
            def values(self, n, N):
                vals = super().values(n, N)
                if (n, N) == (3, 5):
                    vals = {**vals, (1, 1, 1): vals[(1, 1, 1)] + Fraction(1, 1000)}
                return vals

        monkeypatch.setattr(acceptance, "WeingartenTable", CorruptTable)
        res = run_cli("selftest", "--only", "1")
        assert res.returncode == 3
        assert "FAIL" in res.stdout
        assert re.search(r"Gram residual \S+ > 1e-10", res.stdout)

    def test_unknown_criterion_is_a_usage_error(self, run_cli):
        for number in ("11", "0"):
            res = run_cli("selftest", "--only", "3", "--only", number)
            assert res.returncode == 1
            assert res.stdout == ""
            assert f"unknown criteria [{number}]" in res.stderr


class TestOutputFile:
    def test_out_flag_writes_file(self, run_cli, letter_file, tmp_path):
        target = tmp_path / "report.csv"
        res = run_cli(
            "pairing", letter_file, letter_file, "--N", "2",
            "--format", "csv", "--out", str(target),
        )
        assert res.returncode == 0
        assert target.read_text().startswith("param_r,param_N")


def test_module_entry_point():
    """`python -m nc_hardy` runs `main` and exits with its code."""
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "nc_hardy", *args], capture_output=True, text=True
    )
    res = run("wg", "--n", "2", "--N", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["rows"][0]["fraction"] == "1/3"
    assert run("nonsense").returncode == 1
