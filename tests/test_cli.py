"""Command-line surface: parsing, output contracts, exit codes, determinism."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slopesize import cli, critvals
from slopesize.powersim import SampleSizeResult, SearchFailureError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if any exact-MC critical value is drawn."""
    def refuse(*args):
        raise AssertionError(f"t2_null_draws{args} was called")

    monkeypatch.setattr(critvals, "t2_null_draws", refuse)


class TestPlans:
    """--fast picks the preset; --reps-inner / --reps-outer each set both plans."""

    @pytest.mark.parametrize("command", [
        ["critval", "--n", "30", "--alpha", "0.05"],
        ["table", "--which", "2"],
    ])
    @pytest.mark.parametrize("flags, cv, pw", [
        ([], (10_000, 1_000), (1_000, 1_000)),
        (["--fast"], (1_000, 50), (1_000, 50)),
        (["--reps-inner", "2000"], (2_000, 1_000), (2_000, 1_000)),
        (["--reps-outer", "7"], (10_000, 7), (1_000, 7)),
        (["--fast", "--reps-inner", "300", "--reps-outer", "9"], (300, 9), (300, 9)),
    ])
    def test_plans(self, capsys, command, flags, cv, pw):
        args = cli.build_parser().parse_args([*command, "--seed", "5", *flags])
        seed, cv_plan, pw_plan = cli._plans(args)
        assert seed == cv_plan.master_seed == pw_plan.master_seed == 5
        assert (cv_plan.reps_inner, cv_plan.reps_outer) == cv
        assert (pw_plan.reps_inner, pw_plan.reps_outer) == pw
        assert capsys.readouterr().err == "seed: 5\n"

    def test_help_says_overrides_set_both_plans(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["power", "--help"])
        assert capsys.readouterr().out.count("sets BOTH") == 2


class TestCritval:
    def test_normal_method_published_value(self, capsys):
        code, out, err = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal"
        )
        assert code == 0
        assert "value=0.391434" in out
        assert "method=normal_approx" in out

    def test_exact_is_deterministic_given_seed(self, capsys):
        args = ("critval", "--n", "20", "--alpha", "0.05", "--method", "exact",
                "--seed", "1", "--fast")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_exact_after_table1_reuses_its_draws(
        self, capsys, monkeypatch, tmp_path, draw_calls
    ):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        code, _, _ = run_cli(capsys, "table", "--which", "1", "--fast", "--seed", "3",
                             "--out", str(tmp_path / "t1.csv"))
        assert code == 0
        del draw_calls[:]
        args = ("critval", "--n", "57", "--alpha", "0.01", "--fast", "--seed", "3")
        code, hit, _ = run_cli(capsys, *args)
        assert code == 0 and draw_calls == []
        critvals._MC_MEMO.clear()
        code, fresh, _ = run_cli(capsys, *args)
        assert code == 0 and len(draw_calls) == cli.FAST_CRITVAL[1]
        assert hit == fresh

    def test_small_n_guard_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "critval", "--n", "4", "--alpha", "0.05", "--method", "normal"
        )
        assert code == 2
        assert "exceed 4" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["method"] == "normal_approx"
        assert payload["n"] == 30


class TestSeedHandling:
    def test_seed_echoed_when_drawn(self, capsys):
        code, _, err = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal"
        )
        assert code == 0
        assert "seed:" in err

    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "777")
        code, _, err = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal"
        )
        assert code == 0
        assert "seed: 777" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "777")
        code, _, err = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal",
            "--seed", "42",
        )
        assert "seed: 42" in err

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
        code, _, err = run_cli(
            capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal"
        )
        assert code == 2


class TestPower:
    def test_fixed_route_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--route", "fixed", "--A", "0", "--sxx", "50",
            "--sigma", "1", "--n", "20", "--alpha", "0.05",
        )
        assert code == 0
        assert "power=0.05 " in out or "power=0.05\n" in out.replace("route", "\nroute")

    def test_corr_route_published_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--route", "corr", "--n", "123", "--rho", "0.2873",
            "--alpha", "0.05", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["power"] == pytest.approx(0.90, abs=0.01)

    def test_slope_route_published_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--route", "slope", "--n", "48", "--lambda", "0.5",
            "--alpha", "0.05", "--seed", "3", "--fast", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["power"] == pytest.approx(0.9095, abs=0.05)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lambda_is_usage_error(self, capsys, no_draws, lam):
        code, out, err = run_cli(
            capsys, "power", "--route", "slope", "--n", "30", "--lambda", lam,
            "--alpha", "0.05", "--fast", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "lam must be finite" in err
        assert critvals._MC_MEMO == {}

    def test_too_small_n_is_usage_error_before_any_draw(self, capsys, no_draws):
        code, out, err = run_cli(
            capsys, "power", "--route", "slope", "--n", "4", "--lambda", "0.5",
            "--alpha", "0.05", "--fast", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "n must be at least 5, got 4" in err
        assert critvals._MC_MEMO == {}

    @pytest.mark.parametrize("route, role", [
        (["--route", "corr", "--mc", "--rho", "0.4"], 200),
    ], ids=["corr"])
    def test_degenerate_trial_is_numerical_failure(self, capsys, constant_column, route, role):
        constant_column(3, role)
        code, out, err = run_cli(
            capsys, "power", *route, "--n", "30", "--alpha", "0.05", "--fast", "--seed", "1",
        )
        assert code == 3
        assert out == ""
        assert "task id 3 is degenerate at n=30" in err

    @pytest.mark.parametrize("alpha, shown", [("1.5", "1.5"), ("0", "0.0")])
    def test_corr_mc_out_of_range_alpha_is_usage_error(self, capsys, alpha, shown):
        code, out, err = run_cli(
            capsys, "power", "--route", "corr", "--mc", "--n", "30", "--rho", "0.3",
            "--alpha", alpha, "--seed", "1", "--fast",
        )
        assert code == 2
        assert out == ""
        assert f"alpha must lie strictly inside (0, 1), got {shown}" in err

    def test_fixed_route_missing_params(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--route", "fixed", "--n", "20", "--alpha", "0.05"
        )
        assert code == 2

    def test_corr_route_requires_exactly_one_effect(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--route", "corr", "--n", "30", "--alpha", "0.05",
            "--rho", "0.3", "--lambda", "0.3",
        )
        assert code == 2


class TestSampleSize:
    def test_corr_route_with_lambda_maps_rho(self, capsys):
        code, out, err = run_cli(
            capsys, "samplesize", "--route", "corr", "--lambda", "0.5",
            "--alpha", "0.05", "--power", "0.90", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 48
        assert payload["rho"] == pytest.approx(0.4472, abs=1e-4)
        assert "0.4472" in err  # test-hopping conversion is announced

    def test_zero_lambda_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "samplesize", "--route", "slope", "--lambda", "0",
            "--alpha", "0.05", "--power", "0.8",
        )
        assert code == 2
        assert "nonzero" in err

    def test_both_effect_flags_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "samplesize", "--route", "corr", "--lambda", "0.5", "--rho", "0.3",
            "--alpha", "0.05", "--power", "0.8",
        )
        assert code == 2

    def test_slope_route_delegates_to_search(self, capsys, monkeypatch):
        calls = {}

        def fake_search(lam, alpha, target, plan, cache=None, critval_plan=None):
            calls["args"] = (lam, alpha, target, plan.reps_inner, plan.reps_outer)
            return SampleSizeResult(n=91, target_power=target, validated_mean=0.801,
                                    validated_sd=0.012, route="slope")

        monkeypatch.setattr(cli.powersim, "find_sample_size_slope", fake_search)
        code, out, _ = run_cli(
            capsys, "samplesize", "--route", "slope", "--lambda", "0.3",
            "--alpha", "0.05", "--power", "0.80", "--seed", "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["n"] == 91
        assert calls["args"] == (0.3, 0.05, 0.80, 1000, 1000)

    def test_search_failure_exit_code(self, capsys, monkeypatch):
        def exploding(*args, **kwargs):
            raise SearchFailureError("no n found")

        monkeypatch.setattr(cli.powersim, "find_sample_size_slope", exploding)
        code, _, err = run_cli(
            capsys, "samplesize", "--route", "slope", "--lambda", "0.3",
            "--alpha", "0.05", "--power", "0.80",
        )
        assert code == 3
        assert "no n found" in err

    def test_huge_effect_size_needs_the_smallest_n(self, capsys):
        # lam * lam overflows here; the effect still maps to rho = 1
        code, out, _ = run_cli(
            capsys, "samplesize", "--route", "slope", "--alpha", "0.05", "--power", "0.9",
            "--lambda", "1e200", "--fast", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("n=5 ")

    def test_unreachable_slope_target_fails_without_simulating(self, capsys):
        # the Fisher-z start (about 1.8e7) is past the default ceiling of 1e6
        code, out, err = run_cli(
            capsys, "samplesize", "--route", "slope", "--lambda", "0.001",
            "--alpha", "0.05", "--power", "0.99", "--fast", "--seed", "1",
        )
        assert code == 3
        assert out == ""
        assert "n_ceiling=1000000" in err
        assert "lam=0.001, alpha=0.05" in err


class TestTable:
    def test_table1_header_and_shape(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "t1.csv"
        code, _, err = run_cli(
            capsys, "table", "--which", "1", "--seed", "9", "--fast",
            "--reps-outer", "5", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "samplesize,normal10,criticalvalue10,normal5,criticalvalue5,normal1,criticalvalue1"
        assert len(lines) == 1 + 81  # n = 20..100
        first = lines[1].split(",")
        assert first[0] == "20"
        assert first[1] == "0.423"

    def test_table1_fills_the_cache_and_reads_it_back(self, capsys, tmp_path, draw_calls):
        cache_path = tmp_path / "cv.txt"

        def table1(out):
            argv = ["table", "--which", "1", "--seed", "9", "--reps-inner", "100",
                    "--reps-outer", "3", "--cache-path", str(cache_path), "--out", str(out)]
            assert run_cli(capsys, *argv)[0] == 0
            return out.read_bytes()

        first = table1(tmp_path / "first.csv")
        records = cache_path.read_text()
        assert sorted((int(line.split()[0]), float(line.split()[1]))
                      for line in records.splitlines()) == sorted(
            (n, alpha) for n in range(20, 101) for alpha in critvals.TABLE1_LEVELS
        )
        critvals._MC_MEMO.clear()
        del draw_calls[:]
        assert table1(tmp_path / "again.csv") == first
        assert draw_calls == []
        assert cache_path.read_text() == records

    def test_power_table_json_fields(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_LAMBDAS", [0.6])
        monkeypatch.setattr(cli, "DEFAULT_TARGETS", [0.80])
        code, out, _ = run_cli(
            capsys, "table", "--which", "3", "--seed", "11", "--fast", "--format", "json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert len(rows) == 1
        assert set(rows[0]) == {"lambda", "power", "n", "mean", "sd"}

    def test_contrast_table_markdown(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_LAMBDAS", [0.6])
        monkeypatch.setattr(cli, "DEFAULT_TARGETS", [0.80])
        code, out, _ = run_cli(
            capsys, "table", "--which", "5", "--seed", "11", "--fast", "--format", "markdown"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| lambda | corr | power | slopetest | corrtest | difference |"
        assert lines[1].startswith("|---")
        assert "0.5145" in lines[2]

    def test_invalid_table_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--which", "9"])
        assert exc.value.code == 2


def load_reproduce_tables():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_searches_each_cell_once(capsys, monkeypatch, tmp_path):
    calls = []

    def fake_search(lam, alpha, target, plan, **kwargs):
        calls.append((lam, alpha, target))
        n = round(10 / (lam * alpha) * target)
        return SampleSizeResult(n, target, target + 0.001, 0.01, "slope")

    monkeypatch.setattr(cli.powersim, "find_sample_size_slope", fake_search)
    script = load_reproduce_tables()
    out = tmp_path / "tables"
    only = ["--only", "2", "3", "4", "5", "6", "7"]
    assert script.main(["--out", str(out), "--fast", "--seed", "5", *only]) == 0
    assert len(calls) == 72 and len(set(calls)) == 72
    # tables 5-7 read the searches of tables 2-4 and match a standalone run
    for which in (5, 6, 7):
        alone = tmp_path / f"alone{which}.csv"
        argv = ["table", "--which", str(which), "--seed", "5", "--fast", "--out", str(alone)]
        assert cli.main(argv) == 0
        assert (out / f"table{which}.csv").read_bytes() == alone.read_bytes()
    assert len(calls) == 72 + 3 * 24


class TestCacheCommand:
    def test_show_and_clear(self, capsys, tmp_path):
        cache_path = tmp_path / "cv.txt"
        code, _, _ = run_cli(
            capsys, "critval", "--n", "20", "--alpha", "0.1", "--method", "exact",
            "--seed", "1", "--fast", "--cache-path", str(cache_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "cache", "show", "--cache-path", str(cache_path))
        assert code == 0
        assert "1 records" in out
        code, _, err = run_cli(capsys, "cache", "clear", "--cache-path", str(cache_path))
        assert code == 0
        assert not cache_path.exists()

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        cache_path = tmp_path / "env.txt"
        monkeypatch.setenv(cli.CACHE_ENV, str(cache_path))
        run_cli(
            capsys, "critval", "--n", "20", "--alpha", "0.1", "--method", "exact",
            "--seed", "1", "--fast",
        )
        assert cache_path.exists()

    def test_missing_cache_path_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        code, _, err = run_cli(capsys, "cache", "show")
        assert code == 2


# stdout of fixed-seed commands, captured before the correlation Monte Carlo
# moved onto the slope kernel and the normal quantile onto NormalDist; the
# slope and correlation Monte Carlo lines were captured again when each run
# moved onto one stream pair (the critical-value lines did not move), and
# the slope lines once more when slope runs came to be drawn from the law
# of T, and the slope and exact-MC lines when chi-squares came from numpy's
# gamma sampler; the correlation Monte Carlo line once more when its trials
# became two half-runs; and the slope and exact-MC lines when the ratio law's
# W2*W3 came to be drawn as one squared chi-square
GOLDEN_STDOUT = [
    ("critval --n 30 --alpha 0.05 --method exact --seed 1 --fast",
     "n=30 alpha=0.05 value=0.398425 sd=0.014139 method=exact_mc\n"),
    ("critval --n 30 --alpha 0.05 --method normal",
     "n=30 alpha=0.05 value=0.391434 sd=0.0 method=normal_approx\n"),
    ("power --route slope --n 48 --lambda 0.5 --alpha 0.05 --seed 1 --fast",
     "n=48 alpha=0.05 lambda=0.5 power=0.89 sd=0.009894 route=slope\n"),
    ("power --route corr --mc --n 123 --rho 0.2873 --alpha 0.05 --seed 1 --fast",
     "n=123 alpha=0.05 rho=0.2873 power=0.908 sd=0.00914 route=correlation-mc\n"),
    ("power --route fixed --A 0.5 --sxx 100 --sigma 1 --n 30 --alpha 0.05",
     "n=30 alpha=0.05 power=0.997897 route=fixed\n"),
    ("samplesize --route slope --alpha 0.10 --power 0.8 --lambda 0.6 --fast --seed 1",
     "n=22 target_power=0.8 validated_mean=0.80164 validated_sd=0.0126 route=slope\n"),
    ("samplesize --route corr --lambda 0.5 --alpha 0.05 --power 0.90",
     "n=48 target_power=0.9 rho=0.447214 power_at_n=0.902721 route=correlation\n"),
]


@pytest.mark.parametrize("command, stdout", GOLDEN_STDOUT)
def test_golden_stdout(capsys, monkeypatch, command, stdout):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == stdout


class TestParserReuse:
    """main builds the parser once per process and keeps no state between calls."""

    @pytest.fixture
    def built(self, monkeypatch):
        """A list that gets one entry per slopesize parser built from now on."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            if kwargs.get("prog") == "slopesize":
                built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        return built

    def test_many_calls_build_the_parser_once(self, capsys, built):
        for _ in range(5):
            code, _, _ = run_cli(
                capsys, "critval", "--n", "30", "--alpha", "0.05", "--method", "normal"
            )
            assert code == 0
        assert len(built) == 1
        assert cli.build_parser() is built[0]

    def test_golden_stdout_survives_errors_and_help(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)

        def check(golden):
            for command, stdout in golden:
                assert run_cli(capsys, *command.split())[:2] == (0, stdout)

        check(GOLDEN_STDOUT)
        with pytest.raises(SystemExit) as usage:
            cli.main(["critval", "--n", "x"])
        with pytest.raises(SystemExit) as help_:
            cli.main(["power", "--help"])
        assert (usage.value.code, help_.value.code) == (2, 0)
        capsys.readouterr()
        check(reversed(GOLDEN_STDOUT))

    def test_no_flag_leaks_into_the_next_call(self, capsys, monkeypatch):
        seen = []

        def stop(args):
            seen.append(args)
            raise cli.UsageError("stopped before any work")

        monkeypatch.setattr(cli, "_plans", stop)
        flags = ["--fast", "--format", "json", "--cache-path", "cv.txt", "--seed", "7"]
        corr = ["power", "--route", "corr", "--n", "30", "--rho", "0.3", "--alpha", "0.05"]
        critval = ["critval", "--n", "30", "--alpha", "0.05"]
        assert cli.main([*corr, "--mc", *flags], power_rows={}) == cli.EXIT_USAGE
        assert cli.main(corr) == cli.EXIT_USAGE
        assert cli.main([*critval, *flags]) == cli.EXIT_USAGE
        assert cli.main(critval) == cli.EXIT_USAGE
        capsys.readouterr()
        flagged_power, plain_power, flagged_critval, plain_critval = seen
        assert len({id(args) for args in seen}) == 4
        for flagged in (flagged_power, flagged_critval):
            assert (flagged.fast, flagged.format, flagged.cache_path, flagged.seed) == (
                True, "json", "cv.txt", 7)
        for plain in (plain_power, plain_critval):
            assert (plain.fast, plain.format, plain.cache_path, plain.seed) == (
                False, "text", None, None)
            assert plain.power_rows is None
        assert flagged_power.mc is True and plain_power.mc is False
        assert not hasattr(plain_critval, "mc") and not hasattr(plain_critval, "route")

    def test_import_builds_no_parser(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(parser, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import slopesize.cli\n"
            "print(len(built))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "0\n"
