"""End-to-end command line tests, run through subprocess like a user would;
the tests that set the sweep worker count call ``cli.main`` in-process."""

import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sweep import poisoned

import beliefopt.cli
from beliefopt import (NumericFailure, build_problem, build_region, lane_groups, load_config,
                       read_trace, run_sweep, sweep_cells)
from beliefopt.regret import budget_terms
from beliefopt.traceio import g17

QUADRATIC = """\
[problem]
kind = quadratic
dim = 2
eig_min = 0.5
eig_max = 1.0
x_star = 0.5

[optimizer]
kind = fastadabelief
alpha = 0.001
lam = 0.999
beta2_mode = sadam
delta = 0.1

[run]
horizon = 50
region_lo = -2
region_hi = 2
seed = 3
"""

COMPARE = """\
[problem]
kind = quadratic
dim = 2
eig_min = 0.5
eig_max = 1.0
x_star = 0.5
x0 = zeros
x0_jitter = 0

[optimizer]
kind = fastadabelief
alpha = 0.05, 0.01
lam = 0.999
beta2_mode = sadam
delta = 0.1

[optimizer]
kind = adam
alpha = 0.05, 0.01

[run]
horizon = 40
region_lo = -2
region_hi = 2
seed = 0
"""

OVERFLOW = """\
[problem]
kind = quadratic
dim = 1
eig_min = 1.0
eig_max = 1.0
x_star = 0.5
x0 = zeros
x0_jitter = 0

[optimizer]
kind = sgd_momentum
alpha = 1e200

[run]
horizon = 5
region_lo = -1e300
region_hi = 1e300
"""


def cli_env():
    """A subprocess run's environment: no color, and the RuntimeWarning and
    ResourceWarning filters that pyproject gives only the pytest process."""
    return dict(os.environ, NO_COLOR="1",
                PYTHONWARNINGS="error::RuntimeWarning,error::ResourceWarning")


def cli(*argv, cwd=None, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "beliefopt", *argv],
                          capture_output=True, text=True, cwd=cwd, env=cli_env(),
                          preexec_fn=preexec_fn)


def capped_memory():
    """Cap the calling process's address space at 16 GiB, so that a host
    which overcommits memory refuses a huge allocation at once, too."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 34, 1 << 34))


@pytest.fixture()
def quad_cfg(tmp_path):
    path = tmp_path / "quad.cfg"
    path.write_text(QUADRATIC)
    return str(path)


def test_subprocess_runs_fail_on_a_runtime_warning_the_package_raises():
    # The stepsize division overflows on these values, a RuntimeWarning that
    # pyproject's filters would never see in a fresh interpreter.
    code = ("import numpy as np; from beliefopt.optim import HyperParams, scheduled_alpha; "
            "scheduled_alpha('adam', HyperParams(), 1e308, np.float64(1e-20))")
    warned = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(cli_env(), PYTHONWARNINGS=""))
    assert warned.returncode == 0 and "RuntimeWarning: overflow" in warned.stderr
    failed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=cli_env())
    assert failed.returncode == 1 and "RuntimeWarning: overflow" in failed.stderr


class TestExitCodes:
    def test_help_exits_cleanly(self):
        result = cli("--help")
        assert result.returncode == 0
        for name in ("run", "compare", "check", "bound", "probe"):
            assert name in result.stdout

    def test_no_arguments_is_a_usage_error(self):
        assert cli().returncode == 1

    def test_unknown_subcommand_is_a_usage_error(self):
        assert cli("sweep").returncode == 1

    def test_missing_config_file_exits_2(self, tmp_path):
        result = cli("run", "--config", str(tmp_path / "nope.cfg"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nkind = cubic\n")
        result = cli("run", "--config", str(bad))
        assert result.returncode == 2
        assert "unknown problem kind" in result.stderr

    def test_overflowing_run_exits_3(self, tmp_path):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(OVERFLOW)
        result = cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert result.returncode == 3
        assert "numeric failure" in result.stderr
        assert "nonfinite loss" in result.stderr

    def test_an_overflowing_step_exits_3_naming_its_step_and_cell(self, tmp_path):
        # The second step, 1e308 * m', overflows, though the projection
        # would clip the iterate back into the box and m' stays finite.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("[problem]\nkind = quadratic\ndim = 2\neig_min = 0.1\neig_max = 1.0\n"
                       "x_star = 0.5\nx0_jitter = 1e-5\n\n"
                       "[optimizer]\nkind = sgd_momentum\nalpha = 1e308\n\n"
                       "[run]\nhorizon = 300\nregion_lo = -5\nregion_hi = 5\nseed = 0\n")
        result = cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (result.returncode, result.stdout, result.stderr) == \
            (3, "", "numeric failure: nonfinite optimizer state after step 2 "
                    "in cell sgd_momentum_alpha1e+308\n")
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_writes_a_trace_and_reports_the_run(self, quad_cfg, tmp_path):
        out = tmp_path / "out"
        result = cli("run", "--config", quad_cfg, "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert "run fastadabelief_alpha0.001:" in result.stdout
        assert "final_loss=" in result.stdout
        trace_path = out / "trace_fastadabelief_alpha0.001.csv"
        assert trace_path.exists()
        tf = read_trace(str(trace_path))
        assert tf.meta["optimizer"] == "fastadabelief"
        assert tf.meta["seed"] == "3"
        assert tf.columns["t"][-1] == 50
        # The embedded copy drops the trailing newline, nothing else.
        assert tf.config_text == QUADRATIC.rstrip("\n")

    def test_reruns_are_byte_identical(self, quad_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli("run", "--config", quad_cfg, "--out", str(a)).returncode == 0
        assert cli("run", "--config", quad_cfg, "--out", str(b)).returncode == 0
        name = "trace_fastadabelief_alpha0.001.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_the_jittered_start(self, quad_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli("run", "--config", quad_cfg, "--out", str(a), "--seed", "1")
        cli("run", "--config", quad_cfg, "--out", str(b), "--seed", "2")
        name = "trace_fastadabelief_alpha0.001.csv"
        assert (a / name).read_bytes() != (b / name).read_bytes()

    def test_an_overflowing_unused_coefficient_prints_no_warning(self, tmp_path):
        # Every rule's coefficient rows hold adabound's eta_u(t) =
        # eta_final * (1 + 1/(bound_gamma*t)), which overflows here.
        path = tmp_path / "gamma.cfg"
        path.write_text(QUADRATIC.replace("delta = 0.1", "delta = 0.1\nbound_gamma = 1e-310"))
        result = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestCompare:
    @pytest.fixture()
    def cmp_cfg(self, tmp_path):
        path = tmp_path / "cmp.cfg"
        path.write_text(COMPARE)
        return str(path)

    def test_selects_per_optimizer_and_writes_the_artifacts(self, cmp_cfg, tmp_path):
        out = tmp_path / "out"
        result = cli("compare", "--config", cmp_cfg, "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert "compare fastadabelief: best alpha=" in result.stdout
        assert "compare adam: best alpha=" in result.stdout
        assert "compare summary: fastadabelief=" in result.stdout
        assert "best_baseline=adam:" in result.stdout
        csv_text = (out / "compare.csv").read_text().splitlines()
        assert csv_text[0] == "optimizer,t,loss"
        assert csv_text[1].startswith("fastadabelief,1,")
        # One row per step per selected optimizer, plus the header.
        assert len(csv_text) == 1 + 2 * 40
        svg = (out / "compare.svg").read_text()
        assert svg.startswith("<svg") and "fastadabelief" in svg
        # All four sweep cells leave a trace behind.
        assert len(list(out.glob("trace_*.csv"))) == 4

    def test_reruns_are_byte_identical(self, cmp_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli("compare", "--config", cmp_cfg, "--out", str(a)).returncode == 0
        assert cli("compare", "--config", cmp_cfg, "--out", str(b)).returncode == 0
        for name in ("compare.csv", "compare.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_the_summary_prints_no_ratio_of_scores_that_are_not_positive(self, tmp_path):
        # Both final losses are negative, fastadabelief's the lower one: a
        # ratio of the two would read as fastadabelief doing 39 times worse.
        cfg = tmp_path / "negative.cfg"
        cfg.write_text("[problem]\nkind = quadratic\ndim = 2\nx0 = zeros\nx0_jitter = 0\n"
                       "[optimizer]\nkind = fastadabelief\nalpha = 1\nbeta2_mode = sadam\n"
                       "[optimizer]\nkind = sgd_momentum\nalpha = 0.001\n"
                       "[run]\nhorizon = 5\n")
        result = cli("compare", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert ("compare summary: fastadabelief=-0.12848871907121531 "
                "best_baseline=sgd_momentum:-0.0032896165878837373 ratio=n/a\n") in result.stdout

    def test_a_chart_past_max_points_leaves_numpy_ma_unimported(self, tmp_path):
        # The chart subsamples a series longer than svgchart.MAX_POINTS (1600);
        # numpy.ma, which np.unique imports, would add about 1.7 MB of memory.
        cfg = tmp_path / "long.cfg"
        cfg.write_text(COMPARE.replace("horizon = 40", "horizon = 2000"))
        argv = ["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]
        code = (f"import sys; from beliefopt.cli import main; status = main({argv!r}); "
                "print(status, 'numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=cli_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_regret_based_selection(self, cmp_cfg, tmp_path):
        out = tmp_path / "out"
        result = cli("compare", "--config", cmp_cfg, "--out", str(out),
                     "--select-alpha", "final_regret")
        assert result.returncode == 0, result.stderr
        assert "final_regret=" in result.stdout


class TestCheck:
    def trace_path(self, quad_cfg, tmp_path):
        out = tmp_path / "out"
        assert cli("run", "--config", quad_cfg, "--out", str(out)).returncode == 0
        return out / "trace_fastadabelief_alpha0.001.csv"

    def test_intact_trace_passes_every_verdict(self, quad_cfg, tmp_path):
        path = self.trace_path(quad_cfg, tmp_path)
        result = cli("check", str(path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("PASS") == 4
        assert "cond4 band PASS" in result.stdout
        assert "gamma positivity PASS" in result.stdout
        assert "re-run reproduces losses PASS" in result.stdout
        assert "finite zeta PASS" in result.stdout

    @pytest.mark.parametrize("no_color", [None, "1"])
    def test_verdicts_are_colored_on_a_terminal_unless_no_color_is_set(
            self, quad_cfg, tmp_path, monkeypatch, capsys, no_color):
        good = self.trace_path(quad_cfg, tmp_path)
        bad = tmp_path / "bad.csv"
        # A stored loss the re-run does not reproduce fails that verdict.
        bad.write_text(re.sub(r"(?m)^(1, )[^,]+", r"\g<1>9.9", good.read_text(), count=1))
        if no_color is None:
            monkeypatch.delenv("NO_COLOR", raising=False)
        else:
            monkeypatch.setenv("NO_COLOR", no_color)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        assert beliefopt.cli.main(["check", str(good), str(bad)]) == 4
        out = capsys.readouterr().out
        passed, failed = ("PASS", "FAIL") if no_color else ("\x1b[32mPASS\x1b[0m",
                                                              "\x1b[31mFAIL\x1b[0m")
        assert f"check {good}: re-run reproduces losses {passed}\n" in out
        assert f"check {bad}: re-run reproduces losses {failed}\n" in out
        assert ("\x1b[" in out) == (no_color is None)

    def test_a_re_run_that_overflows_exits_3_naming_its_trace(self, quad_cfg, tmp_path, capsys):
        # The embedded config of bad.csv starts the run at 1e300, whose
        # first loss overflows; good.csv is checked in full before it, and
        # bad.csv, whose verdicts come from the re-run, prints none.
        good = self.trace_path(quad_cfg, tmp_path)
        bad = tmp_path / "bad.csv"
        text = good.read_text()
        for old, new in [("x_star = 0.5", "x_star = 1e300"),
                         ("region_lo = -2", "region_lo = -1e301"),
                         ("region_hi = 2", "region_hi = 1e301")]:
            assert f"#cfg: {old}\n" in text
            text = text.replace(f"#cfg: {old}\n", f"#cfg: {new}\n")
        bad.write_text(text)
        assert beliefopt.cli.main(["check", str(good), str(bad)]) == 3
        out, err = capsys.readouterr()
        assert [line.partition(":")[0] for line in out.splitlines()] == [f"check {good}"] * 4
        assert out.count("PASS") == 4
        assert err == (f"numeric failure: {bad}: nonfinite loss at step 1 "
                       "in cell fastadabelief_alpha0.001\n")

    def test_tampered_loss_is_detected(self, quad_cfg, tmp_path):
        path = self.trace_path(quad_cfg, tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line and not line.startswith("#") and not line.startswith("t,"):
                parts = line.split(", ")
                parts[1] = "9.9"
                lines[i] = ", ".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        result = cli("check", str(path))
        assert result.returncode == 4
        assert "re-run reproduces losses FAIL" in result.stdout
        assert "check failed" in result.stderr

    def test_missing_metadata_is_an_error(self, quad_cfg, tmp_path):
        path = self.trace_path(quad_cfg, tmp_path)
        kept = [line for line in path.read_text().splitlines()
                if not line.startswith("# alpha:")]
        path.write_text("\n".join(kept) + "\n")
        result = cli("check", str(path))
        assert result.returncode == 4
        assert "metadata" in result.stderr


    @pytest.mark.parametrize("forgery, upper", [
        ("band columns", "0.0019999999999999996"), ("band upper", "0.0019999999999999996"),
        ("upper by value", "1.9999999999999996e-3"), ("no beta1", "0.0019999999999999996"),
    ], ids=["band columns", "band upper", "upper by value", "no beta1"])
    def test_stored_values_must_match_the_re_run(self, tmp_path, capsys, forgery, upper):
        # The band of the shipped softmax run fails.  The verdict lines come
        # from the re-run, so columns or an upper edge forged to pass it
        # still print the band's FAIL, and the check fails on each stored
        # value the re-run does not reproduce.  Metadata compare by value,
        # not by text, and an upper edge of the re-run's value keeps its
        # text.
        lines = reference_trace("softmax.cfg", 64).splitlines()
        row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        at = lines.index("# cond4_upper: 0.0019999999999999996")
        if forgery == "band columns":
            for i in range(row, len(lines)):
                fields = lines[i].split(", ")
                fields[7:9] = ["0", "0"]
                lines[i] = ", ".join(fields)
            why = ["cond4 band violated"] + [
                f"line {row + 1}: stored {name} does not match the re-run"
                for name in ("cond4_min", "cond4_max")]
        elif forgery == "band upper":
            lines[at] = "# cond4_upper: 1e9"
            why = ["cond4 band violated",
                   "metadata '# cond4_upper: 1e9': stored cond4_upper does not match the re-run"]
        elif forgery == "upper by value":
            lines[at] = "# cond4_upper: 1.9999999999999996e-3"
            why = ["cond4 band violated"]
        else:
            lines.remove("# beta1: 0.90000000000000002")
            why = ["cond4 band violated", "metadata line '# beta1: ...' missing"]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        assert beliefopt.cli.main(["check", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out.count("PASS") == 3
        band = next(line for line in out.splitlines() if "cond4 band" in line)
        assert band.startswith(f"check {path}: cond4 band FAIL (min=")
        assert band.endswith(f" upper={upper})")
        assert err == "check failed: " + "; ".join(f"{path}: {w}" for w in why) + "\n"


class TestBound:
    def test_budget_table_for_the_belief_rule(self, quad_cfg, tmp_path):
        result = cli("bound", "--config", quad_cfg)
        assert result.returncode == 0, result.stderr
        assert "bound fastadabelief_alpha0.001: checkpoint" in result.stdout
        assert "r=" in result.stdout
        assert "measured on the trace" in result.stdout

    def test_other_rules_are_skipped_but_reported(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(COMPARE)
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        assert "bound adam_alpha0.05: skipped" in result.stdout

    def test_config_without_the_belief_rule_is_an_error(self, tmp_path):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text("[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n"
                       "\n[run]\nhorizon = 8\n")
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2
        assert "no fastadabelief cell" in result.stderr

    def test_config_without_the_belief_rule_fails_before_any_sweep(self, tmp_path):
        # A sweep of 10**12 steps could not even allocate its trace.
        cfg = tmp_path / "plain.cfg"
        cfg.write_text("[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n"
                       "\n[run]\nhorizon = 1000000000000\n")
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stderr == (f"config error: {cfg}: "
                                 "config has no fastadabelief cell to bound\n")

    @pytest.mark.parametrize("lo, hi, width", [("-1e300", "1e300", "2e+300"),
                                               ("-1e308", "1e308", "inf")])
    def test_a_region_too_wide_for_the_budget_fails_before_any_sweep(self, tmp_path, lo, hi,
                                                                     width):
        # The budget squares the region's diameter; past about 1.3e154 that
        # overflows.  A sweep of 10**12 steps could not even allocate its trace.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(QUADRATIC.replace("dim = 2", "dim = 1")
                       .replace("horizon = 50", "horizon = 1000000000000")
                       .replace("region_lo = -2", f"region_lo = {lo}")
                       .replace("region_hi = 2", f"region_hi = {hi}"))
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stderr == (
            f"config error: {cfg}: line 15: [run] region_hi - region_lo = {width} is too wide "
            "for the regret budget, whose D_inf^2 overflows\n")

    @pytest.mark.parametrize("delta, horizon, jitter, why", [
        ("1e200", 10 ** 12, "", "too large for the regret budget, whose delta^2 overflows"),
        ("1e-310", 10 ** 12, "", "too small for the regret budget over 1000000000000 steps, "
                                 "whose r^2 can overflow"),
        # Started at the minimizer without jitter, every gradient is zero,
        # which measures the largest r after the sweep; any run with a
        # gradient would square it.
        ("1e-310", 200, "\nx0_jitter = 0", "too small for the regret budget over 200 steps, "
                                             "whose r^2 can overflow"),
    ])
    def test_a_delta_outside_the_budget_fails_before_any_sweep(self, tmp_path, delta, horizon,
                                                               jitter, why):
        # The budget squares delta, and r = (s_hat + delta/t)^(-1/2), which
        # a zero gradient history leaves at (delta/horizon)^(-1/2).  A sweep
        # of 10**12 steps could not even allocate its trace.
        cfg = tmp_path / "delta.cfg"
        text = (QUADRATIC.replace("horizon = 50", f"horizon = {horizon}")
                .replace("x_star = 0.5", f"x_star = 0.5{jitter}")
                .replace("delta = 0.1", f"delta = {delta}"))
        cfg.write_text(text)
        line = text.splitlines().index("[optimizer]") + 1
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stderr == (f"config error: {cfg}: line {line}: [optimizer] fastadabelief: "
                                 f"delta = {float(delta):g} is {why}\n")

    @pytest.mark.parametrize("region, delta, alpha, label", [
        # D_inf^2 = 4e200 and delta^2 = 1e308 are finite, so the config
        # passes the float-domain check, but n*delta*D_inf^2 is not.
        ("1e100", "1e154", "0.001", "fastadabelief_alpha0.001"),
        # 2*alpha*(1-beta1) underflows to zero, a divisor of the first term.
        ("2", "0.1", "5e-324", "fastadabelief_alpha4.94066e-324"),
    ])
    def test_a_budget_infinite_for_every_run_fails_before_any_sweep(self, tmp_path, region,
                                                                     delta, alpha, label):
        # Infinite with zero gradients means infinite with any.  A sweep of
        # 10**12 steps could not even allocate its trace.
        cfg = tmp_path / "huge.cfg"
        text = (QUADRATIC.replace("horizon = 50", "horizon = 1000000000000")
                .replace("region_lo = -2", f"region_lo = -{region}")
                .replace("region_hi = 2", f"region_hi = {region}")
                .replace("delta = 0.1", f"delta = {delta}")
                .replace("alpha = 0.001", f"alpha = {alpha}"))
        cfg.write_text(text)
        line = text.splitlines().index("[optimizer]") + 1
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (f"config error: {cfg}: line {line}: [optimizer] {label}: "
                                 "the regret budget is not finite even with zero gradients, "
                                 "so no run has a finite budget\n")

    def test_a_budget_that_overflows_exits_2_after_the_cell_header(self, tmp_path):
        # With zero gradients every term is finite: the momentum term is
        # 9*D_inf^2*(G + 0.1) = 3.6e300.  Started at 0 against a minimizer
        # at 0.5 with curvature 1e10, the run measures G near 5e9, and only
        # then does the momentum term overflow.
        cfg = tmp_path / "steep.cfg"
        text = (QUADRATIC.replace("dim = 2", "dim = 1")
                .replace("eig_min = 0.5", "eig_min = 1e10")
                .replace("eig_max = 1.0", "eig_max = 1e10")
                .replace("x_star = 0.5", "x_star = 0.5\nx0 = zeros\nx0_jitter = 0")
                .replace("alpha = 0.001", "alpha = 1")
                .replace("lam = 0.999", "lam = 0.5")
                .replace("horizon = 50", "horizon = 200")
                .replace("region_lo = -2", "region_lo = -1e150")
                .replace("region_hi = 2", "region_hi = 1e150"))
        cfg.write_text(text)
        line = text.splitlines().index("[optimizer]") + 1
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stdout == "bound fastadabelief_alpha1: checkpoint  regret  budget  ratio\n"
        assert result.stderr == (f"config error: {cfg}: line {line}: [optimizer] "
                                 "fastadabelief_alpha1: the regret budget at checkpoint 128 "
                                 "is inf, not a finite number\n")

    def test_an_overflowing_s_exits_2_after_the_cell_header(self, tmp_path):
        # Gradients near 1e100 overflow g^4 in S = sum_i sqrt(sum_t g_ti^4),
        # so the budget is inf, with no warning printed.
        text = (ROOT / "configs" / "quadratic.cfg").read_text()
        edits = [("x_star = 0.5", "x_star = 1e100\nx0 = zeros"),
                 ("region_lo = -5", "region_lo = -1e101"),
                 ("region_hi = 5", "region_hi = 1e101"), ("horizon = 16384", "horizon = 200")]
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        cfg = tmp_path / "far.cfg"
        cfg.write_text(text)
        assert cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")).returncode == 0
        line = text.splitlines().index("[optimizer]") + 1
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stdout == "bound fastadabelief_alpha0.001: checkpoint  regret  budget  ratio\n"
        assert result.stderr == (f"config error: {cfg}: line {line}: [optimizer] "
                                 "fastadabelief_alpha0.001: the regret budget at checkpoint 128 "
                                 "is inf, not a finite number\n")

    @pytest.mark.parametrize("schedule", ["constant", "inverse_sqrt_t"])
    def test_a_schedule_that_voids_the_budget_fails_before_any_sweep(self, tmp_path, schedule):
        # The budget is derived for the alpha/t stepsize.  A sweep of 10**12
        # steps could not even allocate its trace.
        cfg = tmp_path / "schedule.cfg"
        text = (QUADRATIC.replace("horizon = 50", "horizon = 1000000000000")
                .replace("delta = 0.1", f"delta = 0.1\nschedule = {schedule}"))
        cfg.write_text(text)
        line = text.splitlines().index("[optimizer]") + 1
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (f"config error: {cfg}: line {line}: [optimizer] fastadabelief: "
                                 f"schedule = {schedule} voids the regret budget, which is "
                                 "derived for the alpha/t stepsize\n")

    @pytest.mark.parametrize("name, lam", [("quadratic.cfg", "0.999"), ("softmax.cfg", "0.99")])
    def test_the_budget_terms_add_up_to_the_printed_budget(self, tmp_path, monkeypatch, capsys,
                                                           name, lam):
        # The constants of every checkpoint, as ``bound`` measured them.
        measured = []
        real = beliefopt.cli.theoretical_bound
        monkeypatch.setattr(beliefopt.cli, "theoretical_bound",
                            lambda c: measured.append(c) or real(c))
        text = (ROOT / "configs" / name).read_text()
        cfg = tmp_path / name
        cfg.write_text(text.replace("lam = 1.0", f"lam = {lam}"))
        assert f"lam = {lam}" in cfg.read_text()
        assert beliefopt.cli.main(["bound", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert len(rows) == len(measured) == 8
        for row, c in zip(rows, measured):
            term1, term2, term3, term4 = budget_terms(c)
            _, _, upto, _, budget, _ = row.split()
            assert (upto, budget) == (str(c.horizon), g17(term1 + term2 + term3 + term4))

    def test_a_run_without_gradients_has_finite_budgets(self, tmp_path):
        # Started at the minimizer without jitter, every gradient is zero,
        # so S = 0, while r = (delta/T)^(-1/2) is about 1e154 and the log
        # term's prefix alpha*r^2*log(T)/(1-beta1)^2 overflows.  Times S,
        # that would be nan; both S terms are 0 instead.
        text = (ROOT / "configs" / "quadratic.cfg").read_text()
        edits = [("x0_jitter = 1e-5", "x0_jitter = 0"), ("alpha = 0.001", "alpha = 0.01"),
                 ("delta = 1.0", "delta = 1e-307"), ("horizon = 16384", "horizon = 10")]
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        assert "lam = 0.999" in text
        cfg = tmp_path / "still.cfg"
        cfg.write_text(text)
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        rows = result.stdout.splitlines()[1:-1]
        assert [row.split()[2:4] for row in rows] == [["10", "0"]]
        assert 0.0 < float(rows[0].split()[4]) < math.inf

    def test_configured_checkpoints_are_the_rows(self, tmp_path):
        cfg = tmp_path / "points.cfg"
        cfg.write_text(QUADRATIC.replace("horizon = 50",
                                         "horizon = 1000\ncheckpoints = 100, 300, 700"))
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        rows = [line.split()[2] for line in result.stdout.splitlines()[1:-1]]
        assert rows == ["100", "300", "700", "1000"]

    def test_an_overflowing_skipped_cell_does_not_fail_the_bound(self, tmp_path):
        # Only the fastadabelief cells are swept; the sgd_momentum cell
        # overflows at step 2 when it runs.  beta1 = 0 drops the budget's
        # momentum term, whose D_inf^2 * G would overflow in this region.
        text = (OVERFLOW.replace("eig_min = 1.0", "eig_min = 1e10")
                .replace("eig_max = 1.0", "eig_max = 1e10")
                .replace("1e300", "1e150")
                + "\n[optimizer]\nkind = fastadabelief\nalpha = 0.001\nbeta1 = 0\n"
                  "lam = 0.999\nbeta2_mode = sadam\ndelta = 0.1\n")
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(text)
        assert cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")).returncode == 3
        result = cli("bound", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == ("bound sgd_momentum_alpha1e+200: skipped "
                            "(budget applies to fastadabelief only)")
        assert lines[1] == "bound fastadabelief_alpha0.001: checkpoint  regret  budget  ratio"


class TestProbe:
    def test_prints_the_table_and_writes_the_csv(self, tmp_path):
        out = tmp_path / "out"
        result = cli("probe", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert "region" in result.stdout and "fastadabelief" in result.stdout
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0] == "region,optimizer,t,m,s,step_abs"
        # 3 scripts x 5 rules x 3 probe steps.
        assert len(lines) == 1 + 45

    def test_table_alone_needs_no_output_directory(self):
        result = cli("probe")
        assert result.returncode == 0
        assert "probe wrote" not in result.stdout

    def test_an_out_path_at_a_file_is_refused_before_the_table(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        result = cli("probe", "--out", str(afile))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"config error: cannot write {afile}: {afile} is not a directory\n"


ROOT = pathlib.Path(__file__).resolve().parent.parent

def _lab(config):
    return [("run", ["run", "--config", config, "--out", "OUT", "--seed", "0"]),
            ("check", ["check", "TRACES"]),
            ("bound", ["bound", "--config", config, "--seed", "0"])]


#: bench/run.py workload -> its seed-0 command sequence, where OUT is the
#: output directory and TRACES the sorted traces written into it
SEQUENCES = {
    "quad-lab": _lab("quadratic.cfg") + [("probe", ["probe", "--out", "OUT"])],
    "softmax-lab": _lab("softmax.cfg"),
    "compare-sweep": [("compare",
                       ["compare", "--config", "compare.cfg", "--out", "OUT", "--seed", "0"])],
}


def _sequence_argv(argv, out):
    args = []
    for a in argv:
        if a == "TRACES":
            args.extend(sorted(str(path) for path in pathlib.Path(out).glob("trace_*.csv")))
        else:
            args.append(str(ROOT / "configs" / a) if a.endswith(".cfg") else
                        out if a == "OUT" else a)
    return args


@pytest.mark.parametrize("workload, workers", [
    *(pytest.param(workload, None, id=workload) for workload in sorted(SEQUENCES)),
    pytest.param("compare-sweep", 2, id="compare-sweep-2-workers"),
])
def test_seed0_files_match_the_bench_reference_digests(workload, workers, tmp_path,
                                                       monkeypatch):
    # The exit code and stdout of every command of the benchmark's seed-0
    # sequence, and every file it writes, byte for byte.  The commands run
    # in-process as bench/run.py runs them: the output directory reads OUT
    # in stdout, and an exception that escapes main counts by its type name
    # (softmax-lab's bound raises ValueError).  With ``workers`` set they run
    # on that many sweep workers, so the forked shards are checked on any
    # host.
    references = json.loads((ROOT / "bench" / "reference_seed0.json").read_text())
    if workers is not None:
        monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: workers)
    out = str(tmp_path)
    commands = {}
    for name, argv in SEQUENCES[workload]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = beliefopt.cli.main(_sequence_argv(argv, out))
            except Exception as exc:
                code = type(exc).__name__
        text = stdout.getvalue().replace(out, "OUT")
        commands[name] = {"exit": code, "stdout": hashlib.sha256(text.encode()).hexdigest()}
    assert commands == references[workload]["commands"]
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == references[workload]["files"]


def test_the_readme_quick_start_runs_verbatim(tmp_path, monkeypatch, capsys):
    # Each line of README's "Quick start" block, from a directory holding
    # configs/, exits 0 and writes every file its stdout names.
    block = (ROOT / "README.md").read_text().split("## Quick start", 1)[1].split("```")[1]
    commands = [line.split() for line in block.strip().splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["beliefopt", name] for name in ("run", "check", "bound", "compare", "probe")]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert beliefopt.cli.main(argv[1:]) == 0, argv
        written = re.findall(r"(?:trace=|wrote | and )(\S+)", capsys.readouterr().out)
        assert bool(written) == (argv[1] in ("run", "compare", "probe")), argv
        for path in written:
            assert (tmp_path / path).stat().st_size > 0, path


class TestNonFiniteInputs:
    """Values that parse as numbers but make a run meaningless, or crash it
    later, are config errors that name their line."""

    @pytest.mark.parametrize("old, new, line, words", [
        ("alpha = 0.001", "alpha = 1e400", 10, "alpha must be a finite number"),
        ("alpha = 0.001", "alpha = 0.001, inf", 10, "alpha must be a finite number"),
        ("delta = 0.1", "delta = inf", 13, "delta must be a finite number"),
        ("x_star = 0.5", "x_star = 0.5\nx0_jitter = inf", 7, "x0_jitter must be a finite"),
        ("x_star = 0.5", "x_star = nan", 6, "x_star must be a finite number"),
        ("eig_max = 1.0", "eig_max = inf", 5, "eig_max must be a finite number"),
        ("region_lo = -2", "region_lo = -inf", 17, "region_lo must be a finite number"),
        ("seed = 3", "seed = 3\ncheckpoints = 10,20,999", 20, "beyond horizon 50"),
    ])
    def test_rejected_with_exit_2_and_the_line(self, tmp_path, old, new, line, words):
        assert old in QUADRATIC
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(QUADRATIC.replace(old, new))
        result = cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"line {line}: " in result.stderr
        assert words in result.stderr
        assert not (tmp_path / "out").exists()


SOFTMAX = """\
[problem]
kind = softmax
classes = 2
features = 2
samples = 40
batch_size = 4

[optimizer]
kind = adam

[run]
horizon = 5
"""


def _run(text, *extra):
    def argv(tmp_path, trace_text):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text.replace("{tmp}", str(tmp_path)))
        return ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]
    return argv


def _check_path(name):
    return lambda tmp_path, trace_text: ["check", str(tmp_path / name)]


def _check_binary(tmp_path, trace_text):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\xff\xfe# seed: 0\n")
    return ["check", str(path)]


def _binary_config(command):
    def argv(tmp_path, trace_text):
        cfg = tmp_path / "case.cfg"
        cfg.write_bytes(b"\xff\xfe[problem]\n")
        return [command, "--config", str(cfg)]
    return argv


def _check_header_only(tmp_path, trace_text):
    path = tmp_path / "trace.csv"
    path.write_text(trace_text[:trace_text.index("\n1, ") + 1])
    return ["check", str(path)]


def _check_tampered(old, new):
    def argv(tmp_path, trace_text):
        assert old in trace_text
        path = tmp_path / "trace.csv"
        path.write_text(trace_text.replace(old, new))
        return ["check", str(path)]
    return argv


def _check_lines(edit):
    """``check`` on the trace whose lines ``edit`` makes of the fixture's."""
    def argv(tmp_path, trace_text):
        path = tmp_path / "trace.csv"
        path.write_text("".join(edit(trace_text.splitlines(keepends=True))))
        return ["check", str(path)]
    return argv


def _out_under_file(command, text, *below):
    """``command --out`` at or below an existing file ``{tmp}/afile``."""
    def argv(tmp_path, trace_text):
        (tmp_path / "afile").write_text("")
        out = ["--out", str(tmp_path.joinpath("afile", *below))]
        if command == "probe":
            return ["probe", *out]
        (tmp_path / "case.cfg").write_text(text)
        return [command, "--config", str(tmp_path / "case.cfg"), *out]
    return argv


def _dir_in_place_of(command, name):
    """``command --out {tmp}/out`` where the output file ``name`` is a directory."""
    def argv(tmp_path, trace_text):
        (tmp_path / "out" / name).mkdir(parents=True)
        out = ["--out", str(tmp_path / "out")]
        if command == "probe":
            return ["probe", *out]
        (tmp_path / "case.cfg").write_text(QUADRATIC)
        return [command, "--config", str(tmp_path / "case.cfg"), *out]
    return argv


class TestExitCodeContract:
    """Inputs that a library call rejects end with their documented exit
    code and a message naming the file, line or key, not a traceback."""

    @pytest.fixture(scope="class")
    def trace_text(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("contract")
        (tmp / "quad.cfg").write_text(QUADRATIC)
        assert cli("run", "--config", str(tmp / "quad.cfg"), "--out", str(tmp)).returncode == 0
        return (tmp / "trace_fastadabelief_alpha0.001.csv").read_text()

    @pytest.mark.parametrize("argv, code, words", [
        pytest.param(_run(SOFTMAX.replace("classes = 2", "classes = 5")), 2,
                     "5 classes need at least 5 features", id="classes-above-features"),
        pytest.param(_run(SOFTMAX.replace("classes = 2", "classes = 1")), 2,
                     "two classes", id="one-class"),
        pytest.param(_run(SOFTMAX.replace("samples = 40", "samples = 1")), 2,
                     "n_samples=1", id="one-sample"),
        pytest.param(_run(SOFTMAX.replace("batch_size = 4",
                                          "batch_size = 4\nsource = {tmp}/missing.csv")), 2,
                     "{tmp}/missing.csv", id="missing-source"),
        pytest.param(_run(SOFTMAX.replace("batch_size = 4", "batch_size = 4\nsigma1 = 0")), 2,
                     "sigma1", id="zero-sigma1"),
        pytest.param(_run(QUADRATIC.replace("x_star = 0.5", "x_star = 0.5\nsigma = 5")), 2,
                     "declared sigma 5.0", id="sigma-above-eig-min"),
        pytest.param(_run(QUADRATIC.replace("x_star = 0.5", "x_star = 0.5\nsigma = -1")), 2,
                     "sigma = -1.0", id="negative-sigma"),
        pytest.param(_run(QUADRATIC.replace("seed = 3", "seed = -2")), 2,
                     "line 19: seed must be >= 0", id="negative-config-seed"),
        pytest.param(_run(QUADRATIC, "--seed", "-1"), 1, "--seed", id="negative-seed-option"),
        pytest.param(_check_path("missing.csv"), 2, "{tmp}/missing.csv", id="check-missing-file"),
        pytest.param(_check_path(""), 2, "cannot read trace {tmp}", id="check-directory"),
        pytest.param(_check_binary, 2, "cannot read trace {tmp}/trace.csv",
                     id="check-binary-file"),
        *(pytest.param(_binary_config(command), 2,
                       "config error: cannot read config {tmp}/case.cfg: 'utf-8' codec",
                       id=f"{command}-binary-config") for command in ("run", "compare", "bound")),
        pytest.param(_check_tampered("# alpha: 0.001", "# alpha: fast"), 2,
                     "trace.csv: metadata '# alpha: fast'", id="check-bad-alpha"),
        pytest.param(_check_tampered("# seed: 3", "# seed: three"), 2,
                     "trace.csv: metadata '# seed: three'", id="check-bad-seed"),
        pytest.param(_check_tampered("# seed: 3", "# seed: -1"), 2,
                     "trace.csv: metadata '# seed: -1'", id="check-negative-seed"),
        # The embedded config's line 3 is line 12 of the trace (9 metadata lines).
        pytest.param(_check_tampered("#cfg: dim = 2", "#cfg: dim = two"), 2,
                     "{tmp}/trace.csv: line 12: dim must be an integer",
                     id="check-bad-embedded-config"),
        pytest.param(_check_tampered("#cfg: x_star = 0.5", "#cfg: x_star = 0.5\n#cfg: sigma = 5"),
                     2, "{tmp}/trace.csv: line 10: [problem] quadratic: declared sigma 5.0",
                     id="check-rejected-embedded-problem"),
        pytest.param(_run(QUADRATIC.replace("alpha = 0.001", "alpha = 0.001, 0.001")), 2,
                     "{tmp}/case.cfg: line 8: duplicate sweep cell fastadabelief_alpha0.001",
                     id="duplicate-sweep-cell"),
        pytest.param(_check_tampered("#cfg: alpha = 0.001", "#cfg: alpha = 0.001, 0.001"), 2,
                     "{tmp}/trace.csv: line 17: duplicate sweep cell fastadabelief_alpha0.001",
                     id="check-duplicate-embedded-cell"),
        # Data rows start at line 30 with t = 1.
        pytest.param(_check_tampered("\n50, ", "\n0, "), 2,
                     "{tmp}/trace.csv: line 79: t = 0 where the run keeps step 50",
                     id="check-step-zero"),
        pytest.param(_check_tampered("\n50, ", "\n99999, "), 2,
                     "{tmp}/trace.csv: line 79: t = 99999 where the run keeps step 50",
                     id="check-step-past-horizon"),
        pytest.param(_check_tampered("\n10, ", "\nnan, "), 2,
                     "{tmp}/trace.csv: line 39: t = nan where the run keeps step 10",
                     id="check-step-nan"),
        pytest.param(_check_tampered("\n2, ", "\n1.5, "), 2,
                     "{tmp}/trace.csv: line 31: t = 1.5 where the run keeps step 2",
                     id="check-step-fraction"),
        pytest.param(_check_tampered("\n3, ", "\n2, "), 2,
                     "{tmp}/trace.csv: line 32: t = 2 where the run keeps step 3",
                     id="check-step-repeated"),
        # Whole rows missing, repeated or extra: the rows that remain would
        # all reproduce.  Row k is line 29 + k.
        *(pytest.param(_check_lines(lambda lines, k=k: lines[:29 + k]), 2,
                       f"{{tmp}}/trace.csv: line {29 + k}: the trace ends at t = {k} "
                       f"where the run keeps step {k + 1} next", id=f"check-cut-after-row-{k}")
          for k in (1, 8, 49)),
        pytest.param(_check_lines(lambda lines: lines[:38] + lines[39:]), 2,
                     "{tmp}/trace.csv: line 39: t = 11 where the run keeps step 10",
                     id="check-row-dropped"),
        pytest.param(_check_lines(lambda lines: lines[:39] + lines[38:]), 2,
                     "{tmp}/trace.csv: line 40: t = 10 where the run keeps step 11",
                     id="check-row-repeated"),
        pytest.param(_check_lines(lambda lines: lines + lines[-1:]), 2,
                     "{tmp}/trace.csv: line 80: t = 50 where the run keeps no step after 50",
                     id="check-row-past-the-last"),
        # Two seeds stated above the real ones: the first repeat is line 3.
        pytest.param(_check_lines(lambda lines: ["# seed: 5\n", "# alpha: 999\n"] + lines), 2,
                     "{tmp}/trace.csv: line 3: metadata line '# seed: ...' repeated",
                     id="check-metadata-repeated"),
        pytest.param(_check_lines(lambda lines: lines[:29] + lines[29::10]), 2,
                     "{tmp}/trace.csv: line 31: t = 11 where the run keeps step 2",
                     id="check-rows-thinned"),
        # The refusals of read_trace and of the re-run's cell lookup.
        pytest.param(_check_tampered("\nt, loss,", "\nstep, loss,"), 2,
                     "{tmp}/trace.csv: unexpected trace header at line 29",
                     id="check-renamed-header"),
        pytest.param(_check_tampered("\n10, ", "\n"), 2,
                     "{tmp}/trace.csv: line 39 has 9 fields, expected 10",
                     id="check-field-removed"),
        pytest.param(_check_tampered("\n10, ", "\n10, x"), 2,
                     "{tmp}/trace.csv: non-numeric field at line 39",
                     id="check-non-numeric-field"),
        pytest.param(_check_lines(lambda lines: [line for line in lines if line[0] == "#"]), 2,
                     "{tmp}/trace.csv: no header row found", id="check-metadata-only"),
        pytest.param(_check_lines(lambda lines: [line for line in lines
                                                 if not line.startswith("#cfg:")]), 4,
                     "{tmp}/trace.csv: no embedded config to re-run", id="check-no-config"),
        pytest.param(_check_tampered("# alpha: 0.001", "# alpha: 0.002"), 4,
                     "{tmp}/trace.csv: embedded config has no fastadabelief cell with alpha=0.002",
                     id="check-alpha-not-in-config"),
        pytest.param(_check_header_only, 2, "{tmp}/trace.csv: no data rows",
                     id="check-no-rows"),
        pytest.param(_out_under_file("run", QUADRATIC, "sub"), 2,
                     "cannot write {tmp}/afile/sub: {tmp}/afile is not a directory",
                     id="run-out-below-a-file"),
        pytest.param(_out_under_file("run", QUADRATIC), 2,
                     "cannot write {tmp}/afile: {tmp}/afile is not a directory",
                     id="run-out-is-a-file"),
        # The overflowing run would exit 3: the path is checked before the run.
        pytest.param(_out_under_file("compare", OVERFLOW), 2,
                     "cannot write {tmp}/afile: {tmp}/afile is not a directory",
                     id="compare-out-is-a-file"),
        pytest.param(_out_under_file("probe", None), 2, "cannot write {tmp}/afile:",
                     id="probe-out-is-a-file"),
        pytest.param(_dir_in_place_of("run", "trace_fastadabelief_alpha0.001.csv"), 2,
                     "cannot write {tmp}/out/trace_fastadabelief_alpha0.001.csv:",
                     id="run-trace-path-is-a-directory"),
        pytest.param(_dir_in_place_of("compare", "compare.csv"), 2,
                     "cannot write {tmp}/out/compare.csv:", id="compare-csv-is-a-directory"),
        pytest.param(_dir_in_place_of("compare", "compare.svg"), 2,
                     "cannot write {tmp}/out/compare.svg:", id="compare-svg-is-a-directory"),
        pytest.param(_dir_in_place_of("probe", "probe.csv"), 2,
                     "cannot write {tmp}/out/probe.csv:", id="probe-csv-is-a-directory"),
    ])
    def test_exits_with_the_documented_code(self, tmp_path, trace_text, argv, code, words):
        result = cli(*argv(tmp_path, trace_text))
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        assert words.replace("{tmp}", str(tmp_path)) in result.stderr

    @pytest.mark.parametrize("command", ["run", "compare", "bound", "check"])
    @pytest.mark.parametrize("family, huge, refused", [
        # numpy refuses at once the records of 10**12 steps, before a step;
        pytest.param("quadratic", "horizon = 1000000000000", "[run] horizon = 1000000000000",
                     id="horizon"),
        # the 10**6 x 10**6 matrix and the 10**11 samples, building the problem;
        pytest.param("quadratic", "dim = 1000000", "[problem] quadratic", id="dim"),
        pytest.param("softmax", "samples = 100000000000", "[problem] softmax", id="samples"),
        # and the minibatch block of 10**9 draws a round, at the first step.
        pytest.param("softmax", "batch_size = 1000000000",
                     "[problem] softmax: batch_size = 1000000000", id="batch-size"),
    ])
    def test_a_config_too_large_to_hold_exits_2_naming_its_line(self, tmp_path, trace_text,
                                                                command, family, huge, refused):
        text = COMPARE if command == "compare" else QUADRATIC
        if family == "softmax":
            text = SOFTMAX[:SOFTMAX.index("\n\n")] + text[text.index("\n\n"):]
        key = huge.split(" = ")[0]
        text = re.sub(rf"(?m)^{key} = .*$", huge, text)
        if command == "check":
            def embedded(config):
                return "".join(f"#cfg: {line}\n" for line in config.splitlines())
            path = tmp_path / "trace.csv"
            text = trace_text.replace(embedded(QUADRATIC), embedded(text))
            argv = ["check", str(path)]
        else:
            path = tmp_path / "case.cfg"
            argv = [command, "--config", str(path)]
            if command != "bound":
                argv += ["--out", str(tmp_path / "out")]
        assert huge in text
        path.write_text(text)
        section = "[run]" if key == "horizon" else "[problem]"
        line = [raw.removeprefix("#cfg: ") for raw in text.splitlines()].index(section) + 1
        result = cli(*argv, preexec_fn=capped_memory)
        assert result.returncode == 2, result.stderr
        assert result.stderr == \
            f"config error: {path}: line {line}: {refused} does not fit in memory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("text, code, words", [
        pytest.param(SOFTMAX.replace("classes = 2", "classes = 1"), 2,
                     "case.cfg: line 1: [problem] softmax:", id="rejected-problem"),
        pytest.param(OVERFLOW, 3, "nonfinite loss", id="overflow"),
    ])
    def test_failed_runs_leave_no_output_directory(self, tmp_path, command, text, code, words):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        result = cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        assert words in result.stderr
        assert not (tmp_path / "out").exists()

    # A feature that is not a finite number would make the run's first loss
    # nonfinite (exit 3); it is refused with the dataset's line instead.
    @pytest.mark.parametrize("spelling", ["nan", "inf", "1e400"])
    def test_a_non_finite_dataset_feature_exits_2_naming_its_line(self, tmp_path, spelling):
        data = tmp_path / "data.csv"
        data.write_text(f"label,f1,f2\n0,1.0,2.0\n1,{spelling},0.5\n0,0.5,1.0\n1,2.0,1.5\n")
        cfg = tmp_path / "case.cfg"
        cfg.write_text(SOFTMAX.replace("batch_size = 4", f"batch_size = 4\nsource = {data}"))
        result = cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert result.stderr == (f"config error: {cfg}: line 1: [problem] softmax: "
                                 f"{data} line 3: non-finite feature '{spelling}'\n")
        assert not (tmp_path / "out").exists()

    def test_a_trace_saved_with_a_byte_order_mark_says_so(self, tmp_path, trace_text):
        path = tmp_path / "trace.csv"
        path.write_text(trace_text, encoding="utf-8-sig")
        result = cli("check", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (f"config error: {path}: line 1: the file starts with a UTF-8 "
                                 "byte-order mark; a trace is plain UTF-8\n")


# Four lane groups of 2, 3, 1 and 2 lanes; 300 steps cross the first
# 256-step finiteness scan.
FANOUT = """\
[problem]
kind = quadratic
dim = 2
eig_min = 0.5
eig_max = 1.0
x_star = 0.5

[optimizer]
kind = fastadabelief
alpha = 0.05, 0.01
lam = 0.999
beta2_mode = sadam
delta = 0.1

[optimizer]
kind = adam
alpha = 0.05, 0.01, 0.002

[optimizer]
kind = sgd_momentum
alpha = 0.01

[optimizer]
kind = adabelief
alpha = 0.05, 0.01

[run]
horizon = 300
region_lo = -2
region_hi = 2
seed = 3
"""

# Lane groups of 3, 2 and 1 lanes; ``bound`` sweeps the two fastadabelief
# groups and skips the adam cells, which come first.
BOUND_FANOUT = """\
[problem]
kind = quadratic
dim = 2
eig_min = 0.5
eig_max = 1.0
x_star = 0.5

[optimizer]
kind = adam
alpha = 0.05, 0.01, 0.002

[optimizer]
kind = fastadabelief
alpha = 0.05, 0.01
lam = 0.999
beta2_mode = sadam
delta = 0.1

[optimizer]
kind = fastadabelief
alpha = 0.02
lam = 0.99
beta2_mode = sadam
delta = 0.1

[run]
horizon = 300
region_lo = -2
region_hi = 2
seed = 3
"""


class TwoArgumentError(Exception):
    """Pickles with one argument, so unpickling it raises TypeError."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


class TestFanOut:
    """``run``, ``compare`` and ``bound`` shard their lane groups over forked
    workers.  Every worker count gives the same bytes and the same failures,
    and no call leaves a child process behind."""

    WORKERS = (1, 2, 3, 9)  # 9 is more than the four lane groups

    @pytest.fixture()
    def cfg(self, tmp_path):
        path = tmp_path / "fan.cfg"
        path.write_text(FANOUT)
        return str(path)

    @pytest.fixture()
    def bound_cfg(self, tmp_path):
        path = tmp_path / "bound.cfg"
        path.write_text(BOUND_FANOUT)
        return str(path)

    @staticmethod
    def main(monkeypatch, capsys, workers, argv, out=None):
        """``cli.main`` on ``workers`` workers: (exit code, stdout, stderr),
        with ``--out`` ``out``, if given, written as OUT."""
        monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: workers)
        code = beliefopt.cli.main([*argv, "--out", str(out)] if out else argv)
        captured = capsys.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return (code, captured.out.replace(str(out), "OUT"),
                captured.err.replace(str(out), "OUT"))

    @staticmethod
    def poison(monkeypatch, spots):
        """Serve NaN at each (what, step, cell label) of ``spots``, in
        whichever shard sweeps that cell."""
        sweep = beliefopt.cli.run_sweep

        def poisoned_sweep(problem, cells, region, horizon, seed):
            stacked = [j for group in lane_groups(cells) for j in group]
            rows = {cells[j].label: row for row, j in enumerate(stacked)}
            mine = [(what, t, rows[label]) for what, t, label in spots if label in rows]
            return sweep(poisoned(problem, mine), cells, region, horizon, seed)

        monkeypatch.setattr(beliefopt.cli, "run_sweep", poisoned_sweep)

    def test_shards_hold_whole_lane_groups_balanced_by_lanes(self, cfg, monkeypatch):
        cells = sweep_cells(load_config(cfg))
        groups = [set(group) for group in lane_groups(cells)]
        expected = {1: [8], 2: [4, 4], 3: [2, 3, 3], 9: [1, 2, 2, 3]}
        for workers, sizes in expected.items():
            monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: workers)
            shards = beliefopt.cli._shards(cells)
            assert [len(shard) for shard in shards] == sizes
            assert sorted(j for shard in shards for j in shard) == list(range(len(cells)))
            for shard in shards:
                assert shard == sorted(shard)
                assert all(group <= set(shard) or not group & set(shard) for group in groups)

    @pytest.mark.parametrize("argv", [
        pytest.param(("run",), id="run"),
        pytest.param(("compare", "--select-alpha", "final_loss"), id="compare-final-loss"),
        pytest.param(("compare", "--select-alpha", "final_regret"), id="compare-final-regret"),
    ])
    def test_every_worker_count_writes_and_prints_the_same_bytes(
            self, cfg, tmp_path, monkeypatch, capsys, argv):
        seen = []
        for workers in self.WORKERS:
            out = tmp_path / f"out{workers}"
            code, stdout, stderr = self.main(monkeypatch, capsys, workers,
                                             [argv[0], "--config", cfg, *argv[1:]], out)
            assert code == 0, stderr
            assert stderr == ""
            seen.append((stdout, {path.name: path.read_bytes() for path in out.iterdir()}))
        assert len(seen[0][1]) == 8 + 2 * (argv[0] == "compare")
        assert all(s == seen[0] for s in seen[1:])

    # Cell order: fastadabelief 0.05, 0.01; adam 0.05, 0.01, 0.002;
    # sgd_momentum 0.01 (a one-lane group); adabelief 0.05, 0.01.
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("spots, message", [
        ([("loss", 257, "adam_alpha0.05"), ("gradient", 256, "sgd_momentum_alpha0.01")],
         "nonfinite gradient at step 256 in cell sgd_momentum_alpha0.01"),
        ([("gradient", 256, "adabelief_alpha0.01"), ("loss", 256, "fastadabelief_alpha0.01"),
          ("gradient", 257, "fastadabelief_alpha0.05")],
         "nonfinite loss at step 256 in cell fastadabelief_alpha0.01"),
        ([("gradient", 300, "fastadabelief_alpha0.05"), ("loss", 299, "adabelief_alpha0.05")],
         "nonfinite loss at step 299 in cell adabelief_alpha0.05"),
        ([("gradient", 256, "sgd_momentum_alpha0.01"),
          ("gradient", 256, "fastadabelief_alpha0.05")],
         "nonfinite gradient at step 256 in cell fastadabelief_alpha0.05"),
    ])
    def test_the_earliest_failure_across_shards_wins(self, cfg, tmp_path, monkeypatch, capsys,
                                                     command, spots, message):
        self.poison(monkeypatch, spots)
        out = tmp_path / "out"
        for workers in self.WORKERS:
            code, stdout, stderr = self.main(monkeypatch, capsys, workers,
                                             [command, "--config", cfg], out)
            assert (code, stdout, stderr) == (3, "", f"numeric failure: {message}\n")
            assert not out.exists()

    # With two workers the parent sweeps cells 2-5 and the child 0, 1, 6, 7.
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("blocked, named", [([7], 7), ([7, 2], 2)])
    def test_a_path_in_the_way_of_a_trace_exits_2_naming_the_first(
            self, cfg, tmp_path, monkeypatch, capsys, command, blocked, named):
        monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: 2)
        cells = sweep_cells(load_config(cfg))
        assert beliefopt.cli._shards(cells) == [[2, 3, 4, 5], [0, 1, 6, 7]]
        out = tmp_path / "out"
        for j in blocked:
            (out / f"trace_{cells[j].label}.csv").mkdir(parents=True)
        code, _, stderr = self.main(monkeypatch, capsys, 2, [command, "--config", cfg], out)
        assert code == 2
        assert stderr.startswith(f"config error: cannot write OUT/trace_{cells[named].label}.csv: ")

    def test_an_error_before_the_steps_outranks_a_numeric_failure(self, cfg):
        cells = sweep_cells(load_config(cfg))

        def failed(j, step):
            where = f"at step {step}" if step is not None else "in its summary"
            return NumericFailure(f"{where} in cell {cells[j].label}", step, cells[j].label)

        first, second = ValueError("first"), ValueError("second")
        assert beliefopt.cli._first_failure(cells, [failed(5, 1), first, second]) is first
        # The earliest step wins, then the first cell, in any shard order.
        earliest = failed(2, 3)
        errors = [failed(6, 3), failed(0, 4), earliest, failed(1, None)]
        assert beliefopt.cli._first_failure(cells, errors) is earliest
        # A failed summary ranks after every step failure, the first cell's
        # first among summaries.
        summary = failed(1, None)
        errors = [failed(6, None), failed(7, 300), summary]
        assert beliefopt.cli._first_failure(cells, errors).step == 300
        assert beliefopt.cli._first_failure(cells, [failed(6, None), summary]) is summary

    # With three workers the children sweep cells 2-4 (the adam group) and
    # 0, 1, 5.  The second child cannot start: its fork fails, or the
    # second pipe made for it.  The first child is killed and reaped.
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("call, failing", [("fork", 2), ("pipe", 4)])
    def test_a_worker_that_cannot_start_fails_the_run(
            self, cfg, tmp_path, monkeypatch, capsys, command, call, failing):
        real = getattr(os, call)
        calls = []

        def flaky():
            calls.append(call)
            if len(calls) == failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, call, flaky)
        out = tmp_path / "out"
        code, stdout, stderr = self.main(monkeypatch, capsys, 3, [command, "--config", cfg], out)
        assert (code, stdout) == (3, "")
        assert stderr == ("run failed: the sweep worker for cells fastadabelief_alpha0.05, "
                          "fastadabelief_alpha0.01, sgd_momentum_alpha0.01 could not start: "
                          f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
        assert not out.exists()

    # With three workers the children sweep cells 2-4 (the adam group) and
    # 0, 1, 5: the adam child ends without a report, and the other one
    # stalls until it is killed.
    @pytest.mark.parametrize("stage, doomed", [
        ("run_sweep", lambda args: args[1][0].label == "adam_alpha0.05"),
        ("write_trace", lambda args: args[0].endswith("trace_adam_alpha0.05.csv")),
    ])
    def test_a_worker_that_dies_without_reporting_fails_the_run(
            self, cfg, tmp_path, monkeypatch, capsys, stage, doomed):
        parent = os.getpid()
        real = getattr(beliefopt.cli, stage)

        def stalling(*args, **kwargs):
            if os.getpid() != parent:
                if doomed(args):
                    os._exit(7)
                time.sleep(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(beliefopt.cli, stage, stalling)
        out = tmp_path / "out"
        began = time.monotonic()
        code, stdout, stderr = self.main(monkeypatch, capsys, 3, ["run", "--config", cfg], out)
        assert time.monotonic() - began < 30
        assert (code, stdout) == (3, "")
        assert stderr == ("run failed: the sweep worker for cells adam_alpha0.05, adam_alpha0.01, "
                          "adam_alpha0.002 ended without reporting (exit status 7)\n")
        assert out.exists() == (stage == "write_trace")

    # With two workers the parent sweeps cells 2-5 and the child 0, 1, 6, 7.
    # The child is killed once it has reported its sweep, before it is told
    # to go on: the run fails, and the parent's traces stay written.
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_worker_that_dies_before_go_fails_the_run(self, cfg, tmp_path, monkeypatch,
                                                        capsys, command):
        fork, make_dir = beliefopt.cli._fork, beliefopt.cli._make_dir
        children = []

        def recorded_fork(*args):
            children.append(fork(*args))
            return children[-1]

        def killing_make_dir(out):
            for child in children:
                os.kill(child.pid, signal.SIGKILL)
                # Wait for its death but leave it for _drive to reap.
                os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            return make_dir(out)

        monkeypatch.setattr(beliefopt.cli, "_fork", recorded_fork)
        monkeypatch.setattr(beliefopt.cli, "_make_dir", killing_make_dir)
        out = tmp_path / "out"
        code, stdout, stderr = self.main(monkeypatch, capsys, 2, [command, "--config", cfg], out)
        assert (code, stdout) == (3, "")
        assert stderr == ("run failed: the sweep worker for cells fastadabelief_alpha0.05, "
                          "fastadabelief_alpha0.01, adabelief_alpha0.05, adabelief_alpha0.01 "
                          "ended without reporting (signal 9)\n")
        cells = sweep_cells(load_config(cfg))
        assert sorted(path.name for path in out.iterdir()) == sorted(
            f"trace_{cells[j].label}.csv" for j in (2, 3, 4, 5))

    def test_bound_prints_the_same_bytes_on_every_worker_count(self, bound_cfg, monkeypatch,
                                                                capsys):
        seen = {self.main(monkeypatch, capsys, workers, ["bound", "--config", bound_cfg])
                for workers in self.WORKERS}
        assert len(seen) == 1
        ((code, stdout, stderr),) = seen
        assert (code, stderr) == (0, "")
        # Three skipped adam cells, then per fastadabelief cell a header, the
        # checkpoints 128, 256 and 300, and r.
        lines = stdout.splitlines()
        assert len(lines) == 3 + 3 * 5
        assert lines[3] == "bound fastadabelief_alpha0.05: checkpoint  regret  budget  ratio"
        assert lines[-1].startswith("bound fastadabelief_alpha0.02: r=")

    @pytest.mark.parametrize("spots, message", [
        ([("gradient", 257, "fastadabelief_alpha0.05"), ("loss", 256, "fastadabelief_alpha0.02")],
         "nonfinite loss at step 256 in cell fastadabelief_alpha0.02"),
        ([("gradient", 256, "fastadabelief_alpha0.02"), ("loss", 256, "fastadabelief_alpha0.01")],
         "nonfinite loss at step 256 in cell fastadabelief_alpha0.01"),
    ])
    def test_bound_raises_the_earliest_failure_and_prints_nothing(
            self, bound_cfg, monkeypatch, capsys, spots, message):
        self.poison(monkeypatch, spots)
        for workers in self.WORKERS:
            got = self.main(monkeypatch, capsys, workers, ["bound", "--config", bound_cfg])
            assert got == (3, "", f"numeric failure: {message}\n")

    # Every hindsight solve fails; the first cell's failure is reported,
    # bound prints nothing, not even the skipped cells before it, and
    # compare leaves no output directory: it writes only once every cell
    # has been summarized.
    @pytest.mark.parametrize("argv, cell", [
        pytest.param(("bound",), "fastadabelief_alpha0.05", id="bound"),
        pytest.param(("compare", "--select-alpha", "final_regret"), "adam_alpha0.05",
                     id="compare-final-regret"),
    ])
    def test_a_failed_hindsight_solve_names_its_cell(self, bound_cfg, tmp_path, monkeypatch,
                                                     capsys, argv, cell):
        monkeypatch.setattr(beliefopt.regret, "_SOLVE_MAX_ITERS", 1)
        out = tmp_path / "out" if argv[0] == "compare" else None
        message = ("numeric failure: hindsight solve did not reach residual 1e-10 "
                   f"in 1 iterations in cell {cell}\n")
        for workers in self.WORKERS:
            got = self.main(monkeypatch, capsys, workers,
                            [argv[0], "--config", bound_cfg, *argv[1:]], out)
            assert got == (3, "", message)
            assert out is None or not out.exists(), workers

    def test_an_exception_that_cannot_be_unpickled_arrives_as_its_text(self, cfg,
                                                                          monkeypatch):
        # The child's shard (cells 0, 1, 6 and 7 on two workers) fails in
        # ``summarize`` with an exception that pickles but cannot be
        # unpickled, so it travels as a RuntimeError holding its text.
        monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: 2)
        config = load_config(cfg)
        parent = os.getpid()

        def summarize(region, trace):
            if os.getpid() != parent:
                raise TwoArgumentError("child summary", "lost")
            return trace.kind

        with pytest.raises(RuntimeError) as info:
            beliefopt.cli._drive(config, build_problem(config), 3, sweep_cells(config),
                                 summarize)
        assert type(info.value) is RuntimeError
        assert str(info.value) == "TwoArgumentError: child summary"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_host_without_the_affinity_call_runs_in_one_process(self, cfg, tmp_path,
                                                                   monkeypatch, capsys):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert beliefopt.cli._worker_count() == 1
        out = tmp_path / "out"
        assert beliefopt.cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.count(f"trace={out}") == 8
        assert len(list(out.glob("trace_*.csv"))) == 8

    @pytest.mark.parametrize("workers", WORKERS)
    def test_finish_sees_each_trace_without_iterates_or_moments(self, cfg, monkeypatch,
                                                                workers):
        monkeypatch.setattr(beliefopt.cli, "_worker_count", lambda: workers)
        config = load_config(cfg)
        problem = build_problem(config)
        cells = sweep_cells(config)
        got = beliefopt.cli._drive(config, problem, 3, cells, lambda region, trace: trace)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        want = run_sweep(problem, cells, build_region(config, problem.dim),
                         config.run.horizon, 3)
        for trace, full in zip(got, want, strict=True):
            assert (trace.kind, trace.hp) == (full.kind, full.hp)
            assert {"x", "m", "beta1"}.isdisjoint(vars(trace))
            for name, value in vars(full).items():
                if isinstance(value, np.ndarray):
                    assert getattr(trace, name).tobytes() == value.tobytes(), name


# ------------------------------------------------ exit-code property of run

#: what a mutation puts in place of a key's value
BAD_VALUES = ("nan", "inf", "-1", "abc")


def mutated(text, mutations):
    """``text`` with each (what, pick) applied in turn: drop the picked
    line, repeat the first alpha of the picked [optimizer] section, or put a
    bad value in the picked key.  The horizon line is never dropped, so a
    run stays at the horizon the text sets."""
    lines = text.splitlines()
    for what, pick in mutations:
        keys = [i for i, line in enumerate(lines) if "=" in line]
        if what == "drop":
            shown = [i for i, line in enumerate(lines)
                     if line.strip() and not line.startswith("horizon")]
            del lines[shown[pick % len(shown)]]
        elif what == "repeat-cell":
            alphas = [i for i in keys if lines[i].startswith("alpha")]
            if alphas:
                i = alphas[pick % len(alphas)]
                first = lines[i].partition("=")[2].split(",")[0].strip()
                lines[i] = f"{lines[i]}, {first}"
        else:
            i = keys[pick % len(keys)]
            lines[i] = f"{lines[i].partition('=')[0]}= {what}"
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(name=st.sampled_from(["quadratic.cfg", "softmax.cfg"]),
       horizon=st.integers(1, 64),
       mutations=st.lists(st.tuples(st.sampled_from(("drop", "repeat-cell", *BAD_VALUES)),
                                    st.integers(0, 10 ** 6)), min_size=1, max_size=3))
def test_run_on_mutated_reference_configs_exits_with_a_documented_code(name, horizon,
                                                                         mutations):
    # Every mutation of a shipped config ends in exit 0-4 with no traceback
    # (an exception out of ``main`` fails the test), and a config error names
    # the file and the line.
    text = (ROOT / "configs" / name).read_text().replace("horizon = 16384",
                                                         f"horizon = {horizon}")
    assert f"horizon = {horizon}\n" in text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, name)
        cfg.write_text(mutated(text, mutations))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = beliefopt.cli.main(["run", "--config", str(cfg), "--out", f"{tmp}/out"])
    assert code in (0, 1, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith(f"config error: {cfg}: line "), err.getvalue()


@settings(max_examples=60, deadline=None, database=None)
@given(horizon=st.integers(1, 64),
       select=st.sampled_from(["final_loss", "final_regret"]),
       mutations=st.lists(st.tuples(st.sampled_from(("drop", "repeat-cell", *BAD_VALUES)),
                                    st.integers(0, 10 ** 6)), max_size=3))
def test_compare_on_the_mutated_compare_config_exits_with_a_documented_code(horizon, select,
                                                                             mutations):
    # The same property for ``compare`` and its 28 cells, whose lane groups
    # fan out over forked workers; the unmutated config is a case, too.
    text = (ROOT / "configs" / "compare.cfg").read_text().replace("horizon = 5000",
                                                                 f"horizon = {horizon}")
    assert f"horizon = {horizon}\n" in text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, "compare.cfg")
        cfg.write_text(mutated(text, mutations))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = beliefopt.cli.main(["compare", "--config", str(cfg), "--out", f"{tmp}/out",
                                       "--select-alpha", select])
    assert code in (0, 1, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith(f"config error: {cfg}: line "), err.getvalue()


# ------------------------------------------ exit-code property of check


@functools.cache
def reference_trace(name, horizon):
    """The text of the trace ``run`` writes for a shipped config at ``horizon``."""
    text = (ROOT / "configs" / name).read_text().replace("horizon = 16384",
                                                         f"horizon = {horizon}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, name)
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert beliefopt.cli.main(["run", "--config", str(cfg), "--out", tmp]) == 0
        (trace,) = pathlib.Path(tmp).glob("trace_*.csv")
        return trace.read_text()


def mutated_trace(text, mutations):
    """``text`` with each (what, pick, bad) applied in turn: drop or repeat
    the picked line, or put ``bad`` in the picked metadata value, embedded
    config value or data field."""
    lines = text.splitlines()
    for what, pick, bad in mutations:
        if what in ("drop", "repeat"):
            i = pick % len(lines)
            lines[i:i + 1] = [] if what == "drop" else [lines[i]] * 2
            continue
        if what == "meta":
            spots = [i for i, line in enumerate(lines) if line.startswith("# ") and ":" in line]
        elif what == "cfg":
            spots = [i for i, line in enumerate(lines) if line.startswith("#cfg:") and "=" in line]
        else:
            spots = [i for i, line in enumerate(lines) if line[:1].isdigit()]
        if not spots:
            continue
        i = spots[pick % len(spots)]
        if what == "meta":
            lines[i] = f"{lines[i].partition(':')[0]}: {bad}"
        elif what == "cfg":
            lines[i] = f"{lines[i].partition('=')[0]}= {bad}"
        else:
            fields = lines[i].split(", ")
            fields[pick % len(fields)] = bad
            lines[i] = ", ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(name=st.sampled_from(["quadratic.cfg", "softmax.cfg"]),
       horizon=st.integers(1, 64),
       mutations=st.lists(st.tuples(st.sampled_from(("drop", "repeat", "meta", "cfg", "field")),
                                    st.integers(0, 10 ** 6), st.sampled_from(BAD_VALUES)),
                          min_size=1, max_size=3))
def test_check_on_mutated_traces_exits_with_a_documented_code(name, horizon, mutations):
    # Every mutation of a written trace ends in exit 0-4 with no traceback,
    # and a config error or a failed check names the trace file.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "trace.csv")
        path.write_text(mutated_trace(reference_trace(name, horizon), mutations))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = beliefopt.cli.main(["check", str(path)])
    assert code in (0, 1, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith(f"config error: {path}: "), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith(f"numeric failure: {path}: "), err.getvalue()
    if code == 4:
        assert err.getvalue().startswith(f"check failed: {path}: "), err.getvalue()
