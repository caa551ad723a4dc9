"""End-to-end command line tests, run through subprocess like a user would."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from beliefopt import read_trace

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


def cli(*argv, cwd=None):
    env = dict(os.environ, NO_COLOR="1")
    return subprocess.run([sys.executable, "-m", "beliefopt", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def quad_cfg(tmp_path):
    path = tmp_path / "quad.cfg"
    path.write_text(QUADRATIC)
    return str(path)


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
        assert tf.steps[-1] == 50
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


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: bench/run.py workload -> the commands of its sequence that write files
WRITERS = {
    "quad-lab": [("run", "--config", "quadratic.cfg", "--seed", "0"), ("probe",)],
    "softmax-lab": [("run", "--config", "softmax.cfg", "--seed", "0")],
    "compare-sweep": [("compare", "--config", "compare.cfg", "--seed", "0")],
}


@pytest.mark.parametrize("workload", sorted(WRITERS))
def test_seed0_files_match_the_bench_reference_digests(workload, tmp_path):
    # Every file the benchmark's seed-0 sequence writes, byte for byte.
    references = json.loads((ROOT / "bench" / "reference_seed0.json").read_text())
    for argv in WRITERS[workload]:
        argv = [str(ROOT / "configs" / a) if a.endswith(".cfg") else a for a in argv]
        result = cli(*argv, "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == references[workload]["files"]


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
        # Data rows start at line 30 with t = 1.  t = 0 on the last row would
        # index step -1, which wraps to step 50.
        pytest.param(_check_tampered("\n50, ", "\n0, "), 2,
                     "{tmp}/trace.csv: line 79: t = 0 lies outside the run's steps 1..50",
                     id="check-step-zero"),
        pytest.param(_check_tampered("\n50, ", "\n99999, "), 2,
                     "{tmp}/trace.csv: line 79: t = 99999 lies outside the run's steps 1..50",
                     id="check-step-past-horizon"),
        pytest.param(_check_tampered("\n10, ", "\nnan, "), 2,
                     "{tmp}/trace.csv: line 39: t = nan is not an integer step",
                     id="check-step-nan"),
        pytest.param(_check_tampered("\n2, ", "\n1.5, "), 2,
                     "{tmp}/trace.csv: line 31: t = 1.5 is not an integer step",
                     id="check-step-fraction"),
        pytest.param(_check_tampered("\n3, ", "\n2, "), 2,
                     "{tmp}/trace.csv: line 32: t = 2 does not follow the previous row's t = 2",
                     id="check-step-repeated"),
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
