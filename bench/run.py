"""beliefopt benchmark: three lab workloads through the real CLI.

Run from the repository root:

    python3 bench/run.py --workload quad-lab --seed 0 --seconds 40 --trace 0

Each workload is a closed loop: one process runs one CLI command at a time
through ``beliefopt.cli.main(argv)``, in-process with stdout captured, and
repeats the workload's command sequence while another full sequence still
fits in ``--seconds`` (at least once).

* ``quad-lab``: ``run``, ``check``, ``bound`` on configs/quadratic.cfg, then
  ``probe``.  The oracle is a 10x10 matvec, so the step kernel and the
  per-step driver do most of the work.
* ``softmax-lab``: ``run``, ``check``, ``bound`` on configs/softmax.cfg.  The
  minibatch oracle and the hindsight prefix re-draws do most of the work.
* ``compare-sweep``: ``compare`` on configs/compare.cfg, 28 cells; the only
  multi-cell workload, and the one that writes the most trace bytes.

The workload seed is passed to every command that takes ``--seed``; seed 0
is the shipped configs.  Every command has expected exit codes, and the
sha256 of its stdout (output directory normalised) and of every file the
sequence writes is checked: against ``reference_seed0.json`` on seed 0, and
across the repeated sequences of one run on any seed.  A command that exits
outside its expected codes, raises, or mismatches a digest counts as failed;
a digest mismatch also makes the result incorrect.

``--trace 0`` reports the end-to-end metrics (medians over the sequences of
the run).  ``--trace 1`` alternates untraced and traced sequences in this
process and reports the per-layer metrics of ``layers.py`` plus the tracing
overhead.  ``--write-references`` records the seed-0 digests of all
workloads from one sequence each.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Everything above it is the human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference_seed0.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

OK = (0,)
CHECK_OK = (0, 4)  # 4 is a completed check verdict, not a crash

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import beliefopt
beliefopt.build_problem(beliefopt.load_config(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def _config(name: str) -> str:
    return str(ROOT / "configs" / name)


def _traces(out: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "trace_*.csv")))


def _lab(config: str, out: str, seed: int):
    """run, check on its traces, bound; argv is built when the command starts."""
    cfg = _config(config)
    return [
        ("run", lambda: ["run", "--config", cfg, "--out", out, "--seed", str(seed)], OK),
        ("check", lambda: ["check", *_traces(out)], CHECK_OK),
        ("bound", lambda: ["bound", "--config", cfg, "--seed", str(seed)], OK),
    ]


def quad_lab(out: str, seed: int):
    return _lab("quadratic.cfg", out, seed) + [("probe", lambda: ["probe", "--out", out], OK)]


def softmax_lab(out: str, seed: int):
    return _lab("softmax.cfg", out, seed)


def compare_sweep(out: str, seed: int):
    cfg = _config("compare.cfg")
    return [
        ("compare", lambda: ["compare", "--config", cfg, "--out", out, "--seed", str(seed)], OK),
    ]


#: name -> (command sequence, config timed by setup_s)
WORKLOADS = {
    "quad-lab": (quad_lab, "quadratic.cfg"),
    "softmax-lab": (softmax_lab, "softmax.cfg"),
    "compare-sweep": (compare_sweep, "compare.cfg"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Command:
    name: str
    exit: int | str  # exit code, or the exception that escaped main()
    seconds: float
    stdout_sha256: str
    ok_exit: bool


@dataclass
class Sequence:
    commands: list[Command]
    wall_s: float
    files: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)

    def digests(self) -> dict:
        return {
            "commands": {c.name: {"exit": c.exit, "stdout": c.stdout_sha256}
                         for c in self.commands},
            "files": self.files,
        }


def run_sequence(workload: str, seed: int, out: str, main) -> Sequence:
    """Run the workload's commands once; ``main`` is the CLI entry point."""
    build, _ = WORKLOADS[workload]
    commands = []
    start = time.perf_counter()
    for name, argv, expected in build(out, seed):
        args = argv()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = main(args)
            except Exception as exc:  # the CLI let it escape: the command failed
                code = type(exc).__name__
            seconds = time.perf_counter() - t0
        text = stdout.getvalue().replace(out, "OUT")
        commands.append(Command(name, code, seconds, _sha256(text.encode()),
                                code in expected))
    wall_s = time.perf_counter() - start
    files = {}
    for path in sorted(Path(out).iterdir()):
        files[path.name] = _sha256(path.read_bytes())
    return Sequence(commands, wall_s, files)


def _producer(workload: str, filename: str) -> str:
    """The command that writes ``filename``: probe, or the sequence's first."""
    if filename == "probe.csv":
        return "probe"
    build, _ = WORKLOADS[workload]
    first_command, _, _ = build("", 0)[0]
    return first_command


def verify(workload: str, seq: Sequence, expected: dict) -> set[str]:
    """Names of the commands whose digests differ from ``expected``."""
    got = seq.digests()
    bad = {name for name, d in got["commands"].items()
           if expected["commands"].get(name) != d}
    names = set(got["files"]) | set(expected["files"])
    for name in names:
        if got["files"].get(name) != expected["files"].get(name):
            bad.add(_producer(workload, name))
    return bad


def measure_setup(config: str) -> list[float]:
    """Fresh-interpreter import + load_config + build_problem, in seconds."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), _config(config)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)  # warm the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.strip()))
    return times


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_step"):
        return "ratio"
    return "count"


def _line(name: str, values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return (f"  {name:28s} median {med:.6g} {_unit(name)}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def run_bench(workload: str, seed: int, seconds: float, traced: bool,
              reported: list[str]) -> dict:
    """Measure one workload; ``reported`` names the metrics of the JSON result."""
    from beliefopt import cli

    import layers

    references = json.loads(REFERENCE.read_text()) if seed == 0 else {}
    expected = references.get(workload)
    if seed == 0 and expected is None:
        raise SystemExit(f"bench: {REFERENCE.name} has no entry for {workload}")
    sequences, traced_seqs = [], []
    shutil.rmtree(WORK, ignore_errors=True)  # left over from an interrupted run
    start = time.perf_counter()
    last = 0.0
    try:
        while not sequences or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            for use_trace in ((False, True) if traced else (False,)):
                out = str(WORK / f"s{len(sequences) + len(traced_seqs)}")
                os.makedirs(out)
                gc.collect()
                if use_trace:
                    tracer = layers.Tracer()
                    with layers.installed(tracer):
                        seq = run_sequence(workload, seed, out, tracer.span("cli", cli.main))
                    seq.layers = layers.layer_metrics(tracer, seq.wall_s)
                    traced_seqs.append(seq)
                else:
                    seq = run_sequence(workload, seed, out, cli.main)
                    sequences.append(seq)
                shutil.rmtree(out)
            last = time.perf_counter() - began
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    # Seed 0 is checked against the recorded digests; every seed is checked
    # for repeating itself across the sequences of this run.
    baseline = expected or sequences[0].digests()
    attempted = failed = 0
    mismatched = []
    for i, seq in enumerate(sequences + traced_seqs):
        bad = verify(workload, seq, baseline)
        mismatched.extend(f"sequence {i}: {name}" for name in sorted(bad))
        for c in seq.commands:
            attempted += 1
            failed += (not c.ok_exit) or c.name in bad
    correct = not mismatched

    print(f"bench {workload} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"sequences {len(sequences)} untraced, {len(traced_seqs)} traced; "
          f"commands attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for c in sequences[0].commands:
        print(f"  command {c.name}: exit {c.exit}"
              f"{'' if c.ok_exit else ' (FAILED: outside the expected exit codes)'}")
    if expected is not None:
        print("reference digests (seed 0): " + ("match" if correct else "MISMATCH"))
    else:
        print(f"digests (seed {seed}, no reference; compare across commits): "
              + ("repeat across sequences" if correct else "DIFFER across sequences"))
    for line in mismatched:
        print(f"  digest mismatch in {line}")
    digests = sequences[0].digests()
    for name, d in digests["commands"].items():
        print(f"  sha256 stdout {name:9s} {d['stdout']}")
    for name, sha in digests["files"].items():
        print(f"  sha256 file   {name:40s} {sha}")

    walls = [s.wall_s for s in sequences]
    if not traced:
        by_cmd = {}
        for seq in sequences:
            for c in seq.commands:
                by_cmd.setdefault(c.name, []).append(c.seconds)
        setup = measure_setup(WORKLOADS[workload][1])
        run_name = "compare" if "compare" in by_cmd else "run"
        series = {
            "wall_s": walls,
            "run_s": by_cmd[run_name],
            "check_s": by_cmd.get("check"),
            "bound_s": by_cmd.get("bound"),
            "setup_s": setup,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        print("end-to-end (medians over sequences; setup_s over fresh interpreters):")
        for name, values in series.items():
            if values is None:
                print(f"  {name:28s} n/a (no such command in {workload})")
            else:
                print(_line(name, values))
        print(f"  {'fail_ratio':28s} {failed / attempted:.6g} ({failed}/{attempted} commands)")
        metrics = {name: statistics.median(series[name]) for name in reported}
    else:
        table = {name: [s.layers[name] for s in traced_seqs] for name in traced_seqs[0].layers}
        table["trace.overhead_s"] = [statistics.median([s.wall_s for s in traced_seqs])
                                     - statistics.median(walls)]
        table["trace.overhead_est_s"] = [layers.span_cost() * n
                                         for n in table["trace.wrapped_calls"]]
        table["traced_wall_s"] = [s.wall_s for s in traced_seqs]
        table["untraced_wall_s"] = walls
        for name, values in table.items():
            exact = name.endswith(("_calls", "_evals", "_bytes"))
            if exact and len(set(values)) > 1:
                correct = False
                print(f"  count {name} differs across traced sequences: {values}")
        print("per-layer (traced sequences; *_s are self times):")
        for name, values in table.items():
            print(_line(name, values))
        metrics = {name: statistics.median(table[name]) for name in reported}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_references() -> None:
    from beliefopt import cli

    references = {}
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            out = str(WORK / workload)
            os.makedirs(out)
            references[workload] = run_sequence(workload, 0, out, cli.main).digests()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_references and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "beliefopt" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no beliefopt sources under {ROOT}", file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy loads: at most one BLAS thread per CPU
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(SRC))
    if args.write_references:
        write_references()
        return 0
    spec = json.loads(SPEC.read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = run_bench(args.workload, args.seed, args.seconds, bool(args.trace), reported)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
