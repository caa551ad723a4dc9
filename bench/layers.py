"""Per-layer spans for the traced benchmark run.

The tracer wraps public entry points of each ``beliefopt`` module from
outside the package.  Every wrapper is installed at the name its caller
looks it up by (``beliefopt.cli.run_online``, ``beliefopt.regret.step``, a
method on a problem class, ...), so the program itself is unchanged and
the untraced runs never see a wrapper.

A span's self time is its own duration minus the durations of the wrapped
calls made inside it, so the self times of all spans, including the root
``cli`` span around each command, add up to the traced commands' wall time.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Call counts, self time and file bytes per span name."""

    def __init__(self):
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.bytes = Counter()
        self.counts = Counter()
        self._inner = []  # time spent in wrapped children, one entry per open span

    def span(self, name, fn, path_arg=False):
        """Wrap ``fn``; with ``path_arg`` the size of the file named by the
        first argument is added to the span's bytes after the call."""
        inner = self._inner

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = inner.pop()
                if inner:
                    inner[-1] += dt
                self.calls[name] += 1
                self.self_time[name] += dt - children
                if path_arg:
                    self.bytes[name] += os.path.getsize(args[0])

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` with a call counter only; its time stays with the caller."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a span wrapper adds to one call, measured around a no-op."""
    def noop():
        return None

    wrapped = Tracer().span("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]


def _prefix_span(tracer, fn):
    """prefix_objective span whose returned grad closure counts solver evals."""
    def prefix_objective(self, upto, seed):
        f, grad, l_est = fn(self, upto, seed)
        return f, tracer.counted("regret.solver_grad_evals", grad), l_est

    return tracer.span("problems.prefix", prefix_objective)


@contextmanager
def installed(tracer):
    """Install the layer wrappers for the duration of the block."""
    from beliefopt import cli, problems, regret
    from beliefopt.problems import QuadraticProblem, SoftmaxL2Problem

    plain = [
        (cli, "load_config", "config.load", False),
        (cli, "parse_config", "config.load", False),
        (cli, "build_problem", "config.build", False),
        (cli, "run_online", "regret.driver", False),
        (regret, "step", "optim.step", False),
        (QuadraticProblem, "round_loss_grad", "problems.oracle", False),
        (SoftmaxL2Problem, "round_loss_grad", "problems.oracle", False),
        (problems, "sample_batch", "problems.draw", False),
        (cli, "compute_regret", "regret.hindsight", False),
        (regret, "fit_growth", "regret.fit", False),
        (cli, "measure_constants", "regret.constants", False),
        (cli, "theoretical_bound", "regret.constants", False),
        (cli, "check_condition3", "regret.cond3", False),
        (cli, "region_stepsize_table", "regret.probe", False),
        (cli, "write_trace", "traceio.write", True),
        (cli, "write_compare_csv", "traceio.compare_write", True),
        (cli, "read_trace", "traceio.read", True),
        (cli, "write_compare_svg", "svgchart.write", True),
    ]
    saved = []
    try:
        for owner, attr, name, path_arg in plain:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(name, original, path_arg))
        for cls in (QuadraticProblem, SoftmaxL2Problem):
            original = vars(cls)["prefix_objective"]
            saved.append((cls, "prefix_objective", original))
            cls.prefix_objective = _prefix_span(tracer, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced command sequence.

    Every ``*_s`` value is a self time.  ``trace.unattributed_s`` is what the
    sequence's wall time holds beyond all span self times: the harness's
    own work between commands.
    """
    calls, own, size = tracer.calls, tracer.self_time, tracer.bytes
    steps = calls["optim.step"]
    return {
        "optim.step_calls": steps,
        "optim.step_s": own["optim.step"],
        "regret.driver_self_s": own["regret.driver"],
        "problems.oracle_calls": calls["problems.oracle"],
        "problems.oracle_s": own["problems.oracle"],
        "problems.draw_calls": calls["problems.draw"],
        "problems.draw_s": own["problems.draw"],
        "problems.draws_per_step": calls["problems.draw"] / steps if steps else 0.0,
        "problems.prefix_calls": calls["problems.prefix"],
        "problems.prefix_s": own["problems.prefix"],
        "regret.solver_grad_evals": tracer.counts["regret.solver_grad_evals"],
        "regret.hindsight_s": own["regret.hindsight"],
        "regret.fit_s": own["regret.fit"],
        "regret.constants_s": own["regret.constants"],
        "regret.cond3_s": own["regret.cond3"],
        "regret.probe_s": own["regret.probe"],
        "traceio.write_s": own["traceio.write"] + own["traceio.compare_write"],
        "traceio.write_bytes": size["traceio.write"] + size["traceio.compare_write"],
        "traceio.compare_write_s": own["traceio.compare_write"],
        "traceio.read_s": own["traceio.read"],
        "traceio.read_bytes": size["traceio.read"],
        "svgchart.write_s": own["svgchart.write"],
        "svgchart.write_bytes": size["svgchart.write"],
        "config.load_s": own["config.load"],
        "config.build_s": own["config.build"],
        "cli.self_s": own["cli"],
        "trace.unattributed_s": wall_s - sum(own.values()),
        "trace.wrapped_calls": sum(calls.values()) + sum(tracer.counts.values()),
    }
