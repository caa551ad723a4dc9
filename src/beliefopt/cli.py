"""Command line front end.

Subcommands:

* ``run``      execute every (optimizer, alpha) cell of a config, all cells
               advancing in lockstep, and write one trace CSV per cell; the
               lane groups are sharded over one process per CPU;
* ``compare``  run the sweep, pick the best alpha per optimizer, and emit
               compare.csv plus compare.svg for the winners;
* ``check``    validate trace CSVs: a deterministic re-run from the
               embedded config, one trace at a time, that must reproduce
               the rows the run keeps, every stored column and metadata
               value, and the increment band and weight positivity of that
               re-run at those rows;
* ``bound``    print measured constants and the closed-form regret budget
               against measured regret at each checkpoint; its belief-rule
               cells are sharded like ``run``'s;
* ``probe``    print the stepsize magnitude table for the three gradient
               scripts.

Every command that runs the engine does so through ``_drive``, the one
function that sweeps and forks workers.  Given ``run``'s or ``compare``'s
output directory, it creates it and has each worker write its own traces
only once every cell has run and been summarized; ``run``, ``compare`` and
``bound`` print only after that.

Exit codes: 0 success, 1 usage, 2 config problem, 3 numeric failure or a
lost sweep worker, 4 failed check.  A numeric failure names the trace
``check`` re-ran, or the cell whose run or hindsight solve failed.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .config import RunConfig, build_problem, build_region, load_config, parse_config, sweep_cells
from .errors import BatchMemoryError, CheckFailure, ConfigError, NumericFailure
from .optim import BOUNDED_RULE
from .regret import (
    R_RULE,
    band_holds,
    budget_domain,
    check_condition3,
    compute_regret,
    gamma_holds,
    lane_groups,
    measure_constants,
    region_stepsize_table,
    run_online,  # unused here: bench/layers.py wraps cli.run_online
    run_sweep,
    theoretical_bound,
)
from .svgchart import write_compare_svg
from .traceio import (TRACE_COLUMNS, check_steps, g17, nonnegative_int, read_trace,
                      stored_mismatches, trace_record, trace_run, write_compare_csv, write_trace)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _use_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


@contextmanager
def _writing(path: str):
    """Turn an OSError inside the block into a config error naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _out_path(out: str) -> str:
    """The output directory ``out``, not yet created; a file in its way is
    rejected here, before the run."""
    parent = os.path.abspath(out)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {out}: {parent} is not a directory")
    return out


def _make_dir(out: str) -> str:
    """Create ``out``; called once the run has succeeded."""
    with _writing(out):
        os.makedirs(out, exist_ok=True)
    return out


def _seed(args, cfg: RunConfig) -> int:
    return cfg.run.seed if args.seed is None else args.seed


class WorkerLost(RuntimeError):
    """A sweep worker process ended without reporting its shard."""


def _worker_count() -> int:
    """The CPUs this process may run on; 1 where fork or the affinity call
    is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shards(cells) -> list[list[int]]:
    """Cell indices per worker, one worker per CPU up to one per lane group.

    Shards hold whole lane groups, balanced by lane count: the largest
    group goes first, each onto the lightest shard.  Each shard lists its
    cells in cell order, and the lightest shard comes first.
    """
    groups = sorted(lane_groups(cells), key=len, reverse=True)
    shards = [[] for _ in range(min(_worker_count(), len(groups)))]
    for members in groups:
        min(shards, key=len).extend(members)
    return sorted((sorted(shard) for shard in shards), key=len)


def _attempt(fn, *args):
    """(fn(*args), None), or (None, the exception it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


def _finish_shard(finish, cells, values):
    """([finish(cell, value)] up to the first cell whose finish raises, and
    that exception or None)."""
    done = []
    for cell, swept in zip(cells, values):
        value, exc = _attempt(finish, cell, swept)
        if exc is not None:
            return done, exc
        done.append(value)
    return done, None


@dataclass
class _Worker:
    pid: int | None  # None once reaped
    labels: list[str]
    report: BinaryIO  # the child's pickled reports
    go: int  # pipe fd: one b"g" lets the child finish its shard


def _send(fh, value, exc) -> None:
    """Pickle one report (value, exception or None) into ``fh``; an
    exception that does not survive pickling travels as its text."""
    if exc is not None:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    pickle.dump((value, exc), fh)
    fh.flush()


def _fork(sweep, finish, cells, workers) -> _Worker:
    """Start a child that sweeps ``cells``, reports, waits for go, then
    finishes them and reports again; it never prints and ends with
    ``os._exit``.  ``workers`` are the earlier children, whose pipe ends
    the new child closes.  A pipe or fork that fails raises WorkerLost."""
    fds = []
    try:
        fds.extend(os.pipe())
        fds.extend(os.pipe())
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerLost(f"the sweep worker for cells {', '.join(c.label for c in cells)} "
                         f"could not start: {exc}") from None
    report_r, report_w, go_r, go_w = fds
    if pid == 0:
        status = 1
        try:
            for fd in [report_r, go_w, *(w.report.fileno() for w in workers),
                       *(w.go for w in workers)]:
                os.close(fd)
            with os.fdopen(report_w, "wb") as report:
                values, exc = _attempt(sweep, cells)
                _send(report, None, exc)
                if exc is None and os.read(go_r, 1) == b"g":
                    _send(report, *_finish_shard(finish, cells, values))
            status = 0
        finally:
            os._exit(status)
    os.close(report_w)
    os.close(go_r)
    return _Worker(pid, [cell.label for cell in cells], os.fdopen(report_r, "rb"), go_w)


def _receive(worker: _Worker):
    """The worker's next report; WorkerLost if it ended without one."""
    try:
        return pickle.load(worker.report)
    except (EOFError, pickle.UnpicklingError):
        pass
    _, status = os.waitpid(worker.pid, 0)
    worker.pid = None
    code = os.waitstatus_to_exitcode(status)
    how = f"signal {-code}" if code < 0 else f"exit status {code}"
    raise WorkerLost(f"the sweep worker for cells {', '.join(worker.labels)} "
                     f"ended without reporting ({how})")


def _reap(workers) -> None:
    """Close every worker's pipes, then kill and reap the ones not reaped."""
    if not workers:
        return
    import signal  # loaded only by a run that forks

    for worker in workers:
        worker.report.close()
        os.close(worker.go)
        if worker.pid is not None:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)


def _first_failure(cells, errors) -> Exception:
    """The error the one-process sweep over all ``cells`` would raise, from
    the shards' errors in shard order: an error that is not a numeric
    failure of a step or a cell (the first shard's), else the numeric
    failure at the earliest (step, cell), else the first cell's failed
    summary.  Every such failure names its cell."""
    index = {cell.label: j for j, cell in enumerate(cells)}

    def rank(exc):
        if not isinstance(exc, NumericFailure) or exc.cell is None:
            return 0, 0, 0
        # A failure without a step comes after the whole sweep.
        return (1, exc.step, index[exc.cell]) if exc.step is not None else (2, 0, index[exc.cell])

    return min(errors, key=rank)


def _drive(cfg: RunConfig, problem, seed: int, cells, summarize, out=None):
    """[summarize(region, trace)] for every cell, in cell order, over the
    config's region; with ``out``, [(summary, path, rows)], each cell's
    trace written into the directory ``out``.

    The cells are split into ``_shards``.  Each shard runs ``run_sweep`` on
    its cells and summarizes them: shard 0 here, every other one in a forked
    child that reports over a pipe.  Only once every shard has succeeded is
    ``out`` created and each shard writes its own traces; a child sends
    back its summaries.  Lanes are bit-identical to one-cell runs, so the
    split changes no result.  A failure is raised as the one-process sweep
    over all the cells would raise it, and no child outlives the call.
    Memory refused to the sweep's records or to the problem's minibatch
    block is a config error naming the [run] horizon or the [problem]
    batch_size, the same for every worker count; a numeric failure inside
    ``summarize`` names its cell.
    """
    region = build_region(cfg, problem.dim)

    def sweep(part):
        try:
            traces = run_sweep(problem, part, region, cfg.run.horizon, seed)
        except BatchMemoryError:
            raise cfg.error(cfg.problem_line, f"[problem] {cfg.problem.kind}: batch_size = "
                            f"{cfg.problem.batch_size} does not fit in memory") from None
        except MemoryError:
            raise cfg.error(cfg.run_line, f"[run] horizon = {cfg.run.horizon} "
                            "does not fit in memory") from None
        return [(trace, named(cell, trace)) for cell, trace in zip(part, traces)]

    def named(cell, trace):
        try:
            return summarize(region, trace)
        except NumericFailure as exc:
            raise NumericFailure(f"{exc} in cell {cell.label}", cell=cell.label) from None

    def finish(cell, swept):
        trace, summary = swept
        if out is None:
            return summary
        path = os.path.join(out, f"trace_{cell.label}.csv")
        with _writing(path):
            rows = write_trace(path, trace, config_text=cfg.text,
                               thin_stride=cfg.run.thin_stride, checkpoints=cfg.run.checkpoints)
        return summary, path, rows

    shards = _shards(cells)
    parts = [[cells[j] for j in shard] for shard in shards]
    workers = []
    try:
        for part in parts[1:]:
            workers.append(_fork(sweep, finish, part, workers))
        values, exc = _attempt(sweep, parts[0])
        errors = [e for e in [exc] + [_receive(worker)[1] for worker in workers] if e is not None]
        if errors:
            raise _first_failure(cells, errors)
        if out is not None:
            _make_dir(out)
        for worker in workers:
            try:
                os.write(worker.go, b"g")
            except BrokenPipeError:
                pass  # the worker died; _receive below reports it lost
        reports = [_finish_shard(finish, parts[0], values)] + [_receive(w) for w in workers]
    finally:
        _reap(workers)
    results = [None] * len(cells)
    failed = []
    for shard, (done, exc) in zip(shards, reports):
        for j, value in zip(shard, done):
            results[j] = value
        if exc is not None:
            failed.append((shard[len(done)], exc))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_path(args.out or cfg.run.out_dir or ".")
    problem = build_problem(cfg)
    cells = sweep_cells(cfg)

    def summarize(region, trace):
        return problem.full_loss(trace.x_final), float(np.sum(trace.loss))

    results = _drive(cfg, problem, _seed(args, cfg), cells, summarize, out)
    for cell, ((final_loss, cum_loss), path, rows) in zip(cells, results):
        print(f"run {cell.label}: horizon={cfg.run.horizon} "
              f"final_loss={g17(final_loss)} "
              f"cum_loss={g17(cum_loss)} "
              f"rows={rows} trace={path}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out = _out_path(args.out or cfg.run.out_dir or ".")
    problem = build_problem(cfg)
    cells = sweep_cells(cfg)

    def summarize(region, trace):
        if args.select_alpha == "final_regret":
            score = float(compute_regret(problem, region, trace, cfg.run.checkpoints).regret[-1])
        else:
            score = problem.full_loss(trace.x_final)
        return score, trace.loss

    results = _drive(cfg, problem, _seed(args, cfg), cells, summarize, out)
    best = {}  # kind -> (alpha, score, loss series), kinds in order of first cell
    for cell, ((score, loss), _, _) in zip(cells, results):
        if cell.kind not in best or score < best[cell.kind][1]:
            best[cell.kind] = (cell.hp.alpha, score, loss)
    series = {}
    for kind, (alpha, score, loss) in best.items():
        series[kind] = loss
        print(f"compare {kind}: best alpha={alpha:g} "
              f"{args.select_alpha}={g17(score)}")
    csv_path = os.path.join(out, "compare.csv")
    svg_path = os.path.join(out, "compare.svg")
    with _writing(csv_path):
        write_compare_csv(csv_path, series)
    with _writing(svg_path):
        write_compare_svg(svg_path, series, title=f"{problem.kind}: loss vs step")
    if "fastadabelief" in best:
        fab = best["fastadabelief"][1]
        rivals = {k: v[1] for k, v in best.items() if k != "fastadabelief"}
        if rivals:
            top_kind = min(rivals, key=rivals.get)
            top = rivals[top_kind]
            # A ratio of scores compares them only when both are positive.
            ratio = f"{fab / top:.6g}" if fab > 0 and top > 0 else "n/a"
            print(f"compare summary: fastadabelief={g17(fab)} "
                  f"best_baseline={top_kind}:{g17(top)} ratio={ratio}")
    print(f"compare wrote {csv_path} and {svg_path}")
    return 0


def _check_one(path: str) -> list[str]:
    failures = []
    tf = read_trace(path)
    kind, alpha, seed = trace_run(tf, path)
    if not tf.config_text:
        raise CheckFailure(f"{path}: no embedded config to re-run")
    cfg = parse_config(tf.config_text, source=path, linenos=tf.config_lines)
    cell = next((c for c in sweep_cells(cfg)
                 if c.kind == kind and c.hp.alpha == alpha), None)
    if cell is None:
        raise CheckFailure(f"{path}: embedded config has no {kind} cell with alpha={alpha:g}")
    try:
        [trace] = _drive(cfg, build_problem(cfg), seed, [cell], lambda region, trace: trace)
    except NumericFailure as exc:
        raise NumericFailure(f"{path}: {exc}") from None
    # Only now, as the re-run refuses a horizon too large to hold: the file
    # must hold the rows the run keeps, and the verdicts and the comparison
    # read the re-run's record of them; a stored upper edge of the same
    # value keeps its text.
    meta, table = trace_record(trace, cfg.run.thin_stride, cfg.run.checkpoints)
    check_steps(tf, path, table[:, 0])
    differ = stored_mismatches(tf, meta, table)
    cols = dict(zip(TRACE_COLUMNS, table.T))
    upper_text = dict(meta)["cond4_upper"] if "cond4_upper" in differ else tf.meta["cond4_upper"]
    cond4_ok = band_holds(cols["cond4_min"], cols["cond4_max"], float(upper_text))
    gamma_ok = gamma_holds(cols["gamma_min"])
    print(f"check {path}: cond4 band {_verdict(cond4_ok)} "
          f"(min={cols['cond4_min'].min():.6g} max={cols['cond4_max'].max():.6g} "
          f"upper={upper_text})")
    print(f"check {path}: gamma positivity {_verdict(gamma_ok)} "
          f"(min={cols['gamma_min'].min():.6g})")
    if not cond4_ok:
        failures.append("cond4 band violated")
    if not gamma_ok:
        failures.append("gamma positivity violated")
    reproduced = "loss" not in differ
    print(f"check {path}: re-run reproduces losses {_verdict(reproduced)}")
    if not reproduced:
        failures.append("re-run did not reproduce the stored losses")
    failures.extend(message for name, message in differ.items() if name != "loss")
    c3 = check_condition3(trace)
    zeta_ok = bool(np.isfinite(c3.zeta))
    print(f"check {path}: finite zeta {_verdict(zeta_ok)} (zeta*={c3.zeta:.6g})")
    if not zeta_ok:
        failures.append("zeta is not finite")
    return [f"{path}: {msg}" for msg in failures]


def cmd_check(args) -> int:
    failures = []
    for path in args.traces:
        failures.extend(_check_one(path))
    if failures:
        raise CheckFailure("; ".join(failures))
    return 0


def cmd_bound(args) -> int:
    cfg = load_config(args.config)
    cells = sweep_cells(cfg)
    bounded = [cell for cell in cells if cell.kind == BOUNDED_RULE]
    if not bounded:
        raise ConfigError(f"{cfg.source}: config has no {BOUNDED_RULE} cell to bound")
    problem = build_problem(cfg)
    lines = [spec.line for spec in cfg.optimizers for _ in spec.alphas]
    width = cfg.run.region_hi - cfg.run.region_lo
    for cell, line in zip(cells, lines):
        if cell.kind != BOUNDED_RULE:
            continue
        leaves = budget_domain(problem.dim, width, cfg.run.horizon, cell.hp)
        where = f"[optimizer] {cell.kind}: "
        voided = {  # budget_domain's verdict -> the header line and the message
            "schedule": (line, f"{where}schedule = {cell.hp.step_schedule} voids the regret "
                               "budget, which is derived for the alpha/t stepsize"),
            "D_inf": (cfg.run_line, f"[run] region_hi - region_lo = {width:g} is too wide "
                                    "for the regret budget, whose D_inf^2 overflows"),
            "delta": (line, f"{where}delta = {cell.hp.delta:g} is too large for the regret "
                            "budget, whose delta^2 overflows"),
            "r": (line, f"{where}delta = {cell.hp.delta:g} is too small for the regret budget "
                        f"over {cfg.run.horizon} steps, whose r^2 can overflow"),
            "budget": (line, f"[optimizer] {cell.label}: the regret budget is not finite even "
                             "with zero gradients, so no run has a finite budget"),
        }
        if leaves is not None:
            raise cfg.error(*voided[leaves])

    def summarize(region, trace):
        report = compute_regret(problem, region, trace, cfg.run.checkpoints)
        return report, [measure_constants(trace.truncate(upto), region)
                        for upto in report.checkpoints]

    reports = iter(_drive(cfg, problem, _seed(args, cfg), bounded, summarize))
    for cell, line in zip(cells, lines):
        if cell.kind != BOUNDED_RULE:
            print(f"bound {cell.label}: skipped (budget applies to {BOUNDED_RULE} only)")
            continue
        report, measured = next(reports)
        print(f"bound {cell.label}: checkpoint  regret  budget  ratio")
        for upto, regret, constants in zip(report.checkpoints, report.regret.tolist(), measured):
            budget = theoretical_bound(constants)
            if not np.isfinite(budget):
                raise cfg.error(line, f"[optimizer] {cell.label}: the regret budget at "
                                f"checkpoint {upto} is {g17(budget)}, not a finite number")
            ratio = regret / budget if budget > 0 else float("inf")
            print(f"bound {cell.label}: {upto:10d}  {g17(regret)}  "
                  f"{g17(budget)}  {ratio:.6g}")
        # The last checkpoint is the horizon, so these are the whole trace's.
        print(f"bound {cell.label}: r={g17(constants.r)} ({R_RULE})")
    return 0


def cmd_probe(args) -> int:
    if args.out:
        _out_path(args.out)
    rows = region_stepsize_table()
    header = f"{'region':8s} {'optimizer':15s} {'t':>5s} {'|step|':>12s}"
    print(header)
    for region, kind, t, _m, _s, delta_abs in rows:
        print(f"{region:8s} {kind:15s} {t:5d} {delta_abs:12.6g}")
    if args.out:
        path = os.path.join(_make_dir(args.out), "probe.csv")
        lines = ["region,optimizer,t,m,s,step_abs"]
        for region, kind, t, m, s, delta_abs in rows:
            lines.append(f"{region},{kind},{t},{g17(m)},{g17(s)},{g17(delta_abs)}")
        with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"probe wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefopt",
        description="online convex optimization runs, regret reports, and checks")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {}  # flag -> a parent parser that declares it
    for flag, options in (("--config", {"required": True}), ("--out", {"default": None}),
                          ("--seed", {"type": nonnegative_int, "default": None})):
        shared[flag] = argparse.ArgumentParser(add_help=False)
        shared[flag].add_argument(flag, **options)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help, parents=[shared[flag] for flag in flags])
        p.set_defaults(func=func)
        return p

    command("run", cmd_run, "run every sweep cell and write traces", "--config", "--out", "--seed")
    command("compare", cmd_compare, "sweep, select best alpha per optimizer, plot",
            "--config", "--out", "--seed").add_argument(
        "--select-alpha", choices=("final_loss", "final_regret"), default="final_loss")
    command("check", cmd_check, "validate trace CSVs").add_argument(
        "traces", nargs="+", metavar="TRACE")
    command("bound", cmd_bound, "closed-form budget vs measured regret", "--config", "--seed")
    command("probe", cmd_probe, "stepsize table on the gradient scripts", "--out")
    return parser


#: the exit code and stderr prefix of each error a command ends with
_EXITS = {ConfigError: (2, "config error"), NumericFailure: (3, "numeric failure"),
          WorkerLost: (3, "run failed"), CheckFailure: (4, "check failed")}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except tuple(_EXITS) as exc:
        code, prefix = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
