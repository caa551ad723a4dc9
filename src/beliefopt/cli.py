"""Command line front end.

Subcommands:

* ``run``      execute every (optimizer, alpha) cell of a config, all cells
               advancing in lockstep, and write one trace CSV per cell;
* ``compare``  run the sweep, pick the best alpha per optimizer, and emit
               compare.csv plus compare.svg for the winners;
* ``check``    validate trace CSVs: increment band and weight positivity
               from the stored columns, plus a deterministic re-run from
               the embedded config that must reproduce the file;
* ``bound``    print measured constants and the closed-form regret budget
               against measured regret at each checkpoint;
* ``probe``    print the stepsize magnitude table for the three gradient
               scripts.

Exit codes: 0 success, 1 usage, 2 config problem, 3 numeric failure,
4 failed check.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, build_problem, build_region, load_config, parse_config, sweep_cells
from .errors import CheckFailure, ConfigError, NumericFailure
from .regret import (
    BAND_TOL,
    check_condition3,
    compute_regret,
    measure_constants,
    region_stepsize_table,
    run_online,
    run_sweep,
    theoretical_bound,
)
from .svgchart import write_compare_svg
from .traceio import read_trace, write_compare_csv, write_trace

_G17 = "%.17g"


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _use_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _out_dir(args, cfg: RunConfig) -> str:
    """The output directory, created; called once the run has succeeded."""
    out = args.out or cfg.run.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _seed(args, cfg: RunConfig) -> int:
    return cfg.run.seed if args.seed is None else args.seed


def _run_cells(cfg: RunConfig, seed: int):
    problem = build_problem(cfg)
    region = build_region(cfg, problem.dim)
    cells = sweep_cells(cfg)
    traces = run_sweep(problem, cells, region, cfg.run.horizon, seed)
    return problem, region, list(zip(cells, traces))


def _write_traces(out: str, cfg: RunConfig, results):
    """Write one trace CSV per cell into ``out``; [(cell, trace, path, rows)]."""
    checkpoints = None if cfg.run.checkpoints == "auto" else list(cfg.run.checkpoints)
    written = []
    for cell, trace in results:
        path = os.path.join(out, f"trace_{cell.label}.csv")
        rows = write_trace(path, trace, config_text=cfg.text,
                           thin_stride=cfg.run.thin_stride, checkpoints=checkpoints)
        written.append((cell, trace, path, rows))
    return written


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem, _, results = _run_cells(cfg, _seed(args, cfg))
    for cell, trace, path, rows in _write_traces(_out_dir(args, cfg), cfg, results):
        final_loss = problem.full_loss(trace.x_final)
        print(f"run {cell.label}: horizon={trace.horizon} "
              f"final_loss={_G17 % final_loss} "
              f"cum_loss={_G17 % float(np.sum(trace.loss))} "
              f"rows={rows} trace={path}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    problem, region, results = _run_cells(cfg, _seed(args, cfg))
    out = _out_dir(args, cfg)
    scored = []
    for cell, trace, _, _ in _write_traces(out, cfg, results):
        if args.select_alpha == "final_regret":
            score = float(compute_regret(problem, region, trace).regret[-1])
        else:
            score = problem.full_loss(trace.x_final)
        scored.append((cell, trace, score))
    best = {}
    order = []
    for cell, trace, score in scored:
        if cell.kind not in best:
            order.append(cell.kind)
        if cell.kind not in best or score < best[cell.kind][2]:
            best[cell.kind] = (cell, trace, score)
    series = {}
    for kind in order:
        cell, trace, score = best[kind]
        series[kind] = trace.loss
        print(f"compare {kind}: best alpha={cell.hp.alpha:g} "
              f"{args.select_alpha}={_G17 % score}")
    csv_path = os.path.join(out, "compare.csv")
    svg_path = os.path.join(out, "compare.svg")
    write_compare_csv(csv_path, series)
    write_compare_svg(svg_path, series, title=f"{problem.kind}: loss vs step")
    if "fastadabelief" in best:
        fab = best["fastadabelief"][2]
        rivals = {k: v[2] for k, v in best.items() if k != "fastadabelief"}
        if rivals:
            top_kind = min(rivals, key=rivals.get)
            top = rivals[top_kind]
            ratio = fab / top if top != 0 else float("inf")
            print(f"compare summary: fastadabelief={_G17 % fab} "
                  f"best_baseline={top_kind}:{_G17 % top} ratio={ratio:.6g}")
    print(f"compare wrote {csv_path} and {svg_path}")
    return 0


def nonnegative_int(text: str) -> int:
    """``int(text)`` for a seed; numpy's generators take no negative seeds."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def _meta_value(tf, path: str, key: str, parse):
    try:
        return parse(tf.meta[key])
    except ValueError:
        raise ConfigError(f"{path}: metadata '# {key}: {tf.meta[key]}' is not valid") from None


def _check_one(path: str) -> list[str]:
    failures = []
    tf = read_trace(path)
    for key in ("optimizer", "alpha", "seed", "cond4_upper"):
        if key not in tf.meta:
            raise CheckFailure(f"{path}: metadata line '# {key}: ...' missing")
    upper = _meta_value(tf, path, "cond4_upper", float) + BAND_TOL
    alpha = _meta_value(tf, path, "alpha", float)
    seed = _meta_value(tf, path, "seed", nonnegative_int)
    cols = tf.columns
    cond4_ok = bool(np.all(cols["cond4_min"] >= 0.0) and np.all(cols["cond4_max"] <= upper))
    gamma_ok = bool(np.all(cols["gamma_min"] >= 0.0))
    print(f"check {path}: cond4 band {_verdict(cond4_ok)} "
          f"(min={cols['cond4_min'].min():.6g} max={cols['cond4_max'].max():.6g} "
          f"upper={tf.meta['cond4_upper']})")
    print(f"check {path}: gamma positivity {_verdict(gamma_ok)} "
          f"(min={cols['gamma_min'].min():.6g})")
    if not cond4_ok:
        failures.append("cond4 band violated")
    if not gamma_ok:
        failures.append("gamma positivity violated")
    if not tf.config_text:
        raise CheckFailure(f"{path}: no embedded config to re-run")
    cfg = parse_config(tf.config_text, source=path, linenos=tf.config_lines)
    kind = tf.meta["optimizer"]
    cell = next((c for c in sweep_cells(cfg)
                 if c.kind == kind and c.hp.alpha == alpha), None)
    if cell is None:
        raise CheckFailure(f"{path}: embedded config has no {kind} cell with alpha={alpha:g}")
    problem = build_problem(cfg)
    region = build_region(cfg, problem.dim)
    trace = run_online(problem, cell.kind, cell.hp, region, cfg.run.horizon, seed)
    steps = tf.steps - 1
    reproduced = bool(np.array_equal(trace.loss[steps], cols["loss"]))
    print(f"check {path}: re-run reproduces losses {_verdict(reproduced)}")
    if not reproduced:
        failures.append("re-run did not reproduce the stored losses")
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
    seed = _seed(args, cfg)
    problem, region, results = _run_cells(cfg, seed)
    printed = False
    for cell, trace in results:
        if cell.kind != "fastadabelief":
            print(f"bound {cell.label}: skipped (budget applies to fastadabelief only)")
            continue
        printed = True
        report = compute_regret(problem, region, trace)
        print(f"bound {cell.label}: checkpoint  regret  budget  ratio")
        for j, upto in enumerate(report.checkpoints):
            constants = measure_constants(trace.truncate(upto), region)
            budget = theoretical_bound(constants)
            regret = float(report.regret[j])
            ratio = regret / budget if budget > 0 else float("inf")
            print(f"bound {cell.label}: {upto:10d}  {_G17 % regret}  "
                  f"{_G17 % budget}  {ratio:.6g}")
        constants = measure_constants(trace, region)
        print(f"bound {cell.label}: r={_G17 % constants.r} ({constants.r_rule})")
    if not printed:
        raise ConfigError("config has no fastadabelief cell to bound")
    return 0


def cmd_probe(args) -> int:
    rows = region_stepsize_table()
    header = f"{'region':8s} {'optimizer':15s} {'t':>5s} {'|step|':>12s}"
    print(header)
    for region, kind, t, _m, _s, delta_abs in rows:
        print(f"{region:8s} {kind:15s} {t:5d} {delta_abs:12.6g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "probe.csv")
        lines = ["region,optimizer,t,m,s,step_abs"]
        for region, kind, t, m, s, delta_abs in rows:
            lines.append(f"{region},{kind},{t},{_G17 % m},{_G17 % s},{_G17 % delta_abs}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"probe wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefopt",
        description="online convex optimization runs, regret reports, and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every sweep cell and write traces")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=nonnegative_int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="sweep, select best alpha per optimizer, plot")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--seed", type=nonnegative_int, default=None)
    p_cmp.add_argument("--select-alpha", choices=("final_loss", "final_regret"),
                       default="final_loss")
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="validate trace CSVs")
    p_chk.add_argument("traces", nargs="+", metavar="TRACE")
    p_chk.set_defaults(func=cmd_check)

    p_bnd = sub.add_parser("bound", help="closed-form budget vs measured regret")
    p_bnd.add_argument("--config", required=True)
    p_bnd.add_argument("--seed", type=nonnegative_int, default=None)
    p_bnd.set_defaults(func=cmd_bound)

    p_prb = sub.add_parser("probe", help="stepsize table on the gradient scripts")
    p_prb.add_argument("--out", default=None)
    p_prb.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
