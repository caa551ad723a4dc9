"""Acceptance gate: the twelve checks this package promises to hold.

One test per criterion, each printing a single verdict line (visible under
``pytest -s``; the test id carries the same information either way).  The
two expensive canonical runs and the tuning sweep are shared module-wide,
so the gate stays well inside the runtime budget it asserts.
"""

import math
import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from beliefopt import (
    FeasibleRegion,
    HyperParams,
    QuadraticProblem,
    best_in_hindsight,
    box_region,
    build_problem,
    build_region,
    check_condition4,
    check_gamma_psd,
    compute_regret,
    finite_diff_grad,
    load_config,
    measure_constants,
    project_weighted,
    quadratic_grad,
    run_online,
    run_sweep,
    softmax_l2_grad,
    softmax_l2_loss,
    stepsize_probe,
    sweep_cells,
    theoretical_bound,
)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def canonical(name: str):
    return load_config(str(CONFIGS / name))


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{tail}")
    return ok


def _canonical_run(cfg):
    problem = build_problem(cfg)
    region = build_region(cfg, problem.dim)
    (cell,) = sweep_cells(cfg)
    started = time.perf_counter()
    trace = run_online(problem, cell.kind, cell.hp, region,
                       cfg.run.horizon, cfg.run.seed)
    report = compute_regret(problem, region, trace)
    seconds = time.perf_counter() - started
    return SimpleNamespace(cfg=cfg, problem=problem, region=region,
                           trace=trace, report=report, seconds=seconds)


@pytest.fixture(scope="module")
def quad():
    return _canonical_run(canonical("quadratic.cfg"))


@pytest.fixture(scope="module")
def softmax():
    return _canonical_run(canonical("softmax.cfg"))


@pytest.fixture(scope="module")
def tuned_losses():
    """Best full-data loss per optimizer after the alpha sweep."""
    cfg = canonical("compare.cfg")
    problem = build_problem(cfg)
    region = build_region(cfg, problem.dim)
    best: dict[str, float] = {}
    cells = sweep_cells(cfg)
    # One sweep over all cells; each lane is bit-identical to a run alone.
    traces = run_sweep(problem, cells, region, cfg.run.horizon, cfg.run.seed)
    for cell, trace in zip(cells, traces):
        score = problem.full_loss(trace.x_final)
        if cell.kind not in best or score < best[cell.kind]:
            best[cell.kind] = score
    return best


def test_criterion_01_logarithmic_regret_growth(quad, softmax):
    ok = True
    details = []
    for label, setup in (("quadratic", quad), ("softmax", softmax)):
        log_r2 = setup.report.log_fit.r_squared
        sqrt_r2 = setup.report.sqrt_fit.r_squared
        ok = ok and log_r2 >= 0.95 and log_r2 > sqrt_r2 and setup.seconds < 60.0
        details.append(f"{label}: log R2={log_r2:.4f} sqrt R2={sqrt_r2:.4f} "
                       f"{setup.seconds:.1f}s")
    assert verdict(1, "logarithmic regret growth", ok, "; ".join(details))


def test_criterion_02_sublinear_average_regret(quad, softmax):
    ok = True
    details = []
    for label, setup in (("quadratic", quad), ("softmax", softmax)):
        ratios = setup.report.ratio
        strictly_down = bool(np.all(np.diff(ratios) < 0.0))
        ok = ok and strictly_down
        details.append(f"{label}: R/T {ratios[0]:.3g} -> {ratios[-1]:.3g}")
    assert verdict(2, "average regret strictly decreasing", ok, "; ".join(details))


def test_criterion_03_bound_domination(quad):
    ratios = []
    ok = True
    for j, upto in enumerate(quad.report.checkpoints):
        constants = measure_constants(quad.trace.truncate(upto), quad.region)
        budget = theoretical_bound(constants)
        regret = quad.report.regret[j]
        ok = ok and regret <= budget
        ratios.append(regret / budget)
    margin = 1.0 - max(ratios)
    assert verdict(3, "closed-form budget dominates measured regret", ok,
                   f"max regret/budget={max(ratios):.3g}, min margin={margin:.6g}")


def test_criterion_04_gamma_nonnegativity(quad, softmax):
    worst = math.inf
    for setup in (quad, softmax):
        fab_hp = sweep_cells(setup.cfg)[0].hp
        for kind, hp in (("fastadabelief", fab_hp),
                         ("adabelief", HyperParams(alpha=0.001))):
            for seed in range(10):
                trace = run_online(setup.problem, kind, hp, setup.region,
                                   1000, seed)
                worst = min(worst, check_gamma_psd(trace))
    assert verdict(4, "weight increments stay nonnegative", worst >= 0.0,
                   f"min over 40 traces={worst:.6g}")


def test_criterion_05_condition4_band(quad):
    res = check_condition4(quad.trace, sigma=quad.problem.sigma)
    detail = (f"increments in [{res.lhs_min.min():.6g}, {res.lhs_max.max():.6g}], "
              f"upper={res.upper:.6g}")
    assert verdict(5, "stepsize-weight increment band", res.passed, detail)


def test_criterion_06_projection_nonexpansive():
    rng = np.random.default_rng(20240817)
    worst = -math.inf
    for _ in range(10_000):
        dim = int(rng.integers(1, 8))
        lower = rng.uniform(-2.0, 0.0, dim)
        upper = rng.uniform(0.0, 2.0, dim)
        region = FeasibleRegion(lower, upper)
        w = 10.0 ** rng.uniform(-3.0, 3.0, dim)
        z1 = rng.normal(0.0, 3.0, dim)
        z2 = rng.normal(0.0, 3.0, dim)
        p1 = project_weighted(z1, w, region)
        p2 = project_weighted(z2, w, region)
        lhs = math.sqrt(float(w @ (p1 - p2) ** 2))
        rhs = math.sqrt(float(w @ (z1 - z2) ** 2))
        worst = max(worst, lhs - rhs)
    assert verdict(6, "weighted projection is nonexpansive", worst <= 1e-12,
                   f"max contraction violation={worst:.3g}")


def test_criterion_07_gradient_oracles(quad, softmax):
    rng = np.random.default_rng(11)
    worst = 0.0
    problem = quad.problem
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, problem.dim)
        fd = finite_diff_grad(problem.full_loss, x)
        g = quadratic_grad(x, problem.a, problem.b)
        worst = max(worst, float(np.max(np.abs(fd - g)))
                    / max(1.0, float(np.max(np.abs(g)))))
    data = softmax.problem.dataset
    idx = np.arange(min(data.n_samples, 256))
    s1, s2 = softmax.problem.sigma1, softmax.problem.sigma2
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, softmax.problem.dim)
        fd = finite_diff_grad(
            lambda p: softmax_l2_loss(p, data, idx, s1, s2), x)
        g = softmax_l2_grad(x, data, idx, s1, s2)
        worst = max(worst, float(np.max(np.abs(fd - g)))
                    / max(1.0, float(np.max(np.abs(g)))))
    assert verdict(7, "analytic gradients match finite differences",
                   worst <= 1e-6, f"max relative error={worst:.3g}")


def test_criterion_08_strong_convexity_witness(quad, softmax):
    rng = np.random.default_rng(5)
    worst = math.inf
    for setup, spread in ((quad, 5.0), (softmax, 2.0)):
        problem = setup.problem
        sigma = problem.sigma
        if problem.kind == "quadratic":
            def grad(x):
                return quadratic_grad(x, problem.a, problem.b)
        else:
            data = problem.dataset
            all_idx = np.arange(data.n_samples)

            def grad(x, data=data, all_idx=all_idx, p=problem):
                return softmax_l2_grad(x, data, all_idx, p.sigma1, p.sigma2)
        for _ in range(1000):
            x = rng.uniform(-spread, spread, problem.dim)
            y = rng.uniform(-spread, spread, problem.dim)
            gap = (problem.full_loss(x) - problem.full_loss(y)
                   - float(grad(y) @ (x - y))
                   - 0.5 * sigma * float((x - y) @ (x - y)))
            worst = min(worst, gap)
    assert verdict(8, "certified strong convexity holds", worst >= -1e-9,
                   f"min curvature slack={worst:.3g}")


def test_criterion_09_comparative_convergence(tuned_losses):
    fab = tuned_losses["fastadabelief"]
    rivals = {k: v for k, v in tuned_losses.items() if k != "fastadabelief"}
    best_kind = min(rivals, key=rivals.get)
    best = rivals[best_kind]
    ok = fab <= 1.05 * best and fab <= tuned_losses["adabelief"]
    assert verdict(9, "tuned belief rule converges at least as fast", ok,
                   f"fastadabelief={fab:.9f}, best baseline {best_kind}={best:.9f}, "
                   f"ratio={fab / best:.6f}")


def test_criterion_10_stepsize_pointwise_inequality():
    fab_hp = HyperParams(alpha=0.01, delta=0.1, beta2_mode="sadam")
    ab_hp = HyperParams(alpha=0.01, step_schedule="inverse_t")
    rng = np.random.default_rng(3)
    ok = True
    for t in (1, 10, 100, 10_000):
        m = rng.normal(0.0, 1.0, 50)
        s = 10.0 ** rng.uniform(-8.0, 2.0, 50)
        fab = np.abs(stepsize_probe("fastadabelief", m, s, t, fab_hp))
        ab = np.abs(stepsize_probe("adabelief", m, s, t, ab_hp))
        ok = ok and bool(np.all(fab <= ab))
    fab_pin = np.abs(stepsize_probe("fastadabelief", np.ones(1),
                                    np.full(1, 0.01), 10_000, fab_hp))[0]
    ab_pin = np.abs(stepsize_probe("adabelief", np.ones(1),
                                   np.full(1, 0.01), 10_000, ab_hp))[0]
    ratio = fab_pin / ab_pin
    ok = ok and ratio >= 0.99
    assert verdict(10, "vanishing regularizer barely shortens the step", ok,
                   f"ratio at the pinned state={ratio:.16f}")
    assert ratio == pytest.approx(0.9995003746877732, rel=1e-12)


def test_criterion_11_deterministic_cli_outputs(tmp_path):
    cfg_text = (
        "[problem]\nkind = quadratic\ndim = 2\neig_min = 0.5\neig_max = 1.0\n"
        "x_star = 0.5\n\n"
        "[optimizer]\nkind = fastadabelief\nalpha = 0.001\nlam = 0.999\n"
        "beta2_mode = sadam\ndelta = 0.1\n\n"
        "[optimizer]\nkind = adam\nalpha = 0.01\n\n"
        "[run]\nhorizon = 200\nregion_lo = -2\nregion_hi = 2\nseed = 3\n")
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    env = dict(os.environ, NO_COLOR="1")

    def cli(*argv):
        result = subprocess.run([sys.executable, "-m", "beliefopt", *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        return result.stdout

    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        stdout = [cli("run", "--config", str(cfg), "--out", str(out / "run")),
                  cli("compare", "--config", str(cfg), "--out", str(out / "cmp")),
                  cli("probe", "--out", str(out / "prb")),
                  cli("bound", "--config", str(cfg)),
                  cli("check", str(out / "run" /
                                   "trace_fastadabelief_alpha0.001.csv"))]
        blobs = {}
        for sub in ("run", "cmp", "prb"):
            for path in sorted((out / sub).rglob("*")):
                blobs[f"{sub}/{path.name}"] = path.read_bytes()
        # stdout mentions absolute paths; strip the varying directory part.
        blobs["stdout"] = "\n".join(stdout).replace(str(out), "OUT")
        outputs[tag] = blobs
    same = outputs["a"] == outputs["b"]
    names = sorted(n for n in outputs["a"] if n != "stdout")
    assert verdict(11, "identical reruns produce identical bytes", same,
                   f"{len(names)} files compared across run/compare/probe")


def test_criterion_12_hindsight_oracle_accuracy():
    region = box_region(-5.0, 5.0, 2)
    interior = QuadraticProblem(np.diag([2.0, 3.0]), [1.0, -6.0])
    trace = run_online(interior, "adam", HyperParams(alpha=0.1), region, 3, 0)
    x_int, _ = best_in_hindsight(interior, region, trace)
    err_int = float(np.max(np.abs(x_int - np.array([-0.5, 2.0]))))

    tight = box_region(-2.0, 2.0, 2)
    boundary = QuadraticProblem(np.diag([2.0, 3.0]), [-20.0, 1.0])
    trace = run_online(boundary, "adam", HyperParams(alpha=0.1), tight, 3, 0)
    x_bnd, _ = best_in_hindsight(boundary, tight, trace)
    err_bnd = float(np.max(np.abs(x_bnd - np.array([2.0, -1.0 / 3.0]))))

    ok = err_int <= 1e-8 and err_bnd <= 1e-8
    assert verdict(12, "hindsight solver meets the closed forms", ok,
                   f"interior err={err_int:.2g}, boundary err={err_bnd:.2g}")
