"""Online runs, hindsight baselines, regret growth fits, and validity checks.

The laboratory measures the quantities the strongly-convex analysis of the
linear-divisor rules is stated in terms of:

* cumulative regret R(T') against the best fixed point in hindsight,
  recomputed per checkpoint prefix;
* growth fits of R against a + b*log T and a + b*sqrt(T);
* the closed-form regret budget for fastadabelief runs, assembled from
  constants measured on the trace;
* the stepsize-weight increment band (``check_condition4``), the weighted
  second-moment lower bound (``check_condition3``), and positivity of the
  per-coordinate weight increments Gamma_t (``check_gamma_psd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericFailure
from .optim import (
    KERNELS,
    LINEAR_DIVISOR_RULES,
    PROBE_KINDS,
    RUNNING_MAX_RULES,
    CoefficientRows,
    FeasibleRegion,
    HyperParams,
    scheduled_alpha,
    step,  # unused here: bench/layers.py wraps regret.step
    step_betas,
    step_coefficients,
    stepsize_probe,
    validate_hyperparams,
)


@dataclass
class TrajectoryTrace:
    """Dense per-step record of one online run.

    Arrays are indexed by step-1 (row 0 holds step t=1).  ``loss`` is the
    round loss at the iterate the step starts from, and ``x_final`` the
    iterate after the last step; a truncated prefix does not know its own.
    """

    kind: str
    hp: HyperParams
    seed: int
    horizon: int
    problem_kind: str
    sigma: float
    loss: np.ndarray
    g: np.ndarray
    s: np.ndarray
    s_hat: np.ndarray
    alpha: np.ndarray
    beta2: np.ndarray
    step_inf: np.ndarray
    x_final: np.ndarray | None

    def truncate(self, upto: int) -> "TrajectoryTrace":
        if not 1 <= upto <= self.horizon:
            raise ValueError(f"cannot truncate horizon {self.horizon} to {upto}")
        prefix = {name: getattr(self, name)[:upto]
                  for name in ("loss", "g", "s", "s_hat", "alpha", "beta2", "step_inf")}
        final = self.x_final if upto == self.horizon else None
        return replace(self, horizon=upto, x_final=final, **prefix)


@dataclass(frozen=True)
class Cell:
    """One (optimizer, alpha) point of a sweep grid: a lane of ``run_sweep``."""

    label: str
    kind: str
    hp: HyperParams


#: steps between two finiteness scans of the recorded trace
_CHECK_EVERY = 256

_NONFINITE = {1: "nonfinite loss at step {t} in cell {cell}",
              2: "nonfinite gradient at step {t} in cell {cell}",
              3: "nonfinite optimizer state after step {t} in cell {cell}"}


def lane_groups(cells) -> list[range]:
    """The cell indices of each lane group: a run of consecutive cells that
    share a rule and every hyperparameter but alpha, as the alphas of one
    [optimizer] section do.  ``run_sweep`` advances each group with one
    kernel call per step; the commands shard by whole groups."""
    keys = [(cell.kind, replace(cell.hp, alpha=1.0)) for cell in cells]
    starts = [j for j in range(len(cells)) if j == 0 or keys[j] != keys[j - 1]]
    return [range(a, b) for a, b in zip(starts, starts[1:] + [len(cells)])]


def _first_nonfinite(loss, grad, *state):
    """(step offset, cell, code) of the earliest nonfinite value of a scan
    block, or None: its losses (lanes, w), gradients and ``state`` after
    each step (s, s_hat and the step), each (w, lanes, n).  Within a step
    the first cell comes first, and within a cell the loss, then the
    gradient, then the state, as a one-cell run meets them."""
    if np.isfinite(loss).all() and all(np.isfinite(a).all() for a in (grad, *state)):
        return None
    bad_state = ~np.logical_and.reduce([np.isfinite(a).all(axis=2) for a in state]).T
    code = np.select([~np.isfinite(loss), ~np.isfinite(grad).all(axis=2).T, bad_state],
                     [1, 2, 3])
    offset, cell = np.argwhere(code.T)[0]
    return int(offset), int(cell), int(code[cell, offset])


def run_sweep(problem, cells, region: FeasibleRegion, horizon: int,
              seed: int) -> list[TrajectoryTrace]:
    """Run the online protocol for every cell in lockstep; one trace per cell.

    All cells start from the problem's initial point and see the same
    (seed, t) rounds, so one time loop serves them all.  The iterates are
    stacked as (lanes, n) in cell order, and the per-step records are
    step-major, so each step's row of gradients and moments is one
    contiguous (lanes, n) block.  The loop runs in scan blocks of
    _CHECK_EVERY steps, and every ufunc of its rules and step tail takes
    same-shape (lanes, n) operands.  Per step it makes:

    * one gradient call for all lanes (``lanes_grad``), which writes into
      the step's row of the block's gradients;
    * per lane group (``lane_groups``): one call of its rule's recursion
      (``optim.KERNELS``) on the step's coefficient rows (``CoefficientRows``,
      alpha per lane) and the state the group's last call returned, whose
      new s' and s_hat' are kept for the block's records, and one multiply
      that writes the rule's stepsize times m' into the step's row;
    * one step tail for all lanes: x - scale * m' written into the next
      row of iterates and projected there in place, two more ufunc calls.

    Only the gradient feeds the next step, so once per block the loop fills
    the next block's coefficient rows, copies the block's gradients and
    second moments into the records, and computes the round losses of the
    block's iterates (``lanes_losses``) and the step norms of its steps.
    The iterates (kept for one block) and first moments (for one step) go
    in no trace.  Every operation is elementwise per lane, so each trace is
    bit-identical to a one-cell run; the traces are views into the records.

    A nonfinite loss, gradient, s, s_hat or step (a nonfinite m' or scale
    makes its step one) raises NumericFailure, as "... in cell <label>",
    for the earliest step at which any cell has one; its ``step`` and
    ``cell`` fields hold that step and label.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not cells:
        raise ValueError("a sweep needs at least one cell")
    for cell in cells:
        validate_hyperparams(cell.kind, cell.hp)
    if problem.dim != region.dim:
        raise ValueError(f"problem dimension {problem.dim} != region dimension {region.dim}")
    x0 = np.asarray(problem.initial_point(region, seed), dtype=np.float64)
    if x0.shape != (region.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, region has dimension {region.dim}")
    if not region.contains(x0):
        raise ValueError("x0 lies outside the feasible region")
    n_lanes, n = len(cells), region.dim
    loss = np.empty((n_lanes, horizon))
    # Step-major records (see above).
    gs, ss, shs = (np.empty((horizon, n_lanes, n)) for _ in range(3))
    alpha, beta2, step_inf = (np.empty((n_lanes, horizon)) for _ in range(3))
    steps = np.arange(1, horizon + 1)
    width = min(_CHECK_EVERY, horizon)
    # The scan block's iterates, row 0 the one it starts from, and its
    # gradients and scale * m' (the step is -scale * m').
    xs = np.empty((width + 1, n_lanes, n))
    grads, block = (np.empty((width, n_lanes, n)) for _ in range(2))
    x_rows, grad_rows, step_rows = list(xs), list(grads), list(block)
    coefficients, plan = [], []
    for members in lane_groups(cells):
        rows = slice(members.start, members.stop)
        kind, hp = cells[rows.start].kind, cells[rows.start].hp
        column = np.array([[cells[j].hp.alpha] for j in members])
        alpha[rows] = scheduled_alpha(kind, hp, column, steps)
        beta1, beta2[rows] = step_betas(kind, hp, horizon)
        group = CoefficientRows(hp, alpha[rows], np.array(beta1), beta2[rows.start], width, n)
        coefficients.append(group)
        # The rule's recursion and stepsize; per step of a block, their
        # coefficients, gradient rows and scale * m' rows; then the group's
        # last m' and its s', s_hat' of the block's steps after those carried in.
        zeros = np.zeros((len(members), n))
        plan.append((*KERNELS[kind], list(zip(group.steps, grads[:, rows], block[:, rows])),
                     [zeros], [zeros], [zeros], rows))
    xs[0] = x0
    lanes_grad, project = problem.lanes_grad, region.project
    # Nonfinite values are reported through the scans below, not as warnings.
    with np.errstate(all="ignore"):
        for lo in range(0, horizon, width):
            hi = min(lo + width, horizon)
            w = hi - lo
            for group in coefficients:
                group.fill(lo)
            for k, (t, x, x_next, g_row, step_row) in enumerate(
                    zip(range(lo + 1, hi + 1), x_rows, x_rows[1:], grad_rows, step_rows)):
                lanes_grad(x, t, seed, g_row)
                for recursion, stepsize, block_steps, m_run, s_run, sh_run, _ in plan:
                    c, g, scaled = block_steps[k]
                    m, s, s_hat = recursion(c, g, m_run[-1], s_run[-1], sh_run[-1])
                    m_run[-1] = m
                    s_run.append(s)
                    sh_run.append(s_hat)
                    np.multiply(stepsize(c, m, s, s_hat), m, scaled)
                # The step tail of ``step``, once for every lane: x - scale * m'
                # is x + delta bit for bit.
                project(np.subtract(x, step_row, x_next), x_next)
            gs[lo:hi] = grads[:w]
            for *_, s_run, sh_run, rows in plan:
                for states, run in zip((ss[lo:hi], shs[lo:hi]), (s_run, sh_run)):
                    states[:, rows] = np.concatenate(run[1:]).reshape(w, -1, n)
                    del run[:-1]
            step_inf[:, lo:hi] = np.abs(block[:w]).max(axis=2).T
            loss[:, lo:hi] = problem.lanes_losses(xs[:w].swapaxes(0, 1), lo + 1, seed)
            failure = _first_nonfinite(loss[:, lo:hi], grads[:w], ss[lo:hi], shs[lo:hi], block[:w])
            if failure is not None:
                offset, j, code = failure
                t_bad, label = lo + offset + 1, cells[j].label
                raise NumericFailure(_NONFINITE[code].format(t=t_bad, cell=label),
                                     step=t_bad, cell=label)
            xs[0] = xs[w]  # the next block starts from the last iterate
    return [TrajectoryTrace(
        kind=cell.kind, hp=cell.hp, seed=seed, horizon=horizon,
        problem_kind=problem.kind, sigma=float(problem.sigma),
        loss=loss[j], g=gs[:, j], s=ss[:, j], s_hat=shs[:, j], alpha=alpha[j],
        beta2=beta2[j], step_inf=step_inf[j], x_final=xs[0, j].copy(),
    ) for j, cell in enumerate(cells)]


def run_online(problem, kind: str, hp: HyperParams, region: FeasibleRegion,
               horizon: int, seed: int) -> TrajectoryTrace:
    """Run the online protocol for ``horizon`` rounds: a one-cell ``run_sweep``.

    Each round evaluates the problem's loss and gradient at the current
    iterate, records them, then applies one optimizer step.  Identical
    inputs give identical traces; NaN anywhere aborts with the step index.
    """
    return run_sweep(problem, [Cell(kind, kind, hp)], region, horizon, seed)[0]


# ------------------------------------------------------------- hindsight


#: the hindsight solve's fixed-point residual target and iteration cap
_SOLVE_TOL = 1e-10
_SOLVE_MAX_ITERS = 10 ** 6


def _solve_projected(grad, region: FeasibleRegion, x0: np.ndarray, l_est: float,
                     sigma: float) -> np.ndarray:
    """Minimize a sigma-strongly-convex, L-smooth function over the box.

    Projected gradient steps at the fixed rate 1/l_est, with the constant
    strong-convexity momentum and a restart whenever the momentum points
    against the latest step.  Terminates only when the fixed-point residual
    || P(x - grad(x)/L) - x ||_inf drops to ``_SOLVE_TOL``, so the returned
    point meets that criterion regardless of the path taken.
    """
    if not l_est > 0:
        raise ValueError("l_est must be positive")
    gamma = 1.0 / l_est
    q = min(1.0, sigma / l_est) if sigma > 0 else 0.0
    theta = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q)) if q > 0 else 0.0
    x_prev = region.project(np.asarray(x0, dtype=np.float64))
    y = x_prev
    for k in range(_SOLVE_MAX_ITERS):
        x = region.project(y - gamma * grad(y))
        moved = float(np.max(np.abs(x - x_prev))) if x.size else 0.0
        if moved <= _SOLVE_TOL or (k & 63) == 0:
            residual = float(np.max(np.abs(region.project(x - gamma * grad(x)) - x)))
            if residual <= _SOLVE_TOL:
                return x
        if float((y - x) @ (x - x_prev)) > 0.0:
            y = x
        else:
            y = x + theta * (x - x_prev)
        x_prev = x
    raise NumericFailure(
        f"hindsight solve did not reach residual {_SOLVE_TOL} in {_SOLVE_MAX_ITERS} iterations")


def best_in_hindsight(problem, region: FeasibleRegion, trace: TrajectoryTrace,
                      upto: int | None = None,
                      x_start: np.ndarray | None = None):
    """Best fixed feasible point for the first ``upto`` rounds of the run.

    Returns (x_star, total_loss) where total_loss = sum_{t<=upto} f_t(x_star).
    Strong convexity of both problem families makes x_star unique.
    """
    upto = trace.horizon if upto is None else upto
    if not 1 <= upto <= trace.horizon:
        raise ValueError(f"upto must lie in [1, {trace.horizon}], got {upto}")
    f_avg, g_avg, l_est = problem.prefix_objective(upto, trace.seed)
    if x_start is None:
        x_start = problem.initial_point(region, trace.seed)
    x_star = _solve_projected(g_avg, region, x_start, l_est, problem.sigma)
    return x_star, upto * f_avg(x_star)


def checkpoint_grid(horizon: int, points=None) -> list[int]:
    """A run's checkpoints: ``points`` plus T, sorted and deduplicated, or by
    default the geometric grid 128, 256, ... capped at and including T."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if points is None:
        points = [2 ** k for k in range(7, horizon.bit_length())]
    points = sorted({int(c) for c in points} | {horizon})
    if points[0] < 1 or points[-1] > horizon:
        raise ValueError("checkpoints must lie in [1, horizon]")
    return points


@dataclass(frozen=True)
class GrowthFit:
    """OLS fit of regret against 1 and a growth regressor."""

    model: str
    intercept: float
    slope: float
    r_squared: float


@dataclass
class RegretReport:
    checkpoints: list[int]
    regret: np.ndarray
    ratio: np.ndarray
    hindsight_x_star: np.ndarray
    log_fit: GrowthFit | None
    sqrt_fit: GrowthFit | None


def _centered(v: np.ndarray) -> tuple[float, np.ndarray]:
    # Centered about v[0] first, so that a constant v has exact zero deviations.
    shift = v - v[0]
    return float(v[0] + shift.mean()), shift - shift.mean()


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, or an infinity of x's sign past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _ols(u: np.ndarray, y: np.ndarray, model: str) -> GrowthFit:
    # Centered sums of y / 2^e: exact and below 1 in magnitude, so no square overflows.
    e = int(np.frexp(np.max(np.abs(y)))[1])
    (u_mean, du), (y_mean, dy) = _centered(u), _centered(np.ldexp(y, -e))
    ss_u, ss_tot = float(du @ du), float(dy @ dy)
    if not ss_u > 0.0:
        raise ValueError("degenerate design matrix for growth fit")
    slope = float(du @ dy) / ss_u
    resid = dy - slope * du
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0
    return GrowthFit(model=model, intercept=_ldexp(y_mean - slope * u_mean, e),
                     slope=_ldexp(slope, e), r_squared=r2)


def fit_growth(checkpoints, regret) -> tuple[GrowthFit, GrowthFit]:
    """Fit R(T') ~ a + b log T' and ~ a + b sqrt(T') by least squares."""
    t = np.asarray(checkpoints, dtype=np.float64)
    y = np.asarray(regret, dtype=np.float64)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("checkpoints and regret must be 1-d and aligned")
    if t.size < 4:
        raise ValueError(f"need at least 4 checkpoints for a growth fit, got {t.size}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    return _ols(np.log(t), y, "log"), _ols(np.sqrt(t), y, "sqrt")


def compute_regret(problem, region: FeasibleRegion, trace: TrajectoryTrace,
                   checkpoints: list[int] | None = None) -> RegretReport:
    """Regret series against the per-prefix hindsight optimum.

    Each checkpoint T' re-solves the hindsight problem on rounds 1..T' (the
    solves warm-start from the previous checkpoint, which leaves the values
    unchanged because the checkpoint chain of a truncated trace is a prefix
    of the full chain).  The horizon is always the last checkpoint, so an
    empty list means the horizon alone.  The regret sum is compensated so
    the tiny per-round excesses of near-converged runs survive the
    accumulation.
    """
    checkpoints = checkpoint_grid(trace.horizon, checkpoints)
    regret = np.empty(len(checkpoints))
    warm = None
    x_star = None
    for j, upto in enumerate(checkpoints):
        x_star, value = best_in_hindsight(problem, region, trace, upto, x_start=warm)
        warm = x_star
        avg = value / upto
        regret[j] = math.fsum(float(v) - avg for v in trace.loss[:upto])
    ratio = regret / np.asarray(checkpoints, dtype=np.float64)
    log_fit = sqrt_fit = None
    if len(checkpoints) >= 4:
        log_fit, sqrt_fit = fit_growth(checkpoints, regret)
    return RegretReport(checkpoints=checkpoints, regret=regret, ratio=ratio,
                        hindsight_x_star=x_star, log_fit=log_fit, sqrt_fit=sqrt_fit)


# ------------------------------------------------------------- constants


@dataclass(frozen=True)
class BoundConstants:
    """Everything the closed-form regret budget needs."""

    n: int
    horizon: int
    d_inf: float
    g_inf: float
    r: float
    sum_g_norms: float
    alpha: float
    beta1: float
    lam: float
    delta: float

    def __post_init__(self):
        for name in ("d_inf", "g_inf", "r", "alpha", "delta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        # S may be +inf, its fourth powers overflowed; the budget is then inf.
        if not self.sum_g_norms >= 0:
            raise ValueError(f"sum_g_norms must be nonnegative, got {self.sum_g_norms}")


#: how ``measure_constants`` measures r, as ``bound`` prints it
R_RULE = "max over t,i of (s_hat + delta/t)^(-1/2), measured on the trace"


def measure_constants(trace: TrajectoryTrace, region: FeasibleRegion) -> BoundConstants:
    """Measure the bound constants on a trace (truncate first for prefixes).

    r follows ``R_RULE``: the largest inverse square root of the effective
    divisor observed along the run.  Degenerate all-zero-gradient traces
    legitimately measure g_inf = 0, and gradients past about 1e77 measure
    an S whose fourth powers overflow to inf.
    """
    hp = trace.hp
    tcol = np.arange(1, trace.horizon + 1, dtype=np.float64)[:, None]
    low = float((trace.s_hat + hp.delta / tcol).min())
    if low <= 0:
        raise ValueError("effective divisor hit zero; cannot apply the r rule")
    g_inf = float(np.max(np.abs(trace.g))) if trace.g.size else 0.0
    with np.errstate(over="ignore"):
        sum_g_norms = float(np.sum(np.sqrt(np.sum(trace.g ** 4, axis=0))))
    return BoundConstants(
        n=region.dim, horizon=trace.horizon, d_inf=region.diameter_inf,
        g_inf=g_inf, r=1.0 / math.sqrt(low), sum_g_norms=sum_g_norms,
        alpha=hp.alpha, beta1=hp.beta1, lam=hp.lam, delta=hp.delta,
    )


def budget_terms(c: BoundConstants) -> tuple[float, float, float, float]:
    """The four terms of the closed-form regret budget for the
    linear-divisor belief rule, in order:

    R(T) <= n*delta*D^2 / (2*alpha*(1-beta1))
          + alpha*r^2*log(T)/(1-beta1)^2 * S
          + (2*alpha*r^2 + alpha*delta^2) / (2*(1-beta1)^2) * S
          + n*beta1*lam*D^2*(G+delta) / (2*alpha*(1-beta1)*(1-lam)^2)

    with S = sum_g_norms, which may be inf.  The two S terms are 0 when
    S = 0, and the log term is 0 at T = 1.  The last term
    exists only for decaying momentum (lam < 1); with beta1 = 0 it vanishes
    and lam = 1 is allowed.  Every term is nondecreasing in G, r and S.
    """
    if c.beta1 >= 1.0:
        raise ValueError("beta1 must be below 1")
    one_minus_b1 = 1.0 - c.beta1
    term1 = c.n * c.delta * c.d_inf ** 2 / (2.0 * c.alpha * one_minus_b1)
    if c.sum_g_norms == 0.0:
        # Their prefixes can overflow to inf, and inf * 0 is nan.
        term2 = term3 = 0.0
    else:
        # log(1) = 0 zeroes the log term, also against an S that overflowed.
        term2 = 0.0 if c.horizon == 1 else \
            c.alpha * c.r ** 2 * math.log(c.horizon) / one_minus_b1 ** 2 * c.sum_g_norms
        term3 = (2.0 * c.alpha * c.r ** 2 + c.alpha * c.delta ** 2) \
            / (2.0 * one_minus_b1 ** 2) * c.sum_g_norms
    if c.beta1 == 0.0:
        term4 = 0.0
    elif c.lam == 1.0:
        raise ValueError(
            "the momentum term n*beta1*lam*D^2*(G+delta)/(2*alpha*(1-beta1)*(1-lam)^2) "
            "is undefined at lam = 1 with beta1 > 0")
    else:
        term4 = c.n * c.beta1 * c.lam * c.d_inf ** 2 * (c.g_inf + c.delta) \
            / (2.0 * c.alpha * one_minus_b1 * (1.0 - c.lam) ** 2)
    return term1, term2, term3, term4


def theoretical_bound(c: BoundConstants) -> float:
    """The closed-form regret budget: the sum of ``budget_terms``."""
    term1, term2, term3, term4 = budget_terms(c)
    return term1 + term2 + term3 + term4


def budget_domain(n: int, d_inf: float, horizon: int, hp: HyperParams) -> str | None:
    """None when ``theoretical_bound`` can be evaluated, and is finite with
    zero gradients, on every trace of a run of the belief rule with ``hp``
    over ``horizon`` steps in an ``n``-dimensional region of diameter
    ``d_inf``; else what leaves the domain: "schedule", "D_inf", "delta",
    "r" or "budget".

    The budget is derived for the rule's alpha/t stepsize, so a
    ``step_schedule`` other than that default ("inverse_t") voids it.
    The budget squares D_inf, delta and r with float ``**``, which raises
    OverflowError past about 1.3e154.  r, the largest (s_hat + delta/t)^(-1/2)
    of the trace, is (delta/horizon)^(-1/2) on an all-zero gradient history.
    Every term is nondecreasing in G, r and S, so the budget at
    G = S = r = 0 is the least any run can have; "budget" means it is not
    finite, or a divisor underflows to zero.  An undefined momentum term
    (lam = 1 with beta1 > 0) is left to ``theoretical_bound``, which raises.
    """
    if hp.step_schedule not in (None, "inverse_t"):
        return "schedule"
    if not math.isfinite(d_inf * d_inf):
        return "D_inf"
    if not math.isfinite(hp.delta * hp.delta):
        return "delta"
    low = hp.delta / horizon
    r = 1.0 / math.sqrt(low) if low > 0.0 else math.inf
    if not math.isfinite(r * r):
        return "r"
    least = BoundConstants(n=n, horizon=horizon, d_inf=d_inf, g_inf=0.0, r=0.0,
                           sum_g_norms=0.0, alpha=hp.alpha, beta1=hp.beta1, lam=hp.lam,
                           delta=hp.delta)
    try:
        return None if math.isfinite(theoretical_bound(least)) else "budget"
    except ZeroDivisionError:
        return "budget"
    except ValueError:
        return None


# ------------------------------------------------------------- conditions


#: Rounding slack allowed above the condition-4 band's upper edge.
BAND_TOL = 1e-12


@dataclass
class Condition4Result:
    """Per-step extremes of (t/alpha)*sqrt(s_t) - ((t-1)/alpha)*sqrt(s_{t-1})."""

    lhs_min: np.ndarray
    lhs_max: np.ndarray
    upper: float
    passed: bool


def _increments(weighted: np.ndarray) -> np.ndarray:
    """Step-to-step increments of a (T, n) series from an all-zero start
    (x - 0.0 is x bit for bit, so row 0 is copied).  They go into one new
    array; np.diff's prepend would allocate a second."""
    out = np.empty_like(weighted)
    out[0] = weighted[0]
    np.subtract(weighted[1:], weighted[:-1], out=out[1:])
    return out


def _cond4_values(trace: TrajectoryTrace) -> np.ndarray:
    """(T, n) array of weighted sqrt-second-moment increments."""
    t = np.arange(1, trace.horizon + 1, dtype=np.float64)[:, None]
    return _increments(t / trace.hp.alpha * np.sqrt(trace.s))


def band_holds(lhs_min, lhs_max, upper: float) -> bool:
    """The condition-4 verdict: 0 <= increment <= upper + BAND_TOL at every step."""
    return bool(np.all(lhs_min >= 0.0) and np.all(lhs_max <= upper + BAND_TOL))


def gamma_holds(gamma_min) -> bool:
    """The Gamma-positivity verdict: no weight increment below zero."""
    return bool(np.all(gamma_min >= 0.0))


def check_condition4(trace: TrajectoryTrace, sigma: float) -> Condition4Result:
    """Band check 0 <= increment <= sigma*(1 - beta1) + BAND_TOL at every step.

    The increments use the t/alpha weighting of the strongly convex
    analysis.  beta1 is the supremum of the momentum schedule, i.e.
    hp.beta1 itself.
    """
    values = _cond4_values(trace)
    lhs_min = values.min(axis=1)
    lhs_max = values.max(axis=1)
    upper = sigma * (1.0 - trace.hp.beta1)
    return Condition4Result(lhs_min=lhs_min, lhs_max=lhs_max, upper=upper,
                            passed=band_holds(lhs_min, lhs_max, upper))


@dataclass
class Condition3Result:
    """Smallest feasible zeta per step, and its maximum over the horizon."""

    zeta_series: np.ndarray
    zeta: float


def check_condition3(trace: TrajectoryTrace) -> Condition3Result:
    """Smallest zeta with (t/alpha)*sqrt(W_t,i) >= sqrt(sum_j g_{j,i}^2)/zeta.

    W is the beta2-weighted squared-gradient average; expanding the nested
    products gives the recursion W_t = beta2_t W_{t-1} + (1-beta2_t) g_t^2,
    which is what makes an O(T) sweep possible.  Coordinates with W = 0 and
    a nonzero gradient history force zeta = inf; an all-zero history
    contributes 0 by convention.
    """
    g2 = trace.g ** 2
    w = (1.0 - trace.beta2)[:, None] * g2
    w_t = np.zeros(trace.g.shape[1])
    carry = np.empty_like(w_t)
    # Only the W recursion runs step by step, on (n,) rows alike in shape
    # (a broadcast beta2 row, not a scalar); everything else is computed on
    # the whole trace, in place in the two (T, n) arrays.
    for b2, row in zip(np.broadcast_to(trace.beta2[:, None], w.shape), w):
        row += np.multiply(b2, w_t, out=carry)
        w_t = row
    t = np.arange(1, trace.horizon + 1, dtype=np.float64)[:, None]
    lhs = np.sqrt(w, out=w)
    lhs *= t / trace.hp.alpha
    rhs = np.sqrt(np.cumsum(g2, axis=0, out=g2), out=g2)
    # lhs >= +0 (W is, for beta2 in [0, 1]), so rhs/lhs is inf where
    # lhs = 0 < rhs; where rhs = 0 the division is skipped, leaving 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(rhs, lhs, out=rhs, where=rhs != 0.0)
    # Every ratio is >= 0 or nan, so a start at 0 changes no maximum and
    # gives 0 for n = 0.
    zeta_series = ratio.max(axis=1, initial=0.0)
    return Condition3Result(zeta_series=zeta_series, zeta=float(zeta_series.max()))


def gamma_series(trace: TrajectoryTrace) -> np.ndarray:
    """Per-step minimum over i of D_{t,i}/alpha_t - D_{t-1,i}/alpha_{t-1}.

    D is the second-moment series that actually weights the update: s_hat
    for the running-max belief rules, s (the plain average) otherwise.  The
    t=1 entry is D_{1,i}/alpha_1, the increment from an all-zero start.
    With a nondecreasing D and a nonincreasing alpha_t both divisions are
    monotone, so for those rules every entry is >= 0 in exact float
    arithmetic, not merely up to rounding.
    """
    d = trace.s_hat if trace.kind in RUNNING_MAX_RULES else trace.s
    return _increments(d / trace.alpha[:, None]).min(axis=1)


def check_gamma_psd(trace: TrajectoryTrace) -> float:
    """Minimum weight increment over all steps and coordinates."""
    return float(gamma_series(trace).min())


# ------------------------------------------------------------- scenarios


#: the probe's steps, base stepsize and delta; its scripts end at the last step
_PROBE_STEPS = (10, 100, 1000)
_PROBE_ALPHA = 0.01
_PROBE_DELTA = 0.1
_SCRIPT_LENGTH = _PROBE_STEPS[-1]


def region_scenarios() -> dict[str, np.ndarray]:
    """The three scalar gradient scripts used for stepsize comparisons,
    each ``_SCRIPT_LENGTH`` steps long.

    region1: persistently tiny gradients (plateau-like);
    region2: sign-alternating unit gradients (high-variance);
    region3: constant unit gradients (steady descent).
    """
    region2 = np.where(np.arange(_SCRIPT_LENGTH) % 2 == 0, 1.0, -1.0)
    return {
        "region1": np.full(_SCRIPT_LENGTH, 1e-3),
        "region2": region2,
        "region3": np.ones(_SCRIPT_LENGTH),
    }


def _probe_hyperparams(kind: str) -> HyperParams:
    if kind in LINEAR_DIVISOR_RULES:
        return HyperParams(alpha=_PROBE_ALPHA, beta2_mode="sadam", delta=_PROBE_DELTA)
    return HyperParams(alpha=_PROBE_ALPHA, delta=_PROBE_DELTA)


def region_stepsize_table():
    """|Delta_t| for the five comparison rules on the three scripts.

    Each rule's own recursion (of ``optim.KERNELS``) evolves (m, s) along
    the scripts, one script per lane; no iterate or stepsize is computed,
    as the probe reads neither.  The probe then evaluates the displacement
    at each of ``_PROBE_STEPS``.  Returns rows of (region, optimizer, t, m, s,
    delta_abs).
    """
    scripts = region_scenarios()
    grads = np.stack(list(scripts.values()), axis=1)[:, :, None]  # (T, lanes, 1)
    found = {}
    for kind in PROBE_KINDS:
        hp = _probe_hyperparams(kind)
        b1, b2 = step_betas(kind, hp, _SCRIPT_LENGTH)
        m = s = s_hat = np.zeros((len(scripts), 1))
        for t in range(1, _SCRIPT_LENGTH + 1):
            c = step_coefficients(hp, t, None, b1[t - 1], b2[t - 1])
            m, s, s_hat = KERNELS[kind][0](c, grads[t - 1], m, s, s_hat)
            if t in _PROBE_STEPS:
                delta_t = stepsize_probe(kind, m, s, t, hp)
                for lane, name in enumerate(scripts):
                    found[name, kind, t] = (float(m[lane, 0]), float(s[lane, 0]),
                                            float(np.abs(delta_t[lane, 0])))
    return [(name, kind, t, *found[name, kind, t])
            for name in scripts for kind in PROBE_KINDS for t in _PROBE_STEPS]
