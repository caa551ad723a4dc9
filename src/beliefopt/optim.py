"""Projected online optimizers over box-constrained domains.

Seven step rules share one state layout (first moment ``m``, second moment
``s``, running max ``s_hat``) and one projection primitive.  Each rule is
one of four moment recursions plus a stepsize of its own, the elementwise
scale in x' = P(x - scale*m').  With gradient ``g`` at step ``t`` (1-based)
and the step's betas b1, b2 (``step_betas``), elementwise:

    rule           recursion   scale
    sgd_momentum   heavy-ball  a_t
    adam           adam        a_t / (sqrt(v') + eps)
    yogi           yogi        a_t / (sqrt(v') + eps)
    adabound       adam        clip(a_t / sqrt(v'), eta_l(t), eta_u(t))
    adabelief      belief      a_t / (sqrt(sh') + eps)
    sadam          adam        a_t / (v' + delta/t)     (no sqrt)
    fastadabelief  belief      a_t / (sh' + delta/t)

    heavy-ball  m' = b1*m + g
    adam        m' = EMA(b1) of g, v' = EMA(b2) of g^2
    yogi        adam's m', v' = v - (1-b2)*sign(v-g^2)*g^2
    belief      adam's m', s' = EMA(b2) of (g-m')^2, sh' = max(sh, s')

The two strongly-convex rules (sadam, fastadabelief) divide by their second
moment linearly; the vanishing offset ``delta/t`` keeps the divisor positive.
This is deliberately a separate code path from the square-root family and
must stay that way: unifying them behind a flag would hide the property the
regret analysis depends on (the weighted divisor grows at least like t).

Default stepsize schedules: ``alpha/t`` for sadam and fastadabelief,
``alpha/sqrt(t)`` for the square-root family, constant for sgd_momentum.
``HyperParams.step_schedule`` overrides the default for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

OPTIMIZER_KINDS = (
    "sgd_momentum",
    "adam",
    "yogi",
    "adabound",
    "adabelief",
    "sadam",
    "fastadabelief",
)

#: the strongly-convex rules, which divide by the second moment linearly
LINEAR_DIVISOR_RULES = ("sadam", "fastadabelief")
#: the belief rules, whose divisor is the running max s_hat
RUNNING_MAX_RULES = ("adabelief", "fastadabelief")
#: the rule whose regret ``regret.theoretical_bound`` bounds
BOUNDED_RULE = "fastadabelief"
#: the rules ``stepsize_probe`` compares
PROBE_KINDS = ("sgd_momentum", "adam", "sadam", "adabelief", "fastadabelief")

SCHEDULES = ("constant", "inverse_t", "inverse_sqrt_t")
BETA2_MODES = ("constant", "sadam")


@dataclass(frozen=True)
class HyperParams:
    """Shared hyperparameter bundle.

    ``beta2_mode`` selects the second-moment averaging: ``"constant"`` uses
    ``beta2`` every step, ``"sadam"`` uses the schedule ``1 - beta2_c/t``.
    ``lam`` decays the first-moment coefficient of fastadabelief as
    ``beta1 * lam**t``; ``lam=1`` keeps it constant.  ``eta_final`` and
    ``bound_gamma`` only affect adabound's rate clipping.
    """

    alpha: float = 0.001
    beta1: float = 0.9
    lam: float = 1.0
    beta2_mode: str = "constant"
    beta2: float = 0.999
    beta2_c: float = 0.9
    delta: float = 0.1
    epsilon: float = 1e-8
    step_schedule: str | None = None
    eta_final: float = 0.1
    bound_gamma: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if self.beta2_mode not in BETA2_MODES:
            raise ValueError(f"beta2_mode must be 'constant' or 'sadam', got {self.beta2_mode!r}")
        if self.beta2_mode == "constant" and not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if self.beta2_mode == "sadam" and not 0.0 < self.beta2_c < 1.0:
            raise ValueError(f"beta2_c must lie in (0, 1), got {self.beta2_c}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.step_schedule is not None and self.step_schedule not in SCHEDULES:
            raise ValueError(f"step_schedule must be one of {SCHEDULES}, got {self.step_schedule!r}")
        if not 0.0 < self.eta_final < math.inf:
            raise ValueError(f"eta_final must be positive and finite, got {self.eta_final}")
        if not 0.0 < self.bound_gamma < math.inf:
            raise ValueError(f"bound_gamma must be positive and finite, got {self.bound_gamma}")

    def beta1_at(self, t: int) -> float:
        return self.beta1 * self.lam ** t

    def beta2_at(self, t):
        """beta2_t; t may be an array of steps."""
        if self.beta2_mode == "sadam":
            return 1.0 - self.beta2_c / t
        return self.beta2


def validate_hyperparams(kind: str, hp: HyperParams) -> None:
    """Reject combinations that a run would only discover by dividing by zero."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if kind in LINEAR_DIVISOR_RULES and not hp.delta > 0:
        raise ValueError(f"{kind} requires delta > 0 (divisor at t=1 is the second moment plus delta)")
    if kind in ("adam", "yogi", "adabelief") and not hp.epsilon > 0:
        # A zero epsilon divides by zero on any zero-gradient prefix.
        raise ValueError(f"{kind} requires epsilon > 0")


def scheduled_alpha(kind: str, hp: HyperParams, alpha, t):
    """Stepsize at step t for base stepsize ``alpha`` under the rule's
    schedule (or the override in hp); alpha and t may be arrays that
    broadcast, e.g. a (lanes, 1) column against a (T,) step range.  The
    defaults are those of the module docstring."""
    default = "inverse_t" if kind in LINEAR_DIVISOR_RULES else "inverse_sqrt_t"
    schedule = hp.step_schedule or ("constant" if kind == "sgd_momentum" else default)
    if schedule == "inverse_t":
        return alpha / t
    if schedule == "inverse_sqrt_t":
        return alpha / np.sqrt(t)
    return alpha


try:
    # The ufunc np.clip forwards to, called without np.clip's Python
    # wrappers, which cost more than the clip of a few lanes.
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x keeps it elsewhere: take the public call
    def _clip(x, lower, upper, out):
        return np.clip(x, lower, upper, out=out)


@dataclass(frozen=True)
class FeasibleRegion:
    """Axis-aligned box {x : lower <= x <= upper}, bounds finite elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("region bounds must be 1-d arrays of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("region bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("region has lower > upper in some coordinate")
        # The bounds broadcast to each shape ``project`` has clipped, so a
        # stack of lanes is clipped against same-shape operands.
        object.__setattr__(self, "_bounds", {lower.shape: (lower, upper)})

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter_inf(self) -> float:
        """D_inf: the largest per-coordinate extent."""
        return float(np.max(self.upper - self.lower))

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def project(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x clipped into the box, into ``out`` when given (it may be x).
        x is a point (n,) or a stack of points such as (lanes, n)."""
        bounds = self._bounds.get(x.shape)
        if bounds is None:
            bounds = self._bounds[x.shape] = tuple(
                np.broadcast_to(b, x.shape).copy() for b in (self.lower, self.upper))
        lower, upper = bounds
        return _clip(x, lower, upper, out)


def box_region(lo: float, hi: float, dim: int) -> FeasibleRegion:
    return FeasibleRegion(np.full(dim, float(lo)), np.full(dim, float(hi)))


def project_weighted(z: np.ndarray, w: np.ndarray, region: FeasibleRegion) -> np.ndarray:
    """Weighted projection argmin_{x in box} sum_i w_i (x_i - z_i)^2.

    The objective is separable, so the minimizer is the coordinatewise clip
    of z regardless of the (strictly positive) weights.  The weights are
    still validated because a zero or negative weight would make the
    projection ill-posed.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if z.shape != (region.dim,) or w.shape != (region.dim,):
        raise ValueError("z and w must match the region dimension")
    if not np.all(w > 0):
        raise ValueError("projection weights must be strictly positive")
    return region.project(z)


def step_betas(kind: str, hp: HyperParams, horizon: int) -> tuple[list, list]:
    """(beta1_t, beta2_t) for t = 1..horizon as rule ``kind`` uses and
    records them: two lists of Python floats.

    Only fastadabelief decays its first-moment coefficient; sgd_momentum
    keeps no second moment and records beta2_t = 0.
    """
    if kind == "fastadabelief":
        # Python float power: numpy's array power can differ in the last bit.
        b1 = [hp.beta1_at(t) for t in range(1, horizon + 1)]
    else:
        b1 = [hp.beta1] * horizon
    b2 = 0.0 if kind == "sgd_momentum" else hp.beta2_at(np.arange(1, horizon + 1))
    return b1, np.broadcast_to(b2, horizon).tolist()


class StepCoefficients(NamedTuple):
    """The per-step coefficients the rule kernels read, in the order
    ``step_coefficients`` computes them."""

    b1: Any
    one_minus_b1: Any
    b2: Any
    one_minus_b2: Any
    delta_t: Any
    a_t: Any
    eta_l: Any
    eta_u: Any
    eps: Any


def step_coefficients(hp: HyperParams, t, a_t, b1, b2) -> StepCoefficients:
    """Step t's coefficients from its stepsize a_t (``scheduled_alpha``) and
    betas b1, b2 (``step_betas``): beta1_t, 1 - beta1_t, beta2_t, 1 - beta2_t,
    delta/t, alpha_t, adabound's eta_l(t) and eta_u(t), and epsilon.

    The arguments may be scalars or arrays of steps that broadcast; each
    value is the same float64 operations either way, so an array entry
    equals the scalar of its step bit for bit."""
    return StepCoefficients(
        b1, 1.0 - b1, b2, 1.0 - b2, hp.delta / t, a_t,
        hp.eta_final * (1.0 - 1.0 / (hp.bound_gamma * t + 1.0)),
        hp.eta_final * (1.0 + 1.0 / (hp.bound_gamma * t)),
        hp.epsilon)


class CoefficientRows:
    """A lane group's coefficients at each step of a block of ``width``
    steps, as same-shape (lanes, n) rows: ``steps[k]`` is the
    StepCoefficients of the block's k-th step.

    ``alpha`` (lanes, T) holds each lane's stepsize at steps 1..T and
    ``beta1``, ``beta2`` (T,) the group's betas, as ``scheduled_alpha`` and
    ``step_betas`` give them.  ``fill`` rewrites the rows in place for each
    block, so the views in ``steps`` are made once and no table spans the
    T steps.
    """

    def __init__(self, hp: HyperParams, alpha: np.ndarray, beta1: np.ndarray,
                 beta2: np.ndarray, width: int, n: int):
        self._hp = hp
        # Step-major: entry i of each holds step i + 1.
        self._t = np.arange(1, alpha.shape[1] + 1)[:, None, None]
        self._args = (alpha.T[:, :, None], beta1[:, None, None], beta2[:, None, None])
        self._table = np.empty((len(StepCoefficients._fields), width, len(alpha), n))
        self.steps = [StepCoefficients(*rows) for rows in self._table.swapaxes(0, 1)]

    def fill(self, lo: int) -> None:
        """Write the rows of the block whose first step has index lo."""
        hi = lo + len(self.steps)
        t = self._t[lo:hi]
        values = step_coefficients(self._hp, t, *(a[lo:hi] for a in self._args))
        for rows, value in zip(self._table, values):
            rows[:len(t)] = value


# The rules as (recursion, stepsize) pairs.  A recursion maps (c, g, m, s,
# s_hat) to (m', s', s_hat'), and a stepsize maps (c, m', s', s_hat') to the
# scale multiplying m'; c is the step's StepCoefficients.  Arrays are (n,)
# for one lane or (lanes, n) for a stack of lanes.  ``step`` passes scalar
# coefficients (a_t may be a (lanes, 1) column of per-lane stepsizes);
# ``run_sweep`` passes the (lanes, n) rows of ``CoefficientRows``, so every
# ufunc in its loop takes same-shape operands, the cheapest numpy dispatch.
# A row holds the scalar of its step and lane, so the two give the same
# bits.  Every operation is elementwise and no argument is written in place,
# so a lane's values never depend on the other lanes or on the lane count.
# ``region_stepsize_table`` calls only the recursions.  Recursions that
# wrote into the sweep's records through ``out=`` measured no faster.


def _heavy_ball(c, g, m, s, s_hat):
    return c.b1 * m + g, s, s_hat


def _adam_moments(c, g, m, s, s_hat):
    return c.b1 * m + c.one_minus_b1 * g, c.b2 * s + c.one_minus_b2 * g * g, s_hat


def _yogi_moments(c, g, m, s, s_hat):
    m = c.b1 * m + c.one_minus_b1 * g
    g2 = g * g
    return m, s - c.one_minus_b2 * np.sign(s - g2) * g2, s_hat


def _belief_moments(c, g, m, s, s_hat):
    """The second moment averages (g - m')^2, and a running max keeps the
    divisor nondecreasing."""
    m = c.b1 * m + c.one_minus_b1 * g
    resid = g - m
    s = c.b2 * s + c.one_minus_b2 * resid * resid
    return m, s, np.maximum(s_hat, s)


def _root_divisor(c, m, v, s_hat):
    return c.a_t / (np.sqrt(v) + c.eps)


def _adabound_rate(c, m, v, s_hat):
    """The rate alpha_t/sqrt(v) clipped into [eta_l(t), eta_u(t)], which
    closes around eta_final; where v = 0 the clip lands on eta_u."""
    raw = np.divide(c.a_t, np.sqrt(v), out=np.full(v.shape, np.inf), where=v > 0)
    return _clip(raw, c.eta_l, c.eta_u, raw)


KERNELS = {
    "sgd_momentum": (_heavy_ball, lambda c, m, s, s_hat: np.full_like(m, c.a_t)),
    "adam": (_adam_moments, _root_divisor),
    "yogi": (_yogi_moments, _root_divisor),
    "adabound": (_adam_moments, _adabound_rate),
    "adabelief": (_belief_moments, lambda c, m, s, s_hat: c.a_t / (np.sqrt(s_hat) + c.eps)),
    "sadam": (_adam_moments, lambda c, m, v, s_hat: c.a_t / (v + c.delta_t)),
    "fastadabelief": (_belief_moments, lambda c, m, s, s_hat: c.a_t / (s_hat + c.delta_t)),
}


def step(kind: str, hp: HyperParams, t: int, a_t, b1: float, b2: float,
         g: np.ndarray, x: np.ndarray, m: np.ndarray, s: np.ndarray,
         s_hat: np.ndarray, region: FeasibleRegion):
    """Apply rule ``kind`` at step t to one state or a stack of lane states.

    Returns (x', m', s', s_hat', delta, scale) with delta = -scale * m' the
    pre-projection step and x' = P(x + delta).  Shapes follow the table:
    (n,) arrays, or (lanes, n) with a_t a scalar or a (lanes, 1) column.
    a_t, b1 and b2 come from ``scheduled_alpha`` and ``step_betas``; the
    caller checks the gradient and the new state for nonfinite values.
    """
    c = step_coefficients(hp, t, a_t, b1, b2)
    recursion, stepsize = KERNELS[kind]
    m, s, s_hat = recursion(c, g, m, s, s_hat)
    scale = stepsize(c, m, s, s_hat)
    delta = -scale * m
    return region.project(x + delta), m, s, s_hat, delta, scale


def stepsize_probe(kind: str, m: np.ndarray, s: np.ndarray, t: int,
                   hp: HyperParams) -> np.ndarray:
    """Signed displacement Delta_t at a frozen (m, s), without any state change.

    These are the stylized comparison formulas (all written with a square
    root so the five rules are on one scale), not the step rules:

        sgd_momentum    -a_t * m
        adam            -a_t * m / sqrt(s)          (s is the g^2 average)
        adabelief       -a_t * m / sqrt(s)          (s is the belief average)
        sadam           -a_t * m / sqrt(s + delta/t)
        fastadabelief   -a_t * m / sqrt(s + delta/t)

    a_t follows hp.step_schedule when set, otherwise the rule's canonical
    schedule.  A zero divisor yields inf, which is meaningful output for a
    probe (an unbounded stepsize), not an error.
    """
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    m = np.asarray(m, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if m.shape != s.shape:
        raise ValueError("m and s must have the same shape")
    if np.any(s < 0):
        raise ValueError("second moment must be nonnegative")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a_t = scheduled_alpha(kind, hp, hp.alpha, t)
    if kind == "sgd_momentum":
        return -a_t * m
    if kind in LINEAR_DIVISOR_RULES:
        denom = np.sqrt(s + hp.delta / t)
    else:
        denom = np.sqrt(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -a_t * m / denom
    # 0/0 produces nan; report it as a zero step over an unbounded rate.
    return np.where(np.isnan(out) & (m == 0), 0.0, out)
