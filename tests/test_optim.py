"""Step kernels, schedules, projection, and the stepsize probe.

The three-step unroll constants were produced by an independent scalar-loop
reference (plain Python floats, no numpy) and are compared bit-for-bit:
the kernels are pure float64 recursions, so any drift is a real change.
Gradient script: g = (1.0, -0.5, 0.25) in one dimension, box [-1, 1],
alpha = 0.01, beta1 = 0.9, starting from x = 0.
"""

import numpy as np
import pytest

from beliefopt import (
    FeasibleRegion,
    HyperParams,
    OPTIMIZER_KINDS,
    box_region,
    project_weighted,
    step,
    stepsize_probe,
    validate_hyperparams,
)
from beliefopt.optim import (KERNELS, CoefficientRows, scheduled_alpha, step_betas,
                             step_coefficients)
from beliefopt.regret import _CHECK_EVERY

GS = (1.0, -0.5, 0.25)

HP_BELIEF_MAX = HyperParams(alpha=0.01, beta1=0.9, lam=1.0, beta2_mode="sadam",
                            beta2_c=0.9, delta=0.1)
HP_EMA = HyperParams(alpha=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
HP_SADAM = HyperParams(alpha=0.01, beta1=0.9, beta2_mode="sadam", beta2_c=0.9,
                       delta=0.1)

# (m, s, s_hat, x) per step for the rules that track a running max,
# (m, s, x) for the rest.
UNROLLS = {
    "fastadabelief": (HP_BELIEF_MAX, [
        (0.09999999999999998, 0.7290000000000001, 0.7290000000000001, -0.00120627261761158),
        (0.039999999999999994, 0.53217, 0.7290000000000001, -0.001463012027110938),
        (0.06099999999999999, 0.3832353, 0.7290000000000001, -0.0017297369943168844),
    ]),
    "adabelief": (HP_EMA, [
        (0.09999999999999998, 0.0008100000000000008, 0.0008100000000000008, -0.03513640610064062),
        (0.039999999999999994, 0.0011007900000000012, 0.0011007900000000012, -0.04366137149635135),
        (0.06099999999999999, 0.0011354102100000012, 0.0011354102100000012, -0.05411320977215126),
    ]),
    "adam": (HP_EMA, [
        (0.09999999999999998, 0.0010000000000000009, -0.03162276660168693),
        (0.039999999999999994, 0.0012490000000000012, -0.03962596625841512),
        (0.06099999999999999, 0.0013102510000000012, -0.04935549572626152),
    ]),
    "yogi": (HP_EMA, [
        (0.09999999999999998, 0.0010000000000000009, -0.03162276660168693),
        (0.039999999999999994, 0.0012500000000000011, -0.03962276433894587),
        (0.06099999999999999, 0.0013125000000000012, -0.049343954344895566),
    ]),
    "sadam": (HP_SADAM, [
        (0.09999999999999998, 0.9, -0.0009999999999999998),
        (0.039999999999999994, 0.6075, -0.0013041825095057031),
        (0.06099999999999999, 0.444, -0.001730160163136988),
    ]),
}


def _steps(kind, hp, region, gs):
    """One record per step of ``step`` from x = 0 along the gradients gs:
    the stepsize and the new (x, m, s, s_hat, delta, scale)."""
    n = region.dim
    x, m, s, s_hat = (np.zeros(n) for _ in range(4))
    b1, b2 = step_betas(kind, hp, len(gs))
    records = []
    for t, g in enumerate(gs, start=1):
        a_t = scheduled_alpha(kind, hp, hp.alpha, t)
        out = step(kind, hp, t, a_t, b1[t - 1], b2[t - 1], np.asarray(g, dtype=np.float64),
                   x, m, s, s_hat, region)
        x, m, s, s_hat, delta, scale = out
        records.append(dict(a_t=a_t, x=x, m=m, s=s, s_hat=s_hat, delta=delta, scale=scale))
    return records


def _unroll(kind, hp, gs):
    return _steps(kind, hp, box_region(-1.0, 1.0, 1), [[g] for g in gs])


@pytest.mark.parametrize("kind", sorted(UNROLLS))
def test_three_step_unroll_matches_reference(kind):
    hp, expected = UNROLLS[kind]
    rows = _unroll(kind, hp, GS)
    for state, want in zip(rows, expected):
        assert float(state["m"][0]) == want[0]
        assert float(state["s"][0]) == want[1]
        if len(want) == 4:
            assert float(state["s_hat"][0]) == want[2]
        assert float(state["x"][0]) == want[-1]


def test_sgd_momentum_heavy_ball():
    # constant unit gradient: m accumulates 1, 1.9, 2.71, ...
    hp = HyperParams(alpha=0.01, beta1=0.9)
    expected = [(1.0, -0.01), (1.9, -0.028999999999999998), (2.71, -0.0561)]
    for state, (want_m, want_x) in zip(_unroll("sgd_momentum", hp, [1.0] * 3), expected):
        assert float(state["m"][0]) == want_m
        assert float(state["x"][0]) == want_x
        assert state["a_t"] == 0.01  # constant schedule by default


def test_fastadabelief_shat_is_running_max():
    _, expected = UNROLLS["fastadabelief"]
    # s drops after step 1 (0.729 -> 0.532) but s_hat must hold the max
    assert expected[1][1] < expected[0][1]
    assert expected[1][2] == expected[0][2]


def test_belief_vs_squared_gradient_second_moment():
    # same gradients: adabelief averages (g - m)^2, adam averages g^2, so
    # with beta1 = 0.9 the belief moment is much smaller on smooth scripts
    _, ab = UNROLLS["adabelief"]
    _, adam = UNROLLS["adam"]
    assert ab[0][1] < adam[0][1]


def alpha_at(kind, hp, t):
    return scheduled_alpha(kind, hp, hp.alpha, t)


def test_default_schedules():
    hp = HyperParams(alpha=0.01)
    assert alpha_at("sgd_momentum", hp, 9) == 0.01
    assert alpha_at("adam", hp, 9) == pytest.approx(0.01 / 3.0, rel=0, abs=0)
    assert alpha_at("adabelief", hp, 9) == 0.01 / 3.0
    assert alpha_at("sadam", hp, 4) == 0.0025
    assert alpha_at("fastadabelief", hp, 4) == 0.0025


def test_schedule_override():
    hp = HyperParams(alpha=0.01, step_schedule="constant")
    assert alpha_at("fastadabelief", hp, 100) == 0.01
    hp = HyperParams(alpha=0.01, step_schedule="inverse_t")
    assert alpha_at("adam", hp, 10) == 0.001


def test_beta2_sadam_schedule():
    hp = HyperParams(beta2_mode="sadam", beta2_c=0.9)
    assert hp.beta2_at(1) == 1.0 - 0.9
    assert hp.beta2_at(9) == 1.0 - 0.9 / 9.0
    hp = HyperParams(beta2_mode="constant", beta2=0.999)
    assert hp.beta2_at(1) == 0.999


def test_beta1_decay():
    hp = HyperParams(beta1=0.9, lam=0.5)
    assert hp.beta1_at(1) == 0.45
    assert hp.beta1_at(2) == 0.225
    assert HyperParams(beta1=0.9, lam=1.0).beta1_at(50) == 0.9


def test_projection_clips_componentwise():
    region = box_region(-1.0, 2.0, 3)
    out = region.project(np.array([-5.0, 0.5, 7.0]))
    np.testing.assert_array_equal(out, [-1.0, 0.5, 2.0])


# Values and bounds where two clip formulas can differ in their bytes.
_CLIP_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -1.0,
               1e308, -1e308, np.inf, -np.inf, np.nan]


def test_projection_matches_np_clip_bit_for_bit():
    # project calls the ufunc np.clip forwards to, not np.clip; signed zeros,
    # NaN, infinities, subnormals and lo == hi must come out as np.clip's bytes,
    # for one iterate and for a (lanes, n) stack of them, also when the
    # iterate is clipped in place.
    x = np.array(_CLIP_EDGES)
    lanes = np.stack([x, -x, x[::-1]])
    finite = [b for b in _CLIP_EDGES if np.isfinite(b)]
    pairs = [(lo, hi) for lo in finite for hi in finite if lo <= hi]
    assert (0.0, -0.0) in pairs and (-0.0, 0.0) in pairs and (1.0, 1.0) in pairs
    for lo, hi in pairs:
        region = box_region(lo, hi, len(x))
        for z in (x, lanes):
            want = np.clip(z, region.lower, region.upper)
            assert region.project(z).tobytes() == want.tobytes(), (lo, hi)
            inplace = z.copy()
            assert region.project(inplace, inplace) is inplace
            assert inplace.tobytes() == want.tobytes(), (lo, hi)
    # Per-coordinate bounds: every pair at once, one coordinate each.
    lower, upper = np.array(pairs).T
    z = np.resize(x, len(pairs))
    region = FeasibleRegion(lower, upper)
    assert region.project(z).tobytes() == np.clip(z, lower, upper).tobytes()


def test_projection_is_nonexpansive_on_random_pairs():
    # ||P(a) - P(b)||_inf <= ||a - b||_inf must hold for every pair
    rng = np.random.default_rng(42)
    region = box_region(-2.0, 1.5, 8)
    for _ in range(200):
        a = rng.uniform(-10, 10, size=8)
        bb = rng.uniform(-10, 10, size=8)
        lhs = np.max(np.abs(region.project(a) - region.project(bb)))
        rhs = np.max(np.abs(a - bb))
        assert lhs <= rhs + 1e-12


def test_project_weighted_matches_grid_search():
    # 1-d weighted projection: argmin_w w*(z - x)^2 over the box is just
    # the clip, independent of the (positive) weight; check against a grid
    region = box_region(-1.0, 1.0, 1)
    z = np.array([3.7])
    w = np.array([2.5])
    got = project_weighted(z, w, region)
    grid = np.linspace(-1.0, 1.0, 20001)
    best = grid[np.argmin(w[0] * (grid - z[0]) ** 2)]
    np.testing.assert_allclose(got, [best], atol=1e-4)
    np.testing.assert_array_equal(got, [1.0])


def test_project_weighted_rejects_nonpositive_weights():
    region = box_region(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        project_weighted(np.zeros(2), np.array([1.0, 0.0]), region)


def test_region_diameter_and_membership():
    region = box_region(-5.0, 5.0, 4)
    assert region.diameter_inf == 10.0
    assert region.contains(np.full(4, 5.0))
    assert not region.contains(np.full(4, 5.1))


def test_validate_hyperparams_delta_required():
    with pytest.raises(ValueError, match="delta"):
        validate_hyperparams("fastadabelief", HyperParams(delta=0.0))
    with pytest.raises(ValueError, match="delta"):
        validate_hyperparams("sadam", HyperParams(delta=0.0))
    # sqrt-divisor rules do not use delta, zero is fine there
    validate_hyperparams("adam", HyperParams(delta=0.0))


def test_hyperparams_validation_messages_name_fields():
    with pytest.raises(ValueError, match="alpha"):
        HyperParams(alpha=0.0)
    with pytest.raises(ValueError, match="beta1"):
        HyperParams(beta1=1.0)
    with pytest.raises(ValueError, match="beta2_mode"):
        HyperParams(beta2_mode="cubic")
    with pytest.raises(ValueError, match="lam"):
        HyperParams(lam=1.5)


@pytest.mark.parametrize("field", ["alpha", "delta", "epsilon", "eta_final", "bound_gamma"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_hyperparams_reject_nonfinite_values(field, value):
    with pytest.raises(ValueError, match=field):
        HyperParams(**{field: value})


def test_adabound_zero_second_moment_hits_upper_envelope():
    # a zero gradient leaves v = 0, making alpha_t/sqrt(v) infinite; the
    # clip must bring the rate down to eta_u(1) instead of propagating inf
    region = box_region(-10.0, 10.0, 1)
    hp = HyperParams(alpha=0.01, beta1=0.0, beta2=0.999, eta_final=0.1,
                     bound_gamma=1e-3)
    [state] = _steps("adabound", hp, region, [np.zeros(1)])
    eta_u = 0.1 * (1.0 + 1.0 / 1e-3)
    np.testing.assert_allclose(state["scale"], [eta_u], rtol=0, atol=0)
    assert np.isfinite(state["x"]).all()
    np.testing.assert_array_equal(state["x"], np.zeros(1))


def test_adabound_clip_matches_np_clip_bit_for_bit():
    # The rate alpha_t/sqrt(v) is clipped by max then min instead of
    # np.clip: v = 0 (raw rate +inf), rates below eta_l, inside the band and
    # above eta_u must come out as np.clip's bytes, for one lane and for a
    # (lanes, n) stack with a per-lane stepsize column.
    hp = HyperParams(alpha=0.01, beta1=0.9, beta2=0.999, eta_final=0.1, bound_gamma=1e-3)
    g = np.array([0.0, 1e6, 3.0, 0.01, 1e-9, 0.5])
    zeros = np.zeros_like(g)
    for t in (1, 10, 1000, 10 ** 6):
        eta_l = 0.1 * (1.0 - 1.0 / (1e-3 * t + 1.0))
        eta_u = 0.1 * (1.0 + 1.0 / (1e-3 * t))
        for a_t in (scheduled_alpha("adabound", hp, hp.alpha, t),
                    np.array([[1e-6], [0.01], [10.0]])):
            grads = np.broadcast_to(g, np.broadcast_shapes(np.shape(a_t), g.shape))
            out = step("adabound", hp, t, a_t, 0.9, 0.999, grads, zeros, zeros, zeros,
                       zeros, box_region(-1.0, 1.0, len(g)))
            v = out[2]
            with np.errstate(divide="ignore"):
                raw = np.where(v > 0, a_t / np.sqrt(v), np.inf)
            assert np.isinf(raw).any() and (raw < eta_l).any() and (raw > eta_u).any()
            assert out[5].tobytes() == np.clip(raw, eta_l, eta_u).tobytes(), t


def written_out(kind, hp, t, a_t, b1, b2, g, m, s, s_hat):
    """The seven rule formulas, copied out of the kernels as they stand:
    (m', s', s_hat', scale) in the same operations and order."""
    if kind == "sgd_momentum":
        m = b1 * m + g
        return m, s, s_hat, np.broadcast_to(a_t, m.shape) * 1.0
    m = b1 * m + (1.0 - b1) * g
    if kind == "yogi":
        g2 = g * g
        v = s - (1.0 - b2) * np.sign(s - g2) * g2
        return m, v, s_hat, a_t / (np.sqrt(v) + hp.epsilon)
    if kind in ("adabelief", "fastadabelief"):
        resid = g - m
        s = b2 * s + (1.0 - b2) * resid * resid
        s_hat = np.maximum(s_hat, s)
        if kind == "adabelief":
            return m, s, s_hat, a_t / (np.sqrt(s_hat) + hp.epsilon)
        return m, s, s_hat, a_t / (s_hat + hp.delta / t)
    v = b2 * s + (1.0 - b2) * g * g
    if kind == "adam":
        return m, v, s_hat, a_t / (np.sqrt(v) + hp.epsilon)
    if kind == "sadam":
        return m, v, s_hat, a_t / (v + hp.delta / t)
    eta_l = hp.eta_final * (1.0 - 1.0 / (hp.bound_gamma * t + 1.0))
    eta_u = hp.eta_final * (1.0 + 1.0 / (hp.bound_gamma * t))
    raw = np.full(v.shape, np.inf)
    raw[v > 0] = (a_t / np.sqrt(v))[v > 0]
    return m, v, s_hat, np.minimum(np.maximum(raw, eta_l), eta_u)


#: states (m, s, s_hat) and gradients: all zero, subnormal, or large enough
#: that squares and sums overflow
STATES = {
    "zero": (0.0, 0.0, 0.0, 0.0),
    "subnormal": (5e-324, 2.5e-310, 1e-315, 3e-320),
    "large": (1e150, 1e300, 1.5e300, 1e200),
}


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("lanes", [None, 3])
def test_kernels_match_the_written_out_formulas_bit_for_bit(kind, state, lanes):
    # Independent of ``step`` and the sweep: a rewrite of a kernel that moves
    # one bit of m', s', s_hat' or the stepsize fails here.  ``lanes`` None
    # is one (n,) state with scalar coefficients, as ``step`` passes them; 3
    # is a (lanes, n) stack with the (lanes, n) coefficient rows that
    # ``run_sweep`` passes, with a per-lane stepsize, filled per block of
    # _CHECK_EVERY steps (1000 ends inside a short last block).  The
    # written-out formulas always take the scalars (and the stepsizes as a
    # column).
    hp = (HyperParams(alpha=0.1, beta1=0.9, lam=0.999, beta2_mode="sadam", delta=0.5)
          if kind in ("sadam", "fastadabelief") else HyperParams(alpha=0.1, beta1=0.8))
    shape = (5,) if lanes is None else (lanes, 5)
    rng = np.random.default_rng(11)
    m0, s0, sh0, g0 = STATES[state]
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    m = m0 * signs * rng.uniform(0.5, 2.0, shape)
    s, s_hat = s0 * rng.uniform(0.5, 2.0, shape), sh0 * rng.uniform(0.5, 2.0, shape)
    g = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), g0 * signs[..., ::-1])
    alphas = np.array([[0.1], [1e-3], [1e3]])
    b1s, b2s = step_betas(kind, hp, 1000)
    if lanes is not None:
        alpha = np.broadcast_to(scheduled_alpha(kind, hp, alphas, np.arange(1, 1001)), (3, 1000))
        rows = CoefficientRows(hp, alpha, np.array(b1s), np.array(b2s), _CHECK_EVERY, shape[1])
    for t in (1, 7, 300, 1000):
        b1, b2 = b1s[t - 1], b2s[t - 1]
        a_t = scheduled_alpha(kind, hp, hp.alpha if lanes is None else alphas, t)
        if lanes is None:
            coeffs = step_coefficients(hp, t, a_t, b1, b2)
        else:
            lo = (t - 1) // _CHECK_EVERY * _CHECK_EVERY
            rows.fill(lo)
            coeffs = rows.steps[t - 1 - lo]
        with np.errstate(all="ignore"):
            got = KERNELS[kind](coeffs, g, m, s, s_hat)
            want = written_out(kind, hp, t, a_t, b1, b2, g, m, s, s_hat)
        for name, a, b in zip(("m", "s", "s_hat", "scale"), got, want):
            assert a.shape == shape and a.dtype == np.float64, (name, t)
            assert a.tobytes() == b.tobytes(), (name, t)


def test_all_kinds_step_and_stay_feasible():
    rng = np.random.default_rng(7)
    region = box_region(-0.5, 0.5, 6)
    for kind in OPTIMIZER_KINDS:
        hp = (HyperParams(alpha=0.05, beta2_mode="sadam", delta=0.1)
              if kind in ("sadam", "fastadabelief") else HyperParams(alpha=0.05))
        records = _steps(kind, hp, region, [rng.standard_normal(6) * 5.0 for _ in range(1, 30)])
        for state in records:
            assert region.contains(state["x"]), kind
            assert np.isfinite(np.abs(state["delta"]).max())
        assert len(records) == 29


def test_outcome_scale_and_delta_consistent():
    region = box_region(-1.0, 1.0, 1)
    hp = HyperParams(alpha=0.01)
    [new] = _steps("adam", hp, region, [np.array([0.3])])
    np.testing.assert_allclose(new["delta"], -new["scale"] * new["m"], rtol=0, atol=0)
    np.testing.assert_array_equal(new["x"], region.project(np.zeros(1) + new["delta"]))


# --------------------------------------------------------------- probe


def test_probe_formulas_at_frozen_moments():
    m = np.array([0.2])
    s = np.array([0.01])
    hp = HyperParams(alpha=0.01, delta=0.1)
    t = 4
    # sgd: constant schedule by default -> -alpha * m
    np.testing.assert_allclose(stepsize_probe("sgd_momentum", m, s, t, hp),
                               [-0.01 * 0.2])
    # adam/adabelief: alpha/sqrt(t) * m / sqrt(s)
    want = -(0.01 / 2.0) * 0.2 / 0.1
    np.testing.assert_allclose(stepsize_probe("adam", m, s, t, hp), [want])
    np.testing.assert_allclose(stepsize_probe("adabelief", m, s, t, hp), [want])
    # sadam/fastadabelief: alpha/t * m / sqrt(s + delta/t)
    want = -(0.01 / 4.0) * 0.2 / np.sqrt(0.01 + 0.1 / 4.0)
    np.testing.assert_allclose(stepsize_probe("sadam", m, s, t, hp), [want])
    np.testing.assert_allclose(stepsize_probe("fastadabelief", m, s, t, hp), [want])


def test_probe_vanishing_offset_ratio():
    # frozen s = 0.01, delta = 0.1, t = 1e4: the offset delta/t = 1e-5 is
    # nearly gone, |step(fastadabelief)| / |step(adabelief at alpha/t)|
    # = sqrt(0.01 / 0.01001) ~ 0.9995
    m = np.array([1.0])
    s = np.array([0.01])
    t = 10_000
    hp = HyperParams(alpha=0.01, delta=0.1, step_schedule="inverse_t")
    fab = stepsize_probe("fastadabelief", m, s, t, hp)
    ab = stepsize_probe("adabelief", m, s, t, hp)
    ratio = float(np.abs(fab[0]) / np.abs(ab[0]))
    assert ratio == pytest.approx(0.9995003746877732, rel=0, abs=1e-15)
    assert np.abs(fab[0]) <= np.abs(ab[0])


def test_probe_zero_over_zero_is_zero():
    hp = HyperParams(alpha=0.01)
    out = stepsize_probe("adam", np.zeros(2), np.zeros(2), 1, hp)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_probe_zero_divisor_nonzero_momentum_is_inf():
    hp = HyperParams(alpha=0.01)
    out = stepsize_probe("adam", np.array([0.5]), np.zeros(1), 1, hp)
    assert np.isinf(out[0])


def test_probe_rejects_negative_second_moment():
    hp = HyperParams()
    with pytest.raises(ValueError):
        stepsize_probe("adam", np.zeros(1), np.array([-1e-9]), 1, hp)
