"""The lane-batched sweep engine.

Every lane of a sweep must be bit-identical to a run of its cell alone, and
to a plain per-step loop over ``round_loss_grad`` and the one-lane ``step``
(the reference below: its stepsizes, betas and step norms are computed per
step from the hyperparameters, not by the engine).  The iterates, which no
trace keeps, are compared as a spy on ``lanes_grad`` sees them.  Failures
report the earliest step across lanes and, in a multi-cell sweep, the cell.
"""

import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from beliefopt import (
    Cell,
    FeasibleRegion,
    HyperParams,
    NumericFailure,
    QuadraticProblem,
    SoftmaxL2Problem,
    build_problem,
    build_region,
    box_region,
    lane_groups,
    parse_config,
    run_online,
    run_sweep,
    sample_batch,
    step,
    sweep_cells,
    synth_classification,
)
from beliefopt.cli import main
from beliefopt.optim import scheduled_alpha

TRACE_ARRAYS = ("loss", "g", "s", "s_hat", "alpha", "beta2", "step_inf", "x_final")

# All seven rules at two alphas each.  adam appears in three blocks: the
# second differs in beta1 (cell labels need distinct alphas, too), and the
# third shares the first block's hyperparameters but not its place in the
# cell order; each block is a lane group of its own.
OPTIMIZERS = """\
[optimizer]
kind = fastadabelief
alpha = 0.1, 0.01
lam = 0.999
beta2_mode = sadam
delta = 1.0

[optimizer]
kind = sadam
alpha = 0.1, 0.01
beta2_mode = sadam
delta = 1.0

[optimizer]
kind = adam
alpha = 0.1, 0.01

[optimizer]
kind = adabelief
alpha = 0.1, 0.01

[optimizer]
kind = adam
alpha = 0.05, 0.005
beta1 = 0.5

[optimizer]
kind = yogi
alpha = 0.1, 0.01

[optimizer]
kind = adabound
alpha = 0.1, 0.01

[optimizer]
kind = sgd_momentum
alpha = 0.1, 0.01

[optimizer]
kind = adam
alpha = 0.001
"""

QUADRATIC = """\
[problem]
kind = quadratic
dim = 5
eig_min = 0.1
eig_max = 2.0
x_star = 0.5
x0 = zeros
x0_jitter = 1e-3

[run]
horizon = 300
region_lo = -1
region_hi = 1
seed = 4
"""

# A batch of 12 rows is past the 8-element block where numpy's row sums
# start to depend on memory layout, which is what a lane-minor gather of
# the picked log-probabilities would change.
SOFTMAX = """\
[problem]
kind = softmax
classes = 3
features = 3
samples = 200
separation = 1.0
batch_size = 12

[run]
horizon = 300
region_lo = -5
region_hi = 5
seed = 4
"""

FAMILIES = {"quadratic": QUADRATIC, "softmax": SOFTMAX}


def setup(family):
    cfg = parse_config(FAMILIES[family] + "\n" + OPTIMIZERS)
    problem = build_problem(cfg)
    return problem, build_region(cfg, problem.dim), sweep_cells(cfg), cfg.run


def reference_run(problem, cell, region, horizon, seed):
    """Per-step loop over round_loss_grad and step, recording what a trace
    holds and, as "x", the iterate each round starts from."""
    kind, hp = cell.kind, cell.hp
    x = np.asarray(problem.initial_point(region, seed), dtype=np.float64)
    m, s, s_hat = (np.zeros_like(x) for _ in range(3))
    rows = {name: [] for name in ("x", *TRACE_ARRAYS) if name != "x_final"}
    for t in range(1, horizon + 1):
        f, g = problem.round_loss_grad(x, t, seed)
        rows["loss"].append(f)
        rows["x"].append(x)
        rows["g"].append(g)
        a_t = scheduled_alpha(kind, hp, hp.alpha, t)
        b1 = hp.beta1_at(t) if kind == "fastadabelief" else hp.beta1
        b2 = 0.0 if kind == "sgd_momentum" else hp.beta2_at(t)
        x, m, s, s_hat, delta, _ = step(kind, hp, t, a_t, b1, b2, g, x, m, s, s_hat, region)
        rows["s"].append(s)
        rows["s_hat"].append(s_hat)
        rows["alpha"].append(a_t)
        rows["beta2"].append(b2)
        rows["step_inf"].append(float(np.max(np.abs(delta))))
    arrays = {name: np.array(values) for name, values in rows.items()}
    arrays["x_final"] = x
    return arrays


#: the horizon of the references: past the second 256-step scan block end
REFERENCE_HORIZON = 513


@cache
def references(family):
    """The per-step reference of every cell of the family's grid, over
    REFERENCE_HORIZON steps."""
    problem, region, cells, run = setup(family)
    return [reference_run(problem, cell, region, REFERENCE_HORIZON, run.seed) for cell in cells]


def reference_prefix(want, horizon):
    """The reference arrays of a run stopped after ``horizon`` steps."""
    prefix = {name: values[:horizon] for name, values in want.items() if name != "x_final"}
    prefix["x_final"] = want["x_final"] if horizon == REFERENCE_HORIZON else want["x"][horizon]
    return prefix


def spied(problem):
    """``problem`` with a ``lanes_grad`` that records a copy of the stacked
    iterates (lanes, n) of each call, and the list it records into."""
    seen = []
    lanes_grad = problem.lanes_grad

    def spy(xs, t, seed, out):
        seen.append(xs.copy())
        return lanes_grad(xs, t, seed, out)

    problem.lanes_grad = spy
    return problem, seen


def assert_same(trace, xs, want):
    """The trace's arrays, and its iterates ``xs`` (T, n), equal ``want``."""
    for name in ("x", *TRACE_ARRAYS):
        got = xs if name == "x" else getattr(trace, name)
        assert np.array_equal(got, want[name]), name
        assert got.dtype == np.float64 and got.shape == np.shape(want[name]), name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_has_every_rule_and_shared_groups(family):
    _, _, cells, _ = setup(family)
    assert len(cells) == 17
    assert {c.kind for c in cells} == {"sgd_momentum", "adam", "yogi", "adabound",
                                       "adabelief", "sadam", "fastadabelief"}
    adam_beta1 = {c.hp.beta1 for c in cells if c.kind == "adam"}
    assert adam_beta1 == {0.9, 0.5}


def test_lane_groups_are_runs_of_consecutive_cells():
    # The third adam block shares the first one's hyperparameters, but it
    # is not next to it, so it starts a group of its own.
    _, _, cells, _ = setup("quadratic")
    groups = lane_groups(cells)
    assert [j for group in groups for j in group] == list(range(len(cells)))
    assert [len(group) for group in groups] == [2] * 8 + [1]


# Round losses are computed once per 256-step scan block, so horizons on
# either side of a block end are cases of their own.
@pytest.mark.parametrize("family, lanes, horizon", [
    *(pytest.param(family, lanes, None, id=f"{lanes}-{family}")
      for lanes in (5, 17) for family in sorted(FAMILIES)),
    *(pytest.param("softmax", 5, horizon, id=f"5-softmax-horizon{horizon}")
      for horizon in (255, 256, 257)),
])
def test_each_lane_equals_its_cell_run_alone(family, lanes, horizon):
    problem, region, cells, run = setup(family)
    problem, seen = spied(problem)
    horizon = horizon or run.horizon
    cells = cells[-lanes:]
    traces = run_sweep(problem, cells, region, horizon, run.seed)
    iterates = np.array(seen)
    assert [t.kind for t in traces] == [c.kind for c in cells]
    for j, (cell, trace) in enumerate(zip(cells, traces)):
        assert trace.hp == cell.hp
        seen.clear()
        alone = run_online(problem, cell.kind, cell.hp, region, horizon, run.seed)
        want = {name: getattr(alone, name) for name in TRACE_ARRAYS}
        assert_same(trace, iterates[:, j], {**want, "x": np.array(seen)[:, 0]})


# The coefficient rows are refilled and the state records written once per
# 256-step scan block, so horizons on either side of each block end are
# cases of their own.
@pytest.mark.parametrize("family, horizon", [
    *(pytest.param(family, None, id=family) for family in sorted(FAMILIES)),
    *(pytest.param(family, horizon, id=f"{family}-horizon{horizon}")
      for horizon in (255, 256, 257, REFERENCE_HORIZON) for family in sorted(FAMILIES)),
])
def test_each_lane_equals_the_per_step_reference(family, horizon):
    problem, region, cells, run = setup(family)
    problem, seen = spied(problem)
    horizon = horizon or run.horizon
    traces = run_sweep(problem, cells, region, horizon, run.seed)
    iterates = np.array(seen)
    for j, (trace, want) in enumerate(zip(traces, references(family))):
        assert_same(trace, iterates[:, j], reference_prefix(want, horizon))


def counting(region):
    """The region as a subclass that records the shape of every projection."""
    shapes = []

    class Counting(FeasibleRegion):
        def project(self, x, out=None):
            shapes.append(np.shape(x))
            return super().project(x, out)

    return Counting(region.lower, region.upper), shapes


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("horizon", [255, 256, 257, 300])
def test_one_projection_per_step_and_block_step_norms(family, horizon):
    # The step tail runs once per step for all 17 lanes of the 9 lane
    # groups (8 hyperparameter sets).  The step norms are reduced once per 256-step scan block and
    # must match the per-step reference on either side of a block edge.
    problem, region, cells, run = setup(family)
    assert len({(c.kind, replace(c.hp, alpha=1.0)) for c in cells}) == 8
    counted, shapes = counting(region)
    traces = run_sweep(problem, cells, counted, horizon, run.seed)
    # one projection of the initial point, then one per step
    assert shapes == [(problem.dim,)] + [(len(cells), problem.dim)] * horizon
    for trace, want in zip(traces, references(family)):
        assert trace.step_inf.tobytes() == want["step_inf"][:horizon].tobytes()


def test_the_records_hold_3n_plus_4_floats_per_lane_step():
    # The traces hold the loss, gradient, s, s_hat, alpha, beta2 and step
    # norm of every lane and step: 3n + 4 floats.  The iterates and first
    # moments live for one scan block, and no beta1 row is kept, so nothing
    # else grows with the horizon; records of x, m and beta1 would make it
    # 5n + 5.  Measured on a quadratic, which caches nothing, as the traced
    # memory the returned traces hold at T and 2T, whole scan blocks, so
    # every cost that does not grow with T cancels.
    problem, region, cells, run = setup("quadratic")
    run_sweep(problem, cells, region, 256, run.seed)  # the region's lane-shaped bounds

    def held(horizon):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traces = run_sweep(problem, cells, region, horizon, run.seed)
            assert len(traces) == len(cells)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    per_lane_step = (held(1024) - held(512)) / (512 * len(cells))
    n = problem.dim
    assert abs(per_lane_step - (3 * n + 4) * 8) < 4, per_lane_step
    assert per_lane_step < 0.75 * (5 * n + 5) * 8


# ------------------------------------------------- frozen softmax reference


def frozen_log_softmax(logits):
    top = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j])
    shifted = logits - top[..., None]
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


class FrozenSoftmaxLanes:
    """The softmax loss and gradient as they stood before the one-hot
    gradient: the label entries are gathered and decremented by fancy
    indexing.  Kept here, apart from the package, as the reference."""

    def __init__(self, params, n_classes, x, y):
        lanes, kd = params.shape[0], n_classes * x.shape[-1]
        self.w = params[:, :kd].reshape(lanes, n_classes, -1)
        self.b = params[:, kd:]
        self.x, self.y = x, y
        self.at = (slice(None), np.arange(y.shape[-1]), y)
        self.logp = frozen_log_softmax(x @ self.w.transpose(0, 2, 1) + self.b[:, None, :])

    def loss(self, sigma1, sigma2):
        picked = np.ascontiguousarray(self.logp[self.at])
        return (-picked.mean(axis=1) + sigma1 * np.sum(self.w * self.w, axis=(1, 2))
                + sigma2 * np.sum(self.b * self.b, axis=1))

    def grad(self, sigma1, sigma2):
        p = np.exp(self.logp)
        p[self.at] -= 1.0
        p /= self.y.shape[-1]
        gw = p.transpose(0, 2, 1) @ self.x + 2.0 * sigma1 * self.w
        gb = np.add.reduce(p, axis=1) + 2.0 * sigma2 * self.b
        return np.concatenate([gw.reshape(len(p), -1), gb], axis=1)


def assert_same_bits(got, want, what):
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


# From 8 values on, numpy sums a contiguous row pairwise, so the order of
# the class sum (10 classes) and of the batch mean (32 rows) matters.  The
# sweeps run past the first 256-step scan block.
@pytest.mark.parametrize("lanes", [1, 5, 28])
@pytest.mark.parametrize("batch", [12, 32])
@pytest.mark.parametrize("classes", [2, 3, 10])
def test_softmax_rows_match_the_frozen_fancy_index_reference(classes, batch, lanes):
    dataset = synth_classification(seed=3, n_classes=classes, n_features=max(classes, 3),
                                   n_samples=150, separation=1.0)
    problem, seen = spied(SoftmaxL2Problem(dataset, batch_size=batch, sigma1=0.01, sigma2=0.02))
    region = box_region(-5.0, 5.0, problem.dim)
    kinds = ["adam", "fastadabelief", "sgd_momentum", "adabelief", "sadam", "yogi", "adabound"]
    cells = []
    for j in range(lanes):
        kind = kinds[j % len(kinds)]
        alpha = 0.05 / (1 + j // len(kinds))
        hp = (HyperParams(alpha=alpha, beta2_mode="sadam", delta=1.0)
              if kind in ("sadam", "fastadabelief") else HyperParams(alpha=alpha))
        cells.append(Cell(f"{kind}_alpha{alpha:g}", kind, hp))
    horizon, seed = 260, 5
    traces = run_sweep(problem, cells, region, horizon, seed)
    for t in range(1, horizon + 1):
        idx = sample_batch(dataset, batch, t, seed)
        x, y = dataset.features[idx], dataset.labels[idx]
        xs = seen[t - 1]
        grads = FrozenSoftmaxLanes(xs, classes, x, y).grad(0.01, 0.02)
        for trace, want in zip(traces, grads):
            assert_same_bits(trace.g[t - 1], want, ("gradient", t, trace.kind))
        for trace, x_t in zip(traces, xs):
            want = FrozenSoftmaxLanes(x_t[None], classes, x, y).loss(0.01, 0.02)[0]
            assert_same_bits(trace.loss[t - 1], want, ("loss", t, trace.kind))


class StartsAt(QuadraticProblem):
    """The same quadratic, started at ``x0`` whatever the region."""

    def __init__(self, inner, x0):
        super().__init__(inner.a, inner.b)
        self.start = x0

    def initial_point(self, region, seed):
        return self.start


def _outside(problem):
    x0 = np.zeros(problem.dim)
    x0[1] = 1.5
    return x0


@pytest.mark.parametrize("bad, message", [
    (lambda p, r, c: (p, c, r, 0), "horizon"),
    (lambda p, r, c: (p, [], r, 5), "at least one cell"),
    (lambda p, r, c: (p, c, box_region(-1.0, 1.0, p.dim + 1), 5), "dimension"),
    (lambda p, r, c: (StartsAt(p, _outside(p)), c, r, 5), "outside the feasible region"),
    (lambda p, r, c: (StartsAt(p, np.zeros(p.dim + 1)), c, r, 5), "x0 has shape"),
], ids=["horizon", "no-cells", "region-dimension", "infeasible-x0", "x0-shape"])
def test_sweep_validates_its_inputs(bad, message):
    problem, region, cells, _ = setup("quadratic")
    with pytest.raises(ValueError, match=message):
        run_sweep(*bad(problem, region, cells), 0)


# --------------------------------------------------------------- failures


def bowl():
    return QuadraticProblem(np.eye(2), np.full(2, -0.5), x0=np.zeros(2))


ADAM = Cell("adam_alpha0.01", "adam", HyperParams(alpha=0.01))


@pytest.mark.parametrize("what, message", [
    ("loss", "nonfinite loss at step 300 in cell adam"),
    ("gradient", "nonfinite gradient at step 300 in cell adam"),
    ("state", "nonfinite optimizer state after step 300 in cell adam"),
])
def test_one_cell_failure_names_its_step_and_cell(what, message):
    # Step 300 lies past the first finiteness scan, so the scan offsets count.
    problem = poisoned(bowl(), [(what, 300, 0)])
    with pytest.raises(NumericFailure) as info:
        run_online(problem, "adam", HyperParams(alpha=0.01), box_region(-2.0, 2.0, 2), 600, 0)
    assert (str(info.value), info.value.step, info.value.cell) == (message, 300, "adam")


def test_a_step_that_overflows_fails_while_the_moments_stay_finite():
    # sgd_momentum steps by -alpha * m'.  From 0, where the gradient is
    # -0.5, the first step, 1e308 * 0.5, is finite and the iterate is
    # clipped to 5; the second, -1e308 * (0.9 * -0.5 + 4.5), overflows,
    # while m', s and s_hat stay finite and the projection would clip the
    # iterate back into the box.
    sgd = Cell("sgd_momentum_alpha1e+308", "sgd_momentum", HyperParams(alpha=1e308))
    region = box_region(-5.0, 5.0, 2)
    with pytest.raises(NumericFailure) as info:
        run_sweep(bowl(), [ADAM, sgd], region, 20, 0)
    assert (str(info.value), info.value.step, info.value.cell) == \
        (f"nonfinite optimizer state after step 2 in cell {sgd.label}", 2, sgd.label)


def test_multi_cell_failure_names_the_earliest_cell():
    # On 0.5*x^2 - 0.5*x from 0, sgd_momentum at alpha 1e200 overflows the
    # loss at step 2 and at alpha 1e100 at step 3; the healthy adam lane
    # comes first, the later failure second.
    problem = QuadraticProblem(np.eye(1), np.array([-0.5]), x0=np.zeros(1))
    cells = [
        Cell("adam_alpha0.1", "adam", HyperParams(alpha=0.1)),
        Cell("sgd_momentum_alpha1e+100", "sgd_momentum", HyperParams(alpha=1e100)),
        Cell("sgd_momentum_alpha1e+200", "sgd_momentum", HyperParams(alpha=1e200)),
    ]
    region = box_region(-1e300, 1e300, 1)
    with pytest.raises(NumericFailure) as info:
        run_sweep(problem, cells, region, 5, 0)
    assert str(info.value) == "nonfinite loss at step 2 in cell sgd_momentum_alpha1e+200"
    with pytest.raises(NumericFailure, match="step 3 in cell sgd_momentum_alpha1e"):
        run_sweep(problem, cells[:2], region, 5, 0)


def test_same_step_failures_name_the_first_cell_in_order():
    problem = poisoned(bowl(), [("gradient", 7, 0), ("gradient", 7, 1)])
    cells = [Cell("sadam_alpha0.1", "sadam", HyperParams(alpha=0.1, beta2_mode="sadam")), ADAM]
    with pytest.raises(NumericFailure) as info:
        run_sweep(problem, cells, box_region(-2.0, 2.0, 2), 20, 0)
    assert str(info.value) == "nonfinite gradient at step 7 in cell sadam_alpha0.1"


def poisoned(problem, spots):
    """The same problem as a subclass whose ``lanes_grad`` and
    ``lanes_losses`` serve NaN at each (what, t, stacked row) of ``spots``;
    a "state" spot serves a finite gradient whose square overflows the
    second moment."""
    base = type(problem)

    class Poisoned(base):
        def lanes_grad(self, xs, t, seed, out):
            g = super().lanes_grad(xs, t, seed, out)
            for what, at, row in spots:
                if at == t and what in ("gradient", "state"):
                    g[row] = np.nan if what == "gradient" else 1e200
            return g

        def lanes_losses(self, xs, first, seed):
            losses = super().lanes_losses(xs, first, seed)
            for what, at, row in spots:
                if what == "loss" and first <= at < first + xs.shape[1]:
                    losses[row, at - first] = np.nan
            return losses

    if isinstance(problem, QuadraticProblem):
        return Poisoned(problem.a, problem.b, x0=problem.x0, x0_jitter=problem.x0_jitter)
    return Poisoned(problem.dataset, problem.batch_size, problem.sigma1, problem.sigma2)


# Steps 256 and 257 end one finiteness scan and start the next.
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spots, message", [
    ([("loss", 256, 0), ("gradient", 256, 0)], "nonfinite loss at step 256"),
    ([("gradient", 256, 0)], "nonfinite gradient at step 256"),
    ([("gradient", 257, 0), ("loss", 257, 0)], "nonfinite loss at step 257"),
    ([("gradient", 257, 0)], "nonfinite gradient at step 257"),
])
def test_real_problems_keep_the_one_cell_failure_order(family, spots, message):
    problem, region, cells, run = setup(family)
    cell = cells[0]
    with pytest.raises(NumericFailure) as info:
        run_online(poisoned(problem, spots), cell.kind, cell.hp, region, 600, run.seed)
    assert str(info.value) == f"{message} in cell {cell.kind}"


# The first three cells stack in cell order: two fastadabelief lanes, then
# one sadam lane.
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spots, message", [
    ([("gradient", 256, 1), ("loss", 257, 0)],
     "nonfinite gradient at step 256 in cell fastadabelief_alpha0.01"),
    ([("loss", 257, 2), ("gradient", 257, 1)],
     "nonfinite gradient at step 257 in cell fastadabelief_alpha0.01"),
    ([("gradient", 257, 2), ("loss", 257, 2)], "nonfinite loss at step 257 in cell sadam_alpha0.1"),
])
def test_real_problems_name_the_earliest_failing_cell(family, spots, message):
    problem, region, cells, run = setup(family)
    with pytest.raises(NumericFailure) as info:
        run_sweep(poisoned(problem, spots), cells[:3], region, 600, run.seed)
    assert str(info.value) == message


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_failures_carry_their_step_and_cell(family):
    problem, region, cells, run = setup(family)
    with pytest.raises(NumericFailure) as info:
        run_sweep(poisoned(problem, [("gradient", 257, 2)]), cells[:3], region, 600, run.seed)
    assert (info.value.step, info.value.cell) == (257, "sadam_alpha0.1")
    with pytest.raises(NumericFailure) as info:
        run_sweep(poisoned(problem, [("loss", 3, 0)]), cells[:1], region, 600, run.seed)
    assert (str(info.value), info.value.step, info.value.cell) == \
        (f"nonfinite loss at step 3 in cell {cells[0].label}", 3, cells[0].label)


def test_cli_reports_the_failing_cell_with_exit_3(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("""\
[problem]
kind = quadratic
dim = 1
eig_min = 1.0
eig_max = 1.0
x_star = 0.5
x0 = zeros
x0_jitter = 0

[optimizer]
kind = adam
alpha = 0.1

[optimizer]
kind = sgd_momentum
alpha = 1e100, 1e200

[run]
horizon = 5
region_lo = -1e300
region_hi = 1e300
""")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: nonfinite loss at step 2 in cell sgd_momentum_alpha1e+200" in err
