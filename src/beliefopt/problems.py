"""Loss oracles and data plumbing for the online experiments.

Two problem families are supported:

* ``quadratic``: f(x) = x'Ax/2 + b'x with symmetric A.  The same loss is
  served every round, so the online run is deterministic given x0.
* ``softmax_l2``: multiclass cross-entropy over minibatches plus separate
  L2 penalties on the weight rows and the biases,

      J(w, b) = -(1/m) sum_i log softmax(w x_i + b)[y_i]
                + sigma1 * sum ||w_k||^2 + sigma2 * sum b_k^2.

  Parameters are packed as the K*d weight entries row-major, then the K
  biases.  Both penalties strictly convexify the objective; the certified
  strong-convexity modulus is 2*min(sigma1, sigma2).

Minibatches are drawn with replacement and keyed by (seed, t), so any round
can be replayed without storing index lists: round t's minibatch is
``np.random.default_rng([seed, t]).integers(0, n_samples, size=m)``
(``sample_batch``).  The softmax problem draws its rounds a block at a time
in one vectorized pass (``_draw_rounds``), each row bit-identical to that
one-round draw.

Both problems serve a sweep (``regret.run_sweep``) through two calls:

* ``lanes_grad(xs, t, seed, out)``: the round-t gradients at the stacked
  iterates xs (lanes, n), written into ``out`` (lanes, n), made every step
  (the sweep passes that step's row of its scan block's gradient buffer,
  which it copies into its records after each block);
* ``lanes_losses(xs, first, seed)``: the round losses (lanes, w) of a
  block's iterates xs (lanes, w, n) of rounds first .. first + w - 1, made
  once per block of steps.  Only the gradient feeds the next step, so the
  losses are computed in bulk afterwards.

``round_loss_grad(x, t, seed)`` makes both calls for one iterate and one round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BatchMemoryError
from .optim import FeasibleRegion


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples, d) with dense integer labels in [0, K)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be 1-d with one entry per sample")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def synth_classification(seed: int, n_classes: int = 10, n_features: int = 20,
                         n_samples: int = 2000, separation: float = 3.0) -> Dataset:
    """Gaussian blobs with unit covariance, one per class.

    Class means are scaled standard-basis vectors (recentered to zero mean),
    so every pair of means is exactly ``separation`` apart; this needs
    n_features >= n_classes.  Labels are assigned round-robin so class
    sizes differ by at most one.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if n_features < n_classes:
        raise ValueError(
            f"standard-basis means for {n_classes} classes need at least "
            f"{n_classes} features, got {n_features}")
    if n_samples < n_classes:
        raise ValueError(
            f"need at least one sample per class, got n_samples={n_samples} "
            f"for n_classes={n_classes}")
    # Scaled standard-basis corners have pairwise distance sqrt(2); recenter
    # so the blob cloud is mean-zero.
    means = np.zeros((n_classes, n_features))
    means[:, :n_classes] = np.eye(n_classes) * (separation / np.sqrt(2.0))
    means -= means.mean(axis=0, keepdims=True)
    rng = np.random.default_rng(seed)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    features = rng.standard_normal((n_samples, n_features)) + means[labels]
    return Dataset(features=features, labels=labels, n_classes=n_classes)


def load_csv(path: str) -> Dataset:
    """Read rows of ``label, f1, ..., fd`` from UTF-8 text, with or without
    a byte-order mark.

    A first non-blank line whose feature fields are not all numeric is
    treated as a header and skipped (labels may be arbitrary tokens, so the
    label field says nothing).  Labels are reindexed densely in order of first
    appearance.  Ragged rows and non-numeric or non-finite features (``nan``,
    ``inf``, or values like ``1e400`` that overflow) raise ValueError naming
    the offending line.
    """
    label_ids: dict[str, int] = {}
    labels: list[int] = []
    rows: list[list[float]] = []
    width = None
    maybe_header = True  # until the first non-blank line
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            first, maybe_header = maybe_header, False
            if first and len(parts) >= 2:
                try:
                    for p in parts[1:]:
                        float(p)
                except ValueError:
                    continue  # header row
            if len(parts) < 2:
                raise ValueError(f"{path} line {lineno}: need a label and at least one feature")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    f"{path} line {lineno}: expected {width} fields, got {len(parts)}")
            try:
                feats = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: non-numeric feature: {exc}") from None
            bad = next((p for p, f in zip(parts[1:], feats) if not math.isfinite(f)), None)
            if bad is not None:
                raise ValueError(f"{path} line {lineno}: non-finite feature {bad!r}")
            key = parts[0]
            if key not in label_ids:
                label_ids[key] = len(label_ids)
            labels.append(label_ids[key])
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features=np.array(rows), labels=np.array(labels, dtype=np.int64),
                   n_classes=len(label_ids))


def sample_batch(dataset: Dataset, m: int, t: int, seed: int) -> np.ndarray:
    """Draw m row indices with replacement, deterministic in (seed, t)."""
    if m < 1:
        raise ValueError("batch size must be at least 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = np.random.default_rng([seed, t])
    return rng.integers(0, dataset.n_samples, size=m)


# sample_batch's stream is numpy's SeedSequence pool hash, PCG64 seeding and
# XSL-RR output, and Lemire's bounded draw.  All of it is fixed integer
# arithmetic, so _draw_rounds repeats it for a block of rounds at once, one
# uint64 array entry per round.

_M32 = 0xFFFFFFFF
_U32, _S32 = np.uint64(_M32), np.uint64(32)
_POOL_SIZE = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A: pool mixing
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
# Rounds a softmax problem draws at once: 1,024 rounds of 32 samples take
# about 0.9 MB while they are drawn, all 16,384 rounds of a long run 14 MB.
_BLOCK_ROUNDS = 1024


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an integer >= 0."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_state(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(words).generate_state(4, np.uint64)`` per round, as four
    uint64 arrays; each entropy word is a uint32 array with one entry per
    round."""
    const = _HASH_A[0]

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _HASH_A[1] & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _HASH_B[0], []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _HASH_B[1] & _M32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [state[2 * k] | state[2 * k + 1] << _S32 for k in range(4)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _U32, a >> _S32, b & _U32, b >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _U32) + (p10 & _U32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, state * _PCG_MULT + inc mod 2**128, on (hi, lo)."""
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = (_mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
              + inc_hi + (new_lo < prod_lo))
    return new_hi, new_lo


def _pcg_uint32(state: list[np.ndarray], n_outputs: int) -> np.ndarray:
    """The first 2 * n_outputs 32-bit draws of PCG64 seeded with each round's
    ``state``, (count, 2 * n_outputs) in uint64; each 64-bit output gives its
    low half first."""
    inc_hi = state[2] << np.uint64(1) | state[3] >> np.uint64(63)
    inc_lo = state[3] << np.uint64(1) | np.uint64(1)
    # Seeding: from state 0, one step gives inc; add the seed; step again.
    lo = inc_lo + state[1]
    hi = inc_hi + state[0] + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(lo), n_outputs, 2), dtype=np.uint64)
    for k in range(n_outputs):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        value, rot = hi ^ lo, hi >> np.uint64(58)
        value = value >> rot | value << (np.uint64(64) - rot & np.uint64(63))
        out[:, k, 0] = value & _U32
        out[:, k, 1] = value >> _S32
    return out.reshape(len(lo), 2 * n_outputs)


def _draw_rounds(dataset: Dataset, m: int, first: int, count: int, seed: int) -> np.ndarray:
    """The minibatches of rounds first .. first + count - 1, (count, m) int64;
    row r is bit-identical to ``sample_batch(dataset, m, first + r, seed)``.

    Rounds the vectorized pass does not cover (a rejected draw, t >= 2**32,
    n_samples >= 2**32, or arguments sample_batch refuses) are left to
    sample_batch itself.
    """
    n = dataset.n_samples
    rows = np.empty((count, m), dtype=np.int64)
    exact = 0
    if m >= 1 and first >= 1 and seed >= 0 and n < 2**32:
        exact = min(count, max(0, 2**32 - first))  # t must be one 32-bit word
    redo = list(range(exact, count))
    if exact:
        words = [np.full(exact, w, dtype=np.uint32) for w in _uint32_words(int(seed))]
        state = _seed_state(words + [np.arange(first, first + exact, dtype=np.uint32)])
        scaled = _pcg_uint32(state, (m + 1) // 2)[:, :m] * np.uint64(n)
        rows[:exact] = scaled >> _S32
        # Lemire rejects a draw whose low word is below 2**32 mod n and
        # draws again; sample_batch serves those rounds.  For n = 2000 a
        # draw is rejected with probability 3e-7.
        rejected = (scaled & _U32) < np.uint64(2**32 % n)
        redo += np.flatnonzero(rejected.any(axis=1)).tolist()
    for r in redo:
        rows[r] = sample_batch(dataset, m, first + r, seed)
    return rows


# ------------------------------------------------------------------ softmax


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (class) axis, computed in place in
    ``logits`` and returned."""
    # Rows are many and classes few, so the max is taken a class column at
    # a time.  The order can only flip the sign of a zero maximum, which no
    # loss or gradient sees; the sum's rounding does depend on it, so the
    # sum stays numpy's row reduction.
    top = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j])
    logits -= top[..., None]
    total = np.add.reduce(np.exp(logits), -1, None, None, True)
    logits -= np.log(total, total)
    return logits


def unpack_params(params: np.ndarray, n_classes: int, n_features: int):
    expected = n_classes * (n_features + 1)
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (expected,):
        raise ValueError(f"expected {expected} packed parameters, got shape {params.shape}")
    w = params[: n_classes * n_features].reshape(n_classes, n_features)
    b = params[n_classes * n_features:]
    return w, b


def pack_params(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([np.ravel(w), np.ravel(b)])


# The softmax objective is computed for a stack of packed parameter rows
# (lanes, K*(d+1)) at once.  Each lane goes through the same BLAS call and
# the same reduction layout as a lone parameter vector would, so its values
# are bit-identical to a one-lane evaluation.


def _lanes_logp(params: np.ndarray, x: np.ndarray):
    """Each lane's weights (lanes, K, d) and biases (lanes, K), unpacked from
    its parameter row, and the log-probabilities (lanes, rows, K) of the
    feature rows ``x``: one minibatch (rows, d) that every lane sees, or one
    per lane (lanes, rows, d)."""
    d = x.shape[-1]
    kd = params.shape[1] // (d + 1) * d
    w = params[:, :kd].reshape(len(params), -1, d)
    b = params[:, kd:]
    logits = x @ w.transpose(0, 2, 1)
    logits += b[:, None, :]
    return w, b, _log_softmax(logits)


def _softmax_losses(params, x, y, sigma1, sigma2, weights=None) -> np.ndarray:
    """Each lane's objective (lanes,) on feature rows ``x`` with labels ``y``
    (rows,), or per lane ``x`` (lanes, rows, d) and ``y`` (lanes, rows);
    ``weights`` (rows,) replaces the batch mean by a weighted sum."""
    w, b, logp = _lanes_logp(params, x)
    # A shared minibatch's gather comes back in a lane-minor layout; a row
    # sum over that layout rounds differently from the contiguous one-lane
    # sum.
    lane = slice(None) if y.ndim == 1 else np.arange(len(params))[:, None]
    picked = np.ascontiguousarray(logp[lane, np.arange(y.shape[-1]), y])
    if weights is None:
        data_term = -picked.mean(axis=1)
    else:
        data_term = -np.array([row @ weights for row in picked])
    return data_term + sigma1 * np.sum(w * w, axis=(1, 2)) + sigma2 * np.sum(b * b, axis=1)


def _softmax_grads(params, x, onehot, sigma1, sigma2, out, weights=None) -> np.ndarray:
    """Each lane's gradient on the feature rows ``x`` (rows, d) with one-hot
    labels ``onehot`` (rows, K), written into ``out`` (lanes, K*(d+1)),
    whose last axis must have unit stride, and returned; ``weights`` (rows,)
    replaces the batch mean by a weighted sum."""
    w, b, logp = _lanes_logp(params, x)
    p = np.exp(logp, out=logp)
    # Takes 1 from each row's label entry; the others lose 0.0, which leaves
    # every value bit for bit as it was.
    p -= onehot
    if weights is None:
        p /= x.shape[-2]
    else:
        p *= weights[:, None]
    kd = w.shape[1] * w.shape[2]
    gw = np.matmul(p.transpose(0, 2, 1), x, out[:, :kd].reshape(w.shape))
    gw += 2.0 * sigma1 * w
    gb = np.add.reduce(p, 1, None, out[:, kd:])
    gb += 2.0 * sigma2 * b
    return out


def _one_lane(params, dataset: Dataset, indices):
    unpack_params(params, dataset.n_classes, dataset.n_features)  # shape check
    return np.asarray(params, dtype=np.float64)[None], dataset.features[indices]


def softmax_l2_loss(params, dataset, indices, sigma1=0.01, sigma2=0.01,
                    weights=None) -> float:
    """Objective over the given sample rows (optionally weighted)."""
    params, x = _one_lane(params, dataset, indices)
    return float(_softmax_losses(params, x, dataset.labels[indices], sigma1, sigma2,
                                 weights)[0])


def softmax_l2_grad(params, dataset, indices, sigma1=0.01, sigma2=0.01,
                    weights=None) -> np.ndarray:
    params, x = _one_lane(params, dataset, indices)
    onehot = np.eye(dataset.n_classes)[dataset.labels[indices]]
    return _softmax_grads(params, x, onehot, sigma1, sigma2, np.empty_like(params),
                          weights)[0]


# ------------------------------------------------------------------ quadratic


def quadratic_loss(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * x @ (a @ x) + b @ x)


def quadratic_grad(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ x + b


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ------------------------------------------------------------------ problems


def _round_loss_grad(problem, x: np.ndarray, t: int, seed: int):
    """Round t's loss and gradient at one iterate: one lane of the two calls."""
    loss = problem.lanes_losses(x[None, None], t, seed)[0, 0]
    return float(loss), problem.lanes_grad(x[None], t, seed, np.empty((1, len(x))))[0]


class QuadraticProblem:
    """Fixed quadratic served every round.

    ``x0`` is the base initial point; ``x0_jitter`` adds a seeded +-1 pattern
    scaled by that amount so different seeds give distinct trajectories.
    """

    kind = "quadratic"

    def __init__(self, a, b, x0=None, x0_jitter: float = 0.0, sigma: float | None = None):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape != (a.shape[0],):
            raise ValueError("b must match A")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("A must be symmetric (tolerance 1e-12)")
        self.a = a
        self.b = b
        eigs = np.linalg.eigvalsh(a)
        eigmin = float(eigs[0])
        if sigma is None:
            sigma = eigmin
        elif sigma > eigmin + 1e-12:
            raise ValueError(f"declared sigma {sigma} exceeds the smallest eigenvalue {eigmin}")
        if sigma <= 0:
            raise ValueError(
                f"quadratic must be strongly convex (smallest eigenvalue > 0), got sigma = {sigma}")
        self.sigma = sigma
        self._eig_max = float(eigs[-1])
        self.x0 = np.zeros(a.shape[0]) if x0 is None else np.asarray(x0, dtype=np.float64)
        self.x0_jitter = float(x0_jitter)
        if not np.isfinite(self.x0_jitter):
            raise ValueError(f"x0_jitter must be finite, got {self.x0_jitter}")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def initial_point(self, region: FeasibleRegion, seed: int) -> np.ndarray:
        x = self.x0
        if self.x0_jitter:
            rng = np.random.default_rng([seed, 0x0FF5E7])
            x = x + self.x0_jitter * rng.choice([-1.0, 1.0], size=self.dim)
        return region.project(x)

    round_loss_grad = _round_loss_grad

    # Each iterate keeps the one-iterate matrix-vector and dot products, so
    # its values do not depend on how many are stacked.  ``a.dot(x)`` makes
    # the BLAS call ``a @ x`` makes, with less dispatch.

    def lanes_grad(self, xs: np.ndarray, t: int, seed: int, out: np.ndarray) -> np.ndarray:
        """Gradients at stacked iterates (lanes, n), written into ``out``
        (lanes, n) and returned."""
        for x, row in zip(xs, out):
            np.add(self.a.dot(x), self.b, row)
        return out

    def lanes_losses(self, xs: np.ndarray, first: int, seed: int) -> np.ndarray:
        """Round losses (lanes, w) of iterates (lanes, w, n) at rounds first
        .. first + w - 1."""
        return np.array([[0.5 * x.dot(self.a.dot(x)) + self.b.dot(x) for x in lane]
                         for lane in xs])

    def full_loss(self, x: np.ndarray) -> float:
        return quadratic_loss(x, self.a, self.b)

    def prefix_objective(self, upto: int, seed: int):
        """Average of the first ``upto`` round losses: the quadratic itself."""
        def f(x):
            return quadratic_loss(x, self.a, self.b)

        def grad(x):
            return quadratic_grad(x, self.a, self.b)

        return f, grad, self._eig_max


class SoftmaxL2Problem:
    """Online multiclass softmax regression with L2 penalties.

    Each round serves the loss on a fresh with-replacement minibatch keyed
    by (seed, t); the full-data objective is used for reporting.
    """

    kind = "softmax_l2"

    def __init__(self, dataset: Dataset, batch_size: int = 32,
                 sigma1: float = 0.01, sigma2: float = 0.01):
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError("sigma1 and sigma2 must be positive")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.sigma1 = float(sigma1)
        self.sigma2 = float(sigma2)
        self.sigma = 2.0 * min(sigma1, sigma2)
        self._counted = (None, 0, None)  # (seed, rounds, per-sample draw counts)
        # (seed, first round, gathered features, labels and one-hot labels of
        # the minibatches of the rounds from there on): 1,024 rounds of 12
        # samples of 2 features in 2 classes keep 0.5 MB.
        self._block = (None, 0, None, None, None)

    @property
    def dim(self) -> int:
        return self.dataset.n_classes * (self.dataset.n_features + 1)

    def initial_point(self, region: FeasibleRegion, seed: int) -> np.ndarray:
        return region.project(np.zeros(self.dim))

    round_loss_grad = _round_loss_grad

    def _minibatches(self, first: int, count: int, seed: int):
        """(i, features, labels, one-hot labels) of the kept block, whose
        rows i .. i + count - 1 are the minibatches of rounds first .. first
        + count - 1: features (rounds, m, d), labels (rounds, m), one-hot
        labels (rounds, m, K).

        Rounds outside the kept block replace it with a new block drawn from
        ``first`` on, of at least _BLOCK_ROUNDS rounds.
        """
        block_seed, start, x, y, onehot = self._block
        if block_seed != seed or not start <= first <= first + count <= start + len(y):
            # Release the old block before drawing the next, so that the
            # draw never runs with two blocks held.
            self._block = x = y = onehot = None
            try:
                rows = _draw_rounds(self.dataset, self.batch_size, first,
                                    max(count, _BLOCK_ROUNDS), seed)
                start, x, y = first, self.dataset.features[rows], self.dataset.labels[rows]
                onehot = np.eye(self.dataset.n_classes)[y]
            except MemoryError as exc:
                raise BatchMemoryError(str(exc)) from None
            self._block = (seed, start, x, y, onehot)
        return first - start, x, y, onehot

    def lanes_grad(self, xs: np.ndarray, t: int, seed: int, out: np.ndarray) -> np.ndarray:
        """Gradients at stacked iterates (lanes, n), all on round t's
        minibatch, written into ``out`` (lanes, n) and returned."""
        i, x, _, onehot = self._minibatches(t, 1, seed)
        return _softmax_grads(xs, x[i], onehot[i], self.sigma1, self.sigma2, out)

    def lanes_losses(self, xs: np.ndarray, first: int, seed: int) -> np.ndarray:
        """Round losses (lanes, w) of iterates (lanes, w, n) at rounds first
        .. first + w - 1.

        Each lane's w iterates are evaluated as one stack, each on its own
        round's minibatch; going lane by lane keeps the stack at w rows.
        """
        w = xs.shape[1]
        i, x, y, _ = self._minibatches(first, w, seed)
        x, y = x[i:i + w], y[i:i + w]
        return np.array([_softmax_losses(window, x, y, self.sigma1, self.sigma2)
                         for window in xs])

    def _draw_counts(self, upto: int, seed: int) -> np.ndarray:
        """How often each sample was drawn in rounds 1..upto.

        The counts of the last prefix asked for are kept and extended, so a
        run of growing checkpoints draws each round once.
        """
        counted_seed, done, counts = self._counted
        if counted_seed != seed or done > upto:
            done, counts = 0, np.zeros(self.dataset.n_samples, dtype=np.int64)
        for first in range(done + 1, upto + 1, _BLOCK_ROUNDS):
            rows = _draw_rounds(self.dataset, self.batch_size, first,
                                min(_BLOCK_ROUNDS, upto + 1 - first), seed)
            counts += np.bincount(rows.ravel(), minlength=self.dataset.n_samples)
        self._counted = (seed, upto, counts)
        return counts

    def full_loss(self, x: np.ndarray) -> float:
        return softmax_l2_loss(x, self.dataset, np.arange(self.dataset.n_samples),
                               self.sigma1, self.sigma2)

    def prefix_objective(self, upto: int, seed: int):
        """Collapse rounds 1..upto into one weighted full-data objective.

        With-replacement sampling means the average of the round losses is
        the dataset loss weighted by how often each sample was drawn, so a
        prefix solve costs one pass over the dataset per gradient instead
        of one pass per round.
        """
        counts = self._draw_counts(upto, seed)
        total = upto * self.batch_size
        weights = counts / float(total)
        rows = np.arange(self.dataset.n_samples)

        def f(x):
            return softmax_l2_loss(x, self.dataset, rows, self.sigma1, self.sigma2,
                                   weights=weights)

        def grad(x):
            return softmax_l2_grad(x, self.dataset, rows, self.sigma1, self.sigma2,
                                   weights=weights)

        # Per-sample cross-entropy Hessians are bounded by ||(x, 1)||^2 / 2,
        # so the weighted average obeys the weighted-mean bound; the
        # penalties add at most 2*max(sigma1, sigma2).
        aug = np.sum(self.dataset.features ** 2, axis=1) + 1.0
        l_est = float(0.5 * (weights @ aug) + 2.0 * max(self.sigma1, self.sigma2))
        return f, grad, l_est
