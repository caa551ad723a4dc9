"""Trace CSV round trips: what ``write_trace`` holds is what ``read_trace`` returns,
and both writers give the bytes of formatting value by value."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefopt import (HyperParams, TrajectoryTrace, read_trace, traceio,
                       write_compare_csv, write_trace)
from beliefopt.regret import check_condition4, checkpoint_grid, gamma_series

# Finite values, with the edge cases that a lossy format would break.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300]
_FINITE = st.one_of(st.sampled_from(_EDGES),
                    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
_NONNEG = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]),
                    st.floats(min_value=0.0, max_value=1e300))
_RATE = st.floats(min_value=1e-3, max_value=1e3)
# A config line never holds a line break of any kind str.splitlines knows.
_CFG_LINE = st.text(st.characters(exclude_categories=("Cs",),
                                  exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                    max_size=20)


# Wider values for the byte tests, which need no round trip: sums may
# overflow to inf and the band to nan, and both must print as they would.
_WIDE = st.one_of(st.sampled_from(_EDGES + [1e308, -1e308]),
                  st.floats(allow_nan=False, allow_infinity=False))
_WIDE_NONNEG = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e308]),
                         st.floats(min_value=0.0, allow_infinity=False))


@st.composite
def traces(draw, finite=_FINITE, nonneg=_NONNEG, max_horizon=12):
    horizon = draw(st.integers(1, max_horizon))
    n = draw(st.integers(1, 3))

    def series(elements, shape):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    s = series(nonneg, (horizon, n))
    return TrajectoryTrace(
        kind=draw(st.sampled_from(["adam", "fastadabelief"])),
        hp=HyperParams(alpha=0.01), seed=draw(st.integers(0, 2**32)),
        horizon=horizon, problem_kind="quadratic",
        sigma=draw(_RATE), loss=series(finite, horizon), g=series(finite, (horizon, n)),
        s=s, s_hat=np.maximum.accumulate(s, axis=0), alpha=series(_RATE, horizon),
        beta2=series(finite, horizon), step_inf=series(finite, horizon), x_final=np.zeros(n),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(traces(), st.lists(_CFG_LINE, max_size=6))
def test_write_then_read_is_bit_exact(trace, cfg_lines):
    config_text = "\n".join(cfg_lines)
    band = check_condition4(trace, trace.sigma)
    expected = {
        "t": np.arange(1, trace.horizon + 1, dtype=np.float64),
        "loss": trace.loss,
        "cum_loss": np.cumsum(trace.loss),
        "grad_inf_norm": np.max(np.abs(trace.g), axis=1),
        "step_inf_norm": trace.step_inf,
        "alpha_t": trace.alpha,
        "beta2_t": trace.beta2,
        "cond4_min": band.lhs_min,
        "cond4_max": band.lhs_max,
        "gamma_min": gamma_series(trace),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        assert write_trace(path, trace, config_text=config_text, thin_stride=1) == trace.horizon
        tf = read_trace(path)
    assert list(tf.columns) == list(expected)
    for name, values in expected.items():
        assert np.isfinite(values).all(), name
        # Bytes, not ==: -0.0 must come back as -0.0.
        assert tf.columns[name].tobytes() == values.tobytes(), name
    # The embedded copy drops one trailing newline, nothing else.
    assert tf.config_text == config_text.removesuffix("\n")
    # Nine metadata lines come first, then one #cfg line per config line.
    assert tf.config_lines == list(range(10, 10 + len(config_text.splitlines())))


def test_every_embedded_config_line_keeps_its_trace_line(tmp_path):
    # A form feed inside a #cfg line is a line break to parse_config, so
    # both halves must carry the number of the trace line they came from.
    path = tmp_path / "trace.csv"
    path.write_text("# seed: 0\n#cfg: [run]\n#cfg: horizon = 5\x0cseed = 1\n"
                    "#cfg: region_lo = -1\nt, loss, cum_loss, grad_inf_norm, step_inf_norm, "
                    "alpha_t, beta2_t, cond4_min, cond4_max, gamma_min\n")
    tf = read_trace(str(path))
    assert tf.config_text.splitlines() == ["[run]", "horizon = 5", "seed = 1", "region_lo = -1"]
    assert tf.config_lines == [2, 3, 3, 4]


def _g17(value):
    return "%.17g" % float(value)


def reference_trace_text(trace, config_text, stride, checkpoints):
    """write_trace's bytes, formatted value by value, and its row count."""
    if checkpoints is None:
        checkpoints = checkpoint_grid(trace.horizon)
    steps = sorted(set(range(1, trace.horizon + 1, stride)) | set(checkpoints)
                   | {trace.horizon})
    band = check_condition4(trace, trace.sigma)
    gamma = gamma_series(trace)
    cum_loss = np.cumsum(trace.loss)
    grad_inf = np.max(np.abs(trace.g), axis=1)
    lines = [f"# seed: {trace.seed}", f"# optimizer: {trace.kind}",
             f"# alpha: {_g17(trace.hp.alpha)}", f"# beta1: {_g17(trace.hp.beta1)}",
             f"# sigma: {_g17(trace.sigma)}", f"# horizon: {trace.horizon}",
             f"# problem: {trace.problem_kind}", f"# cond4_upper: {_g17(band.upper)}",
             f"# thin_stride: {stride}"]
    lines += [f"#cfg: {line}" for line in config_text.splitlines()]
    lines.append(traceio.TRACE_HEADER)
    for t in steps:
        i = t - 1
        values = (trace.loss[i], cum_loss[i], grad_inf[i], trace.step_inf[i], trace.alpha[i],
                  trace.beta2[i], band.lhs_min[i], band.lhs_max[i], gamma[i])
        lines.append(", ".join([str(int(t))] + [_g17(v) for v in values]))
    return "\n".join(lines) + "\n", len(steps)


@st.composite
def thinning(draw, horizon):
    """(thin_stride, checkpoints) for write_trace; None is the default grid."""
    stride = draw(st.integers(1, 5))
    checkpoints = draw(st.none() | st.lists(st.integers(1, horizon), max_size=4))
    return stride, checkpoints


@settings(max_examples=150, deadline=None, database=None)
@given(st.data(), traces(finite=_WIDE, nonneg=_WIDE_NONNEG, max_horizon=40),
       st.lists(_CFG_LINE, max_size=3), st.integers(1, 7))
def test_write_trace_bytes_match_value_by_value_formatting(data, trace, cfg_lines, block):
    stride, checkpoints = data.draw(thinning(trace.horizon))
    config_text = "\n".join(cfg_lines)
    # A few rows per block, so that rows span several blocks.
    with (np.errstate(over="ignore", invalid="ignore"), tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(traceio, "_BLOCK_ROWS", block)):
        want, want_rows = reference_trace_text(trace, config_text, stride, checkpoints)
        path = os.path.join(tmp, "trace.csv")
        rows = write_trace(path, trace, config_text=config_text, thin_stride=stride,
                           checkpoints=checkpoints)
        with open(path, "rb") as fh:
            got = fh.read()
    assert got == want.encode("utf-8")
    assert rows == want_rows


@pytest.mark.parametrize("point", [0, -3, "T + 1"])
def test_write_trace_refuses_a_checkpoint_outside_the_run(tmp_path, point):
    trace = TrajectoryTrace(
        kind="adam", hp=HyperParams(alpha=0.01), seed=0, horizon=5, problem_kind="quadratic",
        sigma=1.0, loss=np.ones(5), g=np.ones((5, 1)), s=np.ones((5, 1)), s_hat=np.ones((5, 1)),
        alpha=np.ones(5), beta2=np.full(5, 0.5), step_inf=np.ones(5), x_final=np.zeros(1))
    point = trace.horizon + 1 if point == "T + 1" else point
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, horizon\]"):
        write_trace(str(tmp_path / "trace.csv"), trace, checkpoints=[point])


def reference_compare_text(series):
    """write_compare_csv's bytes, formatted value by value."""
    lines = [traceio.COMPARE_HEADER]
    for name, losses in series.items():
        lines += [f"{name},{t},{_g17(v)}" for t, v in enumerate(losses, start=1)]
    return "\n".join(lines) + "\n"


_NAMES = st.one_of(st.sampled_from(["fastadabelief", "100%", "%d", "%%", "a%sb", "%.17g"]),
                   st.text(st.characters(exclude_categories=("Cs",)), max_size=8))


@settings(max_examples=150, deadline=None, database=None)
@given(st.dictionaries(_NAMES, st.lists(_WIDE, max_size=30), max_size=4), st.integers(1, 7))
def test_write_compare_csv_bytes_match_value_by_value_formatting(series, block):
    arrays = {name: np.array(losses, dtype=np.float64) for name, losses in series.items()}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_BLOCK_ROWS", block):
        path = os.path.join(tmp, "compare.csv")
        write_compare_csv(path, arrays)
        with open(path, "rb") as fh:
            got = fh.read()
    assert got == reference_compare_text(series).encode("utf-8")


def test_write_compare_csv_names_with_percent_and_unequal_series(tmp_path):
    path = tmp_path / "compare.csv"
    write_compare_csv(str(path), {"100%": np.array([0.5, -0.0]), "%d": np.array([]),
                                  "adam": np.array([5e-324, 1e308, -1e308])})
    assert path.read_bytes() == (b"optimizer,t,loss\n100%,1,0.5\n100%,2,-0\n"
                                 b"adam,1,4.9406564584124654e-324\nadam,2,1e+308\n"
                                 b"adam,3,-1e+308\n")
