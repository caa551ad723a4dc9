"""Trace CSV round trips: what ``write_trace`` holds is what ``read_trace`` returns."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefopt import HyperParams, TrajectoryTrace, box_region, read_trace, write_trace
from beliefopt.regret import check_condition4, gamma_series

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


@st.composite
def traces(draw):
    horizon = draw(st.integers(1, 12))
    n = draw(st.integers(1, 3))

    def series(elements, shape):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    s = series(_NONNEG, (horizon, n))
    return TrajectoryTrace(
        kind=draw(st.sampled_from(["adam", "fastadabelief"])),
        hp=HyperParams(alpha=0.01), seed=draw(st.integers(0, 2**32)),
        region=box_region(-1.0, 1.0, n), horizon=horizon, problem_kind="quadratic",
        sigma=draw(_RATE), loss=series(_FINITE, horizon), x=np.zeros((horizon, n)),
        g=series(_FINITE, (horizon, n)), m=np.zeros((horizon, n)), s=s,
        s_hat=np.maximum.accumulate(s, axis=0), alpha=series(_RATE, horizon),
        beta1=np.full(horizon, 0.9), beta2=series(_FINITE, horizon),
        step_inf=series(_FINITE, horizon), x_final=np.zeros(n),
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
