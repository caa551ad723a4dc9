"""Trace CSV files: one row per kept step, metadata and config up front.

The file layout is stable so downstream checks can rely on it:

* ``# key: value`` metadata lines (seed, optimizer, alpha, beta1, sigma,
  horizon, problem, cond4_upper, thin_stride);
* the originating config embedded verbatim on ``#cfg: `` lines, which is
  what lets ``check`` re-run a trace without the original file;
* the exact header line ``t, loss, cum_loss, grad_inf_norm,
  step_inf_norm, alpha_t, beta2_t, cond4_min, cond4_max, gamma_min``;
* data rows serialized with %.17g so floats round-trip bit-exactly.

Thinning keeps every stride-th step plus all checkpoints and the final
step; cum_loss is accumulated over every step regardless of thinning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .regret import TrajectoryTrace, check_condition4, checkpoint_grid, gamma_series

TRACE_HEADER = ("t, loss, cum_loss, grad_inf_norm, step_inf_norm, "
                "alpha_t, beta2_t, cond4_min, cond4_max, gamma_min")
COMPARE_HEADER = "optimizer,t,loss"

#: past this many steps, auto thinning keeps every 10th row.
_DENSE_LIMIT = 10_000


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def auto_stride(horizon: int) -> int:
    return 1 if horizon <= _DENSE_LIMIT else 10


def kept_steps(horizon: int, stride: int, checkpoints=None) -> np.ndarray:
    if checkpoints is None:
        checkpoints = checkpoint_grid(horizon)
    keep = set(range(1, horizon + 1, stride))
    keep.update(int(c) for c in checkpoints)
    keep.add(horizon)
    return np.array(sorted(keep), dtype=np.int64)


def write_trace(path: str, trace: TrajectoryTrace, config_text: str = "",
                thin_stride="auto", checkpoints=None) -> int:
    """Write one run's trace; returns the number of data rows written."""
    stride = auto_stride(trace.horizon) if thin_stride == "auto" else int(thin_stride)
    if stride < 1:
        raise ValueError("thin_stride must be >= 1")
    steps = kept_steps(trace.horizon, stride, checkpoints)
    band = check_condition4(trace, trace.sigma)
    gamma = gamma_series(trace)
    cum_loss = np.cumsum(trace.loss)
    grad_inf = np.max(np.abs(trace.g), axis=1)
    meta = [
        ("seed", str(trace.seed)),
        ("optimizer", trace.kind),
        ("alpha", _fmt(trace.hp.alpha)),
        ("beta1", _fmt(trace.hp.beta1)),
        ("sigma", _fmt(trace.sigma)),
        ("horizon", str(trace.horizon)),
        ("problem", trace.problem_kind),
        ("cond4_upper", _fmt(band.upper)),
        ("thin_stride", str(stride)),
    ]
    lines = [f"# {key}: {value}" for key, value in meta]
    for cfg_line in config_text.splitlines():
        lines.append(f"#cfg: {cfg_line}")
    lines.append(TRACE_HEADER)
    for t in steps:
        i = int(t) - 1
        row = (
            str(int(t)),
            _fmt(trace.loss[i]),
            _fmt(cum_loss[i]),
            _fmt(grad_inf[i]),
            _fmt(trace.step_inf[i]),
            _fmt(trace.alpha[i]),
            _fmt(trace.beta2[i]),
            _fmt(band.lhs_min[i]),
            _fmt(band.lhs_max[i]),
            _fmt(gamma[i]),
        )
        lines.append(", ".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(steps)


@dataclass
class TraceFile:
    """Parsed form of a trace CSV."""

    meta: dict[str, str]
    config_text: str
    columns: dict[str, np.ndarray]
    #: the file line of each line of config_text
    config_lines: list[int]

    @property
    def steps(self) -> np.ndarray:
        return self.columns["t"].astype(np.int64)


def read_trace(path: str) -> TraceFile:
    meta: dict[str, str] = {}
    cfg_lines: list[str] = []
    cfg_linenos: list[int] = []
    header: list[str] | None = None
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#cfg:"):
            # split as parse_config will, so every config line has a number
            parts = line[5:].removeprefix(" ").splitlines() or [""]
            cfg_lines.extend(parts)
            cfg_linenos.extend([lineno] * len(parts))
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = [part.strip() for part in line.split(",")]
            expected = [part.strip() for part in TRACE_HEADER.split(",")]
            if header != expected:
                raise ConfigError(f"{path}: unexpected trace header at line {lineno}")
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != len(header):
            raise ConfigError(
                f"{path}: line {lineno} has {len(parts)} fields, expected {len(header)}")
        try:
            rows.append([float(part) for part in parts])
        except ValueError:
            raise ConfigError(f"{path}: non-numeric field at line {lineno}") from None
    if header is None:
        raise ConfigError(f"{path}: no header row found")
    table = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    columns = {name: table[:, j] for j, name in enumerate(header)}
    return TraceFile(meta=meta, config_text="\n".join(cfg_lines), columns=columns,
                     config_lines=cfg_linenos)


def write_compare_csv(path: str, series: dict[str, np.ndarray]) -> None:
    """Long-format per-step losses, one block per optimizer, never thinned."""
    lines = [COMPARE_HEADER]
    for name in series:
        losses = series[name]
        for t, value in enumerate(losses, start=1):
            lines.append(f"{name},{t},{_fmt(value)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
