"""Trace CSV files: one row per kept step, metadata and config up front.

The file layout is stable so downstream checks can rely on it:

* ``# key: value`` metadata lines (seed, optimizer, alpha, beta1, sigma,
  horizon, problem, cond4_upper, thin_stride), read back by ``trace_run``;
* the originating config embedded verbatim on ``#cfg: `` lines, which is
  what lets ``check`` re-run a trace without the original file;
* the exact header line ``t, loss, cum_loss, grad_inf_norm,
  step_inf_norm, alpha_t, beta2_t, cond4_min, cond4_max, gamma_min``;
* data rows serialized with %.17g so floats round-trip bit-exactly.

``trace_record`` chooses a trace's rows and builds what ``write_trace``
writes; ``check_steps`` and ``stored_mismatches`` compare a read trace with
it for ``check``.

The writers format their rows a table at a time: the kept values go into
one float64 table, and blocks of _BLOCK_ROWS rows go through one row
template each.  The bytes are those of formatting value by value.

Thinning keeps every stride-th step plus all checkpoints and the final
step; cum_loss is accumulated over every step regardless of thinning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckFailure, ConfigError
from .regret import TrajectoryTrace, check_condition4, checkpoint_grid, gamma_series

TRACE_HEADER = ("t, loss, cum_loss, grad_inf_norm, step_inf_norm, "
                "alpha_t, beta2_t, cond4_min, cond4_max, gamma_min")
TRACE_COLUMNS = [name.strip() for name in TRACE_HEADER.split(",")]
COMPARE_HEADER = "optimizer,t,loss"

#: past this many steps, auto thinning keeps every 10th row.
_DENSE_LIMIT = 10_000

#: rows formatted per block; bounds the temporary strings of one write
_BLOCK_ROWS = 1024


def g17(value: float) -> str:
    """``value`` as %.17g, which round-trips every float bit for bit."""
    return "%.17g" % float(value)


def _write_rows(fh, row: str, table: np.ndarray) -> None:
    """Write each row of ``table`` through the %-template ``row``.  Its %d
    fields are exact on the float64 table below 2**53."""
    for lo in range(0, len(table), _BLOCK_ROWS):
        block = table[lo:lo + _BLOCK_ROWS]
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def trace_record(trace: TrajectoryTrace, thin_stride="auto",
                 checkpoints=None) -> tuple[list[tuple[str, str]], np.ndarray]:
    """What ``write_trace`` writes for ``trace``: its metadata as (key, text)
    pairs, and the float64 table of its data rows, one column per
    TRACE_HEADER field.  The rows are every ``thin_stride``-th step ("auto":
    1, or 10 past _DENSE_LIMIT steps) and ``checkpoint_grid(T, checkpoints)``."""
    horizon = trace.horizon
    stride = (1 if horizon <= _DENSE_LIMIT else 10) if thin_stride == "auto" else int(thin_stride)
    if stride < 1:
        raise ValueError("thin_stride must be >= 1")
    # A set, not np.union1d, whose first call imports numpy.ma.
    keep = set(range(1, horizon + 1, stride)).union(checkpoint_grid(horizon, checkpoints))
    steps = np.array(sorted(keep), dtype=np.int64)
    band = check_condition4(trace, trace.sigma)
    gamma = gamma_series(trace)
    cum_loss = np.cumsum(trace.loss)
    grad_inf = np.max(np.abs(trace.g), axis=1)
    meta = [
        ("seed", str(trace.seed)),
        ("optimizer", trace.kind),
        ("alpha", g17(trace.hp.alpha)),
        ("beta1", g17(trace.hp.beta1)),
        ("sigma", g17(trace.sigma)),
        ("horizon", str(horizon)),
        ("problem", trace.problem_kind),
        ("cond4_upper", g17(band.upper)),
        ("thin_stride", str(stride)),
    ]
    columns = (trace.loss, cum_loss, grad_inf, trace.step_inf, trace.alpha, trace.beta2,
               band.lhs_min, band.lhs_max, gamma)
    return meta, np.column_stack([steps] + [c[steps - 1] for c in columns])


def write_trace(path: str, trace: TrajectoryTrace, config_text: str = "",
                thin_stride="auto", checkpoints=None) -> int:
    """Write one run's trace; returns the number of data rows written."""
    meta, table = trace_record(trace, thin_stride, checkpoints)
    lines = [f"# {key}: {value}" for key, value in meta]
    for cfg_line in config_text.splitlines():
        lines.append(f"#cfg: {cfg_line}")
    lines.append(TRACE_HEADER)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        _write_rows(fh, "%d" + ", %.17g" * (len(TRACE_COLUMNS) - 1) + "\n", table)
    return len(table)


@dataclass
class TraceFile:
    """Parsed form of a trace CSV."""

    meta: dict[str, str]
    config_text: str
    columns: dict[str, np.ndarray]
    #: the file line of each line of config_text
    config_lines: list[int]
    #: the file line of each data row
    row_lines: list[int]


def nonnegative_int(text: str) -> int:
    """``int(text)`` for a seed; numpy's generators take no negative seeds."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def trace_run(tf: TraceFile, path: str) -> tuple[str, float, int]:
    """(optimizer, alpha, seed) for ``check`` to re-run.  A trace without
    data rows or with an unparseable value is a ConfigError, one without a
    key a CheckFailure; cond4_upper is checked here too, as the re-run is
    compared with it."""
    if not tf.row_lines:
        raise ConfigError(f"{path}: no data rows")
    for key in ("optimizer", "alpha", "seed", "cond4_upper"):
        if key not in tf.meta:
            raise CheckFailure(f"{path}: metadata line '# {key}: ...' missing")

    def value(key, parse):
        try:
            return parse(tf.meta[key])
        except ValueError:
            raise ConfigError(f"{path}: metadata '# {key}: {tf.meta[key]}' is not valid") from None

    value("cond4_upper", float)
    return tf.meta["optimizer"], value("alpha", float), value("seed", nonnegative_int)


def check_steps(tf: TraceFile, path: str, steps: np.ndarray) -> None:
    """The file's t column must be ``steps``, the steps its run keeps, row
    for row.  The message names the first row that differs, or the last
    row when the trace ends early."""
    t = tf.columns["t"]
    common = min(len(t), len(steps))
    differ = np.flatnonzero(t[:common] != steps[:common])
    i = int(differ[0]) if differ.size else common
    if i < len(t):
        keeps = f"step {int(steps[i])}" if i < len(steps) else f"no step after {int(steps[-1])}"
        raise ConfigError(f"{path}: line {tf.row_lines[i]}: "
                          f"t = {g17(t[i])} where the run keeps {keeps}")
    if i < len(steps):
        raise ConfigError(f"{path}: line {tf.row_lines[-1]}: the trace ends at t = {g17(t[-1])} "
                          f"where the run keeps step {int(steps[i])} next")


def _same_value(stored: str, written: str) -> bool:
    """Whether a stored metadata text holds the value written: the same
    text or the same number."""
    if stored == written:
        return True
    try:
        return float(stored) == float(written)
    except ValueError:
        return False


def stored_mismatches(tf: TraceFile, meta, table: np.ndarray) -> dict[str, str]:
    """The failure message of each metadata key and data column of ``tf``
    that is not what ``write_trace`` writes for its re-run, keyed by name:
    ``meta`` and ``table`` are the re-run's ``trace_record``, whose rows
    ``check_steps`` has matched with the file's.

    Metadata compare by value, columns bit for bit at the file's rows; a
    column's message names the file line of its first differing row.
    """
    found = {}
    for key, written in meta:
        if key not in tf.meta:
            found[key] = f"metadata line '# {key}: ...' missing"
        elif not _same_value(tf.meta[key], written):
            found[key] = (f"metadata '# {key}: {tf.meta[key]}': "
                          f"stored {key} does not match the re-run")
    # %.17g writes every nan as "nan", which reads back as np.nan.
    table = np.where(np.isnan(table), np.nan, table)
    for name, written in zip(TRACE_COLUMNS[1:], table.T[1:]):
        differ = tf.columns[name].view(np.int64) != written.view(np.int64)
        if differ.any():
            line = tf.row_lines[int(np.argmax(differ))]
            found[name] = f"line {line}: stored {name} does not match the re-run"
    return found


def read_trace(path: str) -> TraceFile:
    meta: dict[str, str] = {}
    cfg_lines: list[str] = []
    cfg_linenos: list[int] = []
    header: list[str] | None = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
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
                key = key.strip()
                if key in meta:
                    raise ConfigError(f"{path}: line {lineno}: metadata line '# {key}: ...' "
                                      "repeated")
                meta[key] = value.strip()
            continue
        if header is None:
            header = [part.strip() for part in line.split(",")]
            if header != TRACE_COLUMNS:
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
        row_lines.append(lineno)
    if header is None:
        raise ConfigError(f"{path}: no header row found")
    table = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    columns = {name: table[:, j] for j, name in enumerate(header)}
    return TraceFile(meta=meta, config_text="\n".join(cfg_lines), columns=columns,
                     config_lines=cfg_linenos, row_lines=row_lines)


def write_compare_csv(path: str, series: dict[str, np.ndarray]) -> None:
    """Long-format per-step losses, one block per optimizer, never thinned."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(COMPARE_HEADER + "\n")
        for name, losses in series.items():
            losses = np.asarray(losses, dtype=np.float64)
            table = np.column_stack([np.arange(1, len(losses) + 1, dtype=np.float64), losses])
            _write_rows(fh, name.replace("%", "%%") + ",%d,%.17g\n", table)
