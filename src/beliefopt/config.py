"""Experiment config files: parsing, validation, and object construction.

The format is deliberately small: ``[section]`` headers, ``key = value``
pairs, blank lines, and whole-line ``#`` comments.  ``[problem]`` and
``[run]`` appear at most once; ``[optimizer]`` may repeat, one block per
optimizer in a sweep, and its ``alpha`` value is a comma-separated grid.
Unknown sections or keys fail with the offending line number rather than
being silently dropped, since a typoed key would otherwise change results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .optim import OPTIMIZER_KINDS, HyperParams, box_region, validate_hyperparams
from .problems import QuadraticProblem, SoftmaxL2Problem, load_csv, synth_classification
from .regret import Cell

_SCHEDULES = ("constant", "inverse_t", "inverse_sqrt_t")

_PROBLEM_KEYS = {
    "kind", "dim", "eig_min", "eig_max", "x_star", "x0", "x0_jitter", "sigma",
    "source", "classes", "features", "samples", "separation", "data_seed",
    "sigma1", "sigma2", "batch_size",
}
_QUADRATIC_KEYS = {"kind", "dim", "eig_min", "eig_max", "x_star", "x0", "x0_jitter", "sigma"}
_SOFTMAX_KEYS = {
    "kind", "source", "classes", "features", "samples", "separation",
    "data_seed", "sigma1", "sigma2", "batch_size",
}
_OPTIMIZER_KEYS = {
    "kind", "alpha", "beta1", "lam", "beta2_mode", "beta2", "beta2_c",
    "delta", "epsilon", "schedule", "eta_final", "bound_gamma",
}
_RUN_KEYS = {
    "horizon", "region_lo", "region_hi", "seed", "out_dir", "thin_stride",
    "checkpoints",
}


@dataclass
class ProblemSpec:
    kind: str
    dim: int = 10
    eig_min: float = 0.1
    eig_max: float = 1.0
    x_star: float = 0.5
    x0: str = "minimizer"
    x0_jitter: float = 1e-5
    sigma: float | None = None
    source: str = "synth"
    classes: int = 10
    features: int = 20
    samples: int = 2000
    separation: float = 1.0
    data_seed: int = 7
    sigma1: float = 0.01
    sigma2: float = 0.01
    batch_size: int = 512


@dataclass
class OptimizerSpec:
    kind: str
    alphas: tuple[float, ...] = (0.001,)
    beta1: float = 0.9
    lam: float = 1.0
    beta2_mode: str = "constant"
    beta2: float = 0.999
    beta2_c: float = 0.9
    delta: float = 0.1
    epsilon: float = 1e-8
    schedule: str | None = None
    eta_final: float = 0.1
    bound_gamma: float = 1e-3

    def hyperparams(self, alpha: float) -> HyperParams:
        return HyperParams(
            alpha=alpha, beta1=self.beta1, lam=self.lam,
            beta2_mode=self.beta2_mode, beta2=self.beta2, beta2_c=self.beta2_c,
            delta=self.delta, epsilon=self.epsilon, step_schedule=self.schedule,
            eta_final=self.eta_final, bound_gamma=self.bound_gamma,
        )


@dataclass
class RunSpec:
    horizon: int = 1000
    region_lo: float = -5.0
    region_hi: float = 5.0
    seed: int = 0
    out_dir: str | None = None
    thin_stride: str | int = "auto"
    checkpoints: str | tuple[int, ...] = "auto"


@dataclass
class RunConfig:
    problem: ProblemSpec
    optimizers: list[OptimizerSpec]
    run: RunSpec
    text: str = field(repr=False, default="")


def _fail(lineno: int, msg: str) -> ConfigError:
    return ConfigError(f"line {lineno}: {msg}")


def _raw_sections(text: str):
    """Split config text into [(section, {key: (value, lineno)}, lineno)]."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("problem", "optimizer", "run"):
                raise _fail(lineno, f"unknown section [{name}]")
            current = {}
            sections.append((name, current, lineno))
            continue
        if "=" not in line:
            raise _fail(lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise _fail(lineno, "key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise _fail(lineno, "empty key")
        if key in current:
            raise _fail(lineno, f"duplicate key {key!r} in this section")
        current[key] = (value, lineno)
    return sections


def _finite(text: str, lineno: int, key: str) -> float:
    """``float(text)``, refusing inf, nan and values that overflow to inf."""
    number = float(text)
    if not np.isfinite(number):
        raise _fail(lineno, f"{key} must be a finite number, got {text!r}")
    return number


def _as_float(entry, key):
    value, lineno = entry
    try:
        return _finite(value, lineno, key)
    except ValueError:
        raise _fail(lineno, f"{key} must be a number, got {value!r}") from None


def _as_int(entry, key):
    value, lineno = entry
    try:
        return int(value)
    except ValueError:
        raise _fail(lineno, f"{key} must be an integer, got {value!r}") from None


def _pop(raw: dict, key: str):
    return raw.pop(key, None)


def _parse_problem(raw: dict, header_line: int) -> ProblemSpec:
    entry = _pop(raw, "kind")
    if entry is None:
        raise _fail(header_line, "[problem] requires kind = quadratic | softmax")
    kind, kind_line = entry
    if kind not in ("quadratic", "softmax"):
        raise _fail(kind_line, f"unknown problem kind {kind!r}")
    allowed = _QUADRATIC_KEYS if kind == "quadratic" else _SOFTMAX_KEYS
    for key, (_, lineno) in raw.items():
        if key not in _PROBLEM_KEYS:
            raise _fail(lineno, f"unknown [problem] key {key!r}")
        if key not in allowed:
            raise _fail(lineno, f"key {key!r} does not apply to {kind} problems")
    spec = ProblemSpec(kind=kind)
    for key in ("dim", "classes", "features", "samples", "data_seed", "batch_size"):
        if key in raw:
            setattr(spec, key, _as_int(raw[key], key))
    for key in ("eig_min", "eig_max", "x_star", "x0_jitter", "sigma",
                "separation", "sigma1", "sigma2"):
        if key in raw:
            setattr(spec, key, _as_float(raw[key], key))
    if "source" in raw:
        spec.source = raw["source"][0]
    if "x0" in raw:
        value, lineno = raw["x0"]
        if value not in ("minimizer", "zeros"):
            raise _fail(lineno, f"x0 must be minimizer or zeros, got {value!r}")
        spec.x0 = value
    if kind == "quadratic":
        if spec.dim < 1:
            raise _fail(header_line, "dim must be >= 1")
        if not 0 < spec.eig_min <= spec.eig_max:
            raise _fail(header_line, "need 0 < eig_min <= eig_max")
    else:
        if spec.batch_size < 1:
            raise _fail(header_line, "batch_size must be >= 1")
    return spec


def _parse_optimizer(raw: dict, header_line: int) -> OptimizerSpec:
    entry = _pop(raw, "kind")
    if entry is None:
        raise _fail(header_line, "[optimizer] requires a kind")
    kind, kind_line = entry
    if kind not in OPTIMIZER_KINDS:
        raise _fail(kind_line,
                    f"unknown optimizer kind {kind!r}; expected one of {', '.join(OPTIMIZER_KINDS)}")
    for key, (_, lineno) in raw.items():
        if key not in _OPTIMIZER_KEYS:
            raise _fail(lineno, f"unknown [optimizer] key {key!r}")
    spec = OptimizerSpec(kind=kind)
    if "alpha" in raw:
        value, lineno = raw["alpha"]
        try:
            alphas = tuple(_finite(part, lineno, "alpha") for part in value.split(","))
        except ValueError:
            raise _fail(lineno, f"alpha must be a comma-separated number list, got {value!r}") from None
        if not alphas:
            raise _fail(lineno, "alpha grid is empty")
        spec.alphas = alphas
    for key in ("beta1", "lam", "beta2", "beta2_c", "delta", "epsilon",
                "eta_final", "bound_gamma"):
        if key in raw:
            setattr(spec, key, _as_float(raw[key], key))
    if "beta2_mode" in raw:
        value, lineno = raw["beta2_mode"]
        if value not in ("constant", "sadam"):
            raise _fail(lineno, f"beta2_mode must be constant or sadam, got {value!r}")
        spec.beta2_mode = value
    if "schedule" in raw:
        value, lineno = raw["schedule"]
        if value == "auto":
            spec.schedule = None
        elif value in _SCHEDULES:
            spec.schedule = value
        else:
            raise _fail(lineno, f"schedule must be auto or one of {', '.join(_SCHEDULES)}")
    # Surface bad hyperparameter combinations at parse time, with the
    # section's location, instead of deep inside a run.
    for alpha in spec.alphas:
        try:
            validate_hyperparams(kind, spec.hyperparams(alpha))
        except ValueError as exc:
            raise _fail(header_line, f"[optimizer] {kind}: {exc}") from None
    return spec


def _parse_run(raw: dict, header_line: int) -> RunSpec:
    for key, (_, lineno) in raw.items():
        if key not in _RUN_KEYS:
            raise _fail(lineno, f"unknown [run] key {key!r}")
    spec = RunSpec()
    for key in ("horizon", "seed"):
        if key in raw:
            setattr(spec, key, _as_int(raw[key], key))
    for key in ("region_lo", "region_hi"):
        if key in raw:
            setattr(spec, key, _as_float(raw[key], key))
    if "out_dir" in raw:
        spec.out_dir = raw["out_dir"][0]
    if "thin_stride" in raw:
        value, lineno = raw["thin_stride"]
        if value != "auto":
            stride = _as_int(raw["thin_stride"], "thin_stride")
            if stride < 1:
                raise _fail(lineno, "thin_stride must be >= 1")
            spec.thin_stride = stride
    if "checkpoints" in raw:
        value, lineno = raw["checkpoints"]
        if value != "auto":
            try:
                points = tuple(int(part) for part in value.split(","))
            except ValueError:
                raise _fail(lineno, "checkpoints must be auto or a comma-separated integer list") from None
            if any(p < 1 for p in points):
                raise _fail(lineno, "checkpoints must be >= 1")
            if max(points) > spec.horizon:
                raise _fail(lineno, f"checkpoint {max(points)} lies beyond horizon {spec.horizon}")
            spec.checkpoints = points
    if spec.horizon < 1:
        raise _fail(header_line, "horizon must be >= 1")
    if not spec.region_lo < spec.region_hi:
        raise _fail(header_line, "need region_lo < region_hi")
    return spec


def parse_config(text: str) -> RunConfig:
    problem = None
    run = None
    optimizers = []
    for name, raw, header_line in _raw_sections(text):
        if name == "problem":
            if problem is not None:
                raise _fail(header_line, "duplicate [problem] section")
            problem = _parse_problem(raw, header_line)
        elif name == "run":
            if run is not None:
                raise _fail(header_line, "duplicate [run] section")
            run = _parse_run(raw, header_line)
        else:
            optimizers.append(_parse_optimizer(raw, header_line))
    if problem is None:
        raise ConfigError("config has no [problem] section")
    if not optimizers:
        raise ConfigError("config has no [optimizer] section")
    if run is None:
        run = RunSpec()
    return RunConfig(problem=problem, optimizers=optimizers, run=run, text=text)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ------------------------------------------------------------- builders


def build_problem(cfg: RunConfig):
    ps = cfg.problem
    if ps.kind == "quadratic":
        eigs = np.logspace(np.log10(ps.eig_min), np.log10(ps.eig_max), ps.dim)
        a = np.diag(eigs)
        x_star = ps.x_star * np.where(np.arange(ps.dim) % 2 == 0, 1.0, -1.0)
        b = -a @ x_star
        x0 = x_star if ps.x0 == "minimizer" else np.zeros(ps.dim)
        return QuadraticProblem(a, b, x0=x0, x0_jitter=ps.x0_jitter, sigma=ps.sigma)
    if ps.source == "synth":
        dataset = synth_classification(
            seed=ps.data_seed, n_classes=ps.classes, n_features=ps.features,
            n_samples=ps.samples, separation=ps.separation)
    else:
        dataset = load_csv(ps.source)
    return SoftmaxL2Problem(dataset, batch_size=ps.batch_size,
                            sigma1=ps.sigma1, sigma2=ps.sigma2)


def build_region(cfg: RunConfig, dim: int):
    return box_region(cfg.run.region_lo, cfg.run.region_hi, dim)


def sweep_cells(cfg: RunConfig) -> list[Cell]:
    cells = []
    seen = set()
    for spec in cfg.optimizers:
        for alpha in spec.alphas:
            label = f"{spec.kind}_alpha{alpha:g}"
            if label in seen:
                raise ConfigError(f"duplicate sweep cell {label}")
            seen.add(label)
            cells.append(Cell(label=label, kind=spec.kind, hp=spec.hyperparams(alpha)))
    return cells
