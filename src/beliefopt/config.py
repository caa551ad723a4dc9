"""Experiment config files: parsing, validation, and object construction.

The format is deliberately small: ``[section]`` headers, ``key = value``
pairs, blank lines, and whole-line ``#`` comments.  ``[problem]`` and
``[run]`` appear at most once; ``[optimizer]`` may repeat, one block per
optimizer in a sweep, and its ``alpha`` value is a comma-separated grid.
Unknown sections or keys fail with the offending line number rather than
being silently dropped, since a typoed key would otherwise change results.
"""

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .optim import (BETA2_MODES, OPTIMIZER_KINDS, SCHEDULES, HyperParams, box_region,
                    validate_hyperparams)
from .problems import QuadraticProblem, SoftmaxL2Problem, load_csv, synth_classification
from .regret import Cell

# A spec dataclass is the schema of its section: each field whose type is
# listed here is a key parsed by that type alone.  Fields of other types
# (the alpha grid, the "auto" markers) are parsed by their section.
_PLAIN_TYPES = (int, float, float | None, str, str | None)


def _choice(*words: str):
    """A word-valued field; the first word is the default."""
    return field(default=words[0], metadata={"choices": words})


def _at_least(low: int, default: int):
    """An integer field with a lower bound."""
    return field(default=default, metadata={"min": low})


@dataclass
class QuadraticSpec:
    """[problem] keys of kind = quadratic; ``kind`` itself is not a field."""

    kind = "quadratic"
    dim: int = _at_least(1, default=10)
    eig_min: float = 0.1
    eig_max: float = 1.0
    x_star: float = 0.5
    x0: str = _choice("minimizer", "zeros")
    x0_jitter: float = 1e-5
    sigma: float | None = None


@dataclass
class SoftmaxSpec:
    """[problem] keys of kind = softmax."""

    kind = "softmax"
    source: str = "synth"
    classes: int = 10
    features: int = 20
    samples: int = 2000
    separation: float = 1.0
    data_seed: int = _at_least(0, default=7)
    sigma1: float = 0.01
    sigma2: float = 0.01
    batch_size: int = _at_least(1, default=512)


_PROBLEM_SPECS = {spec.kind: spec for spec in (QuadraticSpec, SoftmaxSpec)}


@dataclass
class OptimizerSpec:
    kind: str
    alphas: tuple[float, ...] = (HyperParams.alpha,)
    beta1: float = HyperParams.beta1
    lam: float = HyperParams.lam
    beta2_mode: str = _choice(*BETA2_MODES)
    beta2: float = HyperParams.beta2
    beta2_c: float = HyperParams.beta2_c
    delta: float = HyperParams.delta
    epsilon: float = HyperParams.epsilon
    schedule: str | None = None
    eta_final: float = HyperParams.eta_final
    bound_gamma: float = HyperParams.bound_gamma

    def hyperparams(self, alpha: float) -> HyperParams:
        shared = {f.name: getattr(self, f.name) for f in fields(HyperParams)
                  if f.name in self.__dataclass_fields__}
        return HyperParams(alpha=alpha, step_schedule=self.schedule, **shared)


@dataclass
class RunSpec:
    horizon: int = _at_least(1, default=1000)
    region_lo: float = -5.0
    region_hi: float = 5.0
    seed: int = _at_least(0, default=0)
    out_dir: str | None = None
    thin_stride: str | int = "auto"
    checkpoints: tuple[int, ...] | None = None  # None: auto, the default grid


@dataclass
class RunConfig:
    problem: QuadraticSpec | SoftmaxSpec
    optimizers: list[OptimizerSpec]
    run: RunSpec
    text: str = field(repr=False, default="")
    #: the file the text came from and the lines of its [problem],
    #: [optimizer] and [run] headers, named by the errors of build_problem,
    #: sweep_cells and ``bound``
    source: str = ""
    problem_line: int = 0
    optimizer_lines: tuple[int, ...] = ()
    run_line: int = 0


def _fail(lineno: int, msg: str) -> ConfigError:
    return ConfigError(f"line {lineno}: {msg}")


def _in_source(source: str, msg) -> ConfigError:
    return ConfigError(f"{source}: {msg}" if source else str(msg))


def _raw_sections(text: str, linenos):
    """Split config text into [(section, {key: (value, lineno)}, lineno)]."""
    sections = []
    current = None
    for lineno, raw in zip(linenos, text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
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


def _integer(text: str, lineno: int, key: str, low: int | None = None) -> int:
    try:
        number = int(text)
    except ValueError:
        raise _fail(lineno, f"{key} must be an integer, got {text!r}") from None
    if low is not None and number < low:
        raise _fail(lineno, f"{key} must be >= {low}")
    return number


def _plain_fields(spec_type) -> dict:
    return {f.name: f for f in fields(spec_type) if f.type in _PLAIN_TYPES}


def _parse_plain(spec, raw: dict, section: str, special=()) -> None:
    """Set every key of ``raw`` but the ``special`` ones on ``spec``, parsed by
    the declared type of its field; a key with no plain field is unknown."""
    plain = _plain_fields(type(spec))
    for key, (value, lineno) in raw.items():
        if key in special:
            continue
        if key not in plain:
            raise _fail(lineno, f"unknown [{section}] key {key!r}")
        f = plain[key]
        words = f.metadata.get("choices")
        if words and value not in words:
            raise _fail(lineno, f"{key} must be {' or '.join(words)}, got {value!r}")
        if f.type is int:
            value = _integer(value, lineno, key, f.metadata.get("min"))
        elif f.type in (float, float | None):
            try:
                value = _finite(value, lineno, key)
            except ValueError:
                raise _fail(lineno, f"{key} must be a number, got {value!r}") from None
        setattr(spec, key, value)


def _pop_kind(raw: dict, header_line: int, section: str, kinds) -> str:
    entry = raw.pop("kind", None)
    if entry is None:
        raise _fail(header_line, f"[{section}] requires kind = {' | '.join(kinds)}")
    kind, lineno = entry
    if kind not in kinds:
        raise _fail(lineno, f"unknown {section} kind {kind!r}; expected one of {', '.join(kinds)}")
    return kind


def _parse_problem(raw: dict, header_line: int) -> QuadraticSpec | SoftmaxSpec:
    kind = _pop_kind(raw, header_line, "problem", tuple(_PROBLEM_SPECS))
    spec = _PROBLEM_SPECS[kind]()
    own = _plain_fields(type(spec))
    for key, (_, lineno) in raw.items():
        if key not in own and any(key in _plain_fields(other) for other in _PROBLEM_SPECS.values()):
            raise _fail(lineno, f"key {key!r} does not apply to {kind} problems")
    _parse_plain(spec, raw, "problem")
    if kind == "quadratic" and not 0 < spec.eig_min <= spec.eig_max:
        raise _fail(header_line, "need 0 < eig_min <= eig_max")
    return spec


def _parse_optimizer(raw: dict, header_line: int) -> OptimizerSpec:
    kind = _pop_kind(raw, header_line, "optimizer", OPTIMIZER_KINDS)
    spec = OptimizerSpec(kind=kind)
    _parse_plain(spec, raw, "optimizer", special=("alpha", "schedule"))
    if "alpha" in raw:
        value, lineno = raw["alpha"]
        try:
            alphas = tuple(_finite(part, lineno, "alpha") for part in value.split(","))
        except ValueError:
            raise _fail(lineno, f"alpha must be a comma-separated number list, got {value!r}") from None
        spec.alphas = alphas
    if "schedule" in raw:
        value, lineno = raw["schedule"]
        if value != "auto" and value not in SCHEDULES:
            raise _fail(lineno, f"schedule must be auto or one of {', '.join(SCHEDULES)}")
        spec.schedule = None if value == "auto" else value
    # Surface bad hyperparameter combinations at parse time, with the
    # section's location, instead of deep inside a run.
    for alpha in spec.alphas:
        try:
            validate_hyperparams(kind, spec.hyperparams(alpha))
        except ValueError as exc:
            raise _fail(header_line, f"[optimizer] {kind}: {exc}") from None
    return spec


def _parse_run(raw: dict, header_line: int) -> RunSpec:
    spec = RunSpec()
    _parse_plain(spec, raw, "run", special=("thin_stride", "checkpoints"))
    if "thin_stride" in raw:
        value, lineno = raw["thin_stride"]
        if value != "auto":
            spec.thin_stride = _integer(value, lineno, "thin_stride", low=1)
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
    if not spec.region_lo < spec.region_hi:
        raise _fail(header_line, "need region_lo < region_hi")
    return spec


#: each section's parser; only [optimizer] may repeat
_SECTIONS = {"problem": _parse_problem, "optimizer": _parse_optimizer, "run": _parse_run}


def parse_config(text: str, source: str = "", linenos=None) -> RunConfig:
    """The config ``text`` describes.  Errors name ``source`` (a file name)
    and a line, counted by ``linenos`` (one number per line of ``text``)
    when the text sits inside a larger file, like a trace's ``#cfg:`` lines."""
    try:
        return _parse(text, linenos or itertools.count(1), source)
    except ConfigError as exc:
        raise _in_source(source, exc) from None


def _parse(text: str, linenos, source: str) -> RunConfig:
    found = {name: [] for name in _SECTIONS}  # name -> [(spec, header line)]
    for name, raw, header_line in _raw_sections(text, linenos):
        if found[name] and name != "optimizer":
            raise _fail(header_line, f"duplicate [{name}] section")
        found[name].append((_SECTIONS[name](raw, header_line), header_line))
    for name in ("problem", "optimizer"):
        if not found[name]:
            raise ConfigError(f"config has no [{name}] section")
    [(problem, problem_line)] = found["problem"]
    run, run_line = found["run"][0] if found["run"] else (RunSpec(), 0)
    optimizers, optimizer_lines = zip(*found["optimizer"])
    return RunConfig(problem=problem, optimizers=list(optimizers), run=run, text=text,
                     source=source, problem_line=problem_line,
                     optimizer_lines=optimizer_lines, run_line=run_line)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=path)


# ------------------------------------------------------------- builders


def build_problem(cfg: RunConfig):
    """The problem a config describes; a value it rejects, or a problem too
    large to hold, is a ConfigError naming the config's source and its
    [problem] line."""
    ps = cfg.problem
    try:
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
    except (OSError, ValueError, MemoryError) as exc:
        why = " does not fit in memory" if isinstance(exc, MemoryError) else f": {exc}"
        raise _in_source(cfg.source, _fail(cfg.problem_line, f"[problem] {ps.kind}{why}")) from None


def build_region(cfg: RunConfig, dim: int):
    return box_region(cfg.run.region_lo, cfg.run.region_hi, dim)


def sweep_cells(cfg: RunConfig) -> list[Cell]:
    """One cell per (optimizer, alpha); a repeated label is a ConfigError
    naming the config's source and the [optimizer] line that repeats it."""
    cells = []
    seen = set()
    lines = cfg.optimizer_lines or (0,) * len(cfg.optimizers)
    for spec, line in zip(cfg.optimizers, lines):
        for alpha in spec.alphas:
            label = f"{spec.kind}_alpha{alpha:g}"
            if label in seen:
                raise _in_source(cfg.source, _fail(line, f"duplicate sweep cell {label}"))
            seen.add(label)
            cells.append(Cell(label=label, kind=spec.kind, hp=spec.hyperparams(alpha)))
    return cells
