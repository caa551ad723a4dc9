"""Config parsing, validation diagnostics, and object construction."""

import pathlib
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefopt import (
    ConfigError,
    OPTIMIZER_KINDS,
    build_problem,
    build_region,
    load_config,
    parse_config,
    sweep_cells,
)
from beliefopt.config import OptimizerSpec, QuadraticSpec, RunSpec, SoftmaxSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent

MINIMAL = """\
[problem]
kind = quadratic

[optimizer]
kind = adam
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.problem.kind == "quadratic"
        assert cfg.problem.dim == 10
        assert len(cfg.optimizers) == 1
        assert cfg.optimizers[0].alphas == (0.001,)
        assert cfg.run.horizon == 1000
        assert cfg.run.region_lo == -5.0 and cfg.run.region_hi == 5.0
        assert cfg.run.seed == 0
        assert cfg.text == MINIMAL

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# comment\n\n[problem]\n# another\nkind = quadratic\n\n" \
               "[optimizer]\nkind = sgd_momentum\n"
        cfg = parse_config(text)
        assert cfg.optimizers[0].kind == "sgd_momentum"

    def test_unknown_section_names_the_line(self):
        text = "[problem]\nkind = quadratic\n\n[optimiser]\nkind = adam\n"
        with pytest.raises(ConfigError, match=r"line 4: unknown section"):
            parse_config(text)

    def test_key_before_any_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("kind = quadratic\n")

    def test_missing_equals_sign(self):
        text = "[problem]\nkind quadratic\n"
        with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
            parse_config(text)

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config("[problem]\n= quadratic\n")

    def test_duplicate_key_in_a_section(self):
        text = "[problem]\nkind = quadratic\ndim = 3\ndim = 4\n"
        with pytest.raises(ConfigError, match=r"line 4: duplicate key 'dim'"):
            parse_config(text)

    def test_duplicate_problem_section(self):
        text = MINIMAL + "\n[problem]\nkind = quadratic\n"
        with pytest.raises(ConfigError, match=r"duplicate \[problem\]"):
            parse_config(text)

    def test_duplicate_run_section(self):
        text = MINIMAL + "\n[run]\nseed = 1\n\n[run]\nseed = 2\n"
        with pytest.raises(ConfigError, match=r"duplicate \[run\]"):
            parse_config(text)

    def test_problem_section_is_required(self):
        with pytest.raises(ConfigError, match=r"no \[problem\]"):
            parse_config("[optimizer]\nkind = adam\n")

    def test_optimizer_section_is_required(self):
        with pytest.raises(ConfigError, match=r"no \[optimizer\]"):
            parse_config("[problem]\nkind = quadratic\n")

    def test_load_config_prefixes_the_path(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[problem]\nkind = cubic\n")
        with pytest.raises(ConfigError, match="broken.cfg: line 2"):
            load_config(str(path))

    def test_load_config_reads_past_a_byte_order_mark(self, tmp_path):
        plain = load_config(str(ROOT / "configs" / "quadratic.cfg"))
        path = tmp_path / "bom.cfg"
        path.write_text(plain.text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf[problem]")
        assert load_config(str(path)) == replace(plain, source=str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))


class TestProblemSection:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown problem kind 'cubic'"):
            parse_config("[problem]\nkind = cubic\n\n[optimizer]\nkind = adam\n")

    def test_kind_is_required(self):
        with pytest.raises(ConfigError, match="requires kind"):
            parse_config("[problem]\ndim = 3\n\n[optimizer]\nkind = adam\n")

    def test_unknown_key_names_the_line(self):
        text = "[problem]\nkind = quadratic\ncurvature = 3\n\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match=r"line 3: unknown \[problem\] key"):
            parse_config(text)

    def test_key_from_the_other_family_is_rejected(self):
        text = "[problem]\nkind = softmax\neig_min = 0.1\n\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match="does not apply to softmax"):
            parse_config(text)

    def test_non_numeric_value(self):
        text = "[problem]\nkind = quadratic\ndim = ten\n\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match="dim must be an integer"):
            parse_config(text)

    def test_x0_accepts_only_the_two_modes(self):
        text = "[problem]\nkind = quadratic\nx0 = origin\n\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match="x0 must be minimizer or zeros"):
            parse_config(text)

    def test_eigenvalue_band_must_be_positive_and_ordered(self):
        text = "[problem]\nkind = quadratic\neig_min = 2.0\neig_max = 1.0\n\n" \
               "[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match="eig_min <= eig_max"):
            parse_config(text)

    def test_batch_size_must_be_positive(self):
        text = "[problem]\nkind = softmax\nbatch_size = 0\n\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(text)


class TestOptimizerSection:
    def test_alpha_grid_is_comma_separated(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n" \
               "alpha = 0.1, 0.01, 0.001\n"
        cfg = parse_config(text)
        assert cfg.optimizers[0].alphas == (0.1, 0.01, 0.001)

    def test_bad_alpha_entry(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n" \
               "alpha = 0.1, lots\n"
        with pytest.raises(ConfigError, match="comma-separated number list"):
            parse_config(text)

    def test_unknown_optimizer_kind_lists_the_choices(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adamw\n"
        with pytest.raises(ConfigError, match="fastadabelief"):
            parse_config(text)

    def test_unknown_key(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\nmomentum = 0.9\n"
        with pytest.raises(ConfigError, match=r"unknown \[optimizer\] key 'momentum'"):
            parse_config(text)

    def test_beta2_mode_validation(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\nbeta2_mode = ema\n"
        with pytest.raises(ConfigError, match="beta2_mode must be constant or sadam"):
            parse_config(text)

    def test_schedule_accepts_auto_and_the_named_rules(self):
        base = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\nschedule = %s\n"
        assert parse_config(base % "auto").optimizers[0].schedule is None
        assert parse_config(base % "inverse_t").optimizers[0].schedule == "inverse_t"
        with pytest.raises(ConfigError, match="schedule must be auto or one of"):
            parse_config(base % "cosine")

    def test_hyperparameters_are_validated_at_parse_time(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = sadam\n" \
               "beta2_mode = sadam\ndelta = 0\n"
        with pytest.raises(ConfigError, match="requires delta > 0"):
            parse_config(text)

    def test_out_of_range_beta1_is_caught_with_the_section_line(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\nbeta1 = 1.5\n"
        with pytest.raises(ConfigError, match=r"line 4: \[optimizer\] adam"):
            parse_config(text)

    def test_repeated_sections_build_a_sweep(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n\n" \
               "[optimizer]\nkind = yogi\n"
        cfg = parse_config(text)
        assert [o.kind for o in cfg.optimizers] == ["adam", "yogi"]

    def test_each_section_keeps_its_header_line_which_is_no_key(self):
        text = "[problem]\nkind = quadratic\n\n[optimizer]\nkind = adam\n\n" \
               "[optimizer]\nkind = yogi\n"
        assert [o.line for o in parse_config(text).optimizers] == [4, 7]
        with pytest.raises(ConfigError, match=r"line 6: unknown \[optimizer\] key 'line'"):
            parse_config(MINIMAL + "line = 9\n")


class TestRunSection:
    def test_values_are_applied(self):
        text = MINIMAL + "\n[run]\nhorizon = 64\nregion_lo = -2\nregion_hi = 2\n" \
                         "seed = 9\nthin_stride = 4\ncheckpoints = 8, 16, 64\n"
        cfg = parse_config(text)
        assert cfg.run.horizon == 64
        assert cfg.run.seed == 9
        assert cfg.run.thin_stride == 4
        assert cfg.run.checkpoints == (8, 16, 64)

    def test_auto_markers_survive(self):
        cfg = parse_config(MINIMAL + "\n[run]\nthin_stride = auto\ncheckpoints = auto\n")
        assert cfg.run.thin_stride == "auto"
        assert cfg.run.checkpoints is None  # auto: the default grid

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown \[run\] key"):
            parse_config(MINIMAL + "\n[run]\nsteps = 10\n")

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError, match="horizon must be >= 1"):
            parse_config(MINIMAL + "\n[run]\nhorizon = 0\n")

    def test_region_must_be_ordered(self):
        with pytest.raises(ConfigError, match="region_lo < region_hi"):
            parse_config(MINIMAL + "\n[run]\nregion_lo = 1\nregion_hi = -1\n")

    def test_checkpoints_must_be_positive_integers(self):
        with pytest.raises(ConfigError, match="checkpoints must be >= 1"):
            parse_config(MINIMAL + "\n[run]\ncheckpoints = 0, 8\n")
        with pytest.raises(ConfigError, match="comma-separated integer"):
            parse_config(MINIMAL + "\n[run]\ncheckpoints = 8, sixteen\n")

    def test_thin_stride_must_be_positive(self):
        with pytest.raises(ConfigError, match="thin_stride must be >= 1"):
            parse_config(MINIMAL + "\n[run]\nthin_stride = 0\n")


class TestBuilders:
    def test_quadratic_problem_geometry(self):
        text = "[problem]\nkind = quadratic\ndim = 4\neig_min = 0.5\neig_max = 2.0\n" \
               "x_star = 0.25\nx0_jitter = 0\n\n[optimizer]\nkind = adam\n"
        cfg = parse_config(text)
        problem = build_problem(cfg)
        npt.assert_allclose(np.diag(problem.a),
                            np.logspace(np.log10(0.5), np.log10(2.0), 4))
        x_star = np.array([0.25, -0.25, 0.25, -0.25])
        npt.assert_allclose(problem.b, -problem.a @ x_star)
        # x0 = minimizer places the start at the bottom of the bowl.
        region = build_region(cfg, problem.dim)
        npt.assert_allclose(problem.initial_point(region, seed=0), x_star)

    def test_quadratic_zeros_start(self):
        text = "[problem]\nkind = quadratic\ndim = 2\nx0 = zeros\nx0_jitter = 0\n\n" \
               "[optimizer]\nkind = adam\n"
        problem = build_problem(parse_config(text))
        npt.assert_array_equal(
            problem.initial_point(build_region(parse_config(text), 2), 0),
            np.zeros(2))

    def test_softmax_problem_dimensions(self):
        text = "[problem]\nkind = softmax\nclasses = 2\nfeatures = 3\nsamples = 40\n" \
               "batch_size = 8\n\n[optimizer]\nkind = adam\n"
        problem = build_problem(parse_config(text))
        assert problem.dim == 2 * 3 + 2
        assert problem.batch_size == 8

    def test_build_region_uses_the_run_bounds(self):
        cfg = parse_config(MINIMAL + "\n[run]\nregion_lo = -3\nregion_hi = 1\n")
        region = build_region(cfg, 5)
        assert region.dim == 5
        npt.assert_array_equal(region.lower, np.full(5, -3.0))
        npt.assert_array_equal(region.upper, np.full(5, 1.0))

    def test_sweep_cells_cross_optimizers_with_alpha_grids(self):
        text = "[problem]\nkind = quadratic\n\n" \
               "[optimizer]\nkind = adam\nalpha = 0.1, 0.01\n\n" \
               "[optimizer]\nkind = yogi\nalpha = 0.5\n"
        cells = sweep_cells(parse_config(text))
        assert [c.label for c in cells] == ["adam_alpha0.1", "adam_alpha0.01",
                                            "yogi_alpha0.5"]
        assert cells[0].hp.alpha == 0.1
        assert cells[2].kind == "yogi"

    def test_duplicate_sweep_cells_are_rejected(self):
        text = "[problem]\nkind = quadratic\n\n" \
               "[optimizer]\nkind = adam\nalpha = 0.1\n\n" \
               "[optimizer]\nkind = adam\nalpha = 0.1\n"
        with pytest.raises(ConfigError, match="duplicate sweep cell"):
            sweep_cells(parse_config(text))


class TestCanonicalConfigs:
    def test_quadratic_text_parses_to_the_reference_setup(self):
        cfg = load_config(str(ROOT / "configs" / "quadratic.cfg"))
        assert cfg.problem.kind == "quadratic"
        assert cfg.problem.dim == 10
        assert cfg.run.horizon == 16384
        assert len(cfg.optimizers) == 1
        spec = cfg.optimizers[0]
        assert spec.kind == "fastadabelief"
        assert spec.alphas == (0.001,)
        assert spec.lam == 0.999
        assert spec.beta2_mode == "sadam"

    def test_softmax_text_parses_to_the_reference_setup(self):
        cfg = load_config(str(ROOT / "configs" / "softmax.cfg"))
        assert cfg.problem.kind == "softmax"
        assert cfg.problem.classes == 2
        assert cfg.problem.features == 2
        assert cfg.problem.batch_size == 12
        assert cfg.problem.separation == 0.7
        assert cfg.run.horizon == 16384
        assert cfg.optimizers[0].delta == 1.0

    def test_compare_text_sweeps_every_rule_on_one_grid(self):
        cfg = load_config(str(ROOT / "configs" / "compare.cfg"))
        kinds = [o.kind for o in cfg.optimizers]
        assert sorted(kinds) == sorted(OPTIMIZER_KINDS)
        for spec in cfg.optimizers:
            assert spec.alphas == (0.1, 0.01, 0.001, 0.0001)
        assert len(sweep_cells(cfg)) == 7 * 4
        assert cfg.run.horizon == 5000

    def test_readme_example_parses(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Config format", 1)[1].split("```")[1]
        cfg = parse_config(block)
        assert cfg.problem.kind == "quadratic"
        assert cfg.optimizers[0].alphas == (0.1, 0.01, 0.001, 0.0001)
        assert cfg.run.horizon == 5000

    def test_readme_library_example_runs(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```")[0]
        scope = {}
        exec(compile(block, "README.md", "exec"), scope)
        assert scope["trace"].horizon == 4096
        assert scope["report"].log_fit is not None
        assert [t.kind for t in scope["traces"]] == ["adam"] * 2 + ["adabelief"] * 2


# Config texts for the property test: sections built from schema keys with
# plausible and hostile values, now and then a junk line.
_SECTION_KEYS = {
    "problem": sorted({*QuadraticSpec.__dataclass_fields__, *SoftmaxSpec.__dataclass_fields__}),
    "optimizer": sorted({"alpha", *OptimizerSpec.__dataclass_fields__} - {"alphas", "kind"}),
    "run": sorted(RunSpec.__dataclass_fields__),
}
_SECTION_KINDS = {"problem": ["quadratic", "softmax", "cubic"],
                  "optimizer": [*OPTIMIZER_KINDS, "adamw"], "run": []}
_PLAUSIBLE = st.sampled_from([
    "0", "1", "2", "10", "-1", "0.5", "0.9", "0.1, 0.01", "8, 16", "1e400", "nan",
    "auto", "zeros", "sadam", "inverse_t", "x", "",
])
_HOSTILE = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=12),
)
_JUNK = st.one_of(st.sampled_from(["[junk]", "# note", "= 1", "key"]), st.text(max_size=24))


@st.composite
def config_texts(draw):
    lines = []
    any_order = st.lists(st.sampled_from(sorted(_SECTION_KEYS)), max_size=5)
    for name in draw(st.one_of(st.just(["problem", "optimizer", "run"]), any_order)):
        lines.append(f"[{name}]")
        if _SECTION_KINDS[name] and draw(st.integers(0, 9)):
            lines.append(f"kind = {draw(st.sampled_from(_SECTION_KINDS[name]))}")
        keys = st.lists(st.sampled_from(_SECTION_KEYS[name] + ["bogus"]), max_size=4, unique=True)
        for key in draw(keys):
            value = draw(_PLAUSIBLE if draw(st.integers(0, 3)) else _HOSTILE)
            lines.append(f"{key} = {value}")
        if not draw(st.integers(0, 9)):
            lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    return "\n".join(lines)


class TestSchema:
    def test_minimal_configs_fill_every_default(self):
        quad = parse_config(MINIMAL)
        soft = parse_config(MINIMAL.replace("quadratic", "softmax"))
        assert (quad.problem.kind, soft.problem.kind) == ("quadratic", "softmax")
        assert asdict(quad.problem) == {
            "dim": 10, "eig_min": 0.1, "eig_max": 1.0, "x_star": 0.5,
            "x0": "minimizer", "x0_jitter": 1e-5, "sigma": None,
        }
        assert asdict(soft.problem) == {
            "source": "synth", "classes": 10, "features": 20, "samples": 2000,
            "separation": 1.0, "data_seed": 7, "sigma1": 0.01, "sigma2": 0.01,
            "batch_size": 512,
        }
        assert asdict(quad.optimizers[0]) == {
            "kind": "adam", "alphas": (0.001,), "beta1": 0.9, "lam": 1.0,
            "beta2_mode": "constant", "beta2": 0.999, "beta2_c": 0.9, "delta": 0.1,
            "epsilon": 1e-8, "schedule": None, "eta_final": 0.1, "bound_gamma": 1e-3,
            "line": 4,
        }
        assert asdict(quad.run) == {
            "horizon": 1000, "region_lo": -5.0, "region_hi": 5.0, "seed": 0,
            "out_dir": None, "thin_stride": "auto", "checkpoints": None,
        }

    @settings(max_examples=400, deadline=None, database=None)
    @given(config_texts())
    def test_parser_raises_only_config_errors(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass
