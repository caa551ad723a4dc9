"""Tests for the online-run laboratory: traces, hindsight, fits, checks."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_sweep import spied

from beliefopt import (
    BoundConstants,
    HyperParams,
    NumericFailure,
    QuadraticProblem,
    SoftmaxL2Problem,
    TrajectoryTrace,
    best_in_hindsight,
    box_region,
    check_condition3,
    check_condition4,
    check_gamma_psd,
    checkpoint_grid,
    compute_regret,
    fit_growth,
    measure_constants,
    region_scenarios,
    region_stepsize_table,
    run_online,
    step,
    stepsize_probe,
    synth_classification,
    theoretical_bound,
)
from beliefopt.optim import BETA2_MODES, SCHEDULES, scheduled_alpha, step_betas
from beliefopt.regret import (PROBE_KINDS, _probe_hyperparams, budget_domain, budget_terms,
                              gamma_series)


def bowl(dim=1, x0=None):
    """Unit quadratic 0.5*||x||^2, optionally started away from the bottom."""
    return QuadraticProblem(np.eye(dim), np.zeros(dim), x0=x0)


def make_trace(kind, s, g=None, alpha=None, beta2=None, hp=None, sigma=1.0):
    """Hand-assembled trace with the fields the checkers actually read."""
    s = np.asarray(s, dtype=np.float64)
    horizon, n = s.shape
    hp = hp if hp is not None else HyperParams(alpha=0.01)
    g = np.zeros_like(s) if g is None else np.asarray(g, dtype=np.float64)
    alpha = (np.full(horizon, hp.alpha) if alpha is None
             else np.asarray(alpha, dtype=np.float64))
    beta2 = (np.full(horizon, hp.beta2) if beta2 is None
             else np.asarray(beta2, dtype=np.float64))
    return TrajectoryTrace(
        kind=kind, hp=hp, seed=0, horizon=horizon, problem_kind="quadratic", sigma=sigma,
        loss=np.zeros(horizon), g=g, s=s, s_hat=np.maximum.accumulate(s, axis=0),
        alpha=alpha, beta2=beta2, step_inf=np.zeros(horizon), x_final=np.zeros(n),
    )


class TestRunOnline:
    def test_start_at_minimizer_stays_put(self):
        problem = bowl()
        trace = run_online(problem, "fastadabelief",
                           HyperParams(alpha=0.1, beta2_mode="sadam"),
                           box_region(-5.0, 5.0, 1), horizon=20, seed=0)
        npt.assert_array_equal(trace.loss, np.zeros(20))
        npt.assert_array_equal(trace.g, np.zeros((20, 1)))
        npt.assert_array_equal(trace.x_final, np.zeros(1))

    def test_three_rounds_of_plain_gradient_descent(self):
        # beta1=0 turns the heavy-ball rule into x' = x - alpha*g.  On
        # 0.5*x^2 from x=1 with alpha=0.25 the iterates are 1, 0.75,
        # 0.5625, so the recorded round losses follow by hand.
        problem, seen = spied(bowl(x0=[1.0]))
        hp = HyperParams(alpha=0.25, beta1=0.0)
        trace = run_online(problem, "sgd_momentum", hp,
                           box_region(-10.0, 10.0, 1), horizon=3, seed=0)
        npt.assert_array_equal(trace.loss, [0.5, 0.28125, 0.158203125])
        npt.assert_array_equal(np.array(seen)[:, 0, 0], [1.0, 0.75, 0.5625])
        assert trace.x_final[0] == pytest.approx(0.421875, abs=0)

    def test_identical_inputs_identical_traces(self):
        problem = QuadraticProblem(np.diag([1.0, 4.0]), [0.5, -1.0],
                                   x0=[2.0, 2.0], x0_jitter=1e-3)
        region = box_region(-3.0, 3.0, 2)
        hp = HyperParams(alpha=0.01, beta2_mode="sadam")
        problem, seen = spied(problem)
        a = run_online(problem, "fastadabelief", hp, region, 50, seed=7)
        b = run_online(problem, "fastadabelief", hp, region, 50, seed=7)
        npt.assert_array_equal(a.loss, b.loss)
        npt.assert_array_equal(seen[:50], seen[50:])
        npt.assert_array_equal(a.x_final, b.x_final)
        npt.assert_array_equal(a.s_hat, b.s_hat)

    def test_trace_records_the_schedules(self):
        hp = HyperParams(alpha=0.04, beta1=0.9, lam=0.99, beta2_mode="sadam",
                         beta2_c=0.9)
        trace = run_online(bowl(x0=[1.0]), "fastadabelief", hp,
                           box_region(-2.0, 2.0, 1), horizon=8, seed=0)
        t = np.arange(1, 9, dtype=np.float64)
        npt.assert_allclose(trace.alpha, 0.04 / t, rtol=1e-15)
        npt.assert_allclose(step_betas("fastadabelief", hp, 8)[0], 0.9 * 0.99 ** t, rtol=1e-15)
        npt.assert_allclose(trace.beta2, 1.0 - 0.9 / t, rtol=1e-15)

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            run_online(bowl(dim=2), "adam", HyperParams(),
                       box_region(-1.0, 1.0, 3), 5, seed=0)

    def test_horizon_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            run_online(bowl(), "adam", HyperParams(),
                       box_region(-1.0, 1.0, 1), 0, seed=0)

    def test_nan_loss_aborts_with_the_step_index(self):
        class Poisoned(QuadraticProblem):
            """0.5*x^2 from the bottom, with a NaN loss at round 3."""

            def lanes_losses(self, xs, first, seed):
                losses = super().lanes_losses(xs, first, seed)
                if first <= 3 < first + xs.shape[1]:
                    losses[:, 3 - first] = math.nan
                return losses

        with pytest.raises(NumericFailure, match="step 3"):
            run_online(Poisoned(np.eye(1), np.zeros(1)), "adam", HyperParams(),
                       box_region(-1.0, 1.0, 1), 10, seed=0)


class TestTruncate:
    @pytest.fixture()
    def trace(self):
        return run_online(bowl(x0=[1.5]), "adabelief", HyperParams(alpha=0.05),
                          box_region(-2.0, 2.0, 1), horizon=12, seed=1)

    def test_prefix_fields_and_final_iterate(self, trace):
        cut = trace.truncate(5)
        assert cut.horizon == 5
        npt.assert_array_equal(cut.loss, trace.loss[:5])
        npt.assert_array_equal(cut.g, trace.g[:5])
        # The trace keeps no iterates, so a prefix does not know the
        # point it ends at.
        assert cut.x_final is None

    def test_full_length_truncation_keeps_x_final(self, trace):
        cut = trace.truncate(12)
        npt.assert_array_equal(cut.x_final, trace.x_final)

    @pytest.mark.parametrize("upto", [1, 5, 12])
    def test_a_trace_without_iterates_or_moments_truncates_alike(self, trace, upto):
        cut = trace.truncate(upto)
        for name, value in vars(cut).items():
            if isinstance(value, np.ndarray) and name != "x_final":
                npt.assert_array_equal(value, getattr(trace, name)[:upto], err_msg=name)
        assert (cut.x_final is None) == (upto < 12)

    @pytest.mark.parametrize("upto", [0, 13, -1])
    def test_out_of_range_is_rejected(self, trace, upto):
        with pytest.raises(ValueError, match="truncate"):
            trace.truncate(upto)


class TestHindsight:
    def test_interior_minimizer_matches_the_closed_form(self):
        problem = QuadraticProblem(np.diag([2.0, 3.0]), [1.0, -6.0])
        region = box_region(-5.0, 5.0, 2)
        trace = run_online(problem, "adam", HyperParams(alpha=0.1),
                           region, 5, seed=0)
        x_star, value = best_in_hindsight(problem, region, trace)
        npt.assert_allclose(x_star, [-0.5, 2.0], atol=1e-8)
        # f at the bottom is -6.25, five identical rounds sum to -31.25.
        assert value == pytest.approx(-31.25, abs=1e-12)

    def test_boundary_minimizer_is_the_clipped_point(self):
        # Diagonal curvature separates the coordinates, so the box solution
        # clips the unconstrained one: (10, -1/3) -> (2, -1/3).
        problem = QuadraticProblem(np.diag([2.0, 3.0]), [-20.0, 1.0])
        region = box_region(-2.0, 2.0, 2)
        trace = run_online(problem, "adam", HyperParams(alpha=0.1),
                           region, 4, seed=0)
        x_star, _ = best_in_hindsight(problem, region, trace)
        npt.assert_allclose(x_star, [2.0, -1.0 / 3.0], atol=1e-8)

    def test_softmax_point_satisfies_the_fixed_point_residual(self):
        data = synth_classification(seed=3, n_classes=2, n_features=2,
                                    n_samples=40, separation=1.0)
        problem = SoftmaxL2Problem(data, sigma1=0.05, sigma2=0.05,
                                   batch_size=8)
        region = box_region(-4.0, 4.0, problem.dim)
        trace = run_online(problem, "fastadabelief",
                           HyperParams(alpha=0.1, beta2_mode="sadam", delta=1.0),
                           region, 6, seed=0)
        x_star, value = best_in_hindsight(problem, region, trace)
        f_avg, g_avg, l_est = problem.prefix_objective(6, trace.seed)
        moved = region.project(x_star - g_avg(x_star) / l_est) - x_star
        assert float(np.max(np.abs(moved))) <= 1e-9
        assert value == pytest.approx(6.0 * f_avg(x_star), rel=1e-12)

    def test_upto_outside_the_horizon_is_rejected(self):
        problem = bowl()
        region = box_region(-1.0, 1.0, 1)
        trace = run_online(problem, "adam", HyperParams(), region, 3, seed=0)
        for upto in (0, 4):
            with pytest.raises(ValueError, match="upto"):
                best_in_hindsight(problem, region, trace, upto=upto)


class TestRegret:
    def test_three_round_regret_matches_the_hand_sum(self):
        # Losses 0.5 + 0.28125 + 0.158203125 against a hindsight optimum
        # at 0 with value 0, so R(3) = 0.939453125 up to the solver's
        # residual (1e-10 in x, second order in the value).
        problem = bowl(x0=[1.0])
        region = box_region(-10.0, 10.0, 1)
        trace = run_online(problem, "sgd_momentum",
                           HyperParams(alpha=0.25, beta1=0.0),
                           region, 3, seed=0)
        report = compute_regret(problem, region, trace, checkpoints=[1, 2, 3])
        npt.assert_allclose(report.regret, [0.5, 0.78125, 0.939453125],
                            rtol=0, atol=1e-15)
        assert abs(report.hindsight_x_star[0]) <= 1e-9
        assert report.log_fit is None and report.sqrt_fit is None
        npt.assert_allclose(report.ratio,
                            report.regret / np.array([1.0, 2.0, 3.0]),
                            rtol=0, atol=0)

    def test_stationary_run_has_zero_regret(self):
        problem = bowl(dim=2)
        region = box_region(-1.0, 1.0, 2)
        trace = run_online(problem, "fastadabelief",
                           HyperParams(alpha=0.1, beta2_mode="sadam"),
                           region, 6, seed=0)
        report = compute_regret(problem, region, trace, checkpoints=[2, 6])
        npt.assert_allclose(report.regret, [0.0, 0.0], atol=1e-15)

    def test_truncated_trace_reproduces_the_prefix_values(self):
        problem = QuadraticProblem(np.diag([1.0, 3.0]), [0.2, -0.4],
                                   x0=[1.0, -1.0])
        region = box_region(-2.0, 2.0, 2)
        hp = HyperParams(alpha=0.02, beta2_mode="sadam")
        trace = run_online(problem, "fastadabelief", hp, region, 64, seed=5)
        full = compute_regret(problem, region, trace,
                              checkpoints=[8, 16, 32, 64])
        part = compute_regret(problem, region, trace.truncate(16),
                              checkpoints=[8, 16])
        npt.assert_array_equal(part.regret, full.regret[:2])
        assert part.checkpoints == [8, 16]

    def test_horizon_checkpoint_is_appended_when_missing(self):
        problem = bowl(x0=[1.0])
        region = box_region(-2.0, 2.0, 1)
        trace = run_online(problem, "adam", HyperParams(alpha=0.1),
                           region, 5, seed=0)
        report = compute_regret(problem, region, trace, checkpoints=[1, 2])
        assert report.checkpoints == [1, 2, 5]
        # An empty list is the horizon alone.
        report = compute_regret(problem, region, trace, checkpoints=[])
        assert report.checkpoints == [5]
        assert report.regret[0] == compute_regret(problem, region, trace,
                                                  checkpoints=[5]).regret[0]

    def test_checkpoints_outside_the_horizon_are_rejected(self):
        problem = bowl(x0=[1.0])
        region = box_region(-2.0, 2.0, 1)
        trace = run_online(problem, "adam", HyperParams(alpha=0.1),
                           region, 5, seed=0)
        for bad in ([0, 5], [1, 6]):
            with pytest.raises(ValueError, match="checkpoints"):
                compute_regret(problem, region, trace, checkpoints=bad)


class TestCheckpointGrid:
    def test_doubles_from_128_and_caps_at_the_horizon(self):
        assert checkpoint_grid(16384) == [128, 256, 512, 1024, 2048, 4096,
                                          8192, 16384]
        assert checkpoint_grid(5000) == [128, 256, 512, 1024, 2048, 4096, 5000]
        assert checkpoint_grid(300) == [128, 256, 300]

    def test_short_horizons_collapse_to_a_single_point(self):
        assert checkpoint_grid(100) == [100]
        assert checkpoint_grid(1) == [1]

    def test_exact_power_has_no_duplicate_tail(self):
        assert checkpoint_grid(128) == [128]

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            checkpoint_grid(0)


class TestGrowthFits:
    def test_exact_log_data_gives_a_perfect_log_fit(self):
        t = np.array([128.0, 256.0, 512.0, 1024.0, 2048.0])
        y = 2.0 + 3.0 * np.log(t)
        log_fit, sqrt_fit = fit_growth(t, y)
        assert log_fit.r_squared > 1.0 - 1e-12
        assert log_fit.slope == pytest.approx(3.0, rel=1e-9)
        assert log_fit.intercept == pytest.approx(2.0, rel=1e-9)
        assert sqrt_fit.r_squared < log_fit.r_squared

    def test_exact_sqrt_data_goes_the_other_way(self):
        t = np.array([128.0, 256.0, 512.0, 1024.0, 2048.0])
        y = -1.0 + 0.5 * np.sqrt(t)
        log_fit, sqrt_fit = fit_growth(t, y)
        assert sqrt_fit.r_squared > 1.0 - 1e-12
        assert sqrt_fit.r_squared > log_fit.r_squared

    def test_constant_series_counts_as_a_perfect_fit(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        log_fit, sqrt_fit = fit_growth(t, np.full(4, 5.0))
        assert log_fit.r_squared == 1.0
        assert sqrt_fit.r_squared == 1.0

    @pytest.mark.parametrize("value", [0.1, -3.3, 7.7, 1e-300, 1e308])
    def test_a_constant_series_of_any_length_is_an_exact_fit(self, value):
        # The plain mean of [0.1] * 6 is not 0.1: centered on it, the series
        # has nonzero deviations and an R^2 of -1.33.
        for n in range(4, 41):
            for fit in fit_growth(np.arange(1.0, n + 1), np.full(n, value)):
                assert (fit.intercept, fit.slope, fit.r_squared) == (value, 0.0, 1.0), n

    @pytest.mark.parametrize("regret", [[1e308] * 4, [1e160, 2e160, 3e160, 4e160]],
                             ids=["1e308", "1e160"])
    def test_regrets_too_large_to_square_give_finite_fits(self, regret):
        for fit in fit_growth([128, 256, 512, 1024], regret):
            assert math.isfinite(fit.intercept) and math.isfinite(fit.slope)
            assert 0.0 <= fit.r_squared <= 1.0

    def test_the_fits_of_the_largest_regrets_by_value(self):
        for fit in fit_growth([128, 256, 512, 1024], [1e308] * 4):
            assert (fit.intercept, fit.slope, fit.r_squared) == (1e308, 0.0, 1.0)
        _, sqrt_fit = fit_growth([128, 256, 512, 1024], [1e160, 2e160, 3e160, 4e160])
        assert sqrt_fit.r_squared == pytest.approx(0.9771236166328253, rel=1e-12)

    def test_a_regressor_without_spread_is_degenerate(self):
        # Four neighbouring floats near 1e300 share one log.
        t = [1e300]
        for _ in range(3):
            t.append(float(np.nextafter(t[-1], np.inf)))
        with pytest.raises(ValueError, match="degenerate design matrix"):
            fit_growth(t, [1.0, 2.0, 3.0, 4.0])

    @settings(max_examples=300, deadline=None, database=None)
    @given(t=st.lists(st.integers(1, 10**6), min_size=4, max_size=12, unique=True).map(sorted),
           data=st.data(), k=st.integers(-256, 256))
    def test_scaling_the_regret_by_a_power_of_two_scales_the_fit_exactly(self, t, data, k):
        # Nonzero |y| and |y * 2^k| within [2^-512, 2^512] keep every sum,
        # slope and intercept of both fits normal, so both fits compute on
        # the same scaled series and differ only in the final power of two.
        magnitude = st.floats(2.0 ** -256, 2.0 ** 256)
        value = st.one_of(st.just(0.0), magnitude, magnitude.map(float.__neg__))
        y = np.array(data.draw(st.lists(value, min_size=len(t), max_size=len(t))))
        assume(np.any(y != 0))
        for fit, scaled in zip(fit_growth(t, y), fit_growth(t, np.ldexp(y, k))):
            assert scaled.r_squared.hex() == fit.r_squared.hex()
            assert scaled.slope.hex() == math.ldexp(fit.slope, k).hex()
            assert scaled.intercept.hex() == math.ldexp(fit.intercept, k).hex()

    def test_model_labels(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        log_fit, sqrt_fit = fit_growth(t, t)
        assert log_fit.model == "log"
        assert sqrt_fit.model == "sqrt"

    def test_too_few_points_is_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_growth([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_non_increasing_checkpoints_are_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            fit_growth([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            fit_growth([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


class TestBound:
    def base(self, **kw):
        args = dict(n=1, horizon=1, d_inf=2.0, g_inf=0.0, r=1.0,
                    sum_g_norms=1.0, alpha=1.0, beta1=0.0, lam=1.0, delta=1.0)
        args.update(kw)
        return BoundConstants(**args)

    def test_momentum_free_budget_by_hand(self):
        # With T=1 the log term drops out: 1*1*4/2 + (2+1)/2 = 3.5.
        assert theoretical_bound(self.base()) == 3.5

    def test_log_term_by_hand(self):
        # Same constants at T=4 add 1*1*ln(4)*1 to the 3.5 above.
        assert theoretical_bound(self.base(horizon=4)) == pytest.approx(
            4.886294361119891, abs=0)

    def test_momentum_term_by_hand(self):
        # n=1, D=1, G=1, beta1=lam=0.5: terms are 1 + 0 + 6 + 2.
        c = self.base(d_inf=1.0, g_inf=1.0, beta1=0.5, lam=0.5)
        assert theoretical_bound(c) == 9.0

    def test_the_s_terms_are_zero_without_gradients(self):
        # alpha*r^2*log(T)/(1-beta1)^2 overflows at r = 1e154; times S = 0
        # that would be nan.  With S > 0 the terms keep their expressions.
        c = self.base(horizon=10, r=1e154, sum_g_norms=0.0)
        assert budget_terms(c) == (2.0, 0.0, 0.0, 0.0)
        assert budget_terms(self.base(horizon=10, r=1e154))[1:3] == (math.inf, math.inf)

    def test_flat_momentum_schedule_has_no_finite_budget(self):
        with pytest.raises(ValueError, match="lam = 1"):
            theoretical_bound(self.base(beta1=0.5, lam=1.0))

    def test_beta1_at_one_is_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            theoretical_bound(self.base(beta1=1.0))

    def test_negative_constants_are_rejected(self):
        with pytest.raises(ValueError, match="r must be"):
            self.base(r=-1.0)
        with pytest.raises(ValueError, match="d_inf"):
            self.base(d_inf=math.inf)

    def test_an_overflowed_s_is_an_infinite_budget(self):
        assert theoretical_bound(self.base(sum_g_norms=math.inf)) == math.inf
        for bad in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="sum_g_norms must be nonnegative"):
                self.base(sum_g_norms=bad)

    @pytest.mark.parametrize("schedule, leaves", [(None, None), ("inverse_t", None),
                                                  ("constant", "schedule"),
                                                  ("inverse_sqrt_t", "schedule")])
    def test_the_domain_needs_the_alpha_over_t_schedule(self, schedule, leaves):
        hp = HyperParams(alpha=0.01, lam=0.999, delta=0.1, step_schedule=schedule)
        assert budget_domain(1, 2.0, 10, hp) == leaves

    @pytest.mark.parametrize("delta", [1.0, 1e154, 1e155, 1e200, 1e-300, 1e-307, 1e-310,
                                       5e-324])
    @pytest.mark.parametrize("horizon", [1, 10, 200])
    def test_the_domain_is_where_a_zero_gradient_budget_evaluates(self, delta, horizon):
        # An all-zero gradient history gives the largest r a delta and a
        # horizon allow.  Its S is 0, which zeroes the two S terms, the only
        # ones that square r and delta, so that r is paired with S = 1, as a
        # history with gradients just above zero has it.  Outside the domain
        # the budget raises OverflowError from a float square, or the
        # divisor delta/t underflows to zero.
        hp = HyperParams(alpha=0.01, lam=0.999, delta=delta)
        trace = make_trace("fastadabelief", np.zeros((horizon, 2)), hp=hp)
        region = box_region(-1.0, 1.0, 2)
        try:
            theoretical_bound(replace(measure_constants(trace, region), sum_g_norms=1.0))
            evaluates = True
        except (OverflowError, ValueError):
            evaluates = False
        leaves = budget_domain(region.dim, region.diameter_inf, horizon, hp)
        assert (leaves is None) == evaluates
        assert leaves in (None, "delta" if delta > 1 else "r")

    @pytest.mark.parametrize("d_inf, leaves", [(1e154, None), (2e154, "D_inf"),
                                               (math.inf, "D_inf")])
    def test_the_domain_bounds_the_region_diameter(self, d_inf, leaves):
        # Without momentum the zero-gradient budget is delta*D_inf^2/(2*alpha),
        # finite for every D_inf whose square is.
        hp = HyperParams(alpha=1.0, beta1=0.0, lam=0.999, delta=0.1)
        assert budget_domain(1, d_inf, 10, hp) == leaves

    @pytest.mark.parametrize("hp, leaves", [
        # n*delta*D_inf^2 = 4e354 overflows the first term.
        (HyperParams(alpha=0.01, lam=0.999, delta=1e154), "budget"),
        # 2*alpha*(1-beta1) underflows to zero, a divisor of the first term.
        (HyperParams(alpha=5e-324, lam=0.999, delta=0.1), "budget"),
        # (1-lam)^2, about 1e-32, takes the momentum term's divisor to zero.
        (HyperParams(alpha=1e-300, lam=1 - 1e-16, delta=0.1), "budget"),
        # At lam = 1 the momentum term is undefined, which the budget raises.
        (HyperParams(alpha=0.01, lam=1.0, delta=1e154), None),
        (HyperParams(alpha=0.01, lam=0.999, delta=0.1), None),
    ])
    def test_the_domain_needs_a_finite_zero_gradient_budget(self, hp, leaves):
        assert budget_domain(1, 2e100, 10, hp) == leaves


class TestMeasureConstants:
    @pytest.fixture()
    def trace_and_region(self):
        problem = QuadraticProblem(np.diag([1.0, 2.0]), [0.3, -0.7],
                                   x0=[1.0, 1.0])
        region = box_region(-2.0, 2.0, 2)
        hp = HyperParams(alpha=0.01, lam=0.999, beta2_mode="sadam", delta=0.1)
        trace = run_online(problem, "fastadabelief", hp, region, 30, seed=2)
        return trace, region

    def test_measured_values_match_their_definitions(self, trace_and_region):
        trace, region = trace_and_region
        c = measure_constants(trace, region)
        t = np.arange(1, 31, dtype=np.float64)[:, None]
        divisor = trace.s_hat + trace.hp.delta / t
        assert c.r == pytest.approx(1.0 / math.sqrt(divisor.min()), rel=1e-15)
        assert c.g_inf == np.max(np.abs(trace.g))
        expected_s = np.sum(np.sqrt(np.sum(trace.g ** 4, axis=0)))
        assert c.sum_g_norms == pytest.approx(expected_s, rel=1e-15)
        assert c.d_inf == 4.0
        assert c.n == 2 and c.horizon == 30

    def test_budget_dominates_a_short_run(self, trace_and_region):
        trace, region = trace_and_region
        problem = QuadraticProblem(np.diag([1.0, 2.0]), [0.3, -0.7],
                                   x0=[1.0, 1.0])
        report = compute_regret(problem, region, trace, checkpoints=[30])
        budget = theoretical_bound(measure_constants(trace, region))
        assert report.regret[-1] <= budget

    def test_zero_gradient_trace_measures_zero(self):
        problem = bowl(dim=2)
        region = box_region(-1.0, 1.0, 2)
        trace = run_online(problem, "fastadabelief",
                           HyperParams(alpha=0.1, lam=0.999,
                                       beta2_mode="sadam"),
                           region, 5, seed=0)
        c = measure_constants(trace, region)
        assert c.g_inf == 0.0
        assert c.sum_g_norms == 0.0
        assert math.isfinite(theoretical_bound(c))

    def test_gradients_whose_fourth_powers_overflow_measure_an_infinite_s(self):
        # 1e100^4 overflows; the tier-1 settings turn the RuntimeWarning
        # numpy would print into a failure.
        hp = HyperParams(alpha=0.01, lam=0.999, delta=0.1)
        trace = make_trace("fastadabelief", np.ones((3, 2)), g=np.full((3, 2), 1e100), hp=hp)
        c = measure_constants(trace, box_region(-1.0, 1.0, 2))
        assert c.sum_g_norms == math.inf
        assert theoretical_bound(c) == math.inf


class TestCondition4:
    def s_ramp(self):
        hp = HyperParams(alpha=0.01, beta1=0.9)
        return make_trace("fastadabelief", [[0.01], [0.02], [0.03]], hp=hp)

    def test_increments_match_the_hand_values(self):
        res = check_condition4(self.s_ramp(), sigma=240.0)
        expected = [10.0, 18.284271247461902, 23.677252979604418]
        npt.assert_allclose(res.lhs_min, expected, rtol=1e-14)
        npt.assert_allclose(res.lhs_max, expected, rtol=1e-14)

    def test_band_verdict_depends_on_sigma(self):
        # Upper edge is sigma*(1-beta1): 24.0 clears the largest increment
        # 23.677..., 18.0 does not.
        assert check_condition4(self.s_ramp(), sigma=240.0).passed
        res = check_condition4(self.s_ramp(), sigma=180.0)
        assert not res.passed
        assert res.upper == pytest.approx(18.0, rel=1e-14)

    def test_collapsing_second_moment_fails_the_lower_edge(self):
        trace = make_trace("fastadabelief", [[0.01], [0.0001]],
                           hp=HyperParams(alpha=0.01, beta1=0.9))
        res = check_condition4(trace, sigma=1e9)
        assert res.lhs_min[1] < 0.0
        assert not res.passed


class TestCondition3:
    def sadam_trace(self):
        beta2 = np.array([1.0 - 0.9 / t for t in (1, 2, 3)])
        return make_trace("fastadabelief", np.zeros((3, 1)),
                          g=np.ones((3, 1)), beta2=beta2,
                          hp=HyperParams(alpha=0.01))

    def test_constant_gradient_zeta_series_by_hand(self):
        # W follows 0.9, 0.945, 0.9615 and zeta_t = sqrt(t)/((t/a)*sqrt(W_t)).
        res = check_condition3(self.sadam_trace())
        npt.assert_allclose(res.zeta_series,
                            [0.010540925533894598, 0.007273929674533081,
                             0.005887958337896271], rtol=1e-15)
        assert res.zeta == pytest.approx(0.010540925533894598, abs=0)

    def test_zero_history_contributes_zero(self):
        trace = make_trace("adam", np.zeros((4, 1)), g=np.zeros((4, 1)))
        res = check_condition3(trace)
        npt.assert_array_equal(res.zeta_series, np.zeros(4))
        assert res.zeta == 0.0

    def test_degenerate_weighting_forces_infinity(self):
        # beta2 pinned at 1 never admits gradient mass, so no finite zeta
        # satisfies the lower bound once gradients are nonzero.
        trace = make_trace("adam", np.zeros((2, 1)), g=np.ones((2, 1)),
                           beta2=np.ones(2))
        assert check_condition3(trace).zeta == math.inf

    @staticmethod
    def per_step_zeta(trace):
        """The definition step by step: W and the gradient sums as running
        vectors, one ratio row per t."""
        w = np.zeros(trace.g.shape[1])
        g2_sum = np.zeros_like(w)
        series = []
        for t in range(1, trace.horizon + 1):
            b2 = trace.beta2[t - 1]
            g2 = trace.g[t - 1] ** 2
            w = b2 * w + (1.0 - b2) * g2
            g2_sum += g2
            lhs = t / trace.hp.alpha * np.sqrt(w)
            rhs = np.sqrt(g2_sum)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = rhs / lhs
            ratio = np.where(rhs == 0.0, 0.0, ratio)
            ratio = np.where((lhs == 0.0) & (rhs > 0.0), np.inf, ratio)
            series.append(ratio.max())
        return np.array(series)

    def test_matches_the_per_step_definition_bit_for_bit(self):
        # 2,500 steps, all in the one vectorized pass.  Coordinate
        # 0 stays zero until step 40, coordinate 1 is zero throughout, and
        # beta2 = 1 at step 1 leaves W = 0 under a nonzero gradient there
        # (ratio inf).
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2500, 4)) * np.exp(rng.uniform(-20, 5, (2500, 4)))
        g[:40, 0] = 0.0
        g[:, 1] = 0.0
        beta2 = 1.0 - rng.uniform(1e-4, 0.5, 2500)
        beta2[0] = 1.0
        trace = make_trace("adam", np.zeros((2500, 4)), g=g, beta2=beta2,
                           hp=HyperParams(alpha=0.003))
        res = check_condition3(trace)
        npt.assert_array_equal(res.zeta_series, self.per_step_zeta(trace))
        assert res.zeta == res.zeta_series.max()


class TestGammaSeries:
    def test_max_rules_weight_by_the_running_maximum(self):
        # s collapses but s_hat holds the peak, so the belief rules keep a
        # nonnegative weight increment where a plain average would not.
        s = [[0.04], [0.01]]
        alpha = [0.01, 0.005]
        for kind in ("adabelief", "fastadabelief"):
            series = gamma_series(make_trace(kind, s, alpha=alpha))
            npt.assert_allclose(series, [4.0, 4.0], rtol=1e-14)

    def test_average_rules_weight_by_s_itself(self):
        series = gamma_series(make_trace("adam", [[0.04], [0.01]],
                                         alpha=[0.01, 0.005]))
        npt.assert_allclose(series, [4.0, -2.0], rtol=1e-14)
        assert check_gamma_psd(make_trace("adam", [[0.04], [0.01]],
                                          alpha=[0.01, 0.005])) < 0.0

    def test_first_entry_is_the_increment_from_zero(self):
        series = gamma_series(make_trace("adam", [[0.02]], alpha=[0.01]))
        npt.assert_allclose(series, [2.0], rtol=1e-14)

    def test_real_run_has_nonnegative_increments(self):
        problem = QuadraticProblem(np.diag([1.0, 2.0]), [0.3, -0.7],
                                   x0=[1.0, -1.0])
        region = box_region(-2.0, 2.0, 2)
        hp = HyperParams(alpha=0.01, beta2_mode="sadam", delta=0.1)
        for seed in (0, 1):
            trace = run_online(problem, "fastadabelief", hp, region, 200, seed)
            assert check_gamma_psd(trace) >= 0.0

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("kind", ["adabelief", "fastadabelief"])
    @settings(max_examples=60, deadline=None, database=None)
    @given(grads=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
                            elements=st.floats(-1e6, 1e6)),
           alpha=st.floats(1e-4, 1.0), beta2_mode=st.sampled_from(BETA2_MODES))
    def test_running_max_rules_stay_nonnegative_on_any_stream(
            self, kind, schedule, grads, alpha, beta2_mode):
        class Scripted:
            """Serves the drawn gradient stream whatever the iterate."""
            kind = "quadratic"
            sigma = 1.0
            dim = grads.shape[1]

            def initial_point(self, region, seed):
                return np.zeros(self.dim)

            def lanes_grad(self, xs, t, seed, out):
                out[:] = grads[t - 1]
                return out

            def lanes_losses(self, xs, first, seed):
                return np.zeros(xs.shape[:2])

        hp = HyperParams(alpha=alpha, step_schedule=schedule, beta2_mode=beta2_mode)
        trace = run_online(Scripted(), kind, hp, box_region(-1e9, 1e9, grads.shape[1]),
                           len(grads), seed=0)
        npt.assert_array_equal(trace.g, grads)
        assert (gamma_series(trace) >= 0.0).all()


class TestScenariosAndProbeTable:
    def test_scripts_have_the_advertised_shapes(self):
        scripts = region_scenarios()
        assert set(scripts) == {"region1", "region2", "region3"}
        npt.assert_array_equal(scripts["region1"], np.full(1000, 1e-3))
        npt.assert_array_equal(scripts["region2"], [1, -1] * 500)
        npt.assert_array_equal(scripts["region3"], np.ones(1000))

    def test_table_covers_regions_kinds_and_steps(self):
        rows = region_stepsize_table()
        assert len(rows) == 3 * 5 * 3
        kinds = {r[1] for r in rows}
        assert kinds == {"sgd_momentum", "adam", "sadam", "adabelief",
                         "fastadabelief"}
        assert {r[2] for r in rows} == {10, 100, 1000}

    def test_steady_descent_row_values(self):
        # Constant unit gradients for ten steps, alpha=0.01, delta=0.1.
        rows = {(r[0], r[1]): r for r in region_stepsize_table() if r[2] == 10}
        region3 = {k[1]: v for k, v in rows.items() if k[0] == "region3"}
        assert region3["sgd_momentum"][5] == pytest.approx(
            0.06513215599000001, rel=1e-12)
        assert region3["fastadabelief"][3] == pytest.approx(
            6.513215598999998e-1, rel=1e-12)  # m column
        assert region3["fastadabelief"][5] == pytest.approx(
            0.0010327630286486227, rel=1e-12)
        assert region3["sadam"][5] == pytest.approx(
            0.0006523572932963387, rel=1e-12)
        assert region3["adam"][5] == pytest.approx(
            0.020642971320370497, rel=1e-12)
        assert region3["adabelief"][5] == pytest.approx(
            0.03376034531636645, rel=1e-12)

    def test_table_equals_a_one_lane_loop_bit_for_bit(self):
        # The table runs each rule's three scripts as three lanes of its
        # kernel; every row must equal a loop of step over one (1,) lane.
        t_values = (10, 100, 1000)
        rows = region_stepsize_table()
        assert len(rows) == 3 * len(PROBE_KINDS) * len(t_values)
        wide = box_region(-1e18, 1e18, 1)
        want = []
        for name, script in region_scenarios().items():
            for kind in PROBE_KINDS:
                hp = _probe_hyperparams(kind)
                b1, b2 = step_betas(kind, hp, 1000)
                x = m = s = s_hat = np.zeros(1)
                for t in range(1, 1001):
                    a_t = scheduled_alpha(kind, hp, hp.alpha, t)
                    x, m, s, s_hat, _, _ = step(kind, hp, t, a_t, b1[t - 1], b2[t - 1],
                                                np.array([script[t - 1]]), x, m, s, s_hat,
                                                wide)
                    if t in t_values:
                        d = stepsize_probe(kind, m, s, t, hp)
                        want.append((name, kind, t, float(m[0]), float(s[0]),
                                     float(np.abs(d[0]))))
        assert [r[:3] for r in rows] == [w[:3] for w in want]
        for got, expected in zip(rows, want):
            assert np.array(got[3:]).tobytes() == np.array(expected[3:]).tobytes(), got[:3]

    def test_linear_divisor_displacement_shrinks_with_t(self):
        rows = region_stepsize_table()
        fab = sorted((r[2], r[5]) for r in rows
                     if r[0] == "region3" and r[1] == "fastadabelief")
        deltas = [d for _, d in fab]
        assert deltas[0] > deltas[1] > deltas[2]
