"""Summaries of the study results."""

import math
from dataclasses import replace

import numpy as np
import pytest

from langmove import experiments
from langmove.experiments import (
    IrregularConfig,
    Scenario1Config,
    Scenario1Result,
    Scenario2Config,
    run_irregular,
    run_scenario2,
    scenario2_tracks,
)
from langmove.langevin import thin_irregular
from langmove.seeding import derive_seed

# two tracks of 40 points on a small grid; the coarsest level sets the
# fine tracks to 39 x 0.1 time units
TINY = Scenario2Config(
    n_tracks=2, n_points=40, levels=(0.05, 0.1), seed=2,
    grid_x_min=-20, grid_y_min=-20, grid_n_x=41, grid_n_y=41, rho=4.0,
)


class TestConfigs:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n_points": 1}, "n_points must be >= 2, got 1"),
            ({"grid_n": 1}, "grid_n must be >= 2, got 1"),
            ({"replications": 0}, "replications must be >= 1, got 0"),
            ({"fine_dt": 0.0}, "fine_dt must be positive and finite, got 0.0"),
            ({"fine_dt": math.nan}, "fine_dt must be positive and finite, got nan"),
            ({"thin_interval": math.inf}, "interval inf is not a multiple of fine_dt 0.01"),
            ({"thin_interval": math.nan}, "interval nan is not a multiple of fine_dt 0.01"),
            # a float count failed later, in range() or np.empty, and a bad
            # seed in numpy's SeedSequence, naming no setting
            ({"replications": 2.5}, "replications must be an integer, got 2.5"),
            ({"n_points": 3.0}, "n_points must be an integer, got 3.0"),
            ({"grid_n": True}, "grid_n must be an integer, got True"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            # run_scenario1 failed later, naming the derived cell_size or grid origin
            *(
                ({"grid_half_width": v}, f"grid_half_width must be positive and finite, got {v}")
                for v in (-1.0, 0.0, math.nan, math.inf)
            ),
        ],
        ids=[
            "n_points-got 1 and 8", "grid_n-got 300 and 1", "replications-got 0", "fine_dt-0", "fine_dt-nan",
            "thin_interval-inf", "thin_interval-nan", "replications-2.5", "n_points-3.0", "grid_n-True",
            "seed--3", "seed-1.5", "grid_half_width--1.0", "grid_half_width-0.0", "grid_half_width-nan",
            "grid_half_width-inf",
        ],
    )
    def test_scenario1_rejects_degenerate_fields(self, changes, message):
        with pytest.raises(ValueError, match=message):
            Scenario1Config(**changes)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n_points": 1}, "n_points must be >= 2, got 1"),
            ({"levels": ()}, "levels must not be empty"),
            ({"n_tracks": 0}, "n_tracks must be >= 1, got 0"),
            ({"fine_dt": -0.01}, "fine_dt must be positive and finite, got -0.01"),
            ({"fine_dt": math.inf}, "fine_dt must be positive and finite, got inf"),
            ({"levels": (0.05, math.inf)}, "interval inf is not a multiple of fine_dt 0.01"),
            ({"levels": (math.nan,)}, "interval nan is not a multiple of fine_dt 0.01"),
            ({"levels": (0.055,)}, "interval 0.055 is not a multiple of fine_dt 0.01"),
            ({"n_tracks": 1.5}, "n_tracks must be an integer, got 1.5"),
            ({"n_points": 2.5}, "n_points must be an integer, got 2.5"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
            # a margin over half the span (50 on the default grid, 20 on
            # TINY's) left no start point, and failed in numpy after both
            # fields were generated
            ({"start_margin": 60.0}, r"start_margin must be in \[0, half the grid's span\], got 60.0"),
            ({"start_margin": -1.0}, r"start_margin must be in \[0, half the grid's span\], got -1.0"),
            ({"start_margin": math.nan}, r"start_margin must be in \[0, half the grid's span\], got nan"),
            ({"start_margin": math.inf}, r"start_margin must be in \[0, half the grid's span\], got inf"),
        ],
    )
    def test_scenario2_rejects_degenerate_fields(self, changes, message):
        with pytest.raises(ValueError, match=message):
            Scenario2Config(**changes)
        with pytest.raises(ValueError, match=message):
            replace(TINY, **changes)

    @pytest.mark.parametrize(
        "config, changes, message",
        [
            # the settings a config passes on to its model and simulations were
            # built unchecked, and failed only when the study ran
            (Scenario1Config(), {"beta": (1.0, 2.0)}, "beta has 2 entries for 3 covariates"),
            (Scenario1Config(), {"gamma2": 0.0}, "gamma2 must be positive and finite, got 0.0"),
            (Scenario1Config(), {"x0": (math.nan, 0.0)}, r"x0 must be finite, got \(nan, 0.0\)"),
            (Scenario1Config(), {"second_sine_axis": "z3"}, "second_sine_axis must be 'z1' or 'z2', got 'z3'"),
            (TINY, {"rho": -1.0}, "rho must be positive and finite, got -1.0"),
            (TINY, {"gamma2": -1.0}, "gamma2 must be positive and finite, got -1.0"),
            (TINY, {"gamma2": math.nan}, "gamma2 must be positive and finite, got nan"),
            (TINY, {"beta": (1.0,)}, r"beta must hold two numbers, got \(1.0,\)"),
            (TINY, {"beta": (1.0, math.inf)}, r"beta must be finite, got \(1.0, inf\)"),
        ],
        ids=[
            "scenario1-beta-length", "scenario1-gamma2-0", "scenario1-x0-nan", "scenario1-second_sine_axis",
            "scenario2-rho", "scenario2-gamma2-negative", "scenario2-gamma2-nan", "scenario2-beta-length",
            "scenario2-beta-inf",
        ],
    )
    def test_settings_passed_on_are_checked_at_build(self, config, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(config, **changes)

    @pytest.mark.parametrize("seed", [None, True])
    def test_scenario2_seed_must_be_an_integer(self, seed):
        # the field specs derive their seeds from it; a None seed would draw fresh entropy
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            replace(TINY, seed=seed)

    @pytest.mark.parametrize(
        "mean_intervals, message",
        [
            ((0.05, math.inf), "interval inf is not a multiple of fine_dt 0.01"),
            ((math.nan,), "interval nan is not a multiple of fine_dt 0.01"),
            ((0.055,), "interval 0.055 is not a multiple of fine_dt 0.01"),
        ],
    )
    def test_irregular_rejects_degenerate_intervals(self, mean_intervals, message):
        with pytest.raises(ValueError, match=message):
            IrregularConfig(TINY, mean_intervals)

    def test_repeated_intervals_rejected(self):
        # a repeated level or mean interval would give two identical table
        # rows but one manifest entry
        with pytest.raises(ValueError, match=r"^repeated levels: 0.05$"):
            replace(TINY, levels=(0.05, 0.1, 0.05))
        with pytest.raises(ValueError, match=r"^repeated mean_intervals: 0.1$"):
            IrregularConfig(TINY, (0.1, 0.05, 0.1))

    def test_start_margin_of_half_the_span_starts_every_track_at_the_centre(self):
        # TINY's grid spans [-20, 20] on both axes
        with pytest.raises(ValueError, match="start_margin"):
            replace(TINY, start_margin=20.5)
        sims = scenario2_tracks(replace(TINY, start_margin=20.0))
        assert [tuple(sim.track.xy[0]) for sim in sims] == [(0.0, 0.0)] * TINY.n_tracks

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1, math.nan])
    def test_alpha_outside_the_open_interval_rejected(self, alpha):
        # the rule fit applies, checked before any track is simulated
        message = rf"^alpha must be in \(0, 0.5\), got {alpha}$"
        with pytest.raises(ValueError, match=message):
            Scenario1Config(alpha=alpha)
        with pytest.raises(ValueError, match=message):
            replace(TINY, alpha=alpha)


class TestScenario1Result:
    @pytest.mark.parametrize("mode", ["discretised", "Analytic", ""])
    def test_unknown_mode_rejected(self, mode):
        estimates = np.array([[-1.0, 0.5, -0.05, 1.0]])
        result = Scenario1Result(Scenario1Config(replications=1), estimates, estimates)
        with pytest.raises(ValueError, match="mode must be"):
            result.medians(mode)
        with pytest.raises(ValueError, match="mode must be"):
            result.sign_correct_fraction(mode)

    def test_mode_with_no_success_gives_nan_without_warning(self):
        nan = np.full((2, 4), np.nan)
        result = Scenario1Result(Scenario1Config(replications=2), nan, nan)
        # the suite turns warnings into errors, so numpy's
        # "Mean of empty slice" would fail this test
        assert np.isnan(result.medians("analytic")).all()
        assert result.medians("analytic").shape == (4,)
        assert np.isnan(result.sign_correct_fraction("discretized"))


def run_study(study, cfg, sims):
    if study == "scenario2":
        return run_scenario2(cfg, sims)
    return run_irregular(IrregularConfig(base=cfg, mean_intervals=(0.05,)), sims)


@pytest.fixture
def no_fits(monkeypatch):
    """Make every fit fail, so a check must come before the first one."""

    def fail(*args, **kwargs):
        raise AssertionError("fitted")

    monkeypatch.setattr(experiments, "fit", fail)


class TestGivenSims:
    @pytest.mark.parametrize("study", ["scenario2", "irregular"])
    def test_reuses_the_model_of_the_sims(self, study, monkeypatch):
        sims = scenario2_tracks(TINY)
        expected = run_study(study, TINY, None)

        def no_fields(*args, **kwargs):
            raise AssertionError("a field was generated again")

        monkeypatch.setattr(experiments, "generate_random_field", no_fields)
        result = run_study(study, TINY, sims)
        assert result.to_rows() == expected.to_rows()

    @pytest.mark.parametrize("study", ["scenario2", "irregular"])
    def test_sims_of_two_models_rejected(self, study, no_fits):
        sims = scenario2_tracks(TINY)[:1] + scenario2_tracks(TINY)[1:]
        with pytest.raises(ValueError, match="the sims must come from one model, not 2"):
            run_study(study, TINY, sims)

    @pytest.mark.parametrize("study", ["scenario2", "irregular"])
    def test_sims_at_another_step_rejected(self, study, no_fits):
        # simulated at dt = 0.02, twice as long: long enough for every level
        sims = scenario2_tracks(replace(TINY, fine_dt=0.02, levels=(0.1, 0.2)))
        with pytest.raises(ValueError, match="sim 0 was simulated at dt=0.02, not at fine_dt=0.01"):
            run_study(study, TINY, sims)

    def test_sims_too_short_for_a_level_rejected(self, no_fits):
        # long enough for level 0.05 only: thinned to 0.1 they keep 20 points
        sims = scenario2_tracks(replace(TINY, levels=(0.05,)))
        with pytest.raises(ValueError, match="level 0.1 keeps 20 of 40 points of track 0"):
            run_scenario2(TINY, sims)


# tracks started at the grid's edge with a fast diffusion: they clamp often
CLAMPING = Scenario2Config(
    n_tracks=6, n_points=120, start_margin=0.0, gamma2=4.0, seed=3,
    grid_x_min=-20, grid_y_min=-20, grid_n_x=41, grid_n_y=41, rho=4.0,
)


def windows_with_a_clamp(sim, times):
    """Reference count: windows ``(t_i, t_{i+1}]`` of ``times`` holding a
    clamp time of ``sim``."""
    clamp_times = sim.track.times[list(sim.clamped)]
    return sum(any(a < c <= b for c in clamp_times) for a, b in zip(times, times[1:]))


class TestDroppedIncrements:
    """The studies count the increments their clamp masks drop: the count of
    windows of the thinned times that hold a clamp time, and the increments
    missing from each fit."""

    def test_scenario2(self):
        sims = scenario2_tracks(CLAMPING)
        result = run_scenario2(CLAMPING, sims)
        assert result.n_clamp_events == sum(s.n_clamped for s in sims) > 0
        for level, stride in zip(CLAMPING.levels, CLAMPING.strides()):
            expected = sum(
                windows_with_a_clamp(s, s.track.times[::stride][: CLAMPING.n_points]) for s in sims
            )
            assert result.dropped_increments[level] == expected
            full = CLAMPING.n_tracks * (CLAMPING.n_points - 1)
            assert result.fits[level].n == full - expected
        assert sum(result.dropped_increments.values()) > 0

    def test_irregular_takes_its_regular_scheme_from_scenario2(self):
        sims = scenario2_tracks(CLAMPING)
        cfg = IrregularConfig(base=CLAMPING, mean_intervals=(0.05, 0.5))
        result = run_irregular(cfg, sims)
        regular = run_scenario2(replace(CLAMPING, levels=cfg.mean_intervals), sims)
        for interval in cfg.mean_intervals:
            got, expected = result.regular[interval], regular.fits[interval]
            for name in ("beta_hat", "gamma2_hat", "n", "condition_number"):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(expected, name)).tobytes()
            assert result.dropped_increments[interval]["regular"] == regular.dropped_increments[interval]
        assert sum(regular.dropped_increments.values()) > 0

    def test_irregular(self):
        sims = scenario2_tracks(CLAMPING)
        cfg = IrregularConfig(base=CLAMPING, mean_intervals=(0.05, 0.5))
        result = run_irregular(cfg, sims)
        assert result.n_clamp_events == sum(s.n_clamped for s in sims)
        full = CLAMPING.n_tracks * (CLAMPING.n_points - 1)
        for k, interval in enumerate(cfg.mean_intervals):
            stride = round(interval / CLAMPING.fine_dt)
            regular = [s.track.times[::stride][: CLAMPING.n_points] for s in sims]
            irregular = []
            for i, s in enumerate(sims):
                keep = thin_irregular(s.track, interval, derive_seed(CLAMPING.seed, 3, k, i))
                irregular.append(s.track.times[keep][: CLAMPING.n_points])
            for scheme, times, fits in (
                ("regular", regular, result.regular), ("irregular", irregular, result.irregular)
            ):
                expected = sum(windows_with_a_clamp(s, t) for s, t in zip(sims, times))
                assert result.dropped_increments[interval][scheme] == expected
                assert fits[interval].n == full - expected
        assert result.dropped_increments[0.5]["irregular"] > 0
