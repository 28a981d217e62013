"""Summaries of the study results."""

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

# two tracks of 40 points on a small grid; the coarsest level sets the
# fine tracks to 39 x 0.1 time units
TINY = Scenario2Config(
    n_tracks=2, n_points=40, levels=(0.05, 0.1), seed=2,
    grid_x_min=-20, grid_y_min=-20, grid_n_x=41, grid_n_y=41, rho=4.0,
)


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
