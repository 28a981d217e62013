"""Summaries of the study results."""

import numpy as np
import pytest

from langmove.experiments import Scenario1Config, Scenario1Result


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
