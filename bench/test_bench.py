"""Tests of the benchmark itself, at tiny scale.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run

langmove = run.import_package()

import tracer  # noqa: E402  (needs the path set by import_package)
import workloads  # noqa: E402

TINY = {
    "study_raster": {"n_tracks": 2, "n_points": 20},
    "study_analytic": {"replications": 2, "n_points": 30},
    "analysis": {"n_tracks": 2, "n_fixes": 200, "ud_n": 21, "sim_steps": 500},
}


def tiny_run(name: str, tmp_path: Path, trace: bool) -> dict:
    workload = workloads.make(name, 7, **TINY[name])
    return run.run(langmove, workload, 0.0, trace, tmp_path)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=False)
    line = run.result_line(result, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, result["failures"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["metrics"]["ops_ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_prints_every_layer_metric_and_accounts_for_wall(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=True)
    line = run.result_line(result, trace=True)
    assert line["correct"], result["failures"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(run.PER_LAYER)
    m = result["metrics"]
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYER_NAMES)
    assert math.isclose(layers + m["trace.unattributed_s"], m["trace.wall_s"], rel_tol=1e-9)
    assert m["langevin.simulate.steps"] > 0 and m["covariates.gradient.points"] > 0
    assert m["seeding.streams"] > 0 and m["inference.fit.failed"] == 0


def test_instrument_restores_every_function(tmp_path):
    before = (
        langmove.langevin.simulate,
        langmove.experiments.simulate,
        langmove.covariates.RasterCovariate.gradient,
        langmove.covariates.interpolate_gradient,
    )
    tiny_run("study_raster", tmp_path, trace=True)
    after = (
        langmove.langevin.simulate,
        langmove.experiments.simulate,
        langmove.covariates.RasterCovariate.gradient,
        langmove.covariates.interpolate_gradient,
    )
    assert all(a is b for a, b in zip(before, after))


class _Allocates:
    """A pass that holds 40 MiB at its peak."""

    def run_pass(self):
        return float(np.ones(40 * 2**20 // 8).sum())


class _Raises:
    def run_pass(self):
        raise RuntimeError("boom")


def test_pass_peak_rss_sees_what_a_pass_allocates():
    peak, error = run.pass_peak_rss(_Allocates())
    assert error is None
    assert 40 <= peak / 2**20 < 60


def test_pass_peak_rss_reports_a_failing_pass():
    peak, error = run.pass_peak_rss(_Raises())
    assert peak is None and "boom" in error


def test_points_are_counted_from_the_argument_shape():
    assert tracer.count_points((None, (1.0, 2.0))) == 1
    assert tracer.count_points((None, np.zeros(2))) == 1
    assert tracer.count_points((None, np.zeros((5, 2)))) == 5
    assert tracer.count_points((None, [(0.0, 0.0)] * 3)) == 3


def _perturb_nu_hat(fit):
    @functools.wraps(fit)
    def corrupted(*args, **kwargs):
        res = fit(*args, **kwargs)
        return dataclasses.replace(res, nu_hat=res.nu_hat * (1.0 + 1e-6))

    return corrupted


def _unnormalize_ud(ud_raster):
    @functools.wraps(ud_raster)
    def corrupted(*args, **kwargs):
        res = ud_raster(*args, **kwargs)
        return type(res)(res.geom, res.values * 1.001)

    return corrupted


@pytest.mark.parametrize(
    "module, attr, corrupt",
    [("inference", "fit", _perturb_nu_hat), ("rsf", "ud_raster", _unnormalize_ud)],
)
def test_corrupted_output_trips_the_checks(module, attr, corrupt, tmp_path, monkeypatch):
    mod = getattr(langmove, module)
    monkeypatch.setattr(mod, attr, corrupt(getattr(mod, attr)))
    result = tiny_run("analysis", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"] < 1.0


def test_end_to_end_times_cancel_a_uniform_host_slowdown():
    from hostspeed import REF_NOMINAL_S

    def metrics(slowdown):
        records = [run.PassRecord(i, "off", 1.5 * slowdown, [], {}, {}, True) for i in range(3)]
        setups = [(0.2 * slowdown, 4)]
        refs = [REF_NOMINAL_S * slowdown] * 7
        return run.end_to_end_metrics(records, setups, refs, 2**20, workloads.Ops())[0]

    fast, slow = metrics(1.0), metrics(1.7)
    assert fast["wall_s"] == pytest.approx(1.5) and fast["setup_s"] == pytest.approx(0.05)
    assert slow == pytest.approx(fast)
