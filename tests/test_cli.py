"""Command-line surface: configs in, deterministic files out."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from langmove import (
    GridGeometry,
    generate_random_field,
    RandomFieldSpec,
    RasterCovariate,
    RsfModel,
    SimConfig,
    Track,
    read_ascii_grid,
    read_track_csv,
    simulate,
    thin_regular,
    write_ascii_grid,
    write_track_csv,
)
from langmove import cli
from langmove.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def reject_json_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def recorded_results(monkeypatch, name):
    """The list that collects what the study function ``cli.<name>`` returns."""
    results = []
    run = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda cfg: results.append(run(cfg)) or results[-1])
    return results


# a small random-field grid for the scenario-2 and irregular studies
TINY_RANDOM_FIELD = {
    "grid_n_x": 41,
    "grid_n_y": 41,
    "grid_x_min": -20,
    "grid_y_min": -20,
    "rho": 4.0,
}

# small configs of the three studies, and the table each writes
TINY_STUDIES = {
    "scenario1": {"replications": 3, "n_points": 60, "thin_interval": 0.1, "seed": 1},
    "scenario2": {
        "n_tracks": 2,
        "n_points": 40,
        "levels": [0.05, 0.1],
        "seed": 2,
        **TINY_RANDOM_FIELD,
    },
    "irregular": {
        "n_tracks": 2,
        "n_points": 40,
        # fine tracks of 39 x 0.2 time units: long enough for 40 random
        # gaps of mean 0.1 on every track
        "levels": [0.05, 0.2],
        "mean_intervals": [0.05, 0.1],
        "seed": 3,
        **TINY_RANDOM_FIELD,
    },
}
STUDY_TABLES = {
    "scenario1": "estimates.csv",
    "scenario2": "estimates_by_level.csv",
    "irregular": "comparison.csv",
}

SIM_CONFIG = {
    "model": {
        "covariates": [{"type": "squared_distance", "center": [0, 0]}],
        "beta": [-0.5],
        "gamma2": 1.0,
    },
    "x0": [0.0, 0.0],
    "dt": 0.01,
    "n_steps": 10,
    "seeds": [3, 4],
}
WAVELET = {"type": "wavelet", "alpha": 6, "a": [0, 0], "omega": [0.6, 0.2], "sigma": [0.4, 0.4]}
GRID = {"x_min": 0.5, "y_min": 0.5, "cell_size": 1.0, "n_x": 10, "n_y": 10}


def with_covariate(covariate):
    """``SIM_CONFIG`` with its model's one covariate replaced."""
    return {**SIM_CONFIG, "model": {**SIM_CONFIG["model"], "covariates": [covariate]}}


@pytest.fixture
def analytic_sim_config(tmp_path):
    return write_json(tmp_path / "sim.json", SIM_CONFIG)


class TestSimulateCommand:
    def test_row_count(self, tmp_path, analytic_sim_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", analytic_sim_config, "--out", str(out)]) == 0
        lines = (out / "track_3.csv").read_text().splitlines()
        assert len(lines) == 12  # header + 11 locations
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["clamp_counts"] == {"3": 0, "4": 0}
        assert manifest["seeds"] == [3, 4]
        assert manifest["fine_steps"] == 2 * 10  # two seeds of n_steps each

    def test_rerun_byte_identical(self, tmp_path, analytic_sim_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", analytic_sim_config, "--out", str(out1)])
        main(["simulate", "--config", analytic_sim_config, "--out", str(out2)])
        for name in ("track_3.csv", "track_4.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_two_raster_rerun_byte_identical(self, tmp_path):
        # two fields of one grid, which the drift sums into one table
        spec = {"x_min": -10, "y_min": -10, "cell_size": 1, "n_x": 21, "n_y": 21, "rho": 3}
        fields = {"fields": [spec | {"name": "c1", "seed": 1}, spec | {"name": "c2", "seed": 2}]}
        rasters = [{"type": "raster", "path": f"cov/{name}.asc"} for name in ("c1", "c2")]
        sim = SIM_CONFIG | {"model": {"covariates": rasters, "beta": [2.0, -3.0]}, "n_steps": 400}
        for run in ("a", "b"):
            main(["gen-cov", "--config", write_json(tmp_path / "fields.json", fields),
                  "--out", str(tmp_path / run / "cov")])
            sim_config = write_json(tmp_path / run / "sim.json", sim)
            assert main(["simulate", "--config", sim_config, "--out", str(tmp_path / run / "out")]) == 0
        a, b = tmp_path / "a" / "out", tmp_path / "b" / "out"
        for name in ("track_3.csv", "track_4.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert len((a / "track_3.csv").read_text().splitlines()) == 402

    def test_repeated_seed_rejected(self, tmp_path):
        # one track file per seed: a repeated seed would write one track for two
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG | {"seeds": [3, 4, 3]})
        with pytest.raises(ValueError, match="repeated seeds: 3"):
            main(["simulate", "--config", cfg, "--out", str(out)])
        assert not out.exists()

    def test_seed_override(self, tmp_path, analytic_sim_config):
        out = tmp_path / "out"
        main(["simulate", "--config", analytic_sim_config, "--out", str(out), "--seed", "9"])
        assert (out / "track_9.csv").exists()
        assert not (out / "track_3.csv").exists()


class TestFitCommand:
    def test_recovers_sign_on_random_field_track(self, tmp_path):
        # end-to-end: simulate on a generated field, fit through the CLI
        field = generate_random_field(
            RandomFieldSpec(x_min=-25, y_min=-25, cell_size=1.0, n_x=51, n_y=51, rho=5.0, seed=21)
        )
        write_ascii_grid(field, tmp_path / "c1.asc")
        model = RsfModel([RasterCovariate(field)], [3.0], gamma2=1.0)
        sim = simulate(SimConfig(model, (0.0, 0.0), 0.01, 20_000, seed=5))
        assert sim.n_clamped == 0
        keep = thin_regular(sim.track, 10)
        track = Track(sim.track.times[keep], sim.track.xy[keep])
        write_track_csv(track, tmp_path / "track.csv")
        covs = write_json(tmp_path / "covs.json", {"covariates": [{"type": "raster", "path": "c1.asc"}]})
        out = tmp_path / "fit"
        assert (
            main(["fit", "--tracks", str(tmp_path / "track.csv"), "--covariates", covs, "--out", str(out)])
            == 0
        )
        doc = json.loads((out / "fit.json").read_text())
        assert doc["alpha"] == 0.05
        assert doc["beta_hat"][0] > 0
        lo, hi = doc["ci_beta"][0]
        assert lo < hi
        g_lo, g_hi = doc["ci_gamma2"]
        assert g_lo < doc["gamma2_hat"] < g_hi
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config_sha256"] == doc["config_sha256"]
        assert manifest["outputs"] == ["fit.json", "fit.txt"]

    def test_four_covariate_output_shape(self, tmp_path):
        # mirrors a four-covariate coastal fit: 4 estimates + 4 intervals
        rng = np.random.default_rng(22)
        geom = GridGeometry(-20, -20, 2.0, 21, 21)
        paths = []
        covs = []
        from langmove import GridRaster

        for j in range(4):
            raster = GridRaster(geom, rng.normal(size=(21, 21)))
            write_ascii_grid(raster, tmp_path / f"c{j}.asc")
            paths.append({"type": "raster", "path": f"c{j}.asc"})
            covs.append(RasterCovariate(raster))
        model = RsfModel(covs, [0.5, -0.5, 0.2, 0.0], gamma2=2.0)
        tracks = []
        for k in range(3):
            sim = simulate(SimConfig(model, (0.0, 0.0), 0.02, 500, seed=30 + k))
            name = tmp_path / f"t{k}.csv"
            write_track_csv(sim.track, name)
            tracks.append(str(name))
        covs_json = write_json(tmp_path / "covs.json", {"covariates": paths})
        out = tmp_path / "fit4"
        main(["fit", "--tracks", *tracks, "--covariates", covs_json, "--out", str(out)])
        doc = json.loads((out / "fit.json").read_text())
        assert len(doc["beta_hat"]) == 4
        assert len(doc["ci_beta"]) == 4
        assert all(len(ci) == 2 for ci in doc["ci_beta"])
        assert doc["J"] == 4

    def test_fit_json_independent_of_blas_threads(self, tmp_path):
        """``fit.json`` of a pooled fit of 12,000 increments has the same bytes
        at one and at two BLAS threads.

        OpenBLAS splits a dot product of more than 10,000 elements between
        threads, and the split sum rounds differently.  The test needs at
        least 2 CPUs to show that fault: OpenBLAS uses no more threads than
        there are CPUs, so on one CPU both runs are single-threaded.
        """
        field = generate_random_field(
            RandomFieldSpec(x_min=-25, y_min=-25, cell_size=1.0, n_x=51, n_y=51, rho=5.0, seed=21)
        )
        write_ascii_grid(field, tmp_path / "c1.asc")
        model = RsfModel([RasterCovariate(field)], [3.0], gamma2=1.0)
        write_track_csv(simulate(SimConfig(model, (0.0, 0.0), 0.01, 12_000, seed=5)).track, tmp_path / "track.csv")
        covs = write_json(tmp_path / "covs.json", {"covariates": [{"type": "raster", "path": "c1.asc"}]})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "langmove.cli", "fit", "--tracks", "track.csv",
                 "--covariates", covs, "--out", f"fit_{threads}"],
                cwd=tmp_path, env=env | {"OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True,
            )
        assert json.loads((tmp_path / "fit_1" / "fit.json").read_text())["n"] == 12_000
        assert (tmp_path / "fit_1" / "fit.json").read_bytes() == (tmp_path / "fit_2" / "fit.json").read_bytes()


class TestUdCommand:
    def test_uniform_density_and_round_trip(self, tmp_path):
        cfg = write_json(
            tmp_path / "ud.json",
            {
                "model": {
                    "covariates": [{"type": "squared_distance", "center": [0, 0]}],
                    "beta": [0.0],
                },
                "grid": GRID,
            },
        )
        out = tmp_path / "ud"
        main(["ud", "--config", cfg, "--out", str(out)])
        ud = read_ascii_grid(out / "ud.asc")
        np.testing.assert_allclose(ud.values, 0.01, rtol=1e-12)
        assert ud.values.sum() * ud.cell_size**2 == pytest.approx(1.0, abs=1e-9)
        log_ud = read_ascii_grid(out / "ud_log.asc")
        np.testing.assert_allclose(log_ud.values, np.log(ud.values), rtol=1e-12)

    def test_log_grid_where_the_density_underflows(self, tmp_path):
        # log pi = -(x^2 + y^2) spans 1800 over the grid, so exp underflows to
        # 0 at the edges; the log grid comes from the log density and is finite
        grid = {"x_min": -30, "y_min": -30, "cell_size": 1, "n_x": 61, "n_y": 61}
        model = {"covariates": [{"type": "squared_distance", "center": [0, 0]}], "beta": [-1]}
        out = tmp_path / "ud"
        main(["ud", "--config", write_json(tmp_path / "ud.json", {"model": model, "grid": grid}),
              "--out", str(out)])
        ud = read_ascii_grid(out / "ud.asc").values
        log_ud = read_ascii_grid(out / "ud_log.asc").values
        assert ud.min() == 0.0
        k = np.arange(-30, 31)
        log_z = 2 * np.log(np.exp(-(k * k)).sum())  # the sum over the grid factors into x and y
        np.testing.assert_allclose(log_ud, -(k[:, None] ** 2 + k[None, :] ** 2) - log_z, rtol=1e-13)

    def test_no_log_flag(self, tmp_path):
        cfg = write_json(
            tmp_path / "ud.json",
            {
                "model": {
                    "covariates": [{"type": "squared_distance", "center": [0, 0]}],
                    "beta": [-0.1],
                },
                "grid": {"x_min": -3, "y_min": -3, "cell_size": 0.5, "n_x": 13, "n_y": 13},
            },
        )
        out = tmp_path / "ud"
        main(["ud", "--config", cfg, "--out", str(out), "--no-log"])
        assert (out / "ud.asc").exists()
        assert not (out / "ud_log.asc").exists()

    def test_no_log_writes_the_same_density(self, tmp_path):
        # ud.asc is the same with and without the log grid beside it
        grid = {"x_min": -30, "y_min": -30, "cell_size": 1, "n_x": 61, "n_y": 61}
        model = {"covariates": [{"type": "squared_distance", "center": [0.5, 0]}], "beta": [-0.7]}
        cfg = write_json(tmp_path / "ud.json", {"model": model, "grid": grid})
        main(["ud", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["ud", "--config", cfg, "--out", str(tmp_path / "b"), "--no-log"])
        assert (tmp_path / "a" / "ud.asc").read_bytes() == (tmp_path / "b" / "ud.asc").read_bytes()


class TestGenCovCommand:
    def test_deterministic_and_normalized(self, tmp_path):
        cfg = write_json(
            tmp_path / "field.json",
            {
                "fields": [
                    {"name": "c1", "x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 31, "n_y": 31, "rho": 4, "seed": 1},
                    {"name": "c2", "x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 31, "n_y": 31, "rho": 4, "seed": 2},
                ]
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-cov", "--config", cfg, "--out", str(out1)])
        main(["gen-cov", "--config", cfg, "--out", str(out2)])
        for name in ("c1.asc", "c2.asc", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        c1 = read_ascii_grid(out1 / "c1.asc")
        assert c1.values.min() == 0.0 and c1.values.max() == 1.0
        c2 = read_ascii_grid(out1 / "c2.asc")
        assert not np.array_equal(c1.values, c2.values)

    def test_repeated_name_rejected(self, tmp_path):
        # one file per name: a repeated name would keep one field of two
        field = {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 11, "n_y": 11, "rho": 2}
        fields = {"fields": [field | {"name": "a", "seed": 1}, field | {"name": "a", "seed": 2}]}
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="repeated field names: a"):
            main(["gen-cov", "--config", write_json(tmp_path / "f.json", fields), "--out", str(out)])
        assert not out.exists()

    def test_nan_rho_rejected(self, tmp_path):
        # json.load reads NaN: the spec names rho, not the smoothing code
        field = {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 10, "n_y": 10, "rho": float("nan"), "seed": 1}
        with pytest.raises(ValueError, match="rho must be positive and finite, got nan"):
            main(["gen-cov", "--config", write_json(tmp_path / "f.json", field), "--out", str(tmp_path / "out")])


class TestStudyCommands:
    def test_scenario1_tiny(self, tmp_path):
        cfg = write_json(tmp_path / "s1.json", TINY_STUDIES["scenario1"])
        out = tmp_path / "s1"
        assert main(["scenario1", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        provenance = [ln for ln in lines if ln.startswith("#")]
        assert any("second_sine_axis=z1" in ln for ln in provenance)
        assert any("config_sha256=" in ln for ln in provenance)
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        manifest = json.loads((out / "manifest.json").read_text())
        expected = 3 * 2 * 4 - 4 * len(manifest["failures"])
        assert len(data) == expected
        assert manifest["n_clamped"] == 0
        assert manifest["second_sine_axis"] == "z1"
        # replications x (n_points - 1) x the stride of 0.1 over fine_dt 0.01
        assert manifest["fine_steps"] == 3 * 59 * 10

    def test_scenario1_all_fits_failed(self, tmp_path):
        # two increments cannot carry a fit of three coefficients: both
        # modes fail, and the table keeps its provenance lines and header
        cfg = write_json(tmp_path / "s1.json", {"replications": 1, "n_points": 3})
        out = tmp_path / "s1"
        assert main(["scenario1", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        assert [ln.split("=")[0] for ln in lines[:3]] == [
            "# config_sha256",
            "# seed",
            "# second_sine_axis",
        ]
        assert lines[3:] == ["replication,mode,parameter,estimate"]
        # strict JSON: NaN or Infinity in the manifest would raise here
        manifest = json.loads(
            (out / "manifest.json").read_text(), parse_constant=reject_json_constant
        )
        assert [f[:2] for f in manifest["failures"]] == [[0, "analytic"], [0, "discretized"]]
        assert manifest["outputs"] == ["estimates.csv"]
        none = dict.fromkeys(["beta1", "beta2", "beta3", "gamma2"])
        assert manifest["medians"] == {"analytic": none, "discretized": none}

    def test_scenario2_tiny(self, tmp_path, monkeypatch):
        results = recorded_results(monkeypatch, "run_scenario2")
        cfg = write_json(tmp_path / "s2.json", TINY_STUDIES["scenario2"])
        out = tmp_path / "s2"
        assert main(["scenario2", "--config", cfg, "--out", str(out)]) == 0
        lines = [
            ln
            for ln in (out / "estimates_by_level.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(lines) == 1 + 2  # header + one row per level
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["dropped_increments"]) == {"0.05", "0.1"}
        assert isinstance(manifest["n_clamp_events"], int)
        # n_tracks x (n_points - 1) x the coarsest level's stride, 0.1 / 0.01
        assert manifest["fine_steps"] == 2 * 39 * 10
        # each fit keeps the n_tracks x (n_points - 1) increments not dropped
        (result,) = results
        assert list(manifest["fits"]) == ["0.05", "0.1"]
        for level, res in result.fits.items():
            counters = manifest["fits"][str(level)]
            assert counters == {"n": res.n, "condition_number": res.condition_number}
            assert counters["n"] + manifest["dropped_increments"][str(level)] == 2 * 39

    @pytest.mark.parametrize("command", ["scenario1", "scenario2", "irregular"])
    def test_rerun_byte_identical(self, tmp_path, command):
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in (STUDY_TABLES[command], "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_irregular_tiny(self, tmp_path, monkeypatch):
        results = recorded_results(monkeypatch, "run_irregular")
        cfg = write_json(tmp_path / "irr.json", TINY_STUDIES["irregular"])
        out = tmp_path / "irr"
        assert main(["irregular", "--config", cfg, "--out", str(out)]) == 0
        lines = [
            ln
            for ln in (out / "comparison.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(lines) == 1 + 4  # header + intervals x schemes
        header = lines[0].split(",")
        for col in ("scheme", "mean_interval", "beta1_hat", "beta1_se", "gap_mean"):
            assert col in header
        manifest = json.loads((out / "manifest.json").read_text())
        intervals = [str(float(v)) for v in TINY_STUDIES["irregular"]["mean_intervals"]]
        assert list(manifest["dropped_increments"]) == intervals
        for dropped in manifest["dropped_increments"].values():
            assert set(dropped) == {"regular", "irregular"}
        assert isinstance(manifest["n_clamp_events"], int)
        # n_tracks x (n_points - 1) x the coarsest level's stride, 0.2 / 0.01
        assert manifest["fine_steps"] == 2 * 39 * 20
        (result,) = results
        assert list(manifest["fits"]) == intervals
        for interval in TINY_STUDIES["irregular"]["mean_intervals"]:
            for scheme, fits in (("regular", result.regular), ("irregular", result.irregular)):
                res = fits[interval]
                counters = manifest["fits"][str(interval)][scheme]
                assert counters == {"n": res.n, "condition_number": res.condition_number}
                dropped = manifest["dropped_increments"][str(interval)][scheme]
                assert counters["n"] + dropped == 2 * 39

    def test_irregular_short_tracks_rejected(self, tmp_path):
        # with levels up to 0.1 the fine tracks span 39 x 0.1 time units, and
        # random gaps of mean 0.1 run past their end before 40 points
        tiny = TINY_STUDIES["irregular"] | {"levels": [0.05, 0.1]}
        cfg = write_json(tmp_path / "irr.json", tiny)
        with pytest.raises(ValueError, match="mean interval 0.1 keeps 34 of 40 points of track 0"):
            main(["irregular", "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key", [("irregular", "mean_intervals"), ("scenario2", "levels")]
    )
    def test_interval_off_the_fine_grid_rejected(self, tmp_path, command, key):
        # 0.055 is 5.5 fine steps: no regular schedule thins at exactly that interval
        tiny = {"n_tracks": 2, "n_points": 20, "levels": [0.1], **TINY_RANDOM_FIELD, key: [0.055]}
        cfg = write_json(tmp_path / "c.json", tiny)
        with pytest.raises(ValueError, match="0.055 is not a multiple of fine_dt"):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])

    def test_single_point_tracks_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "s1.json", TINY_STUDIES["scenario1"] | {"n_points": 1})
        with pytest.raises(ValueError, match="n_points and grid_n must be >= 2, got 1 and 8"):
            main(["scenario1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scenario1", "scenario2", "irregular"])
    def test_committed_configs_load(self, tmp_path, command, monkeypatch):
        # every key of configs/*.json names a setting the command reads; the
        # study itself is replaced by a stub that stops the command
        class Built(Exception):
            pass

        def stop(config):
            raise Built(config)

        monkeypatch.setattr(cli, f"run_{command}", stop)
        path = Path(__file__).parents[1] / "configs" / f"{command}.json"
        with pytest.raises(Built) as built:
            main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        config = built.value.args[0]
        assert json.loads(path.read_text())["n_points"] == getattr(config, "base", config).n_points

    @pytest.mark.parametrize(
        "command, config, key",
        [
            pytest.param("scenario1", {"n_track": 2, "seed": 1}, "n_track", id="scenario1"),
            pytest.param("scenario2", {"n_track": 2, "seed": 1}, "n_track", id="scenario2"),
            pytest.param("irregular", {"n_track": 2, "seed": 1}, "n_track", id="irregular"),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "model": {**SIM_CONFIG["model"], "gama2": 4.0}},
                "gama2",
                id="simulate-model",
            ),
            pytest.param(
                "simulate",
                with_covariate({"type": "squared_distance", "centre": [1, 0]}),
                "centre",
                id="simulate-squared_distance",
            ),
            pytest.param(
                "simulate",
                with_covariate({**WAVELET, "second_sine_axes": "z2"}),
                "second_sine_axes",
                id="simulate-wavelet",
            ),
            pytest.param("simulate", {**SIM_CONFIG, "n_step": 20}, "n_step", id="simulate"),
            pytest.param(
                "ud",
                {"model": SIM_CONFIG["model"], "grid": {**GRID, "nx": 20}},
                "nx",
                id="ud-grid",
            ),
        ],
    )
    def test_unknown_config_key_rejected(self, tmp_path, command, config, key):
        # a misspelt key must not leave the setting at its default unnoticed
        cfg = write_json(tmp_path / "c.json", config)
        with pytest.raises(ValueError, match=f"unknown .* config keys: {key}$"):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])

    def test_unknown_random_field_key_rejected(self, tmp_path):
        spec = {"name": "c1", "x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 9, "n_y": 9}
        cfg = write_json(tmp_path / "f.json", {"fields": [dict(spec, rh0=2, seed=1)]})
        with pytest.raises(ValueError, match="unknown RandomFieldSpec config keys: rh0"):
            main(["gen-cov", "--config", cfg, "--out", str(tmp_path / "out")])


class TestTrackCsvIngestion:
    def test_cli_reads_external_style_csv(self, tmp_path):
        # hand-written file, decimal and scientific notation mixed
        path = tmp_path / "t.csv"
        path.write_text("t,x,y\n0.0,1e-1,2.5\n1.5,0.2,2.25\n3.0,0.35,2.0\n")
        track = read_track_csv(path)
        assert len(track) == 3
        np.testing.assert_allclose(track.xy[0], [0.1, 2.5])

    def test_time_scale_flag_matches_prescaled_fit(self, tmp_path):
        # epoch-second stamps fitted in hours == the same track with
        # hour timestamps fitted directly
        from langmove import Track

        model = RsfModel([RasterCovariate(generate_random_field(
            RandomFieldSpec(-25, -25, 1.0, 51, 51, rho=5.0, seed=44)))], [2.0])
        sim = simulate(SimConfig(model, (0.0, 0.0), 0.02, 2000, seed=6))
        hours = sim.track
        seconds = Track(hours.times * 3600.0, hours.xy)
        write_track_csv(seconds, tmp_path / "sec.csv")
        write_track_csv(hours, tmp_path / "hr.csv")
        field = model.covariates[0].raster
        write_ascii_grid(field, tmp_path / "c.asc")
        covs = write_json(tmp_path / "covs.json", {"covariates": [{"type": "raster", "path": "c.asc"}]})
        main(["fit", "--tracks", str(tmp_path / "sec.csv"), "--covariates", covs,
              "--time-scale", "3600", "--out", str(tmp_path / "a")])
        main(["fit", "--tracks", str(tmp_path / "hr.csv"), "--covariates", covs,
              "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "fit.json").read_text())
        b = json.loads((tmp_path / "b" / "fit.json").read_text())
        np.testing.assert_allclose(a["beta_hat"], b["beta_hat"], rtol=1e-12)
        assert a["gamma2_hat"] == pytest.approx(b["gamma2_hat"], rel=1e-12)

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_time_scale_must_be_positive_and_finite(self, tmp_path, scale):
        # the flag is rejected before any file is read: these do not exist
        args = ["fit", "--tracks", str(tmp_path / "t.csv"), "--covariates", str(tmp_path / "c.json")]
        with pytest.raises(ValueError, match=f"--time-scale must be positive and finite, got {scale}"):
            main([*args, "--time-scale", scale, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()
