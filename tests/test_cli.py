"""Command-line surface: configs in, deterministic files out."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from langmove import (
    AnalyticWavelet,
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
from langmove import cli, experiments
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


def without(spec, key):
    """``spec`` without ``key``."""
    return {k: v for k, v in spec.items() if k != key}


class Built(Exception):
    """Raised by a stubbed study function, with the config it was given."""


def stub_study(monkeypatch, command):
    """Replace the study function of ``command`` by one that raises ``Built``."""

    def stop(config):
        raise Built(config)

    monkeypatch.setattr(cli, f"run_{command}", stop)


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

    def test_empty_seeds_rejected(self, tmp_path):
        # no seed would write no track, only a manifest
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG | {"seeds": []})
        with pytest.raises(ValueError, match=r"seeds must not be empty$"):
            main(["simulate", "--config", cfg, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("seeds, flags", [([3, -4], []), ([3], ["--seed", "-1"])])
    def test_negative_seed_rejected(self, tmp_path, seeds, flags):
        # numpy's SeedSequence rejected it with a traceback naming no setting
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG | {"seeds": seeds})
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -\d$"):
            main(["simulate", "--config", cfg, "--out", str(out), *flags])
        assert not out.exists()

    def test_seed_override(self, tmp_path, analytic_sim_config):
        out = tmp_path / "out"
        main(["simulate", "--config", analytic_sim_config, "--out", str(out), "--seed", "9"])
        assert (out / "track_9.csv").exists()
        assert not (out / "track_3.csv").exists()
        # with --seed, the config need not list seeds
        seedless = write_json(tmp_path / "seedless.json", without(SIM_CONFIG, "seeds"))
        main(["simulate", "--config", seedless, "--out", str(tmp_path / "seedless"), "--seed", "9"])
        assert (tmp_path / "seedless" / "track_9.csv").read_bytes() == (out / "track_9.csv").read_bytes()

    @pytest.mark.parametrize(
        "spec, covariate",
        [
            pytest.param(
                WAVELET,
                lambda: AnalyticWavelet(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4)),
                id="wavelet",
            ),
            pytest.param(
                {"type": "random_field", "x_min": -10, "y_min": -10, "cell_size": 1, "n_x": 21,
                 "n_y": 21, "rho": 3, "seed": 1},
                lambda: RasterCovariate(generate_random_field(RandomFieldSpec(-10, -10, 1, 21, 21, rho=3, seed=1))),
                id="random_field",
            ),
        ],
    )
    def test_covariate_spec_builds_its_covariate(self, tmp_path, spec, covariate):
        cfg = write_json(tmp_path / "sim.json", with_covariate(spec))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        model = RsfModel([covariate()], SIM_CONFIG["model"]["beta"])
        write_track_csv(simulate(SimConfig(model, (0.0, 0.0), 0.01, 10, 3)).track, tmp_path / "lib.csv")
        assert (tmp_path / "out" / "track_3.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_unknown_covariate_type_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", with_covariate({"type": "wavlet"}))
        with pytest.raises(ValueError, match="unknown covariate type 'wavlet'"):
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])


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
        # a file may hold the bare list of covariates instead
        bare = write_json(tmp_path / "bare.json", [{"type": "raster", "path": "c1.asc"}])
        main(["fit", "--tracks", str(tmp_path / "track.csv"), "--covariates", bare, "--out", str(tmp_path / "b")])
        assert (tmp_path / "b" / "fit.json").read_bytes() == (out / "fit.json").read_bytes()

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

    def test_empty_field_list_rejected(self, tmp_path):
        # it wrote a manifest listing no output and printed "wrote  to out"
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^field names must not be empty$"):
            main(["gen-cov", "--config", write_json(tmp_path / "f.json", {"fields": []}), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", ""])
    def test_name_with_a_directory_part_rejected(self, tmp_path, monkeypatch, name):
        # a name is a file in --out: none is written outside it, and no field
        # is generated before every name is checked
        generated = []
        monkeypatch.setattr(cli, "generate_random_field", generated.append)
        field = {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 11, "n_y": 11, "rho": 2}
        fields = {"fields": [field | {"name": "a", "seed": 1}, field | {"name": name, "seed": 2}]}
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"field name must be a plain file name, got '{re.escape(name)}'$"):
            main(["gen-cov", "--config", write_json(tmp_path / "f.json", fields), "--out", str(out)])
        assert not out.exists() and not generated
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

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
        "command, changes, message",
        [
            # 0.055 is 5.5 fine steps: no regular schedule thins at exactly that interval
            pytest.param(
                "irregular", {"mean_intervals": [0.055]}, "interval 0.055 is not a multiple of fine_dt 0.01$",
                id="irregular-mean_intervals",
            ),
            pytest.param(
                "scenario2", {"levels": [0.055]}, "interval 0.055 is not a multiple of fine_dt 0.01$",
                id="scenario2-levels",
            ),
            # an interval that is not finite, and a fine step that is not positive and finite
            pytest.param(
                "irregular", {"mean_intervals": [math.nan]}, "interval nan is not a multiple of fine_dt 0.01$",
                id="irregular-mean_intervals-nan",
            ),
            pytest.param(
                "scenario2", {"levels": [0.05, math.inf]}, "interval inf is not a multiple of fine_dt 0.01$",
                id="scenario2-levels-inf",
            ),
            pytest.param(
                "scenario1", {"thin_interval": -math.inf}, "interval -inf is not a multiple of fine_dt 0.01$",
                id="scenario1-thin_interval-minus-inf",
            ),
            pytest.param(
                "scenario1", {"fine_dt": 0}, "fine_dt must be positive and finite, got 0$", id="scenario1-fine_dt-0"
            ),
            pytest.param(
                "scenario2", {"fine_dt": math.inf}, "fine_dt must be positive and finite, got inf$",
                id="scenario2-fine_dt-inf",
            ),
            pytest.param(
                "irregular", {"fine_dt": -0.01}, "fine_dt must be positive and finite, got -0.01$",
                id="irregular-fine_dt-negative",
            ),
        ],
    )
    def test_interval_off_the_fine_grid_rejected(self, tmp_path, monkeypatch, command, changes, message):
        # the config is rejected when it is built, before the study simulates anything
        stub_study(monkeypatch, command)
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command] | changes)
        with pytest.raises(ValueError, match=message):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "command, changes, message",
        [
            ("scenario2", {"levels": [0.05, 0.05]}, "repeated levels: 0.05$"),
            ("irregular", {"mean_intervals": [0.1, 0.1]}, "repeated mean_intervals: 0.1$"),
        ],
    )
    def test_repeated_interval_rejected(self, tmp_path, monkeypatch, command, changes, message):
        # rejected when the config is built: the study would have written
        # each repeated row twice
        stub_study(monkeypatch, command)
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command] | changes)
        with pytest.raises(ValueError, match=message):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scenario1", "scenario2", "irregular"])
    def test_alpha_rejected_before_the_study(self, tmp_path, monkeypatch, command):
        stub_study(monkeypatch, command)
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 0.5\), got 0.7$"):
            main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--alpha", "0.7"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(TINY_STUDIES))
    def test_negative_seed_rejected_before_the_study(self, tmp_path, monkeypatch, command):
        stub_study(monkeypatch, command)
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command])
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert not (tmp_path / "out").exists()

    def test_single_point_tracks_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "s1.json", TINY_STUDIES["scenario1"] | {"n_points": 1})
        with pytest.raises(ValueError, match="n_points must be >= 2, got 1"):
            main(["scenario1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("scenario1", {"replications": 0}, "replications must be >= 1, got 0"),
            ("scenario2", {"n_tracks": 0}, "n_tracks must be >= 1, got 0"),
            ("irregular", {"mean_intervals": []}, "mean_intervals must not be empty"),
        ],
    )
    def test_empty_study_rejected(self, tmp_path, command, config, message):
        cfg = write_json(tmp_path / "c.json", TINY_STUDIES[command] | config)
        with pytest.raises(ValueError, match=message):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, size, paper_scale",
        [("scenario1", "replications", 600), ("scenario2", "n_tracks", 200), ("irregular", "n_tracks", 200)],
    )
    def test_command_line_overrides(self, tmp_path, command, size, paper_scale, monkeypatch):
        # the study is stubbed out: it would run at paper scale
        stub_study(monkeypatch, command)
        with pytest.raises(Built) as built:
            main([command, "--out", str(tmp_path / "out"), "--paper-scale", "--seed", "7", "--alpha", "0.1"])
        config = built.value.args[0]
        study = getattr(config, "base", config)
        assert (getattr(study, size), study.seed, study.alpha) == (paper_scale, 7, 0.1)

    @pytest.mark.parametrize("command", ["scenario1", "scenario2", "irregular"])
    def test_committed_configs_load(self, tmp_path, command, monkeypatch):
        # every key of configs/*.json names a setting the command reads; the
        # study itself is replaced by a stub that stops the command
        stub_study(monkeypatch, command)
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

    @pytest.mark.parametrize(
        "command, config, message",
        [
            pytest.param("simulate", without(SIM_CONFIG, "dt"), "missing simulate config keys: dt$", id="simulate"),
            pytest.param(
                "simulate", without(SIM_CONFIG, "seeds"), "missing simulate config keys: seeds$", id="simulate-seeds"
            ),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "model": without(SIM_CONFIG["model"], "beta")},
                "missing RsfModel config keys: beta$",
                id="simulate-model",
            ),
            pytest.param(
                "simulate",
                with_covariate(without(WAVELET, "alpha")),
                "missing AnalyticWavelet config keys: alpha$",
                id="simulate-wavelet",
            ),
            pytest.param(
                "simulate", with_covariate({"type": "raster"}), "missing raster config keys: path$", id="simulate-raster"
            ),
            pytest.param(
                "simulate",
                with_covariate({**WAVELET, "a": [0]}),
                r"a must hold two numbers, got \(0,\)$",
                id="simulate-wavelet-pair",
            ),
            pytest.param(
                "simulate",
                with_covariate({"type": "squared_distance", "center": [1]}),
                r"center must hold two numbers, got \(1,\)$",
                id="simulate-squared_distance-pair",
            ),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "x0": [0]},
                r"x0 must hold two numbers, got \[0\]$",
                id="simulate-pair",
            ),
            pytest.param(
                "simulate",
                with_covariate("squared_distance"),
                r"covariates must be a list of JSON objects, got \['squared_distance'\]$",
                id="simulate-covariate-string",
            ),
            pytest.param(
                "fit",
                {"covariates": "abc"},
                "covariates must be a list of JSON objects, got 'abc'$",
                id="fit-string",
            ),
            pytest.param("fit", 5, "covariates must be a list of JSON objects, got 5$", id="fit-number"),
            pytest.param(
                "gen-cov",
                {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 9, "n_y": 9, "rho": 2},
                "missing RandomFieldSpec config keys: seed$",
                id="gen-cov",
            ),
            pytest.param(
                "ud",
                {"model": SIM_CONFIG["model"], "grid": without(GRID, "n_y")},
                "missing GridGeometry config keys: n_y$",
                id="ud-grid",
            ),
            pytest.param(
                "ud",
                {"model": SIM_CONFIG["model"], "grid": [0.5, 0.5, 1.0, 10, 10]},
                r"GridGeometry config must be a JSON object, got \[0.5, 0.5, 1.0, 10, 10\]$",
                id="ud-grid-list",
            ),
            # files and entries that are no JSON objects
            pytest.param(
                "gen-cov",
                {"fields": ["abc"]},
                r"fields must be a list of JSON objects, got \['abc'\]$",
                id="gen-cov-fields-strings",
            ),
            pytest.param(
                "gen-cov",
                {"fields": "abc"},
                "fields must be a list of JSON objects, got 'abc'$",
                id="gen-cov-fields-string",
            ),
            pytest.param(
                "gen-cov",
                [{"seed": 1}],
                r"RandomFieldSpec config must be a JSON object, got \[\{'seed': 1\}\]$",
                id="gen-cov-list",
            ),
            pytest.param(
                "gen-cov", "x", "RandomFieldSpec config must be a JSON object, got 'x'$", id="gen-cov-string"
            ),
            pytest.param(
                "gen-cov", 5, "RandomFieldSpec config must be a JSON object, got 5$", id="gen-cov-number"
            ),
            pytest.param(
                "scenario1 --seed 3",
                [TINY_STUDIES["scenario1"]],
                r"Scenario1Config config must be a JSON object, got \[\{",
                id="scenario1-list",
            ),
            pytest.param(
                "scenario2 --paper-scale",
                [TINY_STUDIES["scenario2"]],
                r"Scenario2Config config must be a JSON object, got \[\{",
                id="scenario2-list",
            ),
            pytest.param(
                "irregular --alpha 0.1",
                [TINY_STUDIES["irregular"]],
                r"Scenario2Config config must be a JSON object, got \[\{",
                id="irregular-list",
            ),
            # a null, string or boolean where a number belongs
            pytest.param(
                "scenario2",
                TINY_STUDIES["scenario2"] | {"n_tracks": None},
                "Scenario2Config config key n_tracks must be of type int, got None$",
                id="scenario2-null",
            ),
            pytest.param(
                "scenario2",
                TINY_STUDIES["scenario2"] | {"levels": [0.01, None]},
                r"Scenario2Config config key levels must be of type tuple\[float, \.\.\.\], "
                r"got \[0\.01, None\]$",
                id="scenario2-levels-null",
            ),
            pytest.param(
                "scenario1",
                TINY_STUDIES["scenario1"] | {"replications": "3"},
                "Scenario1Config config key replications must be of type int, got '3'$",
                id="scenario1-string",
            ),
            pytest.param(
                "scenario1",
                TINY_STUDIES["scenario1"] | {"replications": True},
                "Scenario1Config config key replications must be of type int, got True$",
                id="scenario1-boolean",
            ),
            pytest.param(
                "gen-cov",
                {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 9, "n_y": 9, "rho": None, "seed": 1},
                "RandomFieldSpec config key rho must be of type float, got None$",
                id="gen-cov-null",
            ),
            pytest.param(
                "gen-cov",
                {"x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 9, "n_y": 9, "rho": 2, "seed": "a"},
                "RandomFieldSpec config key seed must be of type int, got 'a'$",
                id="gen-cov-string-seed",
            ),
            pytest.param(
                "ud",
                {"model": SIM_CONFIG["model"], "grid": {**GRID, "cell_size": None}},
                "GridGeometry config key cell_size must be of type float, got None$",
                id="ud-grid-null",
            ),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "dt": None},
                "simulate config key dt must be of type float, got None$",
                id="simulate-null",
            ),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "seeds": ["a"]},
                r"simulate config key seeds must be of type tuple\[int, \.\.\.\], got \['a'\]$",
                id="simulate-seeds-string",
            ),
            pytest.param(
                "simulate",
                {**SIM_CONFIG, "model": {**SIM_CONFIG["model"], "gamma2": "1"}},
                "RsfModel config key gamma2 must be of type float, got '1'$",
                id="simulate-model-string",
            ),
            pytest.param(
                "simulate",
                with_covariate({**WAVELET, "alpha": None}),
                "AnalyticWavelet config key alpha must be of type float, got None$",
                id="simulate-wavelet-null",
            ),
            # a model's beta is a list of numbers: a number, a string, a nested list or a
            # boolean was read as one float, and a string entry or null failed in numpy
            *(
                pytest.param(
                    "simulate",
                    {**SIM_CONFIG, "model": {**SIM_CONFIG["model"], "beta": beta}},
                    rf"RsfModel config key beta must be of type tuple\[float, \.\.\.\], got {re.escape(repr(beta))}$",
                    id=f"simulate-model-beta-{beta!r}",
                )
                for beta in ("12", 2.0, [[1.0]], [True], ["a"], None)
            ),
            # and where a name, a path or a list of numbers belongs, in keys a command reads itself
            pytest.param(
                "irregular",
                TINY_STUDIES["irregular"] | {"mean_intervals": [None]},
                r"Scenario2Config config key mean_intervals must be of type tuple\[float, \.\.\.\], "
                r"got \[None\]$",
                id="irregular-null",
            ),
            pytest.param(
                "gen-cov",
                {"name": 5, "x_min": 0, "y_min": 0, "cell_size": 1, "n_x": 9, "n_y": 9, "rho": 2, "seed": 1},
                "RandomFieldSpec config key name must be of type str, got 5$",
                id="gen-cov-number-name",
            ),
            pytest.param(
                "simulate",
                with_covariate({"type": "raster", "path": 5}),
                "raster config key path must be of type str, got 5$",
                id="simulate-raster-number-path",
            ),
        ],
    )
    def test_missing_config_key_rejected(self, tmp_path, command, config, message):
        # a missing setting, or one of the wrong kind, is named, not reported
        # as a KeyError, IndexError, TypeError or AttributeError
        cfg = write_json(tmp_path / "c.json", config)
        command, *flags = command.split()  # a study's command-line overrides
        if command == "fit":  # the covariates are read first: the track file need not exist
            args = ["--tracks", str(tmp_path / "t.csv"), "--covariates", cfg]
        else:
            args = ["--config", cfg, *flags]
        with pytest.raises(ValueError, match=message):
            main([command, *args, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_scenario2_speed_rejected_before_the_fields_are_generated(self, tmp_path, monkeypatch):
        # the config checks gamma2 when it is built; it used to fail in the
        # model, after both random fields were generated
        def no_fields(spec):
            raise AssertionError("a field was generated")

        monkeypatch.setattr(experiments, "generate_random_field", no_fields)
        cfg = write_json(tmp_path / "c.json", {"gamma2": -1.0})
        with pytest.raises(ValueError, match="^gamma2 must be positive and finite, got -1.0$"):
            main(["scenario2", "--config", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

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
