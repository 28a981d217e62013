"""Command-line interface: simulation, fitting, density maps, and studies.

Every command is a pure function of its config file and input files:
rerunning with the same inputs produces byte-identical outputs.  Emitted
tables carry the config hash and seed list as ``#``-prefixed provenance
header lines; each command also writes a ``manifest.json``.

Config files are JSON.  Covariate sources are objects with a ``type``:

- ``{"type": "wavelet", "alpha": 6, "a": [0, 0], "omega": [0.6, 0.2],
  "sigma": [0.4, 0.4], "second_sine_axis": "z1"}``
- ``{"type": "squared_distance", "center": [0, 0]}``
- ``{"type": "raster", "path": "cov1.asc"}`` (relative to the config file)
- ``{"type": "random_field", "x_min": -50, "y_min": -50, "cell_size": 1,
  "n_x": 101, "n_y": 101, "rho": 10, "seed": 1}``

A model is ``{"covariates": [...], "beta": [...], "gamma2": 1.0}`` and a
grid is ``{"x_min": ..., "y_min": ..., "cell_size": ..., "n_x": ...,
"n_y": ...}``.  A key that names no setting is an error, in every spec.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .covariates import (
    AnalyticWavelet,
    Covariate,
    RandomFieldSpec,
    RasterCovariate,
    SquaredDistance,
    WaveletParams,
    generate_random_field,
)
from .experiments import (
    PARAM_NAMES_S1,
    IrregularConfig,
    Scenario1Config,
    Scenario2Config,
    run_irregular,
    run_scenario1,
    run_scenario2,
)
from .inference import pooled_fit
from .langevin import SimConfig, Track, read_track_csv, simulate, write_track_csv
from .raster import GridGeometry, GridRaster, read_ascii_grid, write_ascii_grid
from .rsf import RsfModel, ud_raster

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _known_keys(spec: dict, what: str, keys: tuple[str, ...]) -> dict:
    """``spec`` itself, once checked to hold no key outside ``keys``.

    Any other key raises ``ValueError``, so a misspelt key cannot silently
    leave a setting at its default.
    """
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} config keys: {', '.join(unknown)}")
    return spec


def _dataclass_kwargs(cls, cfg: dict, extra: tuple[str, ...] = ()) -> dict:
    """The entries of ``cfg`` that name fields of ``cls``, JSON lists as tuples.

    ``extra`` names the other keys the caller reads itself; any key that is
    neither is rejected by :func:`_known_keys`.
    """
    names = [f.name for f in fields(cls)]
    _known_keys(cfg, cls.__name__, (*names, *extra))
    return {
        name: tuple(cfg[name]) if isinstance(cfg[name], list) else cfg[name]
        for name in names
        if name in cfg
    }


def _random_field(spec: dict) -> GridRaster:
    kwargs = _dataclass_kwargs(RandomFieldSpec, spec, extra=("type", "name"))
    return generate_random_field(RandomFieldSpec(**kwargs))


def _covariate_from_spec(spec: dict, base_dir: Path) -> Covariate:
    kind = spec.get("type")
    if kind == "wavelet":
        _known_keys(spec, kind, ("type", "alpha", "a", "omega", "sigma", "second_sine_axis"))
        params = WaveletParams(
            alpha=spec["alpha"],
            a1=spec["a"][0],
            a2=spec["a"][1],
            omega1=spec["omega"][0],
            omega2=spec["omega"][1],
            sigma1=spec["sigma"][0],
            sigma2=spec["sigma"][1],
        )
        return AnalyticWavelet(params, spec.get("second_sine_axis", "z1"))
    if kind == "squared_distance":
        _known_keys(spec, kind, ("type", "center"))
        return SquaredDistance(tuple(spec.get("center", (0.0, 0.0))))
    if kind == "raster":
        _known_keys(spec, kind, ("type", "path"))
        return RasterCovariate(read_ascii_grid(base_dir / spec["path"]))
    if kind == "random_field":
        return RasterCovariate(_random_field(spec))
    raise ValueError(f"unknown covariate type {kind!r}")


def _model_from_spec(spec: dict, base_dir: Path) -> RsfModel:
    _known_keys(spec, "model", ("covariates", "beta", "gamma2"))
    covs = [_covariate_from_spec(c, base_dir) for c in spec["covariates"]]
    return RsfModel(covs, spec["beta"], spec.get("gamma2", 1.0))


def _format_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_manifest(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_base(command: str, cfg: dict) -> dict:
    return {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "langmove_version": __version__,
        "seed_rule": "stream k of replication i uses SeedSequence(entropy=seed, spawn_key=(k, i))",
    }


def _write_study(
    out: str,
    command: str,
    cfg: dict,
    table: str,
    header: list[str],
    rows: list[dict],
    provenance: dict,
    **record,
) -> None:
    """Write a study's CSV ``table`` and its ``manifest.json`` to ``out``.

    The table opens with ``#``-prefixed provenance lines, the hash of
    ``cfg`` and then ``provenance``, before ``header`` and one line per row;
    the manifest records ``record`` and lists the table.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / table, "w") as fh:
        for key, value in {"config_sha256": _config_hash(cfg), **provenance}.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row[k]) for k in header) + "\n")
    manifest = _manifest_base(command, cfg)
    manifest.update(record, outputs=[table])
    _write_manifest(out_dir, manifest)


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(args: argparse.Namespace) -> int:
    keys = ("model", "x0", "dt", "n_steps", "seeds")
    cfg = _known_keys(_load_config(args.config), "simulate", keys)
    base_dir = Path(args.config).parent
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _model_from_spec(cfg["model"], base_dir)
    clamp_counts = {}
    outputs = []
    for seed in cfg["seeds"]:
        sim = simulate(
            SimConfig(model, tuple(cfg["x0"]), cfg["dt"], cfg["n_steps"], seed),
            escape_policy=args.escape_policy,
        )
        name = f"track_{seed}.csv"
        write_track_csv(sim.track, out_dir / name)
        outputs.append(name)
        clamp_counts[str(seed)] = sim.n_clamped
    manifest = _manifest_base("simulate", cfg)
    manifest.update(
        {"seeds": list(cfg["seeds"]), "clamp_counts": clamp_counts, "outputs": outputs}
    )
    _write_manifest(out_dir, manifest)
    print(f"wrote {len(outputs)} track(s) to {out_dir}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    cov_cfg = _load_config(args.covariates)
    base_dir = Path(args.covariates).parent
    if isinstance(cov_cfg, dict):
        specs = _known_keys(cov_cfg, "covariates file", ("covariates",))["covariates"]
    else:
        specs = cov_cfg
    covariates = [_covariate_from_spec(c, base_dir) for c in specs]
    tracks = [read_track_csv(p) for p in args.tracks]
    if args.time_scale != 1.0:
        # e.g. --time-scale 3600 turns epoch-second stamps into hours
        tracks = [Track(t.times / args.time_scale, t.xy) for t in tracks]
    result = pooled_fit(tracks, covariates, alpha=args.alpha)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = result.to_dict()
    doc["tracks"] = [str(p) for p in args.tracks]
    doc["time_scale"] = args.time_scale
    doc["config_sha256"] = _config_hash(
        {"covariates": specs, "alpha": args.alpha, "time_scale": args.time_scale}
    )
    with open(out_dir / "fit.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    table = result.format_table()
    (out_dir / "fit.txt").write_text(table + "\n")
    print(table)
    return 0


def _cmd_ud(args: argparse.Namespace) -> int:
    cfg = _known_keys(_load_config(args.config), "ud", ("model", "grid"))
    base_dir = Path(args.config).parent
    model = _model_from_spec(cfg["model"], base_dir)
    geometry = GridGeometry(**_dataclass_kwargs(GridGeometry, cfg["grid"]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ud = ud_raster(model, geometry)
    write_ascii_grid(ud, out_dir / "ud.asc")
    outputs = ["ud.asc"]
    if not args.no_log:
        log_ud = GridRaster(geometry, np.log(ud.values))
        write_ascii_grid(log_ud, out_dir / "ud_log.asc")
        outputs.append("ud_log.asc")
    manifest = _manifest_base("ud", cfg)
    manifest["outputs"] = outputs
    _write_manifest(out_dir, manifest)
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def _cmd_gen_cov(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    specs = _known_keys(cfg, "gen-cov", ("fields",))["fields"] if "fields" in cfg else [cfg]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for k, spec in enumerate(specs):
        raster = _random_field(spec)
        name = spec.get("name", f"cov{k + 1}") + ".asc"
        write_ascii_grid(raster, out_dir / name)
        outputs.append(name)
    manifest = _manifest_base("gen-cov", cfg)
    manifest.update({"outputs": outputs, "seeds": [spec["seed"] for spec in specs]})
    _write_manifest(out_dir, manifest)
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def _study_config(
    args: argparse.Namespace, cls, paper_scale: dict, extra: tuple[str, ...] = ()
) -> tuple[dict, object]:
    """The loaded config (empty if none) with the command-line overrides
    applied, and the study config ``cls`` built from it; ``extra`` names the
    keys the command reads itself."""
    cfg = _load_config(args.config) if args.config else {}
    if args.paper_scale:
        cfg.update(paper_scale)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.alpha is not None:
        cfg["alpha"] = args.alpha
    return cfg, cls(**_dataclass_kwargs(cls, cfg, extra))


def _cmd_scenario1(args: argparse.Namespace) -> int:
    _, s1 = _study_config(args, Scenario1Config, {"replications": 600})
    result = run_scenario1(s1)
    _write_study(
        args.out,
        "scenario1",
        asdict(s1),
        "estimates.csv",
        ["replication", "mode", "parameter", "estimate"],
        result.to_rows(),
        {"seed": s1.seed, "second_sine_axis": s1.second_sine_axis},
        second_sine_axis=s1.second_sine_axis,
        n_clamped=result.n_clamped,
        failures=[list(f) for f in result.failures],
        medians={
            mode: dict(zip(PARAM_NAMES_S1, map(float, result.medians(mode))))
            for mode in ("analytic", "discretized")
        },
    )
    for mode in ("analytic", "discretized"):
        med = result.medians(mode)
        print(
            f"{mode}: median beta=({med[0]:.3f}, {med[1]:.3f}, {med[2]:.3f}) "
            f"gamma2={med[3]:.3f} all-signs-correct={result.sign_correct_fraction(mode):.2f}"
        )
    return 0


def _cmd_scenario2(args: argparse.Namespace) -> int:
    _, s2 = _study_config(args, Scenario2Config, {"n_tracks": 200})
    result = run_scenario2(s2)
    rows = result.to_rows()
    _write_study(
        args.out,
        "scenario2",
        asdict(s2),
        "estimates_by_level.csv",
        list(rows[0]),
        rows,
        {"seed": s2.seed},
        n_clamp_events=result.n_clamp_events,
    )
    for row in rows:
        print(
            f"delta={row['delta']:g}: beta1={row['beta1_hat']:.3f} (se {row['beta1_se']:.3f}) "
            f"beta2={row['beta2_hat']:.3f} (se {row['beta2_se']:.3f}) gamma2={row['gamma2_hat']:.4f}"
        )
    return 0


def _cmd_irregular(args: argparse.Namespace) -> int:
    cfg, s2 = _study_config(args, Scenario2Config, {"n_tracks": 200}, extra=("mean_intervals",))
    mean_intervals = tuple(cfg.get("mean_intervals", (0.05, 0.5)))
    irr = IrregularConfig(base=s2, mean_intervals=mean_intervals)
    result = run_irregular(irr)
    rows = result.to_rows()
    _write_study(
        args.out,
        "irregular",
        {"base": asdict(s2), "mean_intervals": list(mean_intervals)},
        "comparison.csv",
        list(rows[0]),
        rows,
        {"seed": s2.seed},
    )
    for row in rows:
        print(
            f"{row['scheme']:9s} mean_interval={row['mean_interval']:g}: "
            f"beta1={row['beta1_hat']:.3f} (se {row['beta1_se']:.3f}) "
            f"beta2={row['beta2_hat']:.3f} (se {row['beta2_se']:.3f})"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langmove",
        description="Langevin movement model: simulation, habitat-selection fits, studies.",
    )
    parser.add_argument("--version", action="version", version=f"langmove {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate tracks from a model config")
    p.add_argument("--config", required=True, help="JSON config with model, x0, dt, n_steps, seeds")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="simulate this single seed instead")
    p.add_argument("--escape-policy", choices=("clamp", "error"), default="clamp")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the movement model to track CSV files")
    p.add_argument("--tracks", nargs="+", required=True, help="track CSV paths (t,x,y)")
    p.add_argument("--covariates", required=True, help="JSON file listing covariate sources")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="divide timestamps by this factor before fitting "
        "(3600 = epoch seconds to hours)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ud", help="write the model's space-use density as an ASCII grid")
    p.add_argument("--config", required=True, help="JSON config with model and grid")
    p.add_argument("--out", required=True)
    p.add_argument("--no-log", action="store_true", help="skip the log-density grid")
    p.set_defaults(func=_cmd_ud)

    p = sub.add_parser("gen-cov", help="generate random covariate fields as ASCII grids")
    p.add_argument("--config", required=True, help="JSON random-field spec (or {'fields': [...]})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_cov)

    for name, func, extra_help in (
        ("scenario1", _cmd_scenario1, "analytic-covariate replication study"),
        ("scenario2", _cmd_scenario2, "random-field sampling-interval study"),
        ("irregular", _cmd_irregular, "regular vs random thinning comparison"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("--config", default=None, help="JSON config (defaults used if omitted)")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument(
            "--paper-scale",
            action="store_true",
            help="full replication counts (600 replications / 200 tracks)",
        )
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
