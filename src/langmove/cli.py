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
"n_y": ...}``.  Beside ``type``, ``name`` and ``path``, a spec's keys are
the fields of its class (``AnalyticWavelet``, ``RsfModel``, ...) and take
their defaults.  A key that names no setting is an error, in every spec,
and so are a missing key without a default and a value of the wrong JSON type.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .covariates import (
    AnalyticWavelet,
    Covariate,
    RandomFieldSpec,
    RasterCovariate,
    SquaredDistance,
    generate_random_field,
)
from .experiments import (
    PARAM_NAMES_S1,
    IrregularConfig,
    Scenario1Config,
    Scenario2Config,
    distinct,
    run_irregular,
    run_scenario1,
    run_scenario2,
)
from .inference import FitResult, pooled_fit
from .langevin import SimConfig, Track, read_track_csv, simulate, write_track_csv
from .raster import GridGeometry, positive, read_ascii_grid, write_ascii_grid
from .rsf import RsfModel, density_maps

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fits(value, type_: str) -> bool:
    """Whether a JSON value fits a setting declared ``type_`` (as the source
    spells it): ``float`` takes a number, ``int`` an integer, ``str`` a string,
    ``tuple[t, ...]`` a list of what ``t`` takes, any other type all but a boolean."""
    if type_.startswith("tuple["):
        item = type_[len("tuple["):].split(",")[0]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    kinds = {"float": (int, float), "int": int, "str": str}.get(type_, object)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _known_keys(spec: dict, what: str, types: dict, optional: tuple[str, ...] = ()) -> dict:
    """``spec`` itself, once checked to be a JSON object whose keys are keys of
    ``types``, all of them but ``optional``, each holding a value that fits
    the type that ``types`` gives it (:func:`_fits`).

    Anything else raises ``ValueError`` naming the keys, so a misspelt key
    cannot silently leave a setting at its default.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{what} config must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} config keys: {', '.join(unknown)}")
    missing = [key for key in types if key not in spec and key not in optional]
    if missing:
        raise ValueError(f"missing {what} config keys: {', '.join(missing)}")
    for key, value in spec.items():
        if not _fits(value, types[key]):
            raise ValueError(f"{what} config key {key} must be of type {types[key]}, got {value!r}")
    return spec


def _objects(specs, what: str) -> list:
    """``specs`` itself, once checked to be a list of JSON objects."""
    if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
        raise ValueError(f"{what} must be a list of JSON objects, got {specs!r}")
    return specs


def _dataclass_kwargs(cls, cfg: dict, **extra: str) -> dict:
    """The entries of ``cfg`` that name fields of ``cls``, JSON lists as tuples.

    ``extra`` gives the types of the optional keys the caller reads itself.
    :func:`_known_keys` rejects any other key, a missing field that has no
    default, and a value that does not fit its field's declared type.
    """
    types = {f.name: f.type for f in fields(cls)}
    optional = [f.name for f in fields(cls) if f.default is not MISSING or f.default_factory is not MISSING]
    _known_keys(cfg, cls.__name__, types | extra, (*optional, *extra))
    return {
        name: tuple(cfg[name]) if isinstance(cfg[name], list) else cfg[name]
        for name in types
        if name in cfg
    }


def _random_field_spec(spec: dict) -> RandomFieldSpec:
    return RandomFieldSpec(**_dataclass_kwargs(RandomFieldSpec, spec, type="str", name="str"))


def _covariate_from_spec(spec: dict, base_dir: Path) -> Covariate:
    kind = spec.get("type")
    if kind in ("wavelet", "squared_distance"):  # the spec's other keys are the type's fields
        cls = AnalyticWavelet if kind == "wavelet" else SquaredDistance
        return cls(**_dataclass_kwargs(cls, spec, type="str"))
    if kind == "raster":
        _known_keys(spec, kind, {"type": "str", "path": "str"})
        return RasterCovariate(read_ascii_grid(base_dir / spec["path"]))
    if kind == "random_field":
        return RasterCovariate(generate_random_field(_random_field_spec(spec)))
    raise ValueError(f"unknown covariate type {kind!r}")


def _covariates(specs: list, base_dir: Path) -> list[Covariate]:
    return [_covariate_from_spec(spec, base_dir) for spec in _objects(specs, "covariates")]


def _model_from_spec(spec: dict, base_dir: Path) -> RsfModel:
    kwargs = _dataclass_kwargs(RsfModel, spec)
    return RsfModel(**kwargs | {"covariates": _covariates(spec["covariates"], base_dir)})


def _format_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_json(payload, path: Path) -> None:
    """Write ``payload`` as indented JSON with sorted keys; NaN and infinity,
    which strict JSON parsers reject, raise ``ValueError``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_outputs(out: str, command: str, cfg: dict, writers: dict, **record) -> None:
    """Create the directory ``out``, write the outputs and then ``manifest.json``.

    ``writers`` maps each output's file name to a function that writes it to
    the path it is given.  The manifest records ``command``, ``cfg`` and its
    hash, the package version, the seed rule, ``record`` and the output names.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        write(out_dir / name)
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "langmove_version": __version__,
        "seed_rule": (
            "derive_rng(s, *key) is PCG64(SeedSequence(entropy=s, spawn_key=key)); a plain seed s "
            "draws from derive_rng(s), a study stream from derive_rng(derive_seed(seed, *key)), "
            "start points from derive_rng(seed, 2); langmove.seeding lists the keys"
        ),
        "outputs": list(writers),
    }
    _write_json(manifest | record, out_dir / "manifest.json")


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

    def write_table(path: Path) -> None:
        with open(path, "w") as fh:
            for key, value in {"config_sha256": _config_hash(cfg), **provenance}.items():
                fh.write(f"# {key}={value}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(row[k]) for k in header) + "\n")

    _write_outputs(out, command, cfg, {table: write_table}, **record)


def _fit_counters(res: FitResult) -> dict:
    """A study fit's deterministic counters for its manifest."""
    return {"n": res.n, "condition_number": res.condition_number}


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(args: argparse.Namespace) -> int:
    # a config's keys are SimConfig's fields, but it lists seeds; --seed stands in for them
    types = {f.name: f.type for f in fields(SimConfig) if f.name != "seed"} | {"seeds": "tuple[int, ...]"}
    optional = ("seeds",) if args.seed is not None else ()
    cfg = _known_keys(_load_config(args.config), "simulate", types, optional)
    base_dir = Path(args.config).parent
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    seeds = distinct(cfg["seeds"], "seeds")
    model = _model_from_spec(cfg["model"], base_dir)
    sims = {seed: simulate(SimConfig(model, cfg["x0"], cfg["dt"], cfg["n_steps"], seed)) for seed in seeds}
    _write_outputs(
        args.out,
        "simulate",
        cfg,
        {f"track_{seed}.csv": partial(write_track_csv, sim.track) for seed, sim in sims.items()},
        seeds=list(cfg["seeds"]),
        fine_steps=sum(len(sim.track) - 1 for sim in sims.values()),
        clamp_counts={str(seed): sim.n_clamped for seed, sim in sims.items()},
    )
    print(f"wrote {len(sims)} track(s) to {Path(args.out)}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    positive(args.time_scale, "--time-scale")
    cov_cfg = _load_config(args.covariates)
    base_dir = Path(args.covariates).parent
    specs = cov_cfg
    if isinstance(cov_cfg, dict):
        specs = _known_keys(cov_cfg, "covariates file", {"covariates": "list"})["covariates"]
    covariates = _covariates(specs, base_dir)
    # e.g. --time-scale 3600 turns epoch-second stamps into hours; t / 1.0 is t
    tracks = [Track(t.times / args.time_scale, t.xy) for t in map(read_track_csv, args.tracks)]
    result = pooled_fit(tracks, covariates, alpha=args.alpha)

    cfg = {"covariates": specs, "alpha": args.alpha, "time_scale": args.time_scale}
    doc = result.to_dict()
    doc["tracks"] = [str(p) for p in args.tracks]
    doc["time_scale"] = args.time_scale
    doc["config_sha256"] = _config_hash(cfg)
    table = result.format_table()
    _write_outputs(
        args.out,
        "fit",
        cfg,
        {"fit.json": partial(_write_json, doc), "fit.txt": lambda p: p.write_text(table + "\n")},
    )
    print(table)
    return 0


def _cmd_ud(args: argparse.Namespace) -> int:
    cfg = _known_keys(_load_config(args.config), "ud", {"model": "RsfModel", "grid": "GridGeometry"})
    base_dir = Path(args.config).parent
    model = _model_from_spec(cfg["model"], base_dir)
    geometry = GridGeometry(**_dataclass_kwargs(GridGeometry, cfg["grid"]))
    names = ("ud.asc",) if args.no_log else ("ud.asc", "ud_log.asc")
    writers = {name: partial(write_ascii_grid, r) for name, r in zip(names, density_maps(model, geometry))}
    _write_outputs(args.out, "ud", cfg, writers)
    print(f"wrote {', '.join(writers)} to {Path(args.out)}")
    return 0


def _cmd_gen_cov(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    many = isinstance(cfg, dict) and "fields" in cfg
    specs = _objects(_known_keys(cfg, "gen-cov", {"fields": "list"})["fields"], "fields") if many else [cfg]
    field_specs = [_random_field_spec(spec) for spec in specs]  # each spec checked to be a JSON object first
    names = distinct([spec.get("name", f"cov{k + 1}") for k, spec in enumerate(specs)], "field names")
    for name in names:  # each names a file in --out
        if not name or Path(name).name != name:
            raise ValueError(f"field name must be a plain file name, got {name!r}")
    writers = {
        name + ".asc": partial(write_ascii_grid, generate_random_field(field))
        for name, field in zip(names, field_specs)
    }
    _write_outputs(args.out, "gen-cov", cfg, writers, seeds=[spec["seed"] for spec in specs])
    print(f"wrote {', '.join(writers)} to {Path(args.out)}")
    return 0


def _study_config(
    args: argparse.Namespace, cls, paper_scale: dict, **extra: str
) -> tuple[dict, object]:
    """The loaded config (empty if none), and the study config ``cls`` built
    from it with the command-line overrides applied; ``extra`` gives the
    types of the keys the command reads itself."""
    cfg = _load_config(args.config) if args.config else {}
    kwargs = _dataclass_kwargs(cls, cfg, **extra)
    if args.paper_scale:
        kwargs.update(paper_scale)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    return cfg, cls(**kwargs)


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
        fine_steps=s1.replications * s1.n_fine_steps,
        n_clamped=result.n_clamped,
        failures=[list(f) for f in result.failures],
        # null, not NaN, where every replication of the mode failed: strict JSON has no NaN
        medians={
            mode: {
                name: None if np.isnan(med) else float(med)
                for name, med in zip(PARAM_NAMES_S1, result.medians(mode))
            }
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
        fine_steps=result.n_tracks * s2.n_fine_steps,
        n_clamp_events=result.n_clamp_events,
        dropped_increments={str(level): n for level, n in result.dropped_increments.items()},
        fits={str(level): _fit_counters(res) for level, res in result.fits.items()},
    )
    for row in rows:
        print(
            f"delta={row['delta']:g}: beta1={row['beta1_hat']:.3f} (se {row['beta1_se']:.3f}) "
            f"beta2={row['beta2_hat']:.3f} (se {row['beta2_se']:.3f}) gamma2={row['gamma2_hat']:.4f}"
        )
    return 0


def _cmd_irregular(args: argparse.Namespace) -> int:
    cfg, s2 = _study_config(args, Scenario2Config, {"n_tracks": 200}, mean_intervals="tuple[float, ...]")
    irr = IrregularConfig(s2, tuple(cfg.get("mean_intervals", IrregularConfig.mean_intervals)))
    result = run_irregular(irr)
    rows = result.to_rows()
    _write_study(
        args.out,
        "irregular",
        asdict(irr),
        "comparison.csv",
        list(rows[0]),
        rows,
        {"seed": s2.seed},
        fine_steps=result.n_tracks * s2.n_fine_steps,
        n_clamp_events=result.n_clamp_events,
        dropped_increments={str(k): n for k, n in result.dropped_increments.items()},
        fits={
            str(k): {"regular": _fit_counters(res), "irregular": _fit_counters(result.irregular[k])}
            for k, res in result.regular.items()
        },
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
