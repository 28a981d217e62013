"""Benchmark of the langmove package.

Run from the repository root::

    python3 bench/run.py --workload study_raster --seed 1 --seconds 36 --trace 0

It imports langmove from ``src/`` next to this directory (nothing is
installed), builds the workload's inputs from ``--seed``, then runs passes
of the workload one after another in one single-threaded process (a closed
loop: the next pass starts when the previous one ends) for about
``--seconds`` seconds.  The first pass is a warm-up and is not reported.
Before every other untraced pass the inputs are built again, timed apart
from the pass, which gives ``setup_s``.  An untraced run also runs one
untimed pass in a forked child to measure the memory a pass needs.
After every pass, outside the timed region, it checks the outputs.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``),
measured with tracing off.  With ``--trace 1`` passes rotate between
tracing off, span tracing and full tracing (see ``tracer.py``) and the
metrics are the per-layer ones (``PER_LAYER``), including the tracing
overhead.  End-to-end timings, set-up included, are averages over the
measured window, given at the reference host speed of ``hostspeed.py``
(see ``end_to_end_metrics``); per-layer timings are medians over passes,
in raw seconds.  The earlier ``#`` lines give the per-pass medians,
quartiles and sample counts, and the raw window averages.  A JSON record with the provenance (nproc, Python/numpy/scipy
versions, git sha, seed, workload sizes), every pass and, when tracing,
every span is written to ``.bench_out/``.

Workloads (see ``workloads.py``):

- ``study_raster``: the random-field study on 8 tracks.  Raster gradients
  inside the simulator, many tracks, big pooled fits.
- ``study_analytic``: the analytic-wavelet study at 20 replications.
  Closed-form gradients and 40 small fits.
- ``analysis``: the user's real-data path: ASC/CSV input, pooled fit,
  pseudo-likelihood, density map, output files, one long simulated track.

Seeds: seeds 1 to 10 were used while writing the benchmark and for its
baseline (``bench/baseline/``, written by ``sweep.py``).  Seed
``HELD_OUT_SEED`` was not: use it to re-check a performance claim on data it
was not tuned on.

Operations are fits, simulations, file reads and writes, density maps and
output checks; a ``LangmoveError`` or a failed check counts as a failed
operation and makes ``correct`` false.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded, set before numpy is imported

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
HELD_OUT_SEED = 1810102130
MIN_PASSES = 3
#: A set-up sample repeats the set-up until it has taken this long, so a
#: sample of a short set-up is not timer noise.
SETUP_MIN_S = 0.1

END_TO_END = [
    ("wall_s", "s"),
    ("track_steps_per_s", "steps/s"),
    ("increments_per_s", "increments/s"),
    ("setup_s", "s"),
    ("pass_peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
]

LAYER_NAMES = ("langevin", "covariates", "raster", "rsf", "inference", "experiments", "seeding")

PER_LAYER = [
    ("langevin.simulate.us_per_step", "us/step"),
    ("langevin.simulate.self_s", "s"),
    ("langevin.simulate.steps", "count"),
    ("langevin.simulate.clamp_events", "count"),
    ("langevin.thin.s", "s"),
    ("langevin.segment.s", "s"),
    ("langevin.csv_read.us_per_row", "us/row"),
    ("langevin.csv_write.us_per_row", "us/row"),
    ("covariates.gradient.raster.us_per_point", "us/point"),
    ("covariates.gradient.analytic.us_per_point", "us/point"),
    ("covariates.gradient.calls", "count"),
    ("covariates.gradient.points", "count"),
    ("covariates.points_per_call", "ratio"),
    ("covariates.random_field.s", "s"),
    ("raster.interp.us_per_point", "us/point"),
    ("raster.asc_read.s", "s"),
    ("raster.asc_write.s", "s"),
    ("raster.asc_bytes", "bytes"),
    ("rsf.grad_log_pi.calls", "count"),
    ("rsf.grad_log_pi.self_us_per_call", "us/call"),
    ("rsf.ud_raster.us_per_cell", "us/cell"),
    ("inference.design.us_per_increment", "us/increment"),
    ("inference.fit.calls", "count"),
    ("inference.fit.ms_per_call", "ms/call"),
    ("inference.fit.increments", "count"),
    ("inference.fit.failed", "count"),
    ("inference.pll.us_per_increment", "us/increment"),
    *[(f"{layer}.self_s", "s") for layer in LAYER_NAMES],
    ("seeding.streams", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def import_package():
    """Import langmove from this checkout's ``src/``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "langmove" / "__init__.py").is_file():
        print(f"error: no langmove package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import langmove

    if Path(langmove.__file__).resolve().parent != (src / "langmove").resolve():
        print(f"error: imported langmove from {langmove.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return langmove


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# one run


class PassRecord:
    """One measured pass: its mode, wall time, spans and per-point totals."""

    def __init__(self, index, mode, wall, spans, agg, layer_self, ok):
        self.index = index
        self.mode = mode
        self.wall = wall
        self.spans = spans
        self.agg = agg
        self.layer_self = dict(layer_self)
        self.ok = ok

    def outer(self, cat):
        return [s for s in self.spans if s.cat == cat and s.outer]

    def steps(self) -> int:
        return sum(s.units.get("steps", 0) for s in self.outer("simulate"))

    def increments(self) -> int:
        return sum(s.units.get("n", 0) for s in self.outer("fit") if s.error is None)

    def signature(self) -> dict:
        """Counts a correct program reproduces exactly on every pass."""
        sims = self.outer("simulate")
        return {
            "steps": self.steps(),
            "clamps": sum(s.units.get("clamps", 0) for s in sims),
            "tracks": sum(s.units.get("tracks", 0) for s in sims),
            "fit_n": [s.units.get("n") for s in self.outer("fit")],
        }


def run_pass(workload, inst, index, ops, reference):
    """Time one pass under ``inst``, then check its outputs (untimed)."""
    from workloads import check_fit_identities

    with inst:
        inst.begin_pass(index)
        gc.collect()
        t0 = perf_counter()
        try:
            out = workload.run_pass()
            error = None
        except Exception:  # a failing pass is recorded and measuring goes on
            out = None
            error = traceback.format_exc()
        wall = perf_counter() - t0
    rec = PassRecord(index, inst.level, wall, inst.pass_spans(), inst.agg, inst.layer_self, error is None)
    for span in rec.outer("simulate"):
        for _ in range(span.units.get("tracks", 1)):
            ops.record(span.error is None, f"pass {index}: simulation raised {span.error}")
    fits = rec.outer("fit")
    for span in fits:
        ops.record(span.error is None, f"pass {index}: fit {span.id} raised {span.error}")
    if error is not None:
        print(error, file=sys.stderr)
        ops.record(False, f"pass {index}: {error.strip().splitlines()[-1]}")
        return rec
    for _ in range(workload.file_ops()):
        ops.record(True, "")
    for span in fits:
        if span.error is None:
            check_fit_identities(span.result, ops, f"pass {index} fit {span.id}")
    workload.check(out, ops)
    signature = {**rec.signature(), **out.counts}
    if inst.level == "full":
        signature["streams"] = sum(v[0] for k, v in rec.agg.items() if k[0] == "seeding")
        signature["gradient_points"] = sum(
            v[1] for k, v in rec.agg.items() if k[0] == "covariates" and k[1].endswith(".gradient")
        )
    ref = reference.setdefault(inst.level, signature)
    untraced = reference.setdefault("off", signature)
    common = {k: v for k, v in signature.items() if k in untraced}
    ops.check(
        signature == ref and common == untraced,
        f"pass {index}: counts differ from the first pass: {signature} vs {ref}",
    )
    return rec


def pass_peak_rss(workload) -> tuple[int | None, str | None]:
    """Resident memory one pass adds at its peak, in bytes, or the error it raised.

    The pass runs in a forked child, whose peak resident size the kernel
    tracks from the child's size when forked, at no cost to the pass.
    The parent first hands its freed heap back to the system, so that the
    child cannot reuse memory that is already resident unseen.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                workload.run_pass()
                after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                report = {"peak": (after - before) * 1024, "error": None}  # ru_maxrss is in KiB
            except Exception:
                report = {"peak": None, "error": traceback.format_exc()}
            with os.fdopen(write_end, "w") as pipe:
                json.dump(report, pipe)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    report = json.loads(text) if text else {"peak": None, "error": "the memory pass exited without a report"}
    return report["peak"], report["error"]


def run(langmove, workload, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Set up, run passes for ``seconds``, and return the metrics and records."""
    from hostspeed import reference_chunk
    from tracer import Instrument
    from workloads import Ops

    work_dir.mkdir(parents=True, exist_ok=True)
    setup_samples: list[tuple[float, int]] = []  # (seconds, set-ups)

    def timed_setup() -> None:
        # Untraced runs set up again before every pass, so the set-up
        # samples are spread over the run like the passes and see the same
        # mix of host conditions; set-up is never inside a timed pass.
        gc.collect()
        t0 = perf_counter()
        count = 0
        while count == 0 or perf_counter() - t0 < SETUP_MIN_S:
            workload.setup(work_dir)
            count += 1
        setup_samples.append((perf_counter() - t0, count))

    setup_spans = []
    if trace:
        with Instrument(langmove, "spans") as inst:
            inst.begin_pass("setup")
            workload.setup(work_dir)
        setup_spans = inst.spans
    else:
        timed_setup()

    modes = ("off", "spans", "full") if trace else ("off",)
    instruments = {mode: Instrument(langmove, mode) for mode in modes}
    minimum = 1 if trace else MIN_PASSES
    ops = Ops()
    reference: dict = {}
    warmup = run_pass(workload, instruments["off"], 0, ops, reference)
    peak_rss = None
    if not trace:
        peak_rss, error = pass_peak_rss(workload)
        if error is not None:
            print(error, file=sys.stderr)
        ops.record(error is None, "memory pass raised " + (error or "").strip().split("\n")[-1])
    # Untraced runs time the host-speed reference chunk before every timed
    # block and once after the last, so that the chunks sample the host
    # across the whole window; the first chunk is a warm-up.
    ref_samples: list[float] = []
    if not trace:
        reference_chunk()
    records: list[PassRecord] = []
    t_start = perf_counter()
    while True:
        mode = modes[len(records) % len(modes)]
        if not trace:
            ref_samples.append(reference_chunk())
            timed_setup()
            ref_samples.append(reference_chunk())
        records.append(run_pass(workload, instruments[mode], len(records) + 1, ops, reference))
        walls = [r.wall for r in records if r.mode == modes[len(records) % len(modes)]]
        expected = statistics.median(walls) if walls else records[-1].wall
        if not trace:
            expected += statistics.median(t for t, _ in setup_samples) + 3 * ref_samples[-1]
        enough = all(sum(r.mode == m for r in records) >= minimum for m in modes)
        if enough and perf_counter() - t_start + expected > seconds:
            break
    if not trace:
        ref_samples.append(reference_chunk())

    if trace:
        metrics = per_layer_metrics(records, setup_spans)
        samples = {"trace.wall_s": [r.wall for r in records if r.mode == "full"]}
        raw = {}
    else:
        metrics, samples, raw = end_to_end_metrics(records, setup_samples, ref_samples, peak_rss, ops)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.reasons[:20],
        "metrics": metrics,
        "samples": samples,
        "raw": raw,
        "warmup_s": warmup.wall,
        "passes": [
            {"index": r.index, "mode": r.mode, "wall_s": r.wall, "ok": r.ok, "layer_self_s": r.layer_self}
            for r in records
        ],
        "spans": [s.to_dict() for inst in instruments.values() if inst.level != "off" for s in inst.spans]
        + [s.to_dict() for s in setup_spans],
        "per_point": [
            {"pass": r.index, "layer": k[0], "function": k[1], "parent": k[2],
             "calls": v[0], "points": v[1], "total_s": v[2], "self_s": v[3]}
            for r in records if r.mode == "full" for k, v in r.agg.items()
        ],
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(records, setup_samples, ref_samples, peak_rss, ops) -> tuple[dict, dict]:
    """The end-to-end metrics, and the per-pass samples behind them.

    Pass time, set-up time and the two rates are taken over the whole
    measured window (measured time / passes or set-ups, work done /
    measured time), not as medians of samples: on a shared host whose
    speed switches between regimes, the median jumps between the regimes
    while the window average moves smoothly with the share of time spent
    in each.  The share itself still differs from run to run by more than
    a bound can allow, so every time is then given at the reference speed
    of ``hostspeed.py``: divided by the host's slowdown in this window,
    the mean time of the reference chunk over ``REF_NOMINAL_S``.  The
    returned samples and the ``raw`` entry are as measured.
    """
    from hostspeed import REF_NOMINAL_S

    slowdown = statistics.fmean(ref_samples) / REF_NOMINAL_S
    total = sum(r.wall for r in records)
    setup = sum(t for t, _ in setup_samples) / sum(n for _, n in setup_samples)
    out = {
        "wall_s": total / len(records) / slowdown,
        "track_steps_per_s": sum(r.steps() for r in records) / total * slowdown,
        "increments_per_s": sum(r.increments() for r in records) / total * slowdown,
        "setup_s": setup / slowdown,
        "pass_peak_rss_mb": (peak_rss or 0) / 2**20,
        "ops_ok_frac": 1.0 - ops.failed / max(ops.attempted, 1),
    }
    samples = {
        "wall_s": [r.wall for r in records],
        "setup_s": [t / n for t, n in setup_samples],
        "ref_chunk_s": list(ref_samples),
    }
    raw = {"wall_s": total / len(records), "setup_s": setup, "slowdown": slowdown}
    return out, samples, raw


def _total(spans) -> float:
    return sum(s.t1 - s.t0 for s in spans)


def _per_unit(spans, unit: str, scale: float, offset: int = 0) -> float:
    denom = sum(s.units.get(unit, 0) + offset for s in spans)
    return _total(spans) / denom * scale if denom else 0.0


def span_metrics(spans) -> dict:
    """Inclusive times of coarse calls in one pass traced at the "spans" level."""

    def sel(layer, *words):
        return [s for s in spans if s.layer == layer and any(w in s.name for w in words)]

    fits = [s for s in spans if s.layer == "inference" and s.name == "fit"]
    outer_fits = [s for s in spans if s.cat == "fit" and s.outer]
    asc = sel("raster", "read", "write")
    return {
        "langevin.simulate.us_per_step": _per_unit(
            [s for s in spans if s.cat == "simulate" and s.outer], "steps", 1e6
        ),
        "langevin.thin.s": _total([s for s in spans if s.layer == "langevin" and s.name.startswith("thin")]),
        "langevin.segment.s": _total(sel("langevin", "split", "segment", "drop")),
        "langevin.csv_read.us_per_row": _per_unit(sel("langevin", "read"), "rows", 1e6),
        "langevin.csv_write.us_per_row": _per_unit(sel("langevin", "write"), "rows", 1e6),
        "covariates.random_field.s": _total(sel("covariates", "random_field")),
        "raster.asc_read.s": _total(sel("raster", "read")),
        "raster.asc_write.s": _total(sel("raster", "write")),
        "raster.asc_bytes": sum(s.units.get("bytes", 0) for s in asc),
        "rsf.ud_raster.us_per_cell": _per_unit(sel("rsf", "ud_"), "cells", 1e6),
        "inference.design.us_per_increment": _per_unit(
            [s for s in spans if s.cat == "design" and s.outer], "n", 1e6
        ),
        "inference.fit.calls": len(fits),
        "inference.fit.ms_per_call": _total(fits) / len(fits) * 1e3 if fits else 0.0,
        "inference.fit.increments": sum(s.units.get("n", 0) for s in fits if s.error is None),
        "inference.fit.failed": sum(s.error is not None for s in outer_fits),
        "inference.pll.us_per_increment": _per_unit(sel("inference", "likelihood"), "rows", 1e6, -1),
    }


def full_metrics(rec: PassRecord) -> dict:
    """Counts and self times from one pass traced at the "full" level."""

    def agg(pred):
        rows = [v for k, v in rec.agg.items() if pred(*k)]
        return [sum(r[i] for r in rows) for i in range(4)]  # calls, points, total, self

    grad = agg(lambda layer, fn, parent: layer == "covariates" and fn.endswith(".gradient"))
    raster_grad = agg(lambda layer, fn, parent: layer == "covariates" and fn.endswith(".gradient") and "Raster" in fn)
    interp = agg(lambda layer, fn, parent: layer == "raster" and fn.startswith("interpolate"))
    glp = agg(lambda layer, fn, parent: fn.endswith(".grad_log_pi"))
    seeding = agg(lambda layer, fn, parent: layer == "seeding")
    analytic = [g - r for g, r in zip(grad, raster_grad)]
    sims = [s for s in rec.spans if s.cat == "simulate"]
    out = {
        "langevin.simulate.self_s": sum(s.self_s for s in sims),
        "langevin.simulate.steps": sum(s.units.get("steps", 0) for s in sims if s.outer),
        "langevin.simulate.clamp_events": sum(s.units.get("clamps", 0) for s in sims if s.outer),
        "covariates.gradient.raster.us_per_point": raster_grad[2] / raster_grad[1] * 1e6 if raster_grad[1] else 0.0,
        "covariates.gradient.analytic.us_per_point": analytic[2] / analytic[1] * 1e6 if analytic[1] else 0.0,
        "covariates.gradient.calls": grad[0],
        "covariates.gradient.points": grad[1],
        "covariates.points_per_call": grad[1] / grad[0] if grad[0] else 0.0,
        "raster.interp.us_per_point": interp[2] / interp[1] * 1e6 if interp[1] else 0.0,
        "rsf.grad_log_pi.calls": glp[0],
        "rsf.grad_log_pi.self_us_per_call": glp[3] / glp[0] * 1e6 if glp[0] else 0.0,
        "seeding.streams": seeding[0],
        "trace.wall_s": rec.wall,
        "trace.unattributed_s": rec.wall - sum(rec.layer_self.values()),
    }
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = rec.layer_self.get(layer, 0.0)
    return out


def per_layer_metrics(records, setup_spans) -> dict:
    by_mode = {m: [r for r in records if r.mode == m] for m in ("off", "spans", "full")}
    span_rows = [span_metrics(r.spans) for r in by_mode["spans"]]
    out = {name: statistics.median(row[name] for row in span_rows) for name in span_rows[0]}
    out["covariates.random_field.s"] += span_metrics(setup_spans)["covariates.random_field.s"]
    full = sorted(by_mode["full"], key=lambda r: r.wall)
    out.update(full_metrics(full[(len(full) - 1) // 2]))
    off_wall = statistics.median(r.wall for r in by_mode["off"])
    out["trace.overhead_frac"] = statistics.median(r.wall for r in full) / off_wall - 1.0
    return {name: out[name] for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point


def provenance(langmove, workload, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "langmove": langmove.__version__,
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }


def result_line(result: dict, trace: bool) -> dict:
    """The object printed as the last line of standard output."""
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    langmove = import_package()
    import workloads

    args = parse_args(argv)
    workload = workloads.make(args.workload, args.seed)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(langmove, workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["provenance"] = provenance(langmove, workload, args)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, values in result["samples"].items():
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"# {name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    if result["raw"]:
        print("# raw " + " ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for reason in result["failures"]:
        print(f"# failure: {reason}")
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
