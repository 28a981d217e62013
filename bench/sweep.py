"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the repository root::

    python3 bench/sweep.py --seeds 1-10 --trace 0 --out .bench_out/sweep.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the
median over seeds, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread ``(q3 - q1) / median``; for an end-to-end metric also the
spread as a share of its bound.  This is how the benchmark's steadiness and
its baseline (``bench/baseline/``) were measured; run it on the parent
and the changed commit to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("# provenance "):
                    summary.setdefault("provenance", json.loads(line[len("# provenance "):]))
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        stats = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            share = f"  spread/bound {s['spread'] / bounds[name]:.2f}" if name in bounds else ""
            print(f"  {workload:15s} {name:42s} {s['unit']:13s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{share}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
