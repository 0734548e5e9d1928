"""Run the benchmark on several seeds and record the figures in a baseline file.

Run from the root of a checkout::

    python3 perfbench/make_baseline.py --out perfbench/baseline.json
    python3 perfbench/make_baseline.py --out other.json --compare perfbench/baseline.json

Each workload runs untraced once per seed, and traced once on the first seed.
For every end-to-end metric the file records the median, the quartiles and
the spread (third minus first quartile, over the median) of the seeds'
values; for every layer metric the traced run's value.  The workload reasons
and metric units are copied from ``BENCHMARK.json`` and the layer-to-metric
mapping from ``run.LAYER_MOVES``, so the copies cannot drift apart.
``--compare`` prints, per workload and metric, how far this set's median is
from the median recorded in another baseline file, as a share of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k} {v['value']:.6g}" for k, v in
                      result["metrics"].items() if not trace)
          + f" (failed {result['failed']}/{result['attempted']})", flush=True)
    return result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "runs": len(values)}


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="101-110",
                        help="first-last, inclusive")
    parser.add_argument("--workloads", default="verify,kac,twists")
    parser.add_argument("--compare", help="a baseline file to compare with")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = range(first, last + 1)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    e2e_units, layer_units = run.load_units()
    run._import_dgq()
    import workloads

    out = {
        "about": (f"perfbench/run.py, untraced on seeds {args.seeds}, "
                  f"traced on seed {first}"),
        "environment": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "git_sha": _git_sha()},
        "run_seconds": bench["run_seconds"],
        "layer_moves": run.LAYER_MOVES,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        results = [_run(name, seed, bench["run_seconds"], 0) for seed in seeds]
        end_to_end = {
            metric: {"unit": unit,
                     **_spread([r["metrics"][metric]["value"] for r in results])}
            for metric, unit in e2e_units.items()}
        traced = _run(name, first, bench["run_seconds"], 1)
        runs = results + [traced]
        out["workloads"][name] = {
            "why": why[name],
            "commands": [cmd.label for cmd in workloads.WORKLOADS[name]],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {metric: {"value": traced["metrics"][metric]["value"],
                                   "unit": unit}
                          for metric, unit in layer_units.items()},
        }
        for metric, fig in end_to_end.items():
            print(f"SPREAD {name} {metric}: median {fig['median']:.6g} "
                  f"iqr/median {fig['iqr_over_median']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")

    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)
        for name, wl in out["workloads"].items():
            for metric, fig in wl["end_to_end"].items():
                before = old["workloads"][name]["end_to_end"][metric]["median"]
                print(f"COMPARE {name} {metric}: {before:.6g} -> "
                      f"{fig['median']:.6g} ({fig['median'] / before - 1:+.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
