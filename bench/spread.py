"""Run one workload over several seeds, each in a fresh process, and summarise.

    python3 bench/spread.py --workload cbs-solve --seeds 1-10 --seconds 30

For every metric it prints the median, the quartiles and the quartile
spread as a share of the median (the figure BENCHMARK.json's bounds are set
against), and it fails if any run is not correct. With --trace 1 it also
prints each count-valued per-layer metric per seed, for comparing two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 200


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        context = json.loads(lines[-2]) if len(lines) > 1 else {}
        ok &= result["correct"]
        metrics = result["metrics"]
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
        shown = {k: round(v["value"], 4) for k, v in metrics.items()
                 if args.trace == 0 or v["unit"] == "count"}
        print(json.dumps({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                          "passes": context.get("passes"), "digest": context.get("digest"),
                          "metrics": shown}), flush=True)
    summary = {name: summarise(v) for name, v in values.items()}
    print(json.dumps({"workload": args.workload, "runs": len(args.seeds), "summary": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
