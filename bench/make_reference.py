"""Regenerate reference.json: the digest and tick count of every pool instance.

    python3 bench/make_reference.py [workload ...]

Run it only on a commit whose behaviour is the reference, since every later
benchmark run fails a trial whose digest differs. The tick counts also set the
strata that planner workloads sample from. Running all pools takes about
seven minutes on a 2-CPU machine, most of it in hallway-jam.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, generate, play


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    pkg = run.load_package()
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in names:
        workload = WORKLOADS[name]
        instances = [(cell, seed) for cell in workload.cells for seed in workload.pool(cell)]
        for (key, scenario), (cell, seed) in zip(generate(pkg, instances), instances):
            _, trace, result = play(pkg, workload.solver, scenario)
            out = run.Pass()
            digest, problems = run.evaluate(workload.solver, scenario, trace, result, out)
            if problems:
                print(f"{key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            reference[key] = {"digest": digest, "ticks": out.ticks}
            print(key, out.ticks, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
