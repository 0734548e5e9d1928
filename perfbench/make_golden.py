"""Record the expected command outputs in ``golden.json``.

Run from the root of a checkout, only when the machine output format changes
on purpose::

    python3 perfbench/make_golden.py

Each command runs on the inputs of two seeds; a value is recorded only when
both seeds give it and the command passes its other checks.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_dgq()
    import workloads
    golden, bad = {}, []
    for workload, commands in workloads.WORKLOADS.items():
        values = {}
        for seed in (1, 2):
            work = run.WORK / f"golden-{workload}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            runner = run.Runner(work)
            inputs, _ = run._setup(runner, workload, seed, work)
            for cmd in commands:
                child = runner.run(workloads.concrete_argv(cmd, inputs))
                value = workloads.golden_value(cmd, child.stdout, inputs)
                problems = workloads.check(cmd, child.code, child.stdout,
                                           inputs, {cmd.label: value})
                if problems or values.setdefault(cmd.label, value) != value:
                    bad.append(f"{cmd.label} (seed {seed}): {problems}")
        golden.update(values)
    if bad:
        print("not recorded:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
