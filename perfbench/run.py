"""End-to-end and per-layer benchmark of the ``dgq`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

One client runs one ``dgq --format machine`` child at a time (closed loop),
each child a fresh interpreter, as a user pays.  Each command runs between
two runs of the fixed pure-Python child ``reference.py``.  ``--trace 0``
reports the end-to-end metrics: ``wall_ref``, over the passes that fit in
``--seconds``, the summed wall time of the commands divided by the summed
mean time of the two reference runs around each command (the host's speed
changes by up to 1.5x within seconds and the reference changes with it);
``peak_rss_mb``, the largest peak resident set of any child, which
``child.py`` reads in the child; ``setup_s``, the median over
``SETUP_REPEATS`` set-ups that generate, write and ``dgq validate`` the
seeded inputs of the set-up's time divided by the mean time of the reference
runs before and after it, times ``REFERENCE_S``: the set-up time in seconds
on a host where the reference takes ``REFERENCE_S``.  The summary line also
gives the median raw ``wall_s`` of a pass and ``fail_frac``.

``--trace 1`` runs one untraced pass and then replays the same commands in
this process through ``dgq.cli.run`` three times: with only the FieldSpec
call counter of ``tracing.py`` installed, plain, and with its layer spans
installed.  Field-operation counts come from the first replay, layer times
from the third, and ``trace.overhead_s`` is the third minus the second.

The names and units of the metrics are those of ``BENCHMARK.json``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Generated inputs and span files go to
``.perfbench_work/``.  A run must end within 180 s, so any child still
running ``RUN_LIMIT_S`` after the run started is killed, and the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io as textio
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Median wall time of reference.py on the 2-CPU host the bounds were set on;
# it only converts setup_s from reference units back to seconds.
REFERENCE_S = 0.32
STARTUP_REPEATS = 5
RUN_LIMIT_S = 170           # leaves 10 s of the 180 s a run may take

# per-layer metric -> the end-to-end metric and workloads it moves
LAYER_MOVES = {
    "cli.startup_s": "wall_ref on every workload, once per command",
    "cli.self_s": "wall_ref on every workload",
    "io.load_s": "wall_ref on every workload",
    "io.emit_s": "wall_ref on twists",
    "io.out_bytes": "wall_ref on twists",
    "double.validate_s": "wall_ref on verify",
    "double.vacancy_s": "wall_ref on verify",
    "wha.build_s": "wall_ref on verify, less on twists",
    "wha.verify_s": "wall_ref on verify, less on twists",
    "wha.boxes": "base of the wha ratios (computed)",
    "wha.triples": "base of wha.composable_ratio (computed)",
    "wha.triples_composable": "useful wha triples (computed)",
    "wha.composable_ratio": "wall_ref on verify",
    "fields.ops_q": "wall_ref on verify",
    "fields.ops_fp": "wall_ref on twists",
    "matched.diagonal_s": "wall_ref on kac",
    "matched.convert_s": "wall_ref on kac",
    "cohomology.groupoid_s": "wall_ref and peak_rss_mb on kac",
    "cohomology.complex_s": "wall_ref and peak_rss_mb on kac",
    "cohomology.sequence_s": "wall_ref on kac",
    "cohomology.basis_max": "peak_rss_mb on kac",
    "cohomology.nerve_max": "peak_rss_mb on kac",
    "cohomology.bidegree_max": "peak_rss_mb on kac",
    "cohomology.cells": "wall_ref and peak_rss_mb on kac",
    "cohomology.nnz": "base of cohomology.density",
    "cohomology.density": "wall_ref and peak_rss_mb on kac",
    "linalg.fp_s": "wall_ref and peak_rss_mb on kac",
    "linalg.fp_calls": "wall_ref on kac",
    "linalg.fp_repeat_ratio": "wall_ref on kac",
    "linalg.z_s": "wall_ref on twists",
    "linalg.z_calls": "wall_ref on twists",
    "linalg.z_repeat_ratio": "wall_ref on twists",
    "linalg.matmul_s": "wall_ref and peak_rss_mb on kac",
    "cocycles.enumerate_s": "wall_ref on twists",
    "cocycles.validate_s": "wall_ref on twists",
    "cocycles.validate_calls": "wall_ref on twists",
    "cocycles.gauge_s": "wall_ref on twists",
    "cocycles.pairs": "base of the cocycles counts",
    "trace.hooks_s": "none: the tracer's own bookkeeping",
    "trace.overhead_s": "none: traced replay minus plain replay",
}
END_TO_END = ("wall_ref", "peak_rss_mb", "setup_s")


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, from
    ``BENCHMARK.json``, checked against the metrics this file computes."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = [{m["name"]: m["unit"] for m in bench[key]}
             for key in ("end_to_end", "per_layer")]
    for declared, computed in zip(units, (END_TO_END, LAYER_MOVES)):
        if set(declared) != set(computed):
            sys.exit("error: BENCHMARK.json and perfbench/run.py name "
                     f"different metrics: {sorted(set(declared) ^ set(computed))}")
    return units[0], units[1]


def _import_dgq():
    """Import ``dgq`` from this checkout's sources and nowhere else."""
    if not (SRC / "dgq" / "cli.py").is_file():
        sys.exit(f"error: no dgq sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dgq
    if Path(dgq.__file__).resolve().parent != SRC / "dgq":
        sys.exit(f"error: imported dgq from {dgq.__file__}, not {SRC}")


@dataclass
class Child:
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    peak_kb: int = 0


class Runner:
    """Runs ``dgq`` children one at a time, killing any past the time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.hwm_path = work / "hwm"
        # Children cache bytecode under src/ as an installed dgq would.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PERFBENCH_HWM_FILE"] = str(self.hwm_path)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, args: list[str]) -> Child:
        self.hwm_path.unlink(missing_ok=True)
        child = self._spawn([sys.executable, str(HERE / "child.py")] + args)
        child.peak_kb = int(self.hwm_path.read_text(encoding="ascii"))
        return child

    def _spawn(self, argv) -> Child:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, out_path.read_text(encoding="utf-8"),
                     wall, usage.ru_utime + usage.ru_stime)

    def reference_s(self) -> float:
        """Wall time of one run of the reference workload."""
        child = self._spawn([sys.executable, str(HERE / "reference.py")])
        if child.code != 0:
            raise RuntimeError("perfbench/reference.py failed")
        return child.wall_s

    def startup_s(self) -> float:
        """Median wall time of a child that only imports ``dgq.cli``."""
        return statistics.median(
            self._spawn([sys.executable, "-c", "import dgq.cli"]).wall_s
            for _ in range(STARTUP_REPEATS))


def _setup(runner, workload, seed, work):
    """Generate, write and validate the inputs; return them and the time."""
    import workloads
    start = time.perf_counter()
    inputs = workloads.generate(ROOT, workload, seed, work / "inputs")
    for argv in workloads.validate_argvs(inputs):
        child = runner.run(["--format", "machine"] + argv)
        if child.code != 0 or not json.loads(child.stdout)["ok"]:
            raise RuntimeError(f"generated input fails dgq {' '.join(argv)}: "
                               f"{child.stdout.strip()}")
    return inputs, time.perf_counter() - start


class Gate:
    """Counts command results against the correctness checks."""

    def __init__(self, inputs):
        import workloads
        self.inputs = inputs
        self.golden = workloads.load_golden()
        self.first_stdout = {}
        self.attempted = 0
        self.failed = 0

    def record(self, cmd, code: int, stdout: str, how: str) -> None:
        import workloads
        problems = workloads.check(cmd, code, stdout, self.inputs, self.golden)
        first = self.first_stdout.setdefault(cmd.label, stdout)
        if stdout != first:
            problems.append("stdout differs from the first run of this command")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL [{how}] {cmd.label}: {'; '.join(problems)}")


def _pass(runner, commands, inputs, gate):
    """Run each command once, between two runs of the reference.  Return the
    summed wall time of the commands, the summed mean time of the two
    references around each, and the largest peak RSS in kB."""
    import workloads
    wall = ref = 0.0
    rss = 0
    before = runner.reference_s()
    for cmd in commands:
        child = runner.run(workloads.concrete_argv(cmd, inputs))
        after = runner.reference_s()
        gate.record(cmd, child.code, child.stdout, "untraced")
        around = (before + after) / 2
        print(f"  {child.wall_s:9.4f} s wall {child.wall_s / around:8.3f} ref "
              f"{child.peak_kb / 1024:8.1f} MB  {cmd.label}")
        wall += child.wall_s
        ref += around
        rss = max(rss, child.peak_kb)
        before = after
    return wall, ref, rss


def _replay(commands, inputs, gate, how, hooks=None):
    """Run the commands in this process through ``dgq.cli.run``, with
    ``hooks`` (a ``Tracer`` or a ``FieldOpCounter``) installed if given.
    Return the time the commands took and the bytes they printed."""
    import workloads
    from dgq import cli
    elapsed, out_bytes = 0.0, 0
    if hooks:
        hooks.install()
    try:
        for cmd in commands:
            argv = workloads.concrete_argv(cmd, inputs)
            buf, err = textio.StringIO(), textio.StringIO()
            start = time.perf_counter()
            if hooks:
                hooks.start_command()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:
                    code = exc.code
            if hooks:
                hooks.end_command()
            elapsed += time.perf_counter() - start
            gate.record(cmd, code, buf.getvalue(), how)
            out_bytes += len(buf.getvalue().encode())
    finally:
        if hooks:
            hooks.uninstall()
    return elapsed, out_bytes


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(tracer, field_ops, overhead_s, out_bytes, startup_s, bases):
    self_s = tracer.self_times()
    counts = tracer.counts
    ops_q, ops_fp = field_ops
    values = {
        "cli.startup_s": startup_s,
        "cli.self_s": self_s["cli"],
        "io.out_bytes": out_bytes,
        "fields.ops_q": ops_q,
        "fields.ops_fp": ops_fp,
        "wha.composable_ratio": _ratio(bases["wha.triples_composable"],
                                       bases["wha.triples"]),
        "cohomology.cells": counts["cohomology.cells"],
        "cohomology.nnz": counts["cohomology.nnz"],
        "cohomology.density": _ratio(counts["cohomology.nnz"],
                                     counts["cohomology.cells"]),
        "linalg.fp_calls": counts["linalg.fp.calls"],
        "linalg.fp_repeat_ratio": _ratio(counts["linalg.fp.repeats"],
                                         counts["linalg.fp.calls"]),
        "linalg.z_calls": counts["linalg.z.calls"],
        "linalg.z_repeat_ratio": _ratio(counts["linalg.z.repeats"],
                                        counts["linalg.z.calls"]),
        "cocycles.validate_calls": tracer.calls("cocycles.validate"),
        "cocycles.pairs": counts["cocycles.pairs"],
        "trace.overhead_s": overhead_s,
        **bases,
        **tracer.maxima,
    }
    for name in LAYER_MOVES:
        if name not in values and name.endswith("_s"):
            values[name] = self_s[name[:-2]]
    return {name: values.get(name, 0) for name in LAYER_MOVES}


def _traced_metrics(runner, commands, inputs, gate, workload):
    """Per-layer metrics from three in-process replays: counted, plain and
    spanned.  The counted one goes first, so that it also warms the process
    up; plain and spanned alternate command by command, so that the host's
    drift falls on both alike.  Only the spanned one's times are charged to
    layers."""
    import workloads
    from tracing import FieldOpCounter, Tracer
    counter = FieldOpCounter()
    _, out_bytes = _replay(commands, inputs, gate, "counted", counter)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for cmd in commands:
        plain_s += _replay([cmd], inputs, gate, "in-process")[0]
        traced_s += _replay([cmd], inputs, gate, "traced", tracer)[0]
    tracer.write(runner.work / "trace.jsonl")
    print(f"  in-process replay {plain_s:.4f} s, traced {traced_s:.4f} s")
    return _layer_metrics(tracer, counter.ops, traced_s - plain_s, out_bytes,
                          runner.startup_s(),
                          workloads.wha_bases(workload, inputs))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str]):
    import workloads
    work = WORK / f"{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    setup_ratios = []
    before = runner.reference_s()
    for _ in range(SETUP_REPEATS):
        inputs, elapsed = _setup(runner, workload, seed, work)
        after = runner.reference_s()
        setup_ratios.append(elapsed / ((before + after) / 2))
        before = after
    commands = workloads.WORKLOADS[workload]
    gate = Gate(inputs)

    pass_times, ref_times, rss = [], [], 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall, ref, peak = _pass(runner, commands, inputs, gate)
        pass_times.append(wall)
        ref_times.append(ref)
        rss = max(rss, peak)
        now = time.perf_counter()
        # start another pass only if one as long as the last ends in the window
        if trace or (now - start) + (now - pass_start) > seconds:
            break

    if trace:
        metrics = _traced_metrics(runner, commands, inputs, gate, workload)
    else:
        metrics = {"wall_ref": sum(pass_times) / sum(ref_times),
                   "peak_rss_mb": rss / 1024,
                   "setup_s": statistics.median(setup_ratios) * REFERENCE_S}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in metrics.items())
    print(f"{workload}: {summary}, wall_s {statistics.median(pass_times):.6g} s, "
          f"fail_frac {_ratio(gate.failed, gate.attempted):.6g} "
          f"({gate.failed}/{gate.attempted}), passes {len(pass_times)}, "
          f"commands {len(commands)}")
    return metrics, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "kac", "twists", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _import_dgq()
    e2e_units, layer_units = load_units()
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, gate = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               layer_units if args.trace else e2e_units)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += gate.attempted
        failed += gate.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
