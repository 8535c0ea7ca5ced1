"""Whole-run benchmark: training and platform workloads, end to end.

One workload, one process::

    python3 perfbench/run.py --workload pmf-isp-scalein-sim --seed 0 --seconds 20 --trace 0

prints the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``) as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it (``details``) holds the workload's own figures: simulated time to
target, the bill, cost per job, p95 queue wait, final loss.

Without ``--workload`` every workload runs, each in its own process.
With ``--repeat N`` each selected workload runs N times on seeds
``seed .. seed+N-1`` and the median, quartiles and spread of every metric
are printed, flagging spreads wider than the metric's bound.

A run sets up its workload at least three times and for at least a
second (``setup_s`` is the median), then runs whole rounds -- one
training job or one platform day each -- until ``--seconds`` have
passed, at least one.  Timings are medians over the
rounds.  Every round's outputs are checked; a round that fails a check
counts all its operations as failed.  ``--trace 1`` runs rounds in
untraced/traced pairs: the pair must give the same outputs, and the
difference of their run times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import shared_memory
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: spans of traced runs are written here, under the checkout
TRACE_DIR = ROOT / ".perfbench_out"
#: set up at least this often, and until this much set-up time has passed
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
SHM_DIR = Path("/dev/shm")


def load_program():
    """Import ``repro`` from this checkout's ``src``, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {error}")
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    from tracing import LAYER_TARGETS

    for module_name in {target[0] for target in LAYER_TARGETS}:
        importlib.import_module(module_name)


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


# -- process hygiene ----------------------------------------------------------

def _children():
    """(pid, state, command) of every live or unreaped child of this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            found.append((int(entry), fields[0], command.strip()))
    return found


def _is_resource_tracker(command: str) -> bool:
    return "multiprocessing.resource_tracker" in command


def _reap(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


class Hygiene:
    """Checks that a round leaves no process and no shared-memory segment.

    Segments are tracked by name from their creation in this process (the
    procs backend creates its arena in the parent before forking), so a
    segment some other process owns is never counted or removed.  The
    multiprocessing resource tracker is one helper per process that later
    rounds reuse, so it is stopped once, by :meth:`finish`, and not counted
    after each round.
    """

    def __init__(self):
        self.created = []
        self._original_init = shared_memory.SharedMemory.__init__
        original, created = self._original_init, self.created

        def recording_init(shm, name=None, create=False, size=0):
            original(shm, name, create, size)
            if create:
                created.append(shm.name)

        shared_memory.SharedMemory.__init__ = recording_init

    def _leftover_segments(self, when: str) -> list:
        problems = []
        for name in self.created:
            if (SHM_DIR / name).exists():
                problems.append(f"/dev/shm/{name} left {when}")
                (SHM_DIR / name).unlink(missing_ok=True)
        self.created.clear()
        return problems

    def after_round(self) -> list:
        problems = []
        for pid, state, command in _children():
            if not _is_resource_tracker(command):
                problems.append(f"child {pid} ({state}) left running: {command[:80]}")
                _reap(pid)
        return problems + self._leftover_segments("behind")

    def finish(self) -> list:
        """Stop the resource tracker, then require nothing left at all."""
        from multiprocessing import resource_tracker

        shared_memory.SharedMemory.__init__ = self._original_init
        tracker = resource_tracker._resource_tracker
        if any(_is_resource_tracker(c) for _, _, c in _children()) and hasattr(tracker, "_stop"):
            tracker._stop()
        problems = []
        for pid, state, command in _children():
            problems.append(f"child {pid} ({state}) alive at exit: {command[:80]}")
            _reap(pid)
        return problems + self._leftover_segments("at exit")


# -- one run ------------------------------------------------------------------

class Round:
    def __init__(self, outcome, run_s, cpu_self, cpu_children, layer=None):
        self.outcome = outcome
        self.run_s = run_s
        self.cpu_self = cpu_self
        self.cpu_children = cpu_children
        self.layer = layer


def run_round(workload, state, hygiene, recorder=None) -> Round:
    from workloads import Outcome

    # Start every round from a collected heap, so that a previous round's
    # cyclic garbage does not land on this round's time or peak memory.
    gc.collect()
    if recorder is not None:
        recorder.install()
    try:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        result = workload.run(state)
        t1 = time.perf_counter()
        c1 = _cpu_seconds()
    except Exception:
        traceback.print_exc()
        outcome = Outcome(ops=1, problems=["the round raised"])
        outcome.problems += hygiene.after_round()
        return Round(outcome, float("nan"), float("nan"), float("nan"))
    finally:
        if recorder is not None:
            recorder.uninstall()
    outcome = workload.check(state, result)
    outcome.problems += hygiene.after_round()
    cpu_self = c1[0] - c0[0]
    cpu_children = c1[1] - c0[1]
    layer = None
    if recorder is not None:
        from workloads import service_counts

        layer = {f"{g}_self_s": s for g, s in recorder.self_seconds().items()}
        layer.update(recorder.counts)
        layer.update(service_counts(recorder))
        layer.update(workload.layer_counts(result))
        layer["trace.spans"] = recorder.span_count()
    return Round(outcome, t1 - t0, cpu_self, cpu_children, layer)


def _cpu_seconds():
    """(this process, its reaped children): user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Recorder
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name]
    hygiene = Hygiene()

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)

    rounds = []
    layers = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = run_round(workload, state, hygiene)
        rounds.append(plain)
        if not trace:
            continue
        recorder = Recorder(run_id=len(rounds) + 1)
        traced = run_round(workload, state, hygiene, recorder)
        rounds.append(traced)
        if not workload.same_outputs(plain.outcome, traced.outcome):
            traced.outcome.problems.append("traced round's outputs differ from untraced")
        if traced.layer is not None:
            traced.layer["trace.overhead_s"] = traced.run_s - plain.run_s
            # CPU split from the untraced twin, free of the wrappers' cost
            traced.layer["exec.parent_cpu_s"] = plain.cpu_self
            traced.layer["exec.children_cpu_s"] = plain.cpu_children
            layers.append(traced.layer)
        recorder.write(str(TRACE_DIR / f"{name}-seed{seed}-run{recorder.run_id}.npz"))
    peak = peak_rss_mb()

    reference = workload.reference(state)
    finished = [r.outcome for r in rounds if r.outcome.signature is not None]
    for outcome in finished:
        outcome.problems += workload.compare(outcome, reference)
        if not workload.same_outputs(finished[0], outcome):
            outcome.problems.append("round outputs differ from the first round's")
    final_problems = hygiene.finish()
    if final_problems:
        rounds[-1].outcome.problems += final_problems

    attempted = sum(r.outcome.ops for r in rounds)
    failed = sum(r.outcome.ops for r in rounds if r.outcome.problems)
    for rnd in rounds:
        for problem in rnd.outcome.problems:
            print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    good = [r for r in rounds if not r.outcome.problems] or rounds

    def med(values):
        return statistics.median(values) if values else float("nan")

    units = {}
    if trace:
        values = {}
        for entry in spec["per_layer"]:
            key = entry["name"]
            values[key] = med([layer.get(key, 0.0) for layer in layers])
            units[key] = entry["unit"]
    else:
        values = {
            "setup_s": med(setups),
            "run_s": med([r.run_s for r in good]),
            "ops_per_s": med([r.outcome.ops / r.run_s for r in good]),
            "cpu_s": med([r.cpu_self + r.cpu_children for r in good]),
            "peak_rss_mb": peak,
        }
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        missing = set(units) ^ set(values)
        if missing:
            raise SystemExit(f"perfbench: metrics and BENCHMARK.json disagree on {missing}")

    details = {}
    if not trace:
        rate, unit = workload.rate
        details[rate] = {"value": values["ops_per_s"], "unit": unit}
    for key in good[0].outcome.details:
        details[key] = {
            "value": med([r.outcome.details[key][0] for r in good]),
            "unit": good[0].outcome.details[key][1],
        }
    print("details: " + json.dumps(details))
    if trace and workload.invisible:
        hidden = sorted(k for k in values if k.startswith(workload.invisible))
        print("not visible (run in forked roles, reported as measured in the "
              "parent): " + json.dumps(hidden))
    return {
        "correct": not any(r.outcome.problems for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# -- several runs ----------------------------------------------------------------

def _child_run(name: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines:
        if line.startswith("details: "):
            details = json.loads(line[len("details: "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, details


def run_all(names, seed, seconds, trace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, result, details = _child_run(name, seed, seconds, trace)
        print(f"{name}: " + json.dumps({"result": result, "details": details}))
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in {**result["metrics"], **details}.items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def steadiness(names, seed, seconds, repeat) -> int:
    """Run each workload ``repeat`` times; report quartiles and flag spreads."""
    bounds = {e["name"]: e["bound"] for e in load_spec()["end_to_end"]}
    flagged = 0
    for name in names:
        samples = {}
        shares = []
        for k in range(repeat):
            code, result, details = _child_run(name, seed + k, seconds, 0)
            if result is None or code != 0:
                print(f"{name} seed {seed + k}: run failed (exit {code})")
                flagged += 1
                continue
            shares.append((result["failed"], result["attempted"]))
            print(f"{name} seed {seed + k}: " + ", ".join(
                f"{key}={metric['value']:.6g}" for key, metric in result["metrics"].items()
            ), flush=True)
            for key, metric in {**result["metrics"], **details}.items():
                samples.setdefault(key, []).append(metric["value"])
        print(f"== {name}: {len(shares)} runs, failed/attempted per run: {shares}")
        for key, values in samples.items():
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and spread > bound:
                flag = "  <-- spread exceeds bound"
                flagged += 1
            bound_text = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {key:24s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound_text}{flag}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs per workload")
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return steadiness(names, args.seed, args.seconds, args.repeat)
    if args.workload is None:
        return run_all(names, args.seed, args.seconds, args.trace)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
