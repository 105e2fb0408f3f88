"""Benchmark of the in-SRAM NTT simulator on both clocks.

    python3 bench/run.py --workload fwd256-q7681 --seed 1 --seconds 30 --trace 0

Runs one workload in this process for --seconds, checks every operation and
prints, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones:
host set-up, wall time and micro-ops per second (in reference seconds, see
`timed`), peak memory, and the simulated cycles, throughput, energy and paper
steps of one operation. With
--trace 1 they are the per-layer ones from spans around each layer's public
functions (see README.md). The program is imported from `src/` of the
checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Put the checkout's `src/` first on the path; return `tests/harness.py` as a module."""
    src = root / "src"
    harness_path = root / "tests" / "harness.py"
    if not (src / "sramntt" / "__init__.py").is_file() or not harness_path.is_file():
        raise ProgramMissing(f"no sramntt sources or test harness under {root}")
    sys.path.insert(0, str(src))
    import sramntt
    if Path(sramntt.__file__).resolve().parent != (src / "sramntt").resolve():
        raise ProgramMissing(f"sramntt imported from {sramntt.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("harness", harness_path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


def import_program_afresh() -> None:
    """Execute the program's modules once more, as a new process would.

    The modules the benchmark already holds go back into `sys.modules`
    afterwards, so the fresh copies are only timed, never used.
    """
    def ours(name):
        return name == "sramntt" or name.startswith("sramntt.")

    held = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in held:
        del sys.modules[name]
    try:
        importlib.import_module("sramntt")
        importlib.import_module("sramntt.cli")
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(held)


# Host time is reported in reference seconds: measured seconds scaled by how
# fast the host ran a fixed calibration loop just before and just after the
# step. A shared host's speed can drift by half over minutes (measured on a
# 2-vCPU VM; see README.md); the scaling takes that drift out, and since the
# loop shares no code with the program, a program change still moves the
# reference seconds in proportion.
REFERENCE_CHUNK_S = 0.015    # one calibration chunk's seconds at reference speed
CALIBRATION_SHARE = 0.05     # calibration time on each side, per step time


def calibration_chunk() -> float:
    """Seconds of a fixed pure-Python loop shaped like the simulator's inner
    work: row reads, bit logic, one trace tuple per step. The tuples go to a
    small ring, so the loop adds nothing to the process's peak memory."""
    t0 = time.perf_counter()
    rows = [0] * 64
    ring = [None] * 1024
    for i in range(60_000):
        v = ((rows[i & 63] ^ rows[(i * 7) & 63]) | i) & 0xFFFFFFFF
        rows[(i * 3) & 63] = v
        ring[i & 1023] = ("ACTIVATE2", i & 63, v)
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list[float]:
    """Calibration chunks for at least `seconds`, and at least one."""
    end = time.perf_counter() + seconds
    chunks = [calibration_chunk()]
    while time.perf_counter() < end:
        chunks.append(calibration_chunk())
    return chunks


def timed(step, guess: float):
    """Run `step()` between two calibrations: (result, raw seconds, reference seconds)."""
    before = calibrate(CALIBRATION_SHARE * guess)
    t0 = time.perf_counter()
    result = step()
    raw = time.perf_counter() - t0
    after = calibrate(CALIBRATION_SHARE * raw)
    return result, raw, raw * REFERENCE_CHUNK_S / statistics.median(before + after)


def timed_setups(wl, reps: int, tracer=None) -> tuple[list[float], list[float]]:
    """Set up `reps` times: each is a fresh import of the program plus the
    workload's own set-up (ring, inputs; for replay, the trace and state).
    Returns raw and reference seconds."""
    raw, scaled = [], []
    for _ in range(reps):
        _, seconds, ref = timed(lambda: (import_program_afresh(), wl.setup()),
                                raw[-1] if raw else 0.0)
        raw.append(seconds)
        scaled.append(ref)
        if tracer is not None:
            tracer.settle("setup")
    return raw, scaled


class Loop:
    """Whole operations, each timed and then checked, until the run's time is up."""

    def __init__(self, wl, paper_steps):
        self.wl = wl
        self.paper_steps = paper_steps
        self.attempted = 0
        self.failed = 0
        self.sim = None
        self.estimate_ok = True
        self.raw: list[float] = []

    def _operation(self):
        try:
            return self.wl.operation()
        except Exception:                 # an operation that raises counts as failed
            traceback.print_exc()
            return None

    def once(self, after=None) -> float:
        """One operation: returns its reference seconds. `after` runs untimed on
        every outcome (None if the operation raised) and can fail it."""
        outcome, raw, seconds = timed(self._operation, self.raw[-1] if self.raw else 0.0)
        self.raw.append(raw)
        self.attempted += 1
        ok = outcome is not None and self.wl.check(outcome)
        if after is not None:
            ok = after(outcome) and ok
        if not ok:
            self.failed += 1
        elif self.sim is None:
            self.sim = self.wl.sim(outcome, self.paper_steps)
            self.estimate_ok = self.wl.estimate_matches(outcome)
        return seconds

    def until(self, deadline: float, after=None) -> list[float]:
        times = [self.once(after)]
        while time.perf_counter() < deadline:
            times.append(self.once(after))
        return times


def sim_metrics(sim, wall: float) -> dict:
    stats = sim.stats
    return {
        "host_mops_s": sim.ops / wall / 1e6,
        "sim_cycles": stats.cycles,
        "sim_throughput_knnt_s": stats.throughput_knnt_s,
        "sim_energy_per_ntt_nJ": stats.energy_per_ntt_nj,
        "sim_paper_steps": sim.paper_steps,
    }


def run_untraced(wl, seconds: float, harness) -> dict:
    raw_setups, setups = timed_setups(wl, wl.setup_reps)
    loop = Loop(wl, harness.paper_steps)
    start = time.perf_counter()
    times = loop.until(start + seconds)
    wall = statistics.median(times)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall}
    correct = loop.sim is not None and loop.estimate_ok
    if loop.sim is not None:
        metrics.update(sim_metrics(loop.sim, wall))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics,
            "detail": {"op_seconds": times, "raw_op_seconds": loop.raw,
                       "setup_seconds": setups, "raw_setup_seconds": raw_setups}}


def run_traced(wl, seconds: float, harness) -> dict:
    """Untraced operations for half the time, then traced ones; per-layer figures."""
    import spans
    from sramntt import perf, subarray

    tracer = spans.Tracer(perf.CostModel())
    tracer.install()
    try:
        timed_setups(wl, wl.setup_reps, tracer)
    finally:
        tracer.remove()
    loop = Loop(wl, harness.paper_steps)
    start = time.perf_counter()
    plain = loop.until(start + seconds / 2)

    def replay_floor(outcome) -> bool:
        """Re-execute the operation's traces; replay must reproduce each state."""
        units = outcome.units if outcome is not None else ()
        same = all(subarray.replay(u.arr.trace, u.arr.rows, u.arr.cols).same_state(u.arr)
                   for u in units)
        tracer.settle("op")
        return same

    tracer.install()
    try:
        traced = loop.until(start + seconds, replay_floor)
    finally:
        tracer.remove()
    metrics = tracer.per_layer()
    problems = [] if loop.sim is not None else ["no operation succeeded"]
    if loop.sim is not None:
        counts = loop.sim.stats.counts
        metrics.update({
            "subarray.ops": loop.sim.ops,
            "subarray.activate2": counts["ACTIVATE2"],
            "subarray.shift_global": counts["SHIFT_GLOBAL"],
            "subarray.shift_tile": counts["SHIFT_TILE"],
            "subarray.writeback": counts["WRITEBACK"],
            "subarray.write_row": counts["WRITE_ROW"],
            "subarray.zero_test": counts["ZERO_TEST"],
        })
        problems += tracer.reconcile(loop.sim.stats.cycles)
    if not loop.estimate_ok:
        problems.append("executed counts differ from perf.estimate_forward_ntt")
    metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for problem in problems:
        print(f"reconciliation: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics, "detail": {"untraced_seconds": plain,
                                           "traced_seconds": traced,
                                           "raw_op_seconds": loop.raw}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness = load_program(ROOT)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        if args.trace:
            result = run_traced(wl, args.seconds, harness)
        else:
            result = run_untraced(wl, args.seconds, harness)
    finally:
        wl.close()
    printed = {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in sorted(result["metrics"].items())},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record.write_text(json.dumps({**printed, "detail": result["detail"]}, indent=1) + "\n")
    print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
