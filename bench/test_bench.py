"""Tests of the benchmark itself: its checks can fail, and every workload's code
path runs at a small configuration (order 8, q = 257) in seconds.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

HARNESS = run.load_program(run.ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Config(q=257, order=8, width=10, rows=64, cols=64)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name: str, tmp_path: Path, seed: int = 5):
    wl = workloads.WORKLOADS[name](seed, tmp_path, SMALL)
    wl.setup()
    return wl


def corrupt_first_coefficient(wl):
    """Make every operation return one output coefficient changed by one."""
    operation = wl.operation

    def corrupted():
        out = operation()
        out.outputs[0][0] = (out.outputs[0][0] + 1) % wl.cfg.q
        return out

    wl.operation = corrupted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_configuration_passes_its_check(name, tmp_path):
    wl = small(name, tmp_path)
    try:
        loop = run.Loop(wl, HARNESS.paper_steps)
        loop.once()
        loop.once()
        assert (loop.attempted, loop.failed) == (2, 0)
        assert loop.estimate_ok
        assert loop.sim.ops > 0 and loop.sim.stats.cycles > 0 and loop.sim.paper_steps > 0
    finally:
        wl.close()


@pytest.mark.parametrize("name", ["fwd256-q7681", "polymul-dilithium"])
def test_one_changed_coefficient_fails_the_operation(name, tmp_path):
    wl = small(name, tmp_path)
    corrupt_first_coefficient(wl)
    loop = run.Loop(wl, HARNESS.paper_steps)
    loop.once()
    assert (loop.attempted, loop.failed) == (1, 1)
    assert loop.sim is None


def rewrite_state(wl, change) -> None:
    state = json.loads(wl.state_path.read_text())
    change(state)
    wl.state_path.write_text(json.dumps(state))


def test_replay_fails_on_one_changed_coefficient(tmp_path):
    wl = small("replay-fwd256", tmp_path)
    lane = wl.cfg.lane
    row, _ = wl._slots()[0]

    def change(state):
        cells = int(state["cells"][row], 16)
        word = cells & ((1 << lane) - 1)
        new = (word + 1) % wl.cfg.q
        state["cells"][row] = f"{cells - word + new:x}"

    rewrite_state(wl, change)
    assert wl.operation().rc == 3
    loop = run.Loop(wl, HARNESS.paper_steps)
    loop.once()
    assert (loop.attempted, loop.failed) == (1, 1)
    wl.close()


def test_replay_fails_on_one_flipped_state_bit(tmp_path):
    wl = small("replay-fwd256", tmp_path)

    def flip(state):
        state["cells"][-1] = f"{int(state['cells'][-1], 16) ^ 1:x}"

    rewrite_state(wl, flip)
    assert wl.operation().rc == 3
    loop = run.Loop(wl, HARNESS.paper_steps)
    loop.once()
    assert (loop.attempted, loop.failed) == (1, 1)
    wl.close()


def test_replay_decode_sees_a_wrong_spectrum(tmp_path):
    """The state decode catches a coefficient even where replay would agree."""
    wl = small("replay-fwd256", tmp_path)
    wl._expected = list(wl.expected())
    wl._expected[0] = (wl._expected[0] + 1) % wl.cfg.q
    assert not wl.check(wl.operation())
    wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_reconciles(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, tmp_path, SMALL)
    try:
        result = run.run_traced(wl, 0, HARNESS)
    finally:
        wl.close()
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert sum(metrics[f"bitparallel.{p}_cycles"] for p in spans.BITPARALLEL) > 0
    assert metrics["ntt.butterflies"] > 0


def test_reconcile_reports_a_cycle_mismatch(tmp_path):
    wl = small("fwd256-q7681", tmp_path)
    tracer = spans.Tracer(workloads.perf.CostModel())
    tracer.install()
    try:
        out = wl.operation()
    finally:
        tracer.remove()
    tracer.settle("op")
    assert tracer.reconcile(out.stats.cycles) == []
    assert tracer.reconcile(out.stats.cycles + 1)


def test_reconcile_reports_cycles_no_span_claims(tmp_path, monkeypatch):
    """Without the emitter spans every butterfly op lands in the remainder."""
    monkeypatch.setattr(spans, "CALLS", tuple(
        c for c in spans.CALLS if not c[2].startswith("bitparallel.")))
    wl = small("polymul-dilithium", tmp_path)
    tracer = spans.Tracer(workloads.perf.CostModel())
    tracer.install()
    try:
        out = wl.operation()
    finally:
        tracer.remove()
    tracer.settle("op")
    assert any("remainder holds more" in p for p in tracer.reconcile(out.stats.cycles))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    wl = workloads.WORKLOADS["fwd256-q7681"](5, tmp_path, SMALL)
    result = run.run_untraced(wl, 0, HARNESS)
    assert result["correct"] and (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())

