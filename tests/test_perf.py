"""Cost accounting, analytic estimator exactness, sweeps, baseline ratio."""

import math
import random

import pytest

from harness import paper_steps
from sramntt import perf
from sramntt.bitparallel import (
    CommandStream,
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    compile_twiddle_commands,
    default_rowmap,
    emit_modadd,
    emit_modmul,
    emit_modsub,
    emit_resolve,
)
from sramntt.errors import ParameterError
from sramntt.ntt import RingParams, TransformUnit, polymul_pipeline
from sramntt.perf import (
    CSV_HEADER,
    DEFAULT_CYCLES,
    DEFAULT_ENERGY_PJ,
    CostModel,
    accumulate,
    counts_of_tally,
    counts_of_trace,
    empty_counts,
    estimate_forward_ntt,
    shift_baseline_ratio,
    stats_from_counts,
    butterfly_counts,
    sweep_bitwidth,
    sweep_order,
    sweep_to_csv,
)
from sramntt.subarray import ACTIVATE2, GLOBAL, SHIFT, TILE, Subarray, Trace, replay


def small_forward_unit(order=8, q=257, rows=64, cols=64, seed=0, policy=ExecPolicy()):
    ring = RingParams.create(q, order)
    unit = TransformUnit(ring, rows, cols, policy)
    rng = random.Random(seed)
    polys = [[rng.randrange(q) for _ in range(order)]
             for _ in range(unit.layout.tiles)]
    unit.load_polynomials(polys)
    unit.forward()
    return unit


def test_accumulate_empty_and_simple():
    cost = CostModel()
    stats = accumulate([], cost)
    assert stats.cycles == 0 and stats.energy_nj == 0
    arr = Subarray(8, 8)
    arr.write_row(0, 1)
    arr.write_row(1, 2)
    for _ in range(10):
        arr.activate_pair(0, 1, "AND")
    stats = accumulate(arr.trace, cost)
    assert stats.counts[ACTIVATE2] == 10
    assert stats.cycles == 12                      # 10 activations + 2 host writes


def test_accumulate_deterministic_across_replays():
    unit = small_forward_unit()
    cost = CostModel()
    a = accumulate(unit.arr.trace, cost, parallel=unit.layout.tiles)
    b = accumulate(list(unit.arr.trace), cost, parallel=unit.layout.tiles)
    assert a.cycles == b.cycles and a.counts == b.counts and a.shifts == b.shifts


def test_tile_shift_surcharge():
    cost = CostModel()
    arr = Subarray(8, 8)
    arr.shift_latch("LEFT", "GLOBAL")
    arr.shift_latch("LEFT", "TILE", 4, 0)
    stats = accumulate(arr.trace, cost)
    assert stats.cycles == 3                       # 1 + (1+1)
    assert stats.shifts == {"global": 1, "tile": 1, "word_alignment": 0}


def test_energy_linearity():
    unit = small_forward_unit()
    cost = CostModel()
    base = accumulate(unit.arr.trace, cost).energy_nj
    doubled = CostModel(energy_pj={k: 2 * v for k, v in cost.energy_pj.items()})
    assert accumulate(unit.arr.trace, doubled).energy_nj == pytest.approx(2 * base)


def reference_counts(trace) -> dict:
    """One pass over every op, classifying each as it comes."""
    counts = empty_counts()
    for op in trace:
        kind = op[0]
        if kind not in counts:
            raise ParameterError(f"unknown micro-op kind {kind!r}")
        counts[kind] += 1
        if kind == SHIFT:
            if op[2] == GLOBAL:
                counts["SHIFT_GLOBAL"] += 1
            elif op[2] == TILE:
                counts["SHIFT_TILE"] += 1
            else:
                raise ParameterError(f"unknown shift scope {op[2]!r}")
    return counts


def test_counts_of_trace_matches_the_reference_loop():
    canonical = TransformUnit(RingParams.create(7681, 256, 16))    # the canonical forward
    rng = random.Random(2024)
    canonical.load_polynomials([[rng.randrange(7681) for _ in range(256)]
                                for _ in range(canonical.layout.tiles)])
    canonical.forward()
    data_dependent = small_forward_unit(policy=ExecPolicy(deterministic=False))
    assert reference_counts(data_dependent.arr.trace)["ZERO_TEST"] > 0
    for trace in (canonical.arr.trace, data_dependent.arr.trace):
        assert counts_of_trace(trace) == reference_counts(trace) == counts_of_tally(trace)
    # the canonical forward logs 26,752 runs of six streams and 430 one-op batches
    trace = canonical.arr.trace
    assert len(trace) == 1470382 and len(trace.log) == 27182
    batches = [entry for entry in trace.log if type(entry) is list]
    assert len(batches) == 430 and all(len(entry) == 1 for entry in batches)
    runs = runs_of(trace)
    assert len(runs) == 26752 and len(set(runs)) == 6
    assert len(trace.log) == len(batches) + len(runs)
    assert counts_of_tally(trace) == counts_of_trace(trace)
    # a replay logs the list it is handed as its one entry, with no copy
    ops = list(trace)
    twin = replay(ops, canonical.arr.rows, canonical.arr.cols)
    assert twin.same_state(canonical.arr)
    assert len(twin.trace.log) == 1 and twin.trace.log[0] is ops
    # no op shifts for word alignment: execute and parse_trace reject the scope
    with pytest.raises(ParameterError, match="unknown shift scope"):
        counts_of_trace([("SHIFT", "LEFT", "ALIGN", 0, 0)])


def runs_of(trace):
    """The stream of each run a trace logs, in order."""
    return [entry[0] for entry in trace.log if type(entry) is tuple]


def assert_tallied(trace):
    """A recorded trace whose log counts what a recount of its ops counts."""
    assert isinstance(trace, Trace)
    assert all(type(entry) is list or isinstance(entry[0], CommandStream) for entry in trace.log)
    assert counts_of_tally(trace) == counts_of_trace(trace) == reference_counts(trace)
    assert len(trace) == len(list(trace))


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("tile_scope_all", [False, True])
def test_the_tally_counts_the_trace_under_every_policy(deterministic, tile_scope_all):
    """A roundtrip's tally equals the recount under each policy; the
    data-dependent ones record zero tests with their readouts."""
    unit = small_forward_unit(policy=ExecPolicy(deterministic, tile_scope_all))
    unit.inverse()
    assert_tallied(unit.arr.trace)
    zero_tests = counts_of_tally(unit.arr.trace)["ZERO_TEST"]
    assert (zero_tests == 0) == deterministic
    assert runs_of(unit.arr.trace)         # modmul runs compiled under either policy


def test_the_tally_counts_a_host_swapped_forward():
    unit = small_forward_unit(order=32, q=257, rows=32, cols=64)
    assert unit.layout.swapped
    assert_tallied(unit.arr.trace)


def test_the_tally_counts_both_units_of_a_polymul():
    rng = random.Random(3)
    ring = RingParams.create(257, 8)
    a = [[rng.randrange(257) for _ in range(8)] for _ in range(4)]
    b = [rng.randrange(257) for _ in range(8)]
    _, unit_a, unit_b = polymul_pipeline(a, b, ring, 64, 64)
    for unit in (unit_a, unit_b):
        assert_tallied(unit.arr.trace)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        accumulate([("FROB", 1)], CostModel())


def test_cost_model_text_roundtrip():
    """A `--cost-model` file in README's format sets exactly the keys it names."""
    text = ("# lines are key=value\n"
            "freq_mhz=1000\n"
            "\n"
            "cycles.WRITEBACK = 2\n"
            "cycles.TILE_SHIFT_EXTRA=0\n"
            "  energy_pj.SHIFT=0.5\n")
    cost = CostModel.from_text(text)
    assert cost.freq_mhz == 1000.0
    assert cost.cycles == {**DEFAULT_CYCLES, "WRITEBACK": 2.0, "TILE_SHIFT_EXTRA": 0.0}
    assert cost.energy_pj == {**DEFAULT_ENERGY_PJ, "SHIFT": 0.5}


@pytest.mark.parametrize("order, q", [(8, 257), (8, 8380417)])
def test_estimator_matches_real_trace_no_swap(order, q):
    unit = small_forward_unit(order=order, q=q)
    pcs = [bin(v).count("1") for v in unit.table.forward]
    est = estimate_forward_ntt(order, unit.ctx.lane_width, 64, 64, popcounts=pcs)
    assert est == counts_of_trace(unit.arr.trace)


@pytest.mark.parametrize("order, q, rows", [(32, 257, 32), (32, 7681, 32), (64, 12289, 40)])
def test_estimator_matches_real_trace_with_swap(order, q, rows):
    unit = small_forward_unit(order=order, q=q, rows=rows, cols=64)
    assert unit.layout.swapped
    pcs = [bin(v).count("1") for v in unit.table.forward]
    est = estimate_forward_ntt(order, unit.ctx.lane_width, rows, 64, popcounts=pcs)
    assert est == counts_of_trace(unit.arr.trace)


def test_stats_reporting_formulas():
    counts = {"WRITE_ROW": 0, "ACTIVATE2": 380, "SHIFT": 0, "WRITEBACK": 0,
              "ZERO_TEST": 0, "SHIFT_GLOBAL": 0, "SHIFT_TILE": 0, "SHIFT_ALIGN": 0}
    cost = CostModel()
    stats = stats_from_counts(counts, cost, parallel=16)
    assert stats.cycles == 380
    assert stats.latency_us == pytest.approx(0.1)
    assert stats.throughput_knnt_s == pytest.approx(16 * 3800 / 380 * 1e3)


def test_shift_ratio_properties():
    unit = small_forward_unit()
    stats = accumulate(unit.arr.trace, CostModel(), parallel=unit.layout.tiles)
    ratio = shift_baseline_ratio(stats, 8, unit.ctx.lane_width)
    assert 0 < ratio <= 0.6
    empty = stats_from_counts({k: 0 for k in stats.counts} | {
        "SHIFT_GLOBAL": 0, "SHIFT_TILE": 0, "SHIFT_ALIGN": 0}, CostModel())
    assert shift_baseline_ratio(empty, 8, 4) == 0.0


def test_sweep_bitwidth_monotone_and_parallel_drops():
    rows = sweep_bitwidth(order=64, widths=range(2, 33))
    feasible = [r for r in rows if r["feasible"]]
    assert feasible, "some widths must be feasible"
    cycles = [r["cycles"] for r in feasible]
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))
    for prev, cur in zip(feasible, feasible[1:]):
        if cur["parallel"] < prev["parallel"]:
            assert cur["energy_per_ntt_nJ"] > prev["energy_per_ntt_nJ"]


def test_a_bitwidth_sweep_replays_the_host_swaps_once(monkeypatch):
    """The swap count depends on the order and the resident rows, not the
    width, so a sweep over 63 widths of one swapped layout replays it once."""
    calls = []
    schedule = perf._forward_schedule

    def counted(order):
        calls.append(order)
        return schedule(order)

    perf.swap_write_count.cache_clear()
    monkeypatch.setattr(perf, "_forward_schedule", counted)
    rows = sweep_bitwidth(order=64, widths=range(2, 65), rows=32, cols=256)
    assert sum(r["feasible"] for r in rows) == 62
    assert calls == [64]


def test_primitive_costs_at_width_16():
    """The w = 16 butterfly's primitives, twiddle popcount 8, under the
    default cost model: (cycles, global shifts, tile-masked shifts).  Each is
    compiled alone as the butterfly compiles it: rows 0 and 1, the product
    in the mask row."""
    cost = CostModel()
    ctx = MontgomeryContext.create((1 << 15) - 1, 16)
    rm = default_rowmap(64)
    want = {"modmul": (lambda E: emit_modmul(E, 0xFF, b_row=1), (1_091, 24, 240)),
            "resolve": (lambda E: emit_resolve(E, rm.mask_row), (217, 32, 16)),
            "modsub": (lambda E: emit_modsub(E, 0, rm.mask_row, 1), (239, 15, 32)),
            "modadd": (lambda E: emit_modadd(E, 0, rm.mask_row, 0), (215, 31, 16))}
    total = empty_counts()
    for kind, (emit, figures) in want.items():
        E = Emitter(ctx, rm, ExecPolicy())
        emit(E)
        counts = counts_of_trace(E.ops)
        got = (stats_from_counts(counts, cost).cycles,
               counts["SHIFT_GLOBAL"], counts["SHIFT_TILE"])
        assert got == figures, kind
        perf.add_counts(total, counts)
    assert butterfly_counts(16, 8) == total
    assert stats_from_counts(butterfly_counts(16, 8), cost).cycles == 1_762


def test_sweep_order_monotone_and_swap_knee():
    rows = sweep_order(width=16, orders=[1 << k for k in range(2, 13)],
                       rows=256, cols=256)
    feasible = [r for r in rows if r["feasible"]]
    cycles = [r["cycles"] for r in feasible]
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))
    # marginal cost per butterfly grows once the order outruns residency
    resident = 256 - 12
    def flights(o):
        return (o // 2) * (o.bit_length() - 1)
    margins = []
    for prev, cur in zip(feasible, feasible[1:]):
        d_fly = flights(cur["param"]) - flights(prev["param"])
        margins.append(((cur["param"] > resident), (cur["cycles"] - prev["cycles"]) / d_fly))
    below = [m for over, m in margins if not over]
    above = [m for over, m in margins if over]
    assert above and min(above) > max(below)
    # 4096 > 16 tiles x 250 rows: flagged infeasible, not dropped
    last = rows[-1]
    assert last["param"] == 4096 and not last["feasible"] and math.isnan(last["cycles"])


def test_sweep_csv_columns():
    text = sweep_to_csv(sweep_order(width=16, orders=[4, 8]))
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 7


def test_paper_steps_rule_clauses():
    def steps_of(build):
        arr = Subarray(8, 8)
        build(arr)
        return paper_steps(arr.trace)

    def half_adder(arr, *modes):
        for mode in modes:
            arr.activate_pair(0, 1, mode)
            arr.latch_writeback(2)

    assert steps_of(lambda a: half_adder(a, "AND", "XOR")) == 1
    assert steps_of(lambda a: half_adder(a, "AND", "XOR", "OR")) == 2
    assert steps_of(lambda a: (half_adder(a, "AND"), a.activate_pair(0, 3, "XOR"))) == 2
    assert steps_of(lambda a: (a.activate_pair(1, 0, "AND"), a.activate_pair(0, 1, "XOR"))) == 1

    def shifted(arr):
        arr.activate_pair(0, 1, "AND")
        arr.shift_latch("LEFT", "GLOBAL")
        arr.shift_latch("RIGHT", "TILE", 4, 0)
        arr.latch_writeback(2)
        arr.activate_pair(0, 1, "XOR")           # the shift closed the first step
    assert steps_of(shifted) == 2
    assert steps_of(lambda a: (a.shift_latch("LEFT", "GLOBAL"), a.latch_writeback(2))) == 0
    assert steps_of(lambda a: a.write_row(0, 1)) == 1
    assert steps_of(lambda a: a.latch_is_zero()) == 1


@pytest.mark.parametrize("width", [3, 4, 8, 16, 24])
def test_paper_steps_match_figure_steps(width):
    # 1 prologue step, the figure's steps 1..7 of every iteration as marked by the
    # compiler, and per iteration the predication: LSB isolate, ceil(log2 w)
    # smear ORs and the modulus AND.
    rng = random.Random(width)
    for modulus in ((1 << (width - 1)) - 1, (1 << width) - 1):   # with and without headroom
        ctx = MontgomeryContext.create(modulus, width)
        rm = default_rowmap(64)
        smear = (ctx.lane_width - 1).bit_length()
        for a in (0, (1 << width) - 1, rng.randrange(1 << width), rng.randrange(1 << width)):
            stream = compile_twiddle_commands(a, ctx, rm, 0)
            assert paper_steps(stream.ops) == (
                1 + len(stream.step_marks) + width * (2 + smear)), (modulus, a)
