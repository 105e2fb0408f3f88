"""Cost accounting, analytic estimator exactness, sweeps, baseline ratio."""

import itertools
import json
import math
import random
import tracemalloc

import pytest

from harness import CRIT5_SETTINGS, paper_steps
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
    load_constants,
)
from sramntt.cli import main
from sramntt.errors import ParameterError
from sramntt.ntt import (
    CONSTANT_ROWS,
    RingParams,
    TransformUnit,
    forward_butterfly,
    forward_steps,
    inverse_butterfly,
    polymul_pipeline,
    scale_row,
)
from sramntt.perf import (
    CSV_HEADER,
    DEFAULT_CYCLES,
    DEFAULT_ENERGY_PJ,
    CostModel,
    accumulate,
    counts_of_tally,
    counts_of_trace,
    add_counts,
    empty_counts,
    estimate,
    estimate_forward_ntt,
    kernel_counts,
    shift_baseline_ratio,
    stats_from_counts,
    sweep_bitwidth,
    sweep_order,
    sweep_to_csv,
)
from sramntt.subarray import ACTIVATE2, GLOBAL, SHIFT, TILE, WRITE_ROW, Subarray, Trace, replay


def small_forward_unit(order=8, q=257, rows=64, cols=64, seed=0, policy=ExecPolicy(),
                       width=None):
    ring = RingParams.create(q, order, width)
    unit = TransformUnit(ring, rows, cols, policy)
    rng = random.Random(seed)
    polys = [[rng.randrange(q) for _ in range(order)]
             for _ in range(unit.layout.tiles)]
    unit.load_polynomials(polys)
    unit.forward()
    return unit


def popcounts(values):
    return [bin(v).count("1") for v in values]


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
    # the canonical forward logs 8,192 runs of 22 streams and 430 one-op batches
    trace = canonical.arr.trace
    assert len(trace) == 1408922 and len(trace.log) == 8622
    batches = [entry for entry in trace.log if type(entry) is list]
    assert len(batches) == 430 and all(len(entry) == 1 for entry in batches)
    runs = runs_of(trace)
    assert len(runs) == 8192 and len(set(runs)) == 22
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


def test_a_recount_of_both_units_chained_equals_their_tallies_summed():
    """The op-by-op recount of a host-swapped product's two traces, chained
    as the benchmark chains them, counts what the two logs count."""
    rng = random.Random(6)
    ring = RingParams.create(257, 64)
    a = [[rng.randrange(257) for _ in range(64)] for _ in range(2)]
    b = [rng.randrange(257) for _ in range(64)]
    _, unit_a, unit_b = polymul_pipeline(a, b, ring, 64, 64)
    assert unit_a.layout.swapped
    tallied = counts_of_tally(unit_a.arr.trace)
    add_counts(tallied, counts_of_tally(unit_b.arr.trace))
    assert counts_of_trace(itertools.chain(unit_a.arr.trace, unit_b.arr.trace)) == tallied


# `sramntt run` cycles at seed 0: the canonical ring's polymul and roundtrip,
# a polymul whose 32 coefficients outgrow a 32-row tile (host swaps), and
# data-dependent programs of a small ring
CLI_CYCLES = {
    "polymul": (["--order", "256", "--q", "7681", "--width", "16"], 5_376_752),
    "roundtrip": (["--order", "256", "--q", "7681", "--width", "16", "--mode", "roundtrip"],
                  3_670_058),
    "swapped-polymul": (["--order", "32", "--q", "257", "--rows", "32", "--cols", "64"], 241_852),
    # the data-dependent carry loops: each ripple add exits on its zero test
    "data-dependent-roundtrip": (["--order", "16", "--q", "257", "--rows", "64", "--cols", "64",
                                  "--mode", "roundtrip", "--data-dependent"], 57_701),
    "data-dependent-polymul": (["--order", "16", "--q", "257", "--rows", "64", "--cols", "64",
                                "--mode", "polymul", "--data-dependent", "--tile-scope-shifts"],
                               87_412),
}


@pytest.mark.parametrize("flags,cycles", CLI_CYCLES.values(), ids=CLI_CYCLES.keys())
def test_cli_run_cycles(tmp_path, flags, cycles):
    stats = tmp_path / "stats.json"
    assert main(["run", *flags, "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["cycles"] == cycles


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


@pytest.mark.parametrize("order, q, width", [
    pytest.param(8, 257, None, id="8-257"),
    pytest.param(8, 8380417, None, id="8-8380417"),
    # no headroom bit in the ring width: the lane is 14, the word 13
    pytest.param(16, 7681, 13, id="16-7681-13"),
])
def test_estimator_matches_real_trace_no_swap(order, q, width):
    unit = small_forward_unit(order=order, q=q, width=width)
    pcs = popcounts(unit.table.forward)
    est = estimate_forward_ntt(order, unit.ctx.lane_width, 64, 64, popcounts=pcs)
    assert est == counts_of_trace(unit.arr.trace)


@pytest.mark.parametrize("order, q, rows", [(32, 257, 32), (32, 7681, 32), (64, 12289, 40)])
def test_estimator_matches_real_trace_with_swap(order, q, rows):
    unit = small_forward_unit(order=order, q=q, rows=rows, cols=64)
    assert unit.layout.swapped
    pcs = popcounts(unit.table.forward)
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
    """The walk of the steps depends on the order and the resident rows, not
    the width, so a sweep over 63 widths of one swapped layout walks once."""
    calls = []

    def counted(order):
        calls.append(order)
        return forward_steps(order)

    perf._walk.cache_clear()
    monkeypatch.setattr(perf, "forward_steps", counted)
    rows = sweep_bitwidth(order=64, widths=range(2, 65), rows=32, cols=256)
    assert sum(r["feasible"] for r in rows) == 62
    assert calls == [64]


KERNELS_AND_CYCLES = ((forward_butterfly, 2, 1_670), (inverse_butterfly, 2, 1_672),
                      (scale_row, 1, 1_216))


def test_primitive_costs_at_width_16():
    """The w = 16 butterfly's primitives, twiddle popcount 8, under the
    default cost model: (cycles, global shifts, tile-masked shifts).  Each is
    compiled alone as the butterfly compiles it, on the transform's context
    (word 15 on lane 16): rows 0 and 1, the product in the mask row.  The
    inverse's butterfly and its scaling step are pinned whole."""
    cost = CostModel()
    ctx = MontgomeryContext.for_ring((1 << 15) - 1, 16)
    rm = default_rowmap(64)
    want = {"modmul": (lambda E: emit_modmul(E, 0xFF, b_row=1), (999, 23, 210)),
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
    assert kernel_counts(forward_butterfly, 2, ctx, 8) == total
    for kernel, operands, cycles in KERNELS_AND_CYCLES:
        assert stats_from_counts(kernel_counts(kernel, operands, ctx, 8), cost).cycles == cycles


def test_a_popcount_outside_the_word_is_rejected():
    """A constant has at most lane - 1 set bits (the word); more is an error,
    not a count at the word's width."""
    with pytest.raises(ParameterError, match="popcount 40"):
        estimate_forward_ntt(8, 16, 64, 64, popcounts=[0] + [40] * 7)
    with pytest.raises(ParameterError, match="popcount 16"):
        estimate_forward_ntt(8, 16, 64, 64, popcounts=[16] * 8)
    ctx = MontgomeryContext.for_ring(7681, 16)
    for popcount in (16, -1):
        with pytest.raises(ParameterError):
            kernel_counts(forward_butterfly, 2, ctx, popcount)
    assert kernel_counts(forward_butterfly, 2, ctx, 15) != kernel_counts(forward_butterfly, 2, ctx, 14)


def test_the_sweep_estimate_rejects_what_no_transform_runs():
    """estimate_forward_ntt takes a power-of-two order >= 2 and exactly
    `order` popcounts, each an int >= 0 (a bool is not one)."""
    for order in (6, 12, 0, 1):
        with pytest.raises(ParameterError, match="order"):
            estimate_forward_ntt(order, 16, 64, 64)
    with pytest.raises(ParameterError, match="order"):
        sweep_order(16, orders=[6, 12, 0], rows=64, cols=64)
    for pcs in ([8] * 3, [8] * 100, [8] * 7 + [-1], [8] * 7 + [2.5], [8] * 7 + [True]):
        with pytest.raises(ParameterError, match="popcounts"):
            estimate_forward_ntt(8, 16, 64, 64, popcounts=pcs)
    assert estimate_forward_ntt(8, 16, 64, 64, popcounts=[8] * 8) == estimate_forward_ntt(8, 16, 64, 64)


@pytest.mark.parametrize("feasible", [
    lambda: [estimate_forward_ntt(1 << 22, 16) is not None],
    lambda: [row["feasible"] for row in sweep_order(width=2**31)],
], ids=["order-2^22", "width-2^31"])
def test_the_sweep_plans_the_layout_before_it_allocates(feasible):
    """An order or a width that does not fit projects nan with no `order`
    constants and no 2^(width/2) built first."""
    tracemalloc.start()
    try:
        assert not any(feasible())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_kernel_counts_at_a_ring_equal_those_at_the_sweeps_context(monkeypatch):
    """The premise of estimate_forward_ntt, which the benchmark holds a
    forward's executed counts to: a kernel's counts depend on the lane, not
    the modulus.  On every criterion 5 ring, and on the benchmark's forward
    ring (q = 7681 at width 16, whose word is wider than q), each kernel at
    a few popcounts counts the same at the unit's context as at the context
    the sweep estimate compiles at.  A program that comes to depend on the
    modulus fails here first."""
    seen = set()

    def spy(kernel, operands, ctx, popcount):
        seen.add(ctx)
        return kernel_counts(kernel, operands, ctx, popcount)

    for order, q, width in [(order, q, None) for order, q in CRIT5_SETTINGS] + [(256, 7681, 16)]:
        ctx = TransformUnit(RingParams.create(q, order, width)).ctx
        lane = ctx.lane_width
        seen.clear()
        monkeypatch.setattr(perf, "kernel_counts", spy)
        estimate_forward_ntt(2, lane)
        monkeypatch.undo()
        (synthetic,) = seen
        assert synthetic.lane_width == lane and synthetic.modulus != q
        for kernel, operands, _ in KERNELS_AND_CYCLES:
            for popcount in (0, 1, lane // 2, lane - 1):
                assert (kernel_counts(kernel, operands, ctx, popcount)
                        == kernel_counts(kernel, operands, synthetic, popcount)), (q, kernel, popcount)


ESTIMATED_RINGS = [pytest.param(order, q, None, 256, 256, id=f"{order}-{q}")
                   for order, q in CRIT5_SETTINGS] + [
    pytest.param(32, 257, None, 32, 64, id="32-257-32x64"),           # host-swapped
    pytest.param(16, 7681, 13, 64, 64, id="16-7681-13"),              # no headroom bit
]


@pytest.mark.parametrize("order, q, width, rows, cols", ESTIMATED_RINGS)
def test_the_estimate_counts_a_roundtrip_and_a_product(order, q, width, rows, cols):
    """perf.estimate, given each unit's own passes, context and layout,
    equals the executed counts of a roundtrip and of both units of a product."""
    ring = RingParams.create(q, order, width)
    rng = random.Random(order + q)
    a, b, c = ([rng.randrange(q) for _ in range(order)] for _ in range(3))
    unit = TransformUnit(ring, rows, cols)
    unit.load_polynomials([a])
    unit.forward()
    unit.inverse()
    roundtrip = estimate(unit.ctx, unit.layout, [unit.forward_pass(), unit.inverse_pass()])
    assert roundtrip == counts_of_tally(unit.arr.trace)
    _, unit_a, unit_b = polymul_pipeline([b], c, ring, rows, cols)
    b_hat = unit_b.read_polynomials(1)[0]
    product = estimate(unit_b.ctx, unit_b.layout, [unit_b.forward_pass()])
    add_counts(product, estimate(unit_a.ctx, unit_a.layout,
                                 [unit_a.forward_pass(), unit_a.inverse_pass(b_hat)]))
    executed = counts_of_tally(unit_a.arr.trace)
    add_counts(executed, counts_of_tally(unit_b.arr.trace))
    assert product == executed


@pytest.mark.parametrize("rows", [64, 32], ids=["resident", "swapped"])
def test_the_estimates_load_writes_are_load_constants_and_the_load(rows):
    """With no pass, the estimate is the unit's set-up: the rows that
    load_constants writes, then one row per resident coefficient."""
    ring = RingParams.create(257, 32)
    unit = TransformUnit(ring, rows, 64)
    arr = Subarray(rows, 64)
    load_constants(arr, unit.rm, unit.ctx)
    assert counts_of_tally(arr.trace) == counts_of_tally(unit.arr.trace)
    assert counts_of_tally(arr.trace)[WRITE_ROW] == CONSTANT_ROWS == len(unit.rm.constant_rows())
    unit.load_polynomials([[1] * 32])
    assert estimate(unit.ctx, unit.layout, []) == counts_of_tally(unit.arr.trace)


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
    # smear ORs over the word's w columns and the modulus AND.
    rng = random.Random(width)
    for modulus in ((1 << (width - 1)) - 1, (1 << width) - 1):   # with and without headroom
        ctx = MontgomeryContext.create(modulus, width)
        rm = default_rowmap(64)
        smear = (ctx.width - 1).bit_length()
        for a in (0, (1 << width) - 1, rng.randrange(1 << width), rng.randrange(1 << width)):
            stream = compile_twiddle_commands(a, ctx, rm, 0)
            assert paper_steps(stream.ops) == (
                1 + len(stream.step_marks) + width * (2 + smear)), (modulus, a)
