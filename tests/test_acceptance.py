"""Acceptance criteria, one test per criterion, tolerances pinned as specified.

Heavy shared computations (the exhaustive multiplier sweep, the canonical
256-point run) are module-scoped fixtures.  Each test prints one
"ACCEPTANCE <n>: PASS/FAIL" line.
"""

import random

import pytest

from harness import B_ROW, ModmulBench, paper_steps
from sramntt.bitparallel import (
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    broadcast_word,
    compile_twiddle_commands,
    default_rowmap,
    emit_resolve,
    load_constants,
    unpack_word,
)
from sramntt.errors import CapacityError, ObservationError
from sramntt.ntt import RingParams, TransformUnit, layout_plan
from sramntt.oracle import oracle_montmul, schoolbook_negacyclic
from sramntt.perf import (
    CostModel,
    accumulate,
    counts_of_trace,
    estimate_forward_ntt,
    shift_baseline_ratio,
    stats_from_counts,
    sweep_bitwidth,
    sweep_order,
)
from sramntt.subarray import GLOBAL, SHIFT, Subarray, execute, replay

PASS = "ACCEPTANCE {n}: PASS — {msg}"
FAIL = "ACCEPTANCE {n}: FAIL — {msg}"


def report(n, ok, msg):
    print(PASS.format(n=n, msg=msg) if ok else FAIL.format(n=n, msg=msg))
    assert ok, f"criterion {n}: {msg}"


# -- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Every n in 3..8, every odd M, every (A, B); the executor checks the
    shift-edge invariants on every data shift."""
    mismatches = []
    observation_failures = []
    cases = 0
    for width in range(3, 9):
        r = 1 << width
        for modulus in range(3, r, 2):
            bench = ModmulBench(modulus, width, cols=256)
            step = bench.tiles
            b_all = list(range(r))
            for a in range(r):
                for lo in range(0, r, step):
                    chunk = b_all[lo:lo + step]
                    try:
                        got = bench.run(a, chunk)
                    except ObservationError as exc:
                        observation_failures.append((width, modulus, a, str(exc)))
                        continue
                    for b, g in zip(chunk, got):
                        cases += 1
                        if g != oracle_montmul(a, b, modulus, width):
                            mismatches.append((width, modulus, a, b, g))
    return {"cases": cases, "mismatches": mismatches,
            "observation_failures": observation_failures}


@pytest.fixture(scope="module")
def canonical_run():
    """One 256-point, 16-bit forward NTT, 16 independent polynomials in 16 tiles."""
    ring = RingParams.create(7681, 256, 16)
    unit = TransformUnit(ring)
    rng = random.Random(2024)
    polys = [[rng.randrange(ring.q) for _ in range(256)]
             for _ in range(unit.layout.tiles)]
    unit.load_polynomials(polys)
    unit.forward()
    stats = accumulate(unit.arr.trace, CostModel(), parallel=unit.layout.tiles)
    return {"unit": unit, "stats": stats}


# -- criterion 1: the worked 3-bit example ------------------------------------

def test_criterion_1_worked_example():
    # Expected per-step row values in the third iteration (i = 2), where the
    # single set bit of A = 4 fires the add block: steps 1-3 accumulate B into
    # (Sum, Carry), steps 4-7 fold in m = M and halve.
    expected = {
        (2, 1): {"aux1": 0, "aux2": 3, "carry": 0},     # c1, s1; Carry<<1
        (2, 2): {"aux3": 0, "sum": 3},                  # c2, Sum
        (2, 3): {"carry": 0},                           # Carry = c1|c2
        (2, 4): {"mask": 7, "aux1": 3, "aux2": 2},      # m, c1, s1>>1
        (2, 5): {"aux3": 2, "aux1": 1},                 # c2, s2
        (2, 6): {"aux2": 0, "sum": 1},                  # c3, Sum
        (2, 7): {"carry": 2},                           # Carry = c2|c3
    }
    for lane in (None, 3):                              # auto lane (4) and the literal 3 columns
        ctx = MontgomeryContext.create(7, 3, lane_width=lane)
        w = ctx.lane_width
        arr = Subarray(32, 32)
        rm = default_rowmap(32)
        load_constants(arr, rm, ctx)
        arr.write_row(B_ROW, broadcast_word(3, w, arr.cols))
        stream = compile_twiddle_commands(4, ctx, rm, B_ROW)
        # run the stream one figure step at a time; the iteration of a step
        # mark is the number of step-7 marks before it
        seen = {}
        start = iteration = 0
        for end, step in stream.step_marks:
            marks = {i - start: edge for i, edge in stream.obs_marks.items() if start <= i <= end}
            execute(arr, stream.ops[start:end + 1], marks, w)
            start = end + 1
            seen[iteration, step] = {
                "sum": unpack_word(arr.read_row(rm.sum_row), 0, w),
                "carry": unpack_word(arr.read_row(rm.carry_row), 0, w),
                "aux1": unpack_word(arr.read_row(rm.aux1), 0, w),
                "aux2": unpack_word(arr.read_row(rm.aux2), 0, w),
                "aux3": unpack_word(arr.read_row(rm.aux3), 0, w),
                "mask": unpack_word(arr.read_row(rm.mask_row), 0, w),
            }
            iteration += step == 7
        assert start == len(stream.ops) and iteration == 3
        # P stays zero through the first two iterations (low bits of A clear)
        assert seen[(1, 7)]["sum"] == 0 and seen[(1, 7)]["carry"] == 0
        for tag, wants in expected.items():
            for key, val in wants.items():
                assert seen[tag][key] == val, (lane, tag, key, seen[tag])
        # final carry-save pair is Sum=001, Carry=010 -> P = 001 + 010<<1 = 5
        assert seen[(2, 7)]["sum"] == 1 and seen[(2, 7)]["carry"] == 2
        emit_resolve(Emitter(ctx, rm, ExecPolicy(), arr), rm.mask_row)
        got = unpack_word(arr.read_row(rm.mask_row), 0, w)
        assert got == 5
    report(1, True, "modmul(4,3,7,3) resolves to 5; per-step states match the figure")


# -- criteria 2 and 4: exhaustive correctness and the shift-edge invariants ---

def test_criterion_2_exhaustive_modmul(exhaustive_sweep):
    res = exhaustive_sweep
    ok = not res["mismatches"] and res["cases"] >= sum(
        ((1 << n) // 2 - 1) * (1 << n) * (1 << n) for n in range(3, 9))
    report(2, ok, f"{res['cases']} exhaustive cases, "
                  f"{len(res['mismatches'])} mismatches (zero tolerance)")


def test_criterion_4_observation_invariants(exhaustive_sweep):
    # every left shift saw a zero carry MSB and every right shift a zero LSB,
    # checked live during the exhaustive sweep at the lane edge columns (the
    # same columns a global shift would push across a tile boundary)
    obs_ok = not exhaustive_sweep["observation_failures"]
    # and every global shift of a compiled stream is covered by such a check
    rng = random.Random(5)
    coverage_ok = True
    for width in (3, 5, 8, 16):
        modulus = (1 << (width - 1)) - 1
        ctx = MontgomeryContext.create(modulus, width)
        rm = default_rowmap(64)
        stream = compile_twiddle_commands(rng.randrange(1 << width), ctx, rm, B_ROW)
        for idx, op in enumerate(stream.ops):
            if op[0] == SHIFT and op[2] == GLOBAL and idx not in stream.obs_marks:
                coverage_ok = False
    report(4, obs_ok and coverage_ok,
           f"{len(exhaustive_sweep['observation_failures'])} observation violations; "
           f"all global shifts carry edge checks: {coverage_ok}")


# -- criterion 3: randomized wide widths --------------------------------------

def test_criterion_3_randomized_modmul():
    rng = random.Random(99)
    mismatches = 0
    total = 0
    for width in (14, 16, 23, 32, 64):
        done = 0
        while done < 10_000:
            modulus = rng.randrange(3, 1 << width) | 1
            bench = ModmulBench(modulus, width, cols=256)
            a = rng.randrange(1 << width)
            bs = [rng.randrange(1 << width) for _ in range(bench.tiles)]
            got = bench.run(a, bs)
            for b, g in zip(bs, got):
                if g != oracle_montmul(a, b, modulus, width):
                    mismatches += 1
            done += len(bs)
            total += len(bs)
    report(3, mismatches == 0, f"{total} random cases across widths 14/16/23/32/64, "
                               f"{mismatches} mismatches")


# -- criterion 5: transform correctness ---------------------------------------

CRIT5_SETTINGS = [(4, 257), (8, 257), (256, 7681), (256, 8380417), (1024, 12289)]


@pytest.mark.parametrize("order,q", CRIT5_SETTINGS)
def test_criterion_5_transforms(order, q):
    ring = RingParams.create(q, order)
    rng = random.Random(order * 7 + q % 97)
    probe = TransformUnit(ring)
    tiles = probe.layout.tiles
    remaining = 100
    while remaining > 0:
        batch = min(tiles, remaining)
        polys = [[rng.randrange(q) for _ in range(order)] for _ in range(batch)]
        b = [rng.randrange(q) for _ in range(order)]

        unit = TransformUnit(ring)
        unit.load_polynomials(polys)
        unit.forward()
        spectra = unit.read_polynomials(batch)
        unit.inverse()
        assert unit.read_polynomials(batch) == polys, "roundtrip"

        unit_b = TransformUnit(ring)
        unit_b.load_polynomials([b])
        unit_b.forward()
        b_hat = unit_b.read_polynomials(1)[0]

        unit_c = TransformUnit(ring)
        unit_c.load_polynomials(spectra)
        unit_c.pointwise_by(b_hat)
        unit_c.inverse()
        products = unit_c.read_polynomials(batch)
        for p, c in zip(polys, products):
            assert c == schoolbook_negacyclic(p, b, q), "product"
        remaining -= batch
    report(5, True, f"(order={order}, q={q}): 100 roundtrips and products exact")


# -- criteria 6 and 7: shift discipline and the latency window ----------------

def test_criterion_6_implicit_shift(canonical_run):
    stats = canonical_run["stats"]
    zero_align = stats.shifts["word_alignment"] == 0

    rng = random.Random(123)
    count_ok = True
    for width in (3, 4, 8, 16, 24):
        modulus = (1 << (width - 1)) - 1
        ctx = MontgomeryContext.create(modulus, width)
        rm = default_rowmap(64)
        for _ in range(8):
            a = rng.randrange(1 << width)
            stream = compile_twiddle_commands(a, ctx, rm, B_ROW)
            if counts_of_trace(stream.ops)["SHIFT_GLOBAL"] != width + bin(a).count("1"):
                count_ok = False

    ratio = shift_baseline_ratio(stats, 256, 16)
    toy = stats_from_counts(estimate_forward_ntt(8, 4, 64, 64), CostModel())
    toy_ratio = shift_baseline_ratio(toy, 8, 4)
    ratios_ok = ratio <= 0.6 and 0 < toy_ratio <= 0.6
    report(6, zero_align and count_ok and ratios_ok,
           f"word-alignment shifts = {stats.shifts['word_alignment']}; "
           f"modmul global shifts = n+popcount(A) exactly; "
           f"NTT shift ratio {ratio:.3f} (toy {toy_ratio:.3f}) <= 0.6")


def test_criterion_7_latency_window(canonical_run):
    # The window is stated in the paper's steps (one half-adder line, shifts
    # costless), so the run is counted in that unit; the default cost model's
    # micro-op cycles are reported beside it.
    stats = canonical_run["stats"]
    steps = paper_steps(canonical_run["unit"].arr.trace)
    paper = round(61.9 * 3800)
    lo, hi = 120_000, 470_000
    ok = lo <= steps <= hi
    msg = (f"256-pt/16-bit forward NTT, 16 tiles: {steps} paper steps, "
           f"{steps / paper:.2f}x the paper's {paper} "
           f"(window [{lo}, {hi}] = 61.9us x 3.8GHz within 2x); "
           f"micro-op accounting {stats.cycles} cycles, "
           f"{stats.latency_us:.1f} us at {stats.freq_mhz:.0f} MHz")
    report(7, ok, msg)
    # the simulated clock, pinned exactly: a change to any micro-op shows here
    assert (stats.cycles, steps) == (1_781_678, 317_230)


# -- criterion 8: sweep trends -------------------------------------------------

def test_criterion_8_sweep_trends():
    width_rows = sweep_bitwidth(order=256, widths=range(2, 65))
    feasible_w = [r for r in width_rows if r["feasible"]]
    widths_mono = all(a["cycles"] <= b["cycles"]
                      for a, b in zip(feasible_w, feasible_w[1:]))
    energy_steps_ok = True
    saw_drop = False
    for a, b in zip(feasible_w, feasible_w[1:]):
        if b["parallel"] < a["parallel"]:
            saw_drop = True
            if not b["energy_per_ntt_nJ"] > a["energy_per_ntt_nJ"]:
                energy_steps_ok = False

    order_rows = sweep_order(width=16, orders=[1 << k for k in range(2, 13)])
    feasible_o = [r for r in order_rows if r["feasible"]]
    orders_mono = all(a["cycles"] <= b["cycles"]
                      for a, b in zip(feasible_o, feasible_o[1:]))

    resident = 256 - 12
    def flights(o):
        return (o // 2) * (o.bit_length() - 1)
    below, above = [], []
    for a, b in zip(feasible_o, feasible_o[1:]):
        margin = (b["cycles"] - a["cycles"]) / (flights(b["param"]) - flights(a["param"]))
        (above if b["param"] > resident else below).append(margin)
    knee_ok = bool(above) and min(above) > max(below)

    ok = widths_mono and saw_drop and energy_steps_ok and orders_mono and knee_ok
    report(8, ok, "width sweep monotone, energy/NTT rises at parallel drops, "
                  "order sweep monotone with steeper slope past row capacity")


# -- criterion 9: trace replay equivalence -------------------------------------

def test_criterion_9_trace_replay():
    rng = random.Random(77)
    runs = 0
    ring_small = RingParams.create(257, 8)
    ring_mid = RingParams.create(7681, 16)
    ring_swap = RingParams.create(257, 32)

    def check(unit):
        twin = replay(unit.arr.trace, unit.arr.rows, unit.arr.cols)
        assert twin.same_state(unit.arr)

    for _ in range(60):                                   # full polymul pipelines
        a = [rng.randrange(257) for _ in range(8)]
        b = [rng.randrange(257) for _ in range(8)]
        from sramntt.ntt import polymul_pipeline
        _, unit_a, unit_b = polymul_pipeline([a], b, ring_small, 64, 64)
        check(unit_a)
        check(unit_b)
        runs += 1
    for _ in range(20):                                   # mid-size roundtrips
        unit = TransformUnit(ring_mid, 64, 64)
        polys = [[rng.randrange(7681) for _ in range(16)] for _ in range(3)]
        unit.load_polynomials(polys)
        unit.forward()
        unit.inverse()
        check(unit)
        runs += 1
    for _ in range(20):                                   # host-swapped forwards
        unit = TransformUnit(ring_swap, rows=32, cols=64)
        polys = [[rng.randrange(257) for _ in range(32)]
                 for _ in range(unit.layout.tiles)]
        unit.load_polynomials(polys)
        unit.forward()
        check(unit)
        runs += 1
    report(9, runs == 100, f"{runs} full runs replayed bit-exactly")


# -- criterion 10: layout capacity claims ---------------------------------------

def test_criterion_10_capacity():
    cap256 = layout_plan(256, 256, 256, 1).capacity
    cap14 = layout_plan(256, 256, 14, 1).capacity
    ok = cap256 == 250 and cap14 == 4500
    try:
        layout_plan(256, 256, 256, 251)
        ok = False
    except CapacityError:
        pass
    report(10, ok, f"capacity at width 256: {cap256} points; at width 14: {cap14} points")
