"""Carry-save Montgomery multiplication, stream compilation, modular add/sub."""

import io
import random
from functools import partial

import pytest

from harness import B_ROW, ModmulBench, modmul_value
from sramntt.bitparallel import (
    CommandStream,
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    broadcast_word,
    compile_twiddle_commands,
    default_rowmap,
    emit_add,
    emit_add3,
    emit_mask_select,
    emit_modadd,
    emit_modmul,
    emit_modsub,
    emit_resolve,
    emit_select_m,
    emit_smear,
    load_constants,
    pack_words,
    unpack_word,
)
from sramntt.bitparallel import _modadd, _modmul_add_b, _modmul_bits, _modmul_halve, _modmul_prologue
from sramntt.bitparallel import _modsub, _resolve, _shared_programs
from sramntt.errors import AddressError, ObservationError, ParameterError, SimError
from sramntt.oracle import oracle_montmul
from sramntt.perf import CostModel, accumulate, counts_of_tally, counts_of_trace
from sramntt.subarray import (
    ACTIVATE2, AND, GLOBAL, OR, SHIFT, WRITE_ROW, WRITEBACK, ZERO_TEST, Subarray, Trace, execute,
    generate, parse_trace, serialize_trace,
)


@pytest.fixture
def fresh_programs():
    """Empty the program tables executing emitters share, so a test that
    counts a table's streams counts its own whatever ran before it."""
    _shared_programs.cache_clear()


def fresh(modulus, width, cols=32, rows=32):
    ctx = MontgomeryContext.create(modulus, width)
    arr = Subarray(rows, cols)
    rm = default_rowmap(rows)
    load_constants(arr, rm, ctx)
    return ctx, arr, rm


def add_iterations(stream):
    """The iterations whose add-B block ran: the step-1 marks, each numbered
    by the step-7 marks before it."""
    iterations, i = [], 0
    for _, step in stream.step_marks:
        if step == 1:
            iterations.append(i)
        i += step == 7
    return iterations


def test_context_lane_selection():
    assert MontgomeryContext.create(5, 3).lane_width == 4     # 5 >= 2^2
    assert MontgomeryContext.create(3, 3).lane_width == 3
    assert MontgomeryContext.create(7681, 16).lane_width == 16
    assert MontgomeryContext.create(0xFFFF, 16).lane_width == 17
    with pytest.raises(ParameterError):
        MontgomeryContext.create(6, 4)        # even
    with pytest.raises(ParameterError):
        MontgomeryContext.create(17, 4)       # M >= 2^4
    assert MontgomeryContext.create(3, 2).lane_width == 3     # word 2: M = 3 only
    with pytest.raises(ParameterError):
        MontgomeryContext.create(5, 2)        # M >= 2^2
    with pytest.raises(ParameterError):
        MontgomeryContext.create(3, 1)        # width must be at least 2
    # the transform's word is its lane minus the headroom bit
    assert MontgomeryContext.for_ring(7681, 16) == MontgomeryContext.create(7681, 15, 16)
    assert MontgomeryContext.for_ring(7681, 13) == MontgomeryContext.create(7681, 13, 14)
    assert MontgomeryContext.for_ring(3, 3) == MontgomeryContext.create(3, 2, 3)


def test_stream_structure_by_twiddle_bits():
    """Add-B blocks appear exactly at the set bits of A; the test on A is compile-time."""
    ctx, _, rm = fresh(7, 3)

    s0 = compile_twiddle_commands(0, ctx, rm, B_ROW)
    assert counts_of_trace(s0.ops)["SHIFT_GLOBAL"] == 3   # three halving shifts only
    assert add_iterations(s0) == []
    assert [k for _, k in s0.step_marks] == [4, 5, 6, 7] * 3

    s4 = compile_twiddle_commands(4, ctx, rm, B_ROW)
    assert add_iterations(s4) == [2]                  # 4 = 100b: adds only in iteration 2

    s7 = compile_twiddle_commands(7, ctx, rm, B_ROW)
    assert add_iterations(s7) == [0, 1, 2]            # popcount(7) = 3 add blocks
    assert [k for _, k in s7.step_marks] == [1, 2, 3, 4, 5, 6, 7] * 3

    with pytest.raises(ParameterError):
        compile_twiddle_commands(8, ctx, rm, B_ROW)   # out of range


def test_the_multiplicand_row_is_no_scratch_or_constant_row():
    ctx, _, rm = fresh(7, 3)
    for row in rm.scratch_rows() + rm.constant_rows():
        with pytest.raises(AddressError, match="multiplicand row"):
            compile_twiddle_commands(4, ctx, rm, row)
    assert compile_twiddle_commands(4, ctx, rm, 5).ops


def test_a_row_map_has_no_row_below_0():
    """Twelve scratch and constant rows need twelve array rows: fewer would
    put the modulus rows at -1 and -2, which streams read as placeholders."""
    ctx = MontgomeryContext.create(7, 4)
    with pytest.raises(AddressError, match="row -2, below 0"):
        compile_twiddle_commands(5, ctx, default_rowmap(10), b_row=12)
    with pytest.raises(AddressError, match="row -1, below 0"):
        default_rowmap(11)
    assert min(default_rowmap(12).constant_rows()) == 0


def test_stream_is_deterministic():
    ctx, _, rm = fresh(11, 4)
    a = compile_twiddle_commands(9, ctx, rm, B_ROW)
    b = compile_twiddle_commands(9, ctx, rm, B_ROW)
    assert a.ops == b.ops and a.obs_marks == b.obs_marks


def test_shift_count_is_width_plus_popcount():
    ctx, _, rm = fresh((1 << 15) - 45, 16)            # headroom modulus, lane 16
    rng = random.Random(1)
    for _ in range(12):
        a = rng.randrange(1 << 16)
        counts = counts_of_trace(compile_twiddle_commands(a, ctx, rm, B_ROW).ops)
        assert counts["SHIFT_GLOBAL"] == 16 + bin(a).count("1")
        # every data shift is global scope; smears are tile scope
        assert counts["SHIFT_TILE"] > 0


def test_worked_example_resolves_to_five():
    assert modmul_value(4, 3, 7, 3) == 5              # 001 + 010<<1
    assert oracle_montmul(4, 3, 7, 3) == 5


def test_modmul_zero_and_unit_radix():
    assert modmul_value(0, 6, 7, 3) == 0
    assert modmul_value(1, 5, 7, 3) == 5              # R = 8 = 1 mod 7


def test_modmul_exhaustive_small():
    for width in (3, 4):
        r = 1 << width
        for modulus in range(3, r, 2):
            bench = ModmulBench(modulus, width, cols=64)
            for a in range(r):
                bs = list(range(r))
                for lo in range(0, r, bench.tiles):
                    chunk = bs[lo:lo + bench.tiles]
                    got = bench.run(a, chunk)
                    for b, g in zip(chunk, got):
                        assert g == oracle_montmul(a, b, modulus, width), (a, b, modulus)


def test_modmul_simd_independence():
    """k tiles with independent operands match k single-tile runs."""
    rng = random.Random(7)
    modulus, width = 7681, 16
    bench = ModmulBench(modulus, width)
    a = rng.randrange(1 << width)
    bs = [rng.randrange(modulus) for _ in range(bench.tiles)]
    batched = bench.run(a, bs)
    singles = [modmul_value(a, b, modulus, width) for b in bs]
    assert batched == singles


def test_bp_modmul_stream_api_and_resolve():
    """The executor runs exactly the compiled stream; resolve collapses its pair."""
    ctx, arr, rm = fresh(7, 3)
    arr.write_row(B_ROW, broadcast_word(3, ctx.lane_width, arr.cols))
    start = len(arr.trace)
    emit_modmul(Emitter(ctx, rm, ExecPolicy(), arr), 4, B_ROW)
    assert arr.trace[start:] == compile_twiddle_commands(4, ctx, rm, B_ROW).ops
    lane = ctx.lane_width
    s = unpack_word(arr.read_row(rm.sum_row), 0, lane)
    c = unpack_word(arr.read_row(rm.carry_row), 0, lane)
    assert s + 2 * c == 5 and s + 2 * c < 2 * 7
    emit_resolve(Emitter(ctx, rm, ExecPolicy(), arr), rm.mask_row)
    assert unpack_word(arr.read_row(rm.mask_row), 0, lane) == 5


def test_observation_check_fires_on_live_carry_top_bit():
    """A carry word with its top lane bit set breaks the left-shift invariant."""
    ctx, arr, rm = fresh(7, 3)
    lane = ctx.lane_width
    arr.write_row(rm.carry_row, broadcast_word(1 << (lane - 1), lane, arr.cols))
    arr.activate_pair(rm.carry_row, rm.zeros, OR)     # latch := Carry
    with pytest.raises(ObservationError):
        emit_resolve(Emitter(ctx, rm, ExecPolicy(), arr), rm.mask_row)


@pytest.mark.parametrize("policy", [ExecPolicy(), ExecPolicy(tile_scope_all=True)])
def test_observation_check_fires_on_live_half_sum_low_bit(policy):
    """An even modulus row leaves the half-sum odd before the halving shift."""
    ctx, arr, rm = fresh(7, 3)
    lane = ctx.lane_width
    arr.write_row(rm.modulus_row, broadcast_word(6, lane, arr.cols))
    arr.write_row(B_ROW, broadcast_word(3, lane, arr.cols))   # Sum = 3 after bit 0 of A
    E = Emitter(ctx, rm, policy, arr)
    with pytest.raises(ObservationError, match="low bit"):
        emit_modmul(E, 1, B_ROW)


def _butterfly_compiled(E, rm, width, a_row, b_row, twiddle):
    """`width` goes unused: emit_modmul reads it from the emitter's context."""
    emit_modmul(E, twiddle, b_row)
    emit_resolve(E, rm.mask_row)
    emit_modsub(E, a_row, rm.mask_row, b_row)
    emit_modadd(E, a_row, rm.mask_row, a_row)


def _butterfly_op_by_op(E, rm, width, a_row, b_row, twiddle):
    _modmul_prologue(E)
    for i in range(width):
        if (twiddle >> i) & 1:
            _modmul_add_b(E, b_row)
        _modmul_halve(E)
    _resolve(E, rm.mask_row)
    _modsub(E, a_row, rm.mask_row, b_row)
    _modadd(E, a_row, rm.mask_row, a_row)


@pytest.mark.parametrize("policy", [ExecPolicy(), ExecPolicy(tile_scope_all=True)])
def test_compiled_primitives_run_the_emitted_ops(policy):
    """Programs compiled once and bound at run time execute exactly the ops
    the bodies emit one at a time with the real rows, aliased operands
    included, run through the executor."""
    runs = []
    for butterfly in (_butterfly_compiled, _butterfly_op_by_op):
        ctx, arr, rm = fresh(7681, 16, cols=64)
        rng = random.Random(8)
        for row in (1, 2, 3):
            arr.write_row(row, pack_words([rng.randrange(7681) for _ in range(4)],
                                          ctx.lane_width, arr.cols))
        compiled = butterfly is _butterfly_compiled
        E = Emitter(ctx, rm, policy, arr if compiled else None)
        for a_row, b_row, twiddle in ((1, 2, 0xB5A3), (3, 1, 0x0F0F), (2, 3, 0xB5A3)):
            butterfly(E, rm, ctx.width, a_row, b_row, twiddle)
        if not compiled:
            assert not E.programs
            execute(arr, E.ops, E.obs_marks, ctx.lane_width)
        runs.append((list(arr.trace), arr.cells, arr.latch))
    assert runs[0] == runs[1]


POLICIES = [ExecPolicy(), ExecPolicy(tile_scope_all=True),
            ExecPolicy(deterministic=False),
            ExecPolicy(deterministic=False, tile_scope_all=True)]


def _smear_up(E, row: int, temp: int) -> None:
    emit_smear(E, row, temp, toward_msb=True)


@pytest.mark.parametrize("warm_up", [None, lambda E, emits: [emit(E) for emit in emits]])
@pytest.mark.parametrize("policy", POLICIES)
def test_every_emit_returns_with_its_ops_run(policy, warm_up, fresh_programs):
    """An emitter with an array leaves no op pending when an emit_*, or a
    block of a sub-primitive, returns, so none can run after a compiled
    block or a host read; under a deterministic policy the array ran
    exactly the ops a collecting emitter collects for the same call.  The
    checked calls generate their streams at their first run or, after a
    warm-up on another array of the same shape, run the functions
    generated there."""
    ctx, arr, rm = fresh(7681, 16, cols=64)
    rng = random.Random(12)
    for row in (1, 2, 3):
        arr.write_row(row, pack_words([rng.randrange(7681) for _ in range(4)],
                                      ctx.lane_width, arr.cols))
    emits = [
        lambda E: emit_modmul(E, 0xB5A3, 1),
        lambda E: emit_resolve(E, 4),
        lambda E: emit_modadd(E, 1, 2, 5),
        lambda E: emit_modsub(E, 1, 2, 6),
        lambda E: E.block(emit_add, (1, 2, 7, 8, 9, 10)),
        lambda E: E.block(emit_add3, (1, 2, 3, 7, 8, 9, 10)),
        lambda E: E.block(emit_select_m, ()),
        lambda E: E.block(_smear_up, (7, 8)),
        lambda E: E.block(emit_mask_select, (1, 2, 3, 8, 9)),
    ]
    if warm_up is not None:
        other = Emitter(ctx, rm, policy, fresh(7681, 16, cols=64)[1])
        warm_up(other, emits)
        assert all(stream.program for stream in other.programs.values())
    E = Emitter(ctx, rm, policy, arr)
    for emit in emits:
        start = len(arr.trace)
        emit(E)
        assert (E.ops, E.obs_marks, E.step_marks) == ([], {}, [])
        if policy.deterministic:
            C = Emitter(ctx, rm, policy)
            emit(C)
            assert arr.trace[start:] == C.ops
        else:
            assert len(arr.trace) > start


def test_a_collecting_emitter_cannot_zero_test():
    ctx = MontgomeryContext.create(7681, 16)
    E = Emitter(ctx, default_rowmap(32), ExecPolicy(deterministic=False))
    with pytest.raises(ParameterError, match="compiled ahead of time"):
        E.ztest()
    with pytest.raises(ParameterError, match="compiled ahead of time"):
        emit_add(E, 1, 2, 3, 4, 5, 6)
    with pytest.raises(ParameterError, match="compiled ahead of time"):
        emit_resolve(E, 3)                     # a block stops at its first zero test


def test_block_multiplier_equals_the_compiled_stream(fresh_programs):
    """The prologue and one stream per four bits of A, low bits first,
    bound and concatenated, are the stream compile_twiddle_commands collects
    (ops, obs marks and step marks), the trace an executing emitter leaves,
    and the add-B and halving blocks concatenated per the bits of A; each
    multiplication logs those five runs, and the table holds one stream per
    chunk value met, no per-constant list."""
    ctx, arr, rm = fresh(7681, 16)
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    C = Emitter(ctx, rm, ExecPolicy())
    add_b = C.compiled(_modmul_add_b, 1)
    halve = C.compiled(_modmul_halve, 0)
    constants = (0, 1, 0xFFFF, 0xB5A3)
    for a in constants:
        start, entries = len(arr.trace), len(arr.trace.log)
        emit_modmul(E, a, 5)
        prologue = E.compiled(_modmul_prologue, 0)
        chunks = [(prologue, ())] + [(E.compiled(_modmul_bits((a >> low) & 15, 4), 1), (5,))
                                     for low in range(0, 16, 4)]
        assert arr.trace.log[entries:] == chunks
        per_bit = [(prologue, ())]
        for i in range(ctx.width):
            if (a >> i) & 1:
                per_bit.append((add_b, (5,)))
            per_bit.append((halve, ()))
        want = compile_twiddle_commands(a, ctx, rm, 5)
        for blocks in (chunks, per_bit):
            ops, obs_marks, step_marks = [], {}, []
            for block, rows in blocks:
                base = len(ops)
                ops += block.bind(rows)
                obs_marks.update((base + i, edge) for i, edge in block.obs_marks.items())
                step_marks += [(base + i, k) for i, k in block.step_marks]
            assert ops == want.ops == arr.trace[start:]
            assert obs_marks == want.obs_marks
            assert step_marks == want.step_marks
    values = {(a >> low) & 15 for a in constants for low in range(0, 16, 4)}
    assert len(values) == 7 and len(E.programs) == 1 + len(values)


@pytest.mark.parametrize("policy", [ExecPolicy(), ExecPolicy(tile_scope_all=True)])
def test_every_generated_block_runs_like_the_executor(policy, fresh_programs):
    """Each compiled block (a four-bit chunk of a multiplication among
    them), run as its generated function, leaves the array,
    the trace and any error as execute(arr, stream.bind(rows),
    stream.obs_marks, lane) does, and a tally that counts the trace: lanes
    3-24 in 64 columns (partial remainder tiles included), on zero, dense
    and sparse random states."""
    rng = random.Random(24)

    def caught(run):
        try:
            run()
        except SimError as exc:
            return type(exc), str(exc)
        return None

    for lane in range(3, 25):
        arr = Subarray(32, 64)
        rm = default_rowmap(32)
        E = Emitter(MontgomeryContext.create(3, 3, lane_width=lane), rm, policy, arr)
        blocks = [(E.compiled(_modmul_prologue, 0), 0),
                  (E.compiled(_modmul_add_b, 1), 1),
                  (E.compiled(_modmul_halve, 0), 0),
                  (E.compiled(_modmul_bits(0b1101, 4), 1), 1),
                  (E.compiled(_resolve, 1), 1),
                  (E.compiled(_modadd, 3), 3), (E.compiled(_modsub, 3), 3)]
        assert len(E.programs) == len(blocks) == 7
        for stream, operands in blocks:
            for density in (0, 1, 3, 0):       # bits set with odds 0, 1/2, 1/8
                def value():
                    v = -1 if density else 0
                    for _ in range(density):
                        v &= rng.getrandbits(64)
                    return v
                cells = [value() for _ in range(32)]
                latch = value()
                rows = tuple(rng.sample(range(20), operands))   # below the reserved rows
                twin = Subarray(32, 64)
                for machine in (arr, twin):
                    machine.cells[:] = cells
                    machine.latch = latch
                arr.trace = Trace()
                bound = stream.bind(rows)
                error = caught(lambda: E.run(stream, rows))
                assert error == caught(lambda: execute(twin, bound, stream.obs_marks, lane))
                assert ((arr.cells, arr.latch, list(arr.trace))
                        == (twin.cells, twin.latch, list(twin.trace)))
                # a clean run logs one run of the stream; a failed one, its ops before the fault
                if error:
                    assert all(type(entry) is list for entry in arr.trace.log)
                else:
                    assert arr.trace.log == [(stream, rows)]
                assert (counts_of_tally(arr.trace) == counts_of_trace(arr.trace)
                        == counts_of_tally(twin.trace))
                assert density or error is None
            assert stream.program is not None
        assert len({id(stream.program) for stream, _ in blocks}) == 7


def test_a_forward_keeps_one_stream_per_body(fresh_programs):
    """The canonical forward compiles the prologue, resolve, modadd and modsub
    streams and one stream per chunk of its twiddles, however many twiddles it
    multiplies by: each four-bit chunk and, its twiddles being below
    q < 2^13, the three-bit top chunks 0 and 1."""
    from sramntt.ntt import RingParams, TransformUnit

    unit = TransformUnit(RingParams.create(7681, 256, 16))
    unit.load_polynomials([list(range(256))])
    unit.forward()
    programs = unit.emitter.programs
    chunks = [_modmul_bits(bits, 4) for bits in range(16)] + [_modmul_bits(0, 3),
                                                              _modmul_bits(1, 3)]
    bodies = [_modmul_prologue, _resolve, _modadd, _modsub] + chunks
    assert set(programs) == {(body, ()) for body in bodies} and len(programs) == 22
    assert all(isinstance(s, CommandStream) for s in programs.values())


def test_every_smear_and_deterministic_ripple_has_its_closed_forms_shape(fresh_programs,
                                                                        monkeypatch):
    """In the canonical forward's program table, and in the segments of a
    canonical data-dependent roundtrip, each emit_smear run is a smear run
    of generate's closed form, spanning exactly its ops, and each ripple of
    a deterministic add is a ripple run of all lane rounds: a change to the
    emitter cannot lose either fast path unseen."""
    from sramntt import bitparallel
    from sramntt.ntt import RingParams, TransformUnit
    from sramntt.subarray import _ripple_run, _smear_run

    spans = []

    def recording(kind, emit):
        def recorded(E, *args, **kwargs):
            ops, start = E.ops, len(E.ops)
            emit(E, *args, **kwargs)
            if E.ops is ops:                    # no zero test began a segment
                spans.append((kind, ops, start, len(ops), E.policy.deterministic))
        return recorded

    monkeypatch.setattr(bitparallel, "emit_smear", recording("smear", emit_smear))
    monkeypatch.setattr(bitparallel, "_ripple", recording("ripple", bitparallel._ripple))
    ring = RingParams.create(7681, 256, 16)
    for policy in (ExecPolicy(), ExecPolicy(deterministic=False)):
        unit = TransformUnit(ring, policy=policy)
        unit.load_polynomials([list(range(256))])
        unit.forward()
        if not policy.deterministic:
            unit.inverse()
        lane, rows = unit.ctx.lane_width, unit.arr.rows
        found = {"smear": 0, "ripple": 0}
        for stream in unit.emitter.programs.values():
            def edge_of(i):
                return stream.obs_marks.get(i)
            for kind, ops, start, end, deterministic in spans:
                if ops is not stream.ops or kind == "ripple" and not deterministic:
                    continue
                if kind == "smear":
                    _, _, strides = _smear_run(ops, start, rows, edge_of)
                    assert start + sum(strides) + 3 * len(strides) == end
                else:
                    assert _ripple_run(ops, start, rows, edge_of)[-1] == lane
                    assert start + 5 * lane - 1 == end
                found[kind] += 1
        if policy.deterministic:
            # a smear per bit of the 16 four-bit and 2 three-bit chunks and per
            # tail primitive; two adds in each of resolve, modadd and modsub
            assert found == {"smear": 16 * 4 + 2 * 3 + 3, "ripple": 6}
        else:
            assert found["smear"] > 16 * 4 + 2 * 3 + 3 and found["ripple"] == 0


@pytest.mark.parametrize("q,order,width", [(7681, 256, 16), (257, 8, 10), (8380417, 256, 24)])
def test_a_forward_table_holds_at_most_the_chunk_streams_of_its_word(q, order, width,
                                                                     fresh_programs):
    """A forward's table holds at most 2^4 + 2^(word % 4) chunk streams,
    besides the prologue and the tail's three, whatever its twiddles; a
    second ring on the canonical lane, with its own modulus, order and
    twiddles, adds no stream."""
    from sramntt.ntt import RingParams, TransformUnit

    unit = TransformUnit(RingParams.create(q, order, width))
    unit.load_polynomials([[1] * order] * unit.layout.tiles)
    unit.forward()
    programs = unit.emitter.programs
    word = unit.ctx.width
    chunks = [body for body, _ in programs if body not in (_modmul_prologue, _resolve,
                                                           _modadd, _modsub)]
    assert len(chunks) == len(programs) - 4
    assert len(chunks) <= 2 ** 4 + 2 ** (word % 4)
    assert set(chunks) <= ({_modmul_bits(bits, 4) for bits in range(16)}
                           | {_modmul_bits(bits, word % 4) for bits in range(2 ** (word % 4))})
    if q == 7681:
        tabled = dict(programs)
        second = TransformUnit(RingParams.create(3329, 128, 16))
        assert second.emitter.programs is programs
        second.load_polynomials([list(range(128))] * second.layout.tiles)
        second.forward()
        assert programs == tabled


def test_the_trace_reads_like_the_list_of_its_ops(fresh_programs):
    """Indexing and slicing the log give what the expanded list gives, also
    after the log grows past the entries a first slice indexed."""
    ctx, arr, rm = fresh(7681, 16)
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    emit_modmul(E, 0xB5A3, 5)
    assert arr.trace[3:40] == list(arr.trace)[3:40]
    emit_resolve(E, 4)
    arr.write_row(6, 1)
    ops = list(arr.trace)
    assert len(arr.trace) == len(ops)
    rng = random.Random(5)
    for _ in range(50):
        a, b = sorted(rng.randrange(-len(ops) - 5, len(ops) + 5) for _ in range(2))
        assert arr.trace[a:b] == ops[a:b] and arr.trace[a:] == ops[a:]
        assert arr.trace[b:a] == ops[b:a]
    assert arr.trace[::7] == ops[::7]
    assert [arr.trace[i] for i in (0, -1, len(ops) // 2)] == [ops[0], ops[-1], ops[len(ops) // 2]]
    with pytest.raises(IndexError):
        arr.trace[len(ops)]
    with pytest.raises(ValueError):
        arr.trace[::-1]


def test_a_stream_is_generated_at_its_first_run(fresh_programs):
    """A compiled stream runs as its generated function from its first run,
    and later runs reuse it."""
    ctx, arr, rm = fresh(7681, 16)
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    stream = E.compiled(_resolve, 1)
    assert stream.program is None
    start = len(arr.trace)
    E.run(stream, (rm.mask_row,))
    program = stream.program
    assert program is not None
    assert arr.trace[start:] == stream.bind((rm.mask_row,))
    E.run(stream, (rm.mask_row,))
    assert stream.program is program


def test_a_stream_does_not_run_ahead_of_pending_ops(fresh_programs):
    """On an executing emitter, ops emitted by hand can never run: a stream
    run or a block with them pending raises and runs nothing, under either
    policy.  Run as a block, the same ops run in order."""
    ctx, arr, rm = fresh(7681, 16)

    def copy_row_1_to_0(E):
        E.act(1, rm.zeros, OR)
        E.wb(0)

    start = len(arr.trace)
    for policy in (ExecPolicy(), ExecPolicy(deterministic=False)):
        E = Emitter(ctx, rm, policy, arr)
        copy_row_1_to_0(E)
        for emit in (lambda: emit_modmul(E, 3, b_row=0), lambda: emit_modadd(E, 1, 2, 3)):
            with pytest.raises(ParameterError, match="2 ops emitted outside a block"):
                emit()
            assert len(arr.trace) == start and len(E.ops) == 2
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    E.block(copy_row_1_to_0, ())
    emit_modmul(E, 3, b_row=0)
    C = Emitter(ctx, rm, ExecPolicy())
    C.act(1, rm.zeros, OR)
    C.wb(0)
    emit_modmul(C, 3, b_row=0)                         # a collecting emitter keeps the order
    assert arr.trace[start:] == C.ops


def test_moduli_of_one_lane_share_a_program_table(fresh_programs):
    """The shared table is keyed on the word and the lane, not on the
    modulus: no stream names the modulus, so 7681 and 12289 in 16-bit lanes
    share one table, and a 14-bit lane gets its own."""
    rm = default_rowmap(32)

    def table(modulus, width):
        ctx = MontgomeryContext.create(modulus, width)
        return Emitter(ctx, rm, ExecPolicy(), Subarray(32, 64)).programs

    assert table(7681, 16) is table(12289, 16)
    assert table(7681, 14) is not table(7681, 16)
    assert MontgomeryContext.create(7681, 14).lane_width == 14


def test_words_of_one_lane_get_their_own_program_tables(fresh_programs):
    """The halving block's smear spans the word, so on one 256 x 256 shape a
    word-16 context and the transform's word-15 context, both on 16-bit
    lanes, get tables of their own; the canonical forward counts the same
    cycles after the word-16 emitter has compiled its halving block."""
    from sramntt.ntt import RingParams, TransformUnit

    rm = default_rowmap(256)
    word16 = MontgomeryContext.create(7681, 16)
    word15 = MontgomeryContext.for_ring(7681, 16)
    assert (word16.width, word15.width) == (16, 15)
    assert word16.lane_width == word15.lane_width == 16
    wide = Emitter(word16, rm, ExecPolicy(), Subarray(256, 256))
    narrow = Emitter(word15, rm, ExecPolicy(), Subarray(256, 256))
    assert wide.programs is not narrow.programs
    assert wide.compiled(_modmul_halve, 0).ops != narrow.compiled(_modmul_halve, 0).ops
    unit = TransformUnit(RingParams.create(7681, 256, 16))
    assert unit.rm == rm and unit.emitter.programs is narrow.programs
    unit.load_polynomials([[0] * 256] * unit.layout.tiles)
    unit.forward()
    assert accumulate(unit.arr.trace, CostModel()).cycles == 1_689_498


def test_units_of_one_shape_share_their_programs(fresh_programs, monkeypatch):
    """Executing emitters on one row map, policy and array shape share one
    table: the first unit generates its 13 programs, a second unit none and
    the two units of a polymul pipeline only the inverse's park and the
    chunks of their twiddles the forward did not meet.  Another rows, cols
    or policy value gets a table of its own."""
    from sramntt import bitparallel
    from sramntt.ntt import RingParams, TransformUnit, polymul_pipeline

    calls = []
    monkeypatch.setattr(bitparallel, "generate",
                        lambda *args: calls.append(args) or generate(*args))
    ring = RingParams.create(257, 8)
    poly = [1, 2, 3, 4, 5, 6, 7, 8]

    def unit(rows=64, cols=64, policy=ExecPolicy()):
        u = TransformUnit(ring, rows=rows, cols=cols, policy=policy)
        u.load_polynomials([poly])
        u.forward()
        return u

    first = unit()
    assert len(calls) == len(first.emitter.programs) == 13
    second = unit()
    assert second.emitter.programs is first.emitter.programs
    assert len(calls) == 13
    _, unit_a, unit_b = polymul_pipeline([poly], poly, ring, rows=64, cols=64)
    assert unit_a.emitter.programs is unit_b.emitter.programs is first.emitter.programs
    assert len(calls) == len(first.emitter.programs) == 20
    others = [unit(rows=72), unit(cols=72), unit(policy=ExecPolicy(tile_scope_all=True))]
    tables = [first.emitter.programs] + [u.emitter.programs for u in others]
    assert len({id(t) for t in tables}) == 4
    assert len(calls) == 20 + 3 * 13
    assert not Emitter(first.ctx, first.rm, ExecPolicy()).programs       # a collecting emitter's own


def one_tuple_per_distinct_op(ops) -> bool:
    """Each value among `ops`, all held alive by the caller, is one object."""
    return len({id(op) for op in ops}) == len(set(ops))


def test_a_shapes_streams_share_one_tuple_per_distinct_op(fresh_programs):
    """Across all streams of a shape's table, after a product under the
    deterministic policy and after a data-dependent roundtrip's segments,
    each distinct op is one tuple, and the shape's `distinct` table holds
    it; so does a twiddle's collected stream within itself, its bound
    multiplicand ops included."""
    from sramntt.ntt import RingParams, TransformUnit, polymul_pipeline

    ring = RingParams.create(257, 8)
    poly = [1, 2, 3, 4, 5, 6, 7, 8]
    _, unit_a, _ = polymul_pipeline([poly], poly[::-1], ring, rows=64, cols=64)
    data_dependent = TransformUnit(ring, rows=64, cols=64,
                                   policy=ExecPolicy(deterministic=False))
    data_dependent.load_polynomials([poly])
    data_dependent.forward()
    data_dependent.inverse()
    for unit in (unit_a, data_dependent):
        streams = list(unit.emitter.programs.values())
        ops = [op for stream in streams for op in stream.ops]
        # not vacuous: some op value recurs in more than one stream
        assert len(set(ops)) < sum(len(set(stream.ops)) for stream in streams)
        assert one_tuple_per_distinct_op(ops)
        distinct = unit.emitter.distinct
        assert all(distinct[op] is op for op in ops)
    assert any(stream.zero_test for stream in data_dependent.emitter.programs.values())
    stream = compile_twiddle_commands(unit_a.ctx.radix - 3, unit_a.ctx, unit_a.rm, B_ROW)
    assert stream.ops.count((ACTIVATE2, unit_a.rm.sum_row, B_ROW, AND)) > 1
    assert len(set(stream.ops)) < len(stream.ops)
    assert one_tuple_per_distinct_op(stream.ops)


def test_a_dropped_unit_frees_its_array_without_the_cycle_collector(fresh_programs):
    """The shared tables outlive every unit, so no generated function may hold
    an array, and nothing may hold one back in a cycle, or every finished
    unit's trace waits for a full collection."""
    import gc

    from sramntt.ntt import RingParams, TransformUnit

    def arrays():
        return sum(isinstance(o, Subarray) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = arrays()
        units = [TransformUnit(RingParams.create(257, 8), rows=64, cols=64) for _ in range(2)]
        for unit in units:
            unit.load_polynomials([[1, 2, 3, 4, 5, 6, 7, 8]])
            unit.forward()
        programs = units[0].emitter.programs
        assert units[1].emitter.programs is programs
        assert len(programs) == 13 and all(s.program for s in programs.values())
        del units, unit
        assert arrays() == before
    finally:
        gc.enable()


def test_select_m_per_tile():
    ctx, arr, rm = fresh(7, 3, cols=8)                # two 4-bit lanes (M=7 -> lane 4)
    lane = ctx.lane_width
    assert lane == 4
    arr.write_row(rm.sum_row, pack_words([0b011, 0b010], lane, arr.cols))
    Emitter(ctx, rm, ExecPolicy(), arr).block(emit_select_m, ())
    bits = arr.read_row(rm.mask_row)
    assert unpack_word(bits, 0, lane) == 7            # odd Sum: m = M
    assert unpack_word(bits, 1, lane) == 0            # even Sum: m = 0


def test_resolve_examples_and_random():
    ctx, arr, rm = fresh(7, 3)
    lane = ctx.lane_width
    E = Emitter(ctx, rm, ExecPolicy(), arr)

    def resolve_pair(s, c):
        arr.write_row(rm.sum_row, broadcast_word(s, lane, arr.cols))
        arr.write_row(rm.carry_row, broadcast_word(c, lane, arr.cols))
        arr.activate_pair(rm.carry_row, rm.zeros, OR)     # latch := Carry
        dest = rm.mask_row
        emit_resolve(E, dest)
        return unpack_word(arr.read_row(dest), 0, lane)

    assert resolve_pair(0b001, 0b010) == 5
    assert resolve_pair(0, 0) == 0
    rng = random.Random(5)
    for _ in range(40):
        m = 7
        val = rng.randrange(2 * m)
        c = rng.randrange(val // 2 + 1) if val else 0
        s = val - 2 * c
        if s >= (1 << lane) or c >= (1 << (lane - 1)):
            continue
        assert resolve_pair(s, c) == val % m


def test_bp_add_mod_2n():
    """emit_add, which the removed bp_add wrapped: (a + b) mod 2^lane."""
    ctx, arr, rm = fresh(11, 4)
    lane = ctx.lane_width
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    rng = random.Random(9)
    for _ in range(30):
        x, y = rng.randrange(1 << lane), rng.randrange(1 << lane)
        arr.write_row(1, broadcast_word(x, lane, arr.cols))
        arr.write_row(2, broadcast_word(y, lane, arr.cols))
        E.block(emit_add, (1, 2, rm.aux1, rm.aux2, rm.aux3, rm.mask_row))
        assert unpack_word(arr.read_row(rm.aux1), 0, lane) == (x + y) % (1 << lane)


def test_modadd_modsub_examples():
    ctx, arr, rm = fresh(7, 4)                        # headroom: 7 < 2^3
    lane = ctx.lane_width
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    arr.write_row(1, broadcast_word(3, lane, arr.cols))
    arr.write_row(2, broadcast_word(5, lane, arr.cols))
    emit_modadd(E, 1, 2, 3)
    assert unpack_word(arr.read_row(3), 0, lane) == 1
    emit_modsub(E, 1, 2, 3)
    assert unpack_word(arr.read_row(3), 0, lane) == 5


def test_modadd_modsub_random_wide():
    """10^4 random (a, b) pairs at M=8380417, n=24, batched across tiles."""
    modulus, width = 8380417, 24
    ctx, arr, rm = fresh(modulus, width, cols=256)
    lane = ctx.lane_width
    tiles = arr.cols // lane
    E = Emitter(ctx, rm, ExecPolicy(), arr)
    rng = random.Random(13)
    cases = 0
    while cases < 10_000:
        batch_a = [rng.randrange(modulus) for _ in range(tiles)]
        batch_b = [rng.randrange(modulus) for _ in range(tiles)]
        arr.write_row(1, pack_words(batch_a, lane, arr.cols))
        arr.write_row(2, pack_words(batch_b, lane, arr.cols))
        emit_modadd(E, 1, 2, 3)
        emit_modsub(E, 1, 2, 4)
        add_bits, sub_bits = arr.read_row(3), arr.read_row(4)
        for t, (a, b) in enumerate(zip(batch_a, batch_b)):
            add = unpack_word(add_bits, t, lane)
            sub = unpack_word(sub_bits, t, lane)
            assert add == (a + b) % modulus
            assert sub == (a - b) % modulus
            assert 0 <= add < modulus and 0 <= sub < modulus
        cases += tiles


def test_modadd_and_modsub_require_headroom(fresh_programs):
    """Without a headroom bit either call raises before it emits, compiles
    or runs anything, on an executing and on a collecting emitter."""
    ctx = MontgomeryContext.create(7, 3, lane_width=3)   # forced: no headroom
    arr = Subarray(32, 32)
    rm = default_rowmap(32)
    load_constants(arr, rm, ctx)
    start = len(arr.trace)
    for emit in (emit_modadd, emit_modsub):
        for policy in (ExecPolicy(), ExecPolicy(deterministic=False)):
            for E in (Emitter(ctx, rm, policy, arr), Emitter(ctx, rm, policy)):
                with pytest.raises(ParameterError, match="headroom bit"):
                    emit(E, 1, 2, 3)
                assert (E.ops, E.programs) == ([], {})
    assert len(arr.trace) == start


def test_a_constant_outside_the_word_is_rejected_before_any_op(fresh_programs):
    """emit_modmul reads A's bits below the word, so 2^16 + 3 would multiply
    by 3 and -1 by 0xFFFF: a constant that is not an int in [0, 2^width), a
    bool included, raises before it emits, compiles or runs anything."""
    ctx, arr, rm = fresh(7681, 16, cols=64)
    start = len(arr.trace)
    for policy in (ExecPolicy(), ExecPolicy(deterministic=False)):
        for E in (Emitter(ctx, rm, policy, arr), Emitter(ctx, rm, policy)):
            for a in (ctx.radix, ctx.radix + 3, 1 << 40, -1, True):
                with pytest.raises(ParameterError, match="not an integer in"):
                    emit_modmul(E, a, B_ROW)
                assert (E.ops, E.programs) == ([], {})
    assert len(arr.trace) == start
    with pytest.raises(ParameterError, match="not an integer in"):
        compile_twiddle_commands(-1, ctx, rm, B_ROW)


def test_data_dependent_mode_matches_deterministic():
    modulus, width = 7681, 16
    rng = random.Random(21)
    ctx = MontgomeryContext.create(modulus, width)
    for _ in range(10):
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        arr = Subarray(32, 32)
        rm = default_rowmap(32)
        load_constants(arr, rm, ctx)
        lane = ctx.lane_width
        arr.write_row(1, broadcast_word(a, lane, arr.cols))
        arr.write_row(2, broadcast_word(b, lane, arr.cols))
        dd = ExecPolicy(deterministic=False)
        emit_modadd(Emitter(ctx, rm, dd, arr), 1, 2, 3)
        assert unpack_word(arr.read_row(3), 0, lane) == (a + b) % modulus
        # data-dependent traces contain zero tests; deterministic ones do not
        assert any(op[0] == "ZERO_TEST" for op in arr.trace)


def test_a_warm_data_dependent_roundtrip_compiles_no_new_segment(fresh_programs, monkeypatch):
    """Rerun on the same inputs, a data-dependent roundtrip meets the same
    readouts, so it compiles and generates no segment and leaves the same
    trace.  Its log holds runs of compiled streams and one-op host writes
    and zero tests only.  Each of resolve, modadd and modsub has two carry
    loops of at most `lane` zero tests, so it has at most 1 + 2*lane +
    2*lane*(lane+1) = 2*(lane+1)^2 - 1 segments; the table holds those and
    the four bodies without a zero test (prologue, add-B, halving, park)."""
    from sramntt import bitparallel
    from sramntt.ntt import RingParams, TransformUnit

    calls = []
    monkeypatch.setattr(bitparallel, "generate",
                        lambda *args: calls.append(args) or generate(*args))
    ring = RingParams.create(7681, 16, 16)
    rng = random.Random(4)
    polys = [[rng.randrange(7681) for _ in range(16)] for _ in range(4)]

    def roundtrip():
        unit = TransformUnit(ring, rows=64, cols=64, policy=ExecPolicy(deterministic=False))
        unit.load_polynomials(polys)
        unit.forward()
        unit.inverse()
        assert unit.read_polynomials() == polys
        return unit

    first = roundtrip()
    table = first.emitter.programs
    streams = dict(table)
    generated = len(calls)
    assert generated == len(table)
    second = roundtrip()
    assert second.emitter.programs is table and table == streams
    assert len(calls) == generated
    assert list(second.arr.trace) == list(first.arr.trace)
    lane = first.ctx.lane_width
    assert 4 < len(table) <= 3 * (2 * (lane + 1) ** 2 - 1) + 4
    kinds = set()
    for entry in second.arr.trace.log:
        if type(entry) is list:
            assert len(entry) == 1 and entry[0][0] in (WRITE_ROW, ZERO_TEST), entry
            kinds.add(entry[0][0])
        else:
            stream, rows = entry
            assert isinstance(stream, CommandStream) and type(rows) is tuple
            assert stream in streams.values()
    assert kinds == {WRITE_ROW, ZERO_TEST}


def test_tile_scope_all_policy_still_correct():
    bench = ModmulBench(7681, 16)
    bench.policy = ExecPolicy(tile_scope_all=True)
    bench.emitter = Emitter(bench.ctx, bench.rm, bench.policy, bench.arr)
    rng = random.Random(3)
    for _ in range(5):
        a, b = rng.randrange(1 << 16), rng.randrange(7681)
        assert bench.run(a, [b])[0] == oracle_montmul(a, b, 7681, 16)


def test_cross_tile_injection_is_zero():
    """Replaying a modmul trace, every global shift moves a 0 across lane edges."""
    bench = ModmulBench(251, 8, cols=64)
    rng = random.Random(17)
    from sramntt.subarray import LEFT

    bench.run(rng.randrange(256), [rng.randrange(251) for _ in range(bench.tiles)])
    cols = bench.arr.cols
    lsb_edges, msb_edges = bench.arr.tile_edges(bench.lane, 0, cols - cols % bench.lane)
    twin = Subarray(bench.arr.rows, bench.arr.cols)
    for op in bench.arr.trace:
        if op[0] == SHIFT and op[2] == GLOBAL:
            edge = msb_edges if op[1] == LEFT else lsb_edges
            assert twin.latch & edge == 0
        execute(twin, (op,))
    assert twin.same_state(bench.arr)


def test_stream_serializes_to_trace_grammar():
    ctx, _, rm = fresh(11, 4)
    stream = compile_twiddle_commands(5, ctx, rm, B_ROW)
    out = io.StringIO()
    serialize_trace(stream.ops, 32, out)
    assert parse_trace(out.getvalue()) == stream.ops


# -- the butterfly tail: global shifts where an invariant allows, 3-op select --


@pytest.mark.parametrize("modulus,width", [(7, 4), (7681, 16), (8380417, 24)])
def test_tail_shift_scopes(modulus, width):
    """Sign smears and the no-wrap adds shift globally; wrapping adds stay tile-masked."""
    ctx = MontgomeryContext.create(modulus, width)
    w = ctx.lane_width
    assert w == width
    rm = default_rowmap(64)
    want = {"resolve": (2 * w, w), "modadd": (2 * w - 1, w), "modsub": (w - 1, 2 * w)}
    for policy in (ExecPolicy(), ExecPolicy(tile_scope_all=True)):
        for name, emit in (("resolve", lambda E: emit_resolve(E, rm.mask_row)),
                           ("modadd", lambda E: emit_modadd(E, 0, rm.mask_row, 0)),
                           ("modsub", lambda E: emit_modsub(E, 0, rm.mask_row, 1))):
            E = Emitter(ctx, rm, policy)
            emit(E)
            counts = counts_of_trace(E.ops)
            shifts = (counts["SHIFT_GLOBAL"], counts["SHIFT_TILE"])
            if policy.tile_scope_all:
                assert shifts == (0, sum(want[name])), name
            else:
                assert shifts == want[name], name
            # every global shift carries an edge mark that execute checks live
            marked = {i for i, op in enumerate(E.ops) if op[0] == SHIFT and op[2] == GLOBAL}
            assert marked <= set(E.obs_marks)


def test_mask_select_is_three_activations():
    ctx, arr, rm = fresh(7681, 16, cols=64)
    lane = ctx.lane_width
    take, other, sel = [7, 1234, 0, 7680], [42, 0, 7680, 1], [0xFFFF, 0, 0xFFFF, 0]
    for row, words in ((1, take), (2, other), (3, sel)):
        arr.write_row(row, pack_words(words, lane, arr.cols))
    start = len(arr.trace)
    Emitter(ctx, rm, ExecPolicy(), arr).block(emit_mask_select, (1, 2, 3, 4, 5))
    ops = arr.trace[start:]
    assert sum(op[0] == ACTIVATE2 for op in ops) == 3
    assert sum(op[0] == WRITEBACK for op in ops) == 3
    assert [unpack_word(arr.read_row(5), t, lane) for t in range(4)] == [7, 0, 0, 1]
    assert [unpack_word(arr.read_row(r), 0, lane) for r in (1, 2, 3)] == [7, 42, 0xFFFF]


def _residue_batches(pairs, tiles):
    for lo in range(0, len(pairs), tiles):
        yield pairs[lo:lo + tiles]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("modulus,width", [(3, 4), (5, 4), (7, 4), (9, 5), (15, 5)])
def test_modadd_modsub_resolve_exhaustive(policy, modulus, width):
    """Every residue pair, with M = 2^(lane-1) - 1 among the moduli (a + b and
    t reach 2^lane - 2), through the compiled and the op-by-op paths."""
    ctx, arr, rm = fresh(modulus, width, cols=64)
    lane = ctx.lane_width
    assert lane == width
    tiles = arr.cols // lane
    E = Emitter(ctx, rm, policy, arr)
    pairs = [(a, b) for a in range(modulus) for b in range(modulus)]
    for batch in _residue_batches(pairs, tiles):
        arr.write_row(1, pack_words([a for a, _ in batch], lane, arr.cols))
        arr.write_row(2, pack_words([b for _, b in batch], lane, arr.cols))
        emit_modadd(E, 1, 2, 3)
        emit_modsub(E, 1, 2, 4)
        add_bits, sub_bits = arr.read_row(3), arr.read_row(4)
        for t, (a, b) in enumerate(batch):
            assert unpack_word(add_bits, t, lane) == (a + b) % modulus, (a, b)
            assert unpack_word(sub_bits, t, lane) == (a - b) % modulus, (a, b)
    # resolve: every carry-save pair the multiplier can leave, Sum + 2*Carry < 2M
    pairs = [(s, c) for c in range(modulus) for s in range(2 * modulus - 2 * c)]
    for batch in _residue_batches(pairs, tiles):
        arr.write_row(rm.sum_row, pack_words([s for s, _ in batch], lane, arr.cols))
        arr.write_row(rm.carry_row, pack_words([c for _, c in batch], lane, arr.cols))
        arr.activate_pair(rm.carry_row, rm.zeros, OR)     # latch := Carry
        emit_resolve(E, 5)
        bits = arr.read_row(5)
        for t, (s, c) in enumerate(batch):
            assert unpack_word(bits, t, lane) == (s + 2 * c) % modulus, (s, c)


@pytest.mark.parametrize("deterministic", [True, False])
def test_no_wrap_add_raises_on_a_carry_out_of_the_lane(deterministic):
    """A no-wrap add whose x + y reaches 2^lane trips the live "msb" check;
    the same add unmarked wraps, and a no-wrap add just below 2^lane passes."""
    ctx, arr, rm = fresh(7681, 16, cols=64)
    lane = ctx.lane_width
    policy = ExecPolicy(deterministic=deterministic)
    bodies = {no_wrap: partial(emit_add, no_wrap=no_wrap) for no_wrap in (False, True)}

    def add(x, y, no_wrap):
        arr.write_row(1, pack_words([x, 3, 3, 3], lane, arr.cols))
        arr.write_row(2, pack_words([y, 4, 4, 4], lane, arr.cols))
        Emitter(ctx, rm, policy, arr).block(bodies[no_wrap],
                                            (1, 2, 3, rm.aux1, rm.aux2, rm.mask_row))
        return unpack_word(arr.read_row(3), 0, lane)

    for x, y in ((1 << (lane - 1), 1 << (lane - 1)), ((1 << lane) - 1, 1), (0xBEEF, 0x8000)):
        assert add(x, y, no_wrap=False) == (x + y) % (1 << lane)
        with pytest.raises(ObservationError, match="top bit"):
            add(x, y, no_wrap=True)
    assert add((1 << lane) - 2, 1, no_wrap=True) == (1 << lane) - 1


@pytest.mark.parametrize("policy", POLICIES)
def test_modadd_modsub_with_scratch_operands(policy):
    """emit_modadd and emit_modsub work in Sum, Carry and aux1-3: the mask
    row may be an operand or the destination, and operands that are not the
    destination keep their values; any of the five working rows, in any
    operand place, raises AddressError with nothing emitted."""
    modulus = 7681
    ctx, arr, rm = fresh(modulus, 16, cols=64)
    lane = ctx.lane_width
    E = Emitter(ctx, rm, policy, arr)
    rng = random.Random(31)
    cases = [(1, 2, 3), (rm.mask_row, 2, 1), (1, rm.mask_row, 1), (1, 2, rm.mask_row),
             (1, rm.mask_row, 2)]
    for emit, want in ((emit_modadd, lambda a, b: (a + b) % modulus),
                       (emit_modsub, lambda a, b: (a - b) % modulus)):
        for a_row, b_row, dest in cases:
            words = {row: [rng.randrange(modulus) for _ in range(4)] for row in (a_row, b_row)}
            for row, values in words.items():
                arr.write_row(row, pack_words(values, lane, arr.cols))
            emit(E, a_row, b_row, dest)
            got = [unpack_word(arr.read_row(dest), t, lane) for t in range(4)]
            assert got == [want(a, b) for a, b in zip(words[a_row], words[b_row])], \
                (emit.__name__, a_row, b_row, dest)
            for row in {a_row, b_row} - {dest}:
                assert [unpack_word(arr.read_row(row), t, lane) for t in range(4)] == words[row]
        for row in (rm.sum_row, rm.carry_row, rm.aux1, rm.aux2, rm.aux3):
            for operands in ((row, 2, 3), (1, row, 3), (1, 2, row)):
                before = (list(arr.cells), arr.latch, len(arr.trace))
                collecting = Emitter(ctx, rm, policy)
                for emitter in (E, collecting):
                    with pytest.raises(AddressError, match=f"works in row {row}"):
                        emit(emitter, *operands)
                assert not collecting.ops and not E.ops
                assert (list(arr.cells), arr.latch, len(arr.trace)) == before


def test_the_emitter_is_the_only_row_map_argument():
    """No emit_* nor Emitter.block or Emitter.compiled takes a row map, and
    the modular add and subtract take no scratch pool."""
    import inspect

    from sramntt import bitparallel

    emits = [fn for name, fn in vars(bitparallel).items() if name.startswith("emit_")]
    assert len(emits) == 9
    for fn in emits + [Emitter.block, Emitter.compiled]:
        params = inspect.signature(fn).parameters
        assert "rm" not in params, fn.__name__
        assert list(params)[0] in ("E", "self"), fn.__name__
    for fn in (emit_modadd, emit_modsub):
        assert list(inspect.signature(fn).parameters) == ["E", "a_row", "b_row", "dest_row"]
    # a stream is keyed by its body and the readouts before it: no static arguments
    assert list(inspect.signature(Emitter.block).parameters) == ["self", "body", "rows"]
    assert list(inspect.signature(Emitter.compiled).parameters) == [
        "self", "body", "operands", "readouts"]
    # the word width comes from the emitter's context, as the lane does
    assert list(inspect.signature(emit_modmul).parameters) == ["E", "a_value", "b_row"]
