"""Subarray micro-op semantics, trace closure, and serialization grammar."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramntt.errors import (
    AddressError,
    DimensionError,
    ObservationError,
    SimError,
    TileGeometryError,
    TraceIOError,
)
from sramntt.subarray import (
    ACTIVATE2,
    AND,
    GLOBAL,
    LEFT,
    MAX_COLS,
    MAX_ROWS,
    NOR,
    OR,
    RIGHT,
    SHIFT,
    TILE,
    WRITE_ROW,
    WRITEBACK,
    XOR,
    ZERO_TEST,
    Subarray,
    _tile_edge_masks,
    apply_op,
    bits_from_list,
    bits_to_list,
    create_subarray,
    execute,
    generate,
    parse_trace,
    parse_trace_line,
    replay,
    serialize_trace,
)


def test_create_zeroed():
    arr = create_subarray(256, 256)
    assert sum(arr.cells) == 0 and arr.latch == 0 and arr.trace == []
    assert arr.rows * arr.cols == 65536

    small = create_subarray(8, 4)
    assert small.rows * small.cols == 32


def test_create_too_small():
    with pytest.raises(DimensionError):
        create_subarray(2, 4)
    with pytest.raises(DimensionError):
        create_subarray(8, 2)


def test_create_too_large_allocates_nothing():
    create_subarray(MAX_ROWS, MAX_COLS, record=False)
    for rows, cols in ((10**12, 8), (8, 10**12), (MAX_ROWS + 1, 8), (8, MAX_COLS + 1)):
        with pytest.raises(DimensionError, match="at most"):
            create_subarray(rows, cols)


def test_write_read_roundtrip():
    arr = create_subarray(8, 8)
    bits = bits_from_list([1, 0, 1, 1, 0, 0, 0, 0])
    arr.write_row(0, bits)
    assert arr.read_row(0) == bits
    assert arr.read_row(5) == 0            # never written
    with pytest.raises(AddressError):
        arr.write_row(8, 1)
    with pytest.raises(AddressError):
        arr.read_row(-1)


def test_activate_truth_tables():
    arr = create_subarray(8, 4)
    arr.write_row(1, 0b1100)
    arr.write_row(2, 0b1010)
    arr.activate_pair(1, 2, AND)
    assert arr.latch == 0b1000
    arr.activate_pair(1, 2, XOR)
    assert arr.latch == 0b0110
    arr.activate_pair(1, 2, NOR)
    assert arr.latch == 0b0001
    arr.activate_pair(1, 2, OR)
    assert arr.latch == 0b1110


def test_activate_rejects_same_row():
    arr = create_subarray(8, 4)
    with pytest.raises(AddressError):
        arr.activate_pair(3, 3, AND)
    with pytest.raises(AddressError):
        arr.activate_pair(0, 9, AND)


def test_activate_non_destructive():
    arr = create_subarray(8, 4)
    arr.write_row(0, 0b0110)
    arr.write_row(1, 0b1011)
    before = arr.snapshot()[0]
    for mode in (AND, NOR, OR, XOR):
        arr.activate_pair(0, 1, mode)
    assert arr.snapshot()[0] == before


def test_shift_semantics():
    arr = create_subarray(8, 4)
    arr.latch = 0b0011
    arr.shift_latch(LEFT, TILE, 4, 0)
    assert arr.latch == 0b0110
    arr.latch = 0b1000
    arr.shift_latch(RIGHT, GLOBAL)
    assert arr.latch == 0b0100
    # two 2-bit tiles: no cross-tile leakage on tile-scoped left
    arr.latch = 0b0011            # tile0 = 11, tile1 = 00
    arr.shift_latch(LEFT, TILE, 2, 0)
    assert arr.latch == 0b0010    # tile0 = 10, tile1 = 00
    with pytest.raises(TileGeometryError):
        arr.shift_latch(LEFT, TILE, 1, 0)


def test_global_edges_zero_fill():
    arr = create_subarray(8, 4)
    arr.latch = 0b1001
    arr.shift_latch(LEFT, GLOBAL)
    assert arr.latch == 0b0010
    arr.latch = 0b1001
    arr.shift_latch(RIGHT, GLOBAL)
    assert arr.latch == 0b0100


def test_writeback_and_zero_test():
    arr = create_subarray(8, 4)
    arr.latch = 0b1010
    arr.latch_writeback(3)
    assert arr.read_row(3) == 0b1010 and arr.latch == 0b1010
    arr.latch_writeback(4)
    assert arr.read_row(4) == 0b1010
    arr.write_row(5, 0b0101)
    arr.activate_pair(3, 5, OR)
    assert arr.latch == 0b1111
    assert not arr.latch_is_zero()
    arr.activate_pair(3, 5, AND)
    assert arr.latch == 0
    assert arr.latch_is_zero()
    assert create_subarray(8, 4).latch_is_zero()


@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
@settings(max_examples=100, deadline=None)
def test_de_morgan_consistency(a, b):
    arr = create_subarray(8, 16, record=False)
    arr.write_row(0, a)
    arr.write_row(1, b)
    mask = arr.colmask
    arr.activate_pair(0, 1, NOR)
    nor = arr.latch
    arr.activate_pair(0, 1, OR)
    assert arr.latch == (~nor) & mask
    arr.activate_pair(0, 1, AND)
    nand = (~arr.latch) & mask
    arr.activate_pair(0, 1, XOR)
    assert arr.latch == ((a | b) & nand) & mask


@given(v=st.integers(0, 2**12 - 1))
@settings(max_examples=60, deadline=None)
def test_shift_left_right_restores_interior(v):
    arr = create_subarray(8, 12, record=False)
    arr.latch = v
    arr.shift_latch(LEFT, GLOBAL)
    arr.shift_latch(RIGHT, GLOBAL)
    top = 1 << 11
    assert arr.latch == v & ~top       # only the edge bit is zero-filled away


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_trace_replay_closure(script):
    """Replaying the recorded trace reproduces the final state bit-exactly."""
    arr = create_subarray(8, 8)
    for sel, val in script:
        if sel == 0:
            arr.write_row(val % 8, val)
        elif sel == 1:
            a = val % 8
            b = (a + 1 + val // 8 % 7) % 8
            arr.activate_pair(a, b, (AND, OR, XOR, NOR)[val % 4])
        elif sel == 2:
            arr.shift_latch((LEFT, RIGHT)[val % 2], (GLOBAL, TILE)[(val >> 1) % 2], 4, 0)
        else:
            arr.latch_writeback(val % 8)
    twin = replay(arr.trace, 8, 8)
    assert twin.same_state(arr)


def test_trace_grammar_roundtrip():
    arr = create_subarray(8, 8)
    arr.write_row(2, 0xA5)
    arr.write_row(3, 0x3C)
    arr.activate_pair(2, 3, XOR)
    arr.shift_latch(LEFT, GLOBAL)
    arr.shift_latch(RIGHT, TILE, 4, 0)
    arr.latch_writeback(1)
    arr.latch_is_zero()
    text = serialize_trace(arr.trace, arr.cols)
    assert parse_trace(text) == arr.trace
    twin = replay(parse_trace(text), 8, 8)
    assert twin.same_state(arr)


def test_parse_rejects_unknown_shift_scope():
    assert parse_trace("0 SHIFT LEFT GLOBAL\n") == [("SHIFT", LEFT, GLOBAL, 0, 0)]
    with pytest.raises(TraceIOError):
        parse_trace("0 SHIFT LEFT BOGUS\n")


def _parse_each_line(text):
    """parse_trace without its memo: every line parsed on its own."""
    return [parse_trace_line(line.strip()) for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]


def test_memoized_parse_equals_the_per_line_parse_on_the_canonical_trace():
    import random

    from sramntt.ntt import RingParams, TransformUnit

    unit = TransformUnit(RingParams.create(7681, 256, 16))
    rng = random.Random(6)
    unit.load_polynomials([[rng.randrange(7681) for _ in range(256)]
                           for _ in range(unit.layout.tiles)])
    unit.forward()
    text = serialize_trace(unit.arr.trace, unit.arr.cols)
    ops = parse_trace(text)
    assert ops == _parse_each_line(text) == unit.arr.trace
    # one tuple per distinct op text, shared by every line that repeats it
    assert len({id(op) for op in ops}) == len({line.split(None, 1)[1]
                                               for line in text.splitlines()})


def test_memoized_parse_keys_on_everything_after_the_sequence_number():
    text = "\n".join([
        "0\tWRITEBACK 0",
        "1\tZERO_TEST 0",                 # same first token after a tab
        "2  WRITEBACK   0",                # repeated spaces
        "3 WRITEBACK\t0",
        "# a comment",
        "",
        "x SHIFT LEFT TILE 4 0",           # the sequence token is not checked
        "5 SHIFT LEFT\tTILE 4  0",
        "6 WRITEBACK 1",
        "7 WRITE_ROW 2 0f",
        "8 WRITE_ROW 2 0F",
        "9 ZERO_TEST 0",
    ])
    assert parse_trace(text) == _parse_each_line(text) == [
        (WRITEBACK, 0), (ZERO_TEST, 0), (WRITEBACK, 0), (WRITEBACK, 0),
        (SHIFT, LEFT, TILE, 4, 0), (SHIFT, LEFT, TILE, 4, 0), (WRITEBACK, 1),
        (WRITE_ROW, 2, 15), (WRITE_ROW, 2, 15), (ZERO_TEST, 0),
    ]


@pytest.mark.parametrize("bad", ["WRITEBACK", "0 WRITEBACK", "0 WRITEBACK 0 junk",
                                 "0 WRITEBACK x", "0 SHIFT LEFT BOGUS"])
def test_memoized_parse_validates_a_text_seen_only_after_a_good_line(bad):
    with pytest.raises(TraceIOError):
        parse_trace(f"0 WRITEBACK 0\n1 WRITEBACK 0\n{bad}\n")


def test_bits_helpers():
    assert bits_from_list([1, 0, 1]) == 0b101
    assert bits_to_list(0b101, 4) == [1, 0, 1, 0]
    with pytest.raises(AddressError):
        bits_from_list([2])


# -- the executor against a reference interpreter ---------------------------

class ReferenceSubarray:
    """The micro-op semantics as separate per-op methods, one check at a time:
    the reference the one executor loop is compared against."""

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols
        self.colmask = (1 << cols) - 1
        self.cells = [0] * rows
        self.latch = 0
        self.trace = []

    def check_addr(self, addr):
        if not 0 <= addr < self.rows:
            raise AddressError(f"row {addr} outside [0,{self.rows})")

    def apply(self, op, edge=None):
        """Run one op; `edge` marks a shift whose "msb" or "lsb" full-lane edge
        must be zero in the latch."""
        kind = op[0]
        if kind == ACTIVATE2:
            a, b, mode = op[1], op[2], op[3]
            self.check_addr(a)
            self.check_addr(b)
            if a == b:
                raise AddressError("two distinct rows")
            ra, rb = self.cells[a], self.cells[b]
            if mode == AND:
                self.latch = ra & rb
            elif mode == XOR:
                self.latch = ra ^ rb
            elif mode == OR:
                self.latch = ra | rb
            elif mode == NOR:
                self.latch = ~(ra | rb) & self.colmask
            else:
                raise AddressError(f"unknown logic mode {mode!r}")
            self.trace.append((ACTIVATE2, a, b, mode))
        elif kind == WRITEBACK:
            self.check_addr(op[1])
            self.cells[op[1]] = self.latch
            self.trace.append((WRITEBACK, op[1]))
        elif kind == SHIFT:
            direction, scope, width, origin = op[1], op[2], op[3], op[4]
            lsb_edge, msb_edge = reference_full_tile_edges(self.cols, LANE)
            if edge == "msb" and self.latch & msb_edge:
                raise ObservationError("live top bit")
            if edge == "lsb" and self.latch & lsb_edge:
                raise ObservationError("live low bit")
            if scope == GLOBAL:
                if direction == LEFT:
                    self.latch = (self.latch << 1) & self.colmask
                elif direction == RIGHT:
                    self.latch >>= 1
                else:
                    raise TileGeometryError("direction")
            elif scope == TILE:
                lsb, msb = reference_tile_edges(self.cols, width, origin)
                if direction == LEFT:
                    self.latch = ((self.latch << 1) & self.colmask) & ~lsb
                elif direction == RIGHT:
                    self.latch = (self.latch >> 1) & ~msb
                else:
                    raise TileGeometryError("direction")
            else:
                raise TileGeometryError("scope")
            self.trace.append((SHIFT, direction, scope, width, origin))
        elif kind == WRITE_ROW:
            self.check_addr(op[1])
            if not 0 <= op[2] <= self.colmask:
                raise AddressError("row value too wide")
            self.cells[op[1]] = op[2]
            self.trace.append((WRITE_ROW, op[1], op[2]))
        elif kind == ZERO_TEST:
            self.trace.append((ZERO_TEST, 1 if self.latch == 0 else 0))
        else:
            raise TraceIOError(f"unknown micro-op kind {kind!r}")


def reference_tile_edges(cols, width, origin):
    """Edge masks of tiles repeated over the whole latch, a partial last tile included."""
    if width < 2:
        raise TileGeometryError("tile width must be >= 2")
    if not 0 <= origin < cols:
        raise TileGeometryError("tile origin outside the array")
    lsb = msb = 0
    start = origin
    while start < cols:
        end = min(start + width, cols)
        lsb |= 1 << start
        msb |= 1 << (end - 1)
        start = end
    return lsb, msb


def reference_full_tile_edges(cols, lane):
    """Edge masks of the full lanes only; a partial remainder zone is skipped."""
    lsb = msb = 0
    for t in range(cols // lane):
        lsb |= 1 << (t * lane)
        msb |= 1 << (t * lane + lane - 1)
    return lsb, msb


ROWS, COLS = 8, 10          # tiles of 4 leave a partial remainder tile of 2 columns
LANE = 4                    # lanes of observation marks: two full lanes in COLS

# mostly valid fields, with a bad row, a bad mode and a bad tile geometry now and
# then; the generator reads rows -1, -2 and -3 as placeholders
row_index = st.sampled_from(list(range(ROWS)) * 4 + [-1, -2, -3, ROWS])
micro_op = st.one_of(
    st.tuples(st.just(ACTIVATE2), row_index, row_index,
              st.sampled_from([AND, NOR, OR, XOR] * 4 + ["NAND"])),
    st.tuples(st.just(WRITEBACK), row_index),
    st.tuples(st.just(SHIFT), st.sampled_from((LEFT, RIGHT)), st.just(GLOBAL),
              st.just(0), st.just(0)),
    st.tuples(st.just(SHIFT), st.sampled_from((LEFT, RIGHT)), st.just(TILE),
              st.sampled_from([3, 4, 10] * 4 + [1]), st.sampled_from([0, 1] * 6 + [COLS])),
    st.tuples(st.just(WRITE_ROW), row_index, st.integers(0, 1 << COLS)),
    st.tuples(st.just(ZERO_TEST), st.integers(0, 1)),
)


row_value = st.integers(0, (1 << COLS) - 1)


def fresh_pair(cells, latch):
    """A subarray and a reference interpreter in the same start state."""
    arr = Subarray(ROWS, COLS)
    ref = ReferenceSubarray(ROWS, COLS)
    for machine in (arr, ref):
        machine.cells[:] = cells
        machine.latch = latch
    return arr, ref


@given(st.lists(row_value, min_size=ROWS, max_size=ROWS), row_value,
       st.lists(micro_op, max_size=40), st.lists(row_index, min_size=3, max_size=3),
       st.lists(st.sampled_from([None, None, "msb", "lsb"]), max_size=40))
@settings(max_examples=300, deadline=None)
def test_executor_matches_reference_interpreter(cells, latch, ops, binding, edges):
    arr, ref = fresh_pair(cells, latch)
    want_error = None
    for op in ops:
        try:
            ref.apply(op)
        except SimError as exc:
            want_error = type(exc)
            break
    error = None
    try:
        execute(arr, ops)
    except SimError as exc:
        error = type(exc)
    assert error is want_error
    assert arr.trace == ref.trace
    assert (arr.cells, arr.latch) == (ref.cells, ref.latch)
    # one op at a time runs the same loop
    single, _ = fresh_pair(cells, latch)
    for op in ops[:len(ref.trace)]:
        apply_op(single, op)
    assert single.same_state(arr) and single.trace == arr.trace
    # the generated program of the same ops, rows -1..-3 bound to `binding`,
    # and observation marks on the drawn indices
    program_ops = [op for op in ops if op[0] in (ACTIVATE2, WRITEBACK, SHIFT)]
    marks = {i: edge for i, edge in enumerate(edges[:len(program_ops)]) if edge}
    check_generated_run(cells, latch, program_ops, marks, binding)


def bind(ops, rows):
    """ops with placeholder ~k replaced by rows[k] (CommandStream.bind's rule)."""
    def row(r):
        return rows[~r] if r < 0 else r
    return [(ACTIVATE2, row(op[1]), row(op[2]), op[3]) if op[0] == ACTIVATE2
            else (WRITEBACK, row(op[1])) if op[0] == WRITEBACK else op for op in ops]


def run_and_catch(run):
    try:
        run()
    except SimError as exc:
        return type(exc), str(exc)
    return None


def check_generated_run(cells, latch, ops, marks, binding):
    """generate() of ops runs like execute() and the reference on the bound ops."""
    gen, ref = fresh_pair(cells, latch)
    try:
        program = generate(gen, ops, marks, LANE, 3)
    except SimError as exc:
        # a fault whatever the binding: the first op that fails alone under two
        # bindings no literal row can meet both of, with the error it raises
        # when its placeholders are bound clear of its literal rows (bound onto
        # one, a bad-mode activation fails first as a same-row pair)
        def alone(op, rows):
            return run_and_catch(lambda: execute(Subarray(ROWS, COLS), bind([op], rows)))

        def clear(op):
            return tuple(r for r in range(ROWS) if r not in op)[:3]
        static = [alone(op, clear(op)) for op in ops
                  if alone(op, (0, 1, 2)) and alone(op, (5, 6, 7))]
        assert static and static[0] == (type(exc), str(exc))
        return
    bound = bind(ops, binding)
    want_error = None
    for i, op in enumerate(bound):
        try:
            ref.apply(op, marks.get(i))
        except SimError as exc:
            want_error = type(exc)
            break
    twin, _ = fresh_pair(cells, latch)
    error = run_and_catch(lambda: program(bound, *binding))
    assert error == run_and_catch(lambda: execute(twin, bound, marks, LANE))
    assert (error and error[0]) is want_error
    assert gen.trace == twin.trace == ref.trace
    assert all(got is op for got, op in zip(gen.trace, bound))
    assert (gen.cells, gen.latch) == (twin.cells, twin.latch) == (ref.cells, ref.latch)


@pytest.mark.parametrize("ops,marks,binding,error", [
    ([(ACTIVATE2, -1, 3, AND)], {}, (3, 0, 0), "got 3 twice"),
    ([(ACTIVATE2, -1, -2, XOR)], {}, (4, 4, 0), "got 4 twice"),
    ([(WRITEBACK, 1), (WRITEBACK, -3)], {}, (0, 0, ROWS), "row 8 outside"),
    ([(WRITEBACK, 1), (SHIFT, LEFT, GLOBAL, 0, 0), (WRITEBACK, 2)], {1: "msb"},
     (0, 0, 0), "live top bit"),
    ([(WRITEBACK, 1), (SHIFT, RIGHT, TILE, 4, 0), (WRITEBACK, 2)], {1: "lsb"},
     (0, 0, 0), "live low bit"),
])
def test_generated_program_fails_like_the_executor(ops, marks, binding, error):
    """A bad bound row, a bound same-row pair and a live marked edge bit (in a
    lane's top or low column) leave the state and trace execute leaves."""
    cells = list(range(1, ROWS + 1))
    latch = 0b1000011000        # lane 0's top, lane 1's low and the unchecked remainder
    gen, twin = Subarray(ROWS, COLS), Subarray(ROWS, COLS)
    for arr in (gen, twin):
        arr.cells[:] = cells
        arr.latch = latch
    bound = bind(ops, binding)
    with pytest.raises(SimError, match=error) as raised:
        generate(gen, ops, marks, LANE, 3)(bound, *binding)
    with pytest.raises(raised.type, match=re.escape(str(raised.value))):
        execute(twin, bound, marks, LANE)
    assert (gen.cells, gen.latch, gen.trace) == (twin.cells, twin.latch, twin.trace)


@pytest.mark.parametrize("op,error", [
    ((ACTIVATE2, 2, 2, AND), "got 2 twice"),
    ((ACTIVATE2, ROWS, -1, AND), "row 8 outside"),
    ((WRITEBACK, -4), "row -4 outside"),
    ((ACTIVATE2, 0, -1, "NAND"), "unknown logic mode"),
    ((SHIFT, "UP", GLOBAL, 0, 0), "unknown shift direction"),
    ((SHIFT, LEFT, "SIDEWAYS", 0, 0), "unknown shift scope"),
    ((SHIFT, LEFT, TILE, 1, 0), "tile width"),
    ((WRITE_ROW, 0, 1), "cannot run in a generated program"),
    ((ZERO_TEST, 0), "cannot run in a generated program"),
])
def test_generation_rejects_ops_no_binding_can_run(op, error):
    with pytest.raises(SimError, match=error):
        generate(Subarray(ROWS, COLS), [(WRITEBACK, 0), op], {}, LANE, 3)


def test_executor_records_the_same_tuples_and_the_readout():
    arr = Subarray(ROWS, COLS)
    ops = [(WRITE_ROW, 1, 5), (ACTIVATE2, 1, 2, OR), (WRITEBACK, 3), (ZERO_TEST, 1)]
    execute(arr, ops)
    assert all(got is op for got, op in zip(arr.trace[:3], ops))
    assert arr.trace[3] == (ZERO_TEST, 0)              # the latch holds 5, not zero


def test_tile_edge_masks_merge_both_old_loops():
    geometries = [(cols, lane) for cols in range(4, 81) for lane in range(2, 31)]
    geometries.append((256, 24))                     # dilithium: a 16-column remainder
    for cols, lane in geometries:
        assert _tile_edge_masks(cols, lane, 0) == reference_tile_edges(cols, lane, 0)
        full = cols - cols % lane                    # 0 when cols < lane
        assert _tile_edge_masks(full, lane) == reference_full_tile_edges(cols, lane)
        arr = Subarray(8, cols, record=False)
        assert arr.tile_edges(lane) == reference_tile_edges(cols, lane, 0)
        assert arr.tile_edges(lane, 0, full) == reference_full_tile_edges(cols, lane)
    with pytest.raises(TileGeometryError):
        _tile_edge_masks(8, 1)
    with pytest.raises(TileGeometryError):
        _tile_edge_masks(8, 4, 8)
