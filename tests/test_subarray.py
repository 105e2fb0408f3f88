"""Subarray micro-op semantics, trace closure, and serialization grammar."""

import io
import random
import re
import sys
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramntt.bitparallel import (
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    default_rowmap,
    emit_smear,
)
from sramntt.errors import (
    AddressError,
    DimensionError,
    ObservationError,
    SimError,
    TileGeometryError,
    TraceIOError,
    VerificationError,
)
from sramntt.perf import counts_of_tally, counts_of_trace
from sramntt.subarray import (
    ACTIVATE2,
    AND,
    GLOBAL,
    LEFT,
    LINES_PER_WRITE,
    MAX_COLS,
    MAX_LINE_CHARS,
    MAX_ROWS,
    NOR,
    OR,
    RIGHT,
    SHIFT,
    TILE,
    WRITE_ROW,
    WRITEBACK,
    PIECE_CHARS,
    XOR,
    ZERO_TEST,
    Subarray,
    Trace,
    _op_text,
    _quote,
    _ripple_run,
    _smear_run,
    _tile_edge_masks,
    execute,
    generate,
    parse_trace,
    parse_trace_line,
    replay,
    serialize_trace,
)


def tallied(trace: Trace) -> bool:
    """The trace's log counts what a recount of its ops counts."""
    return counts_of_tally(trace) == counts_of_trace(trace) and len(trace) == len(list(trace))


def bits_from_list(bits) -> int:
    """[b0, b1, ...] (index = column) -> row int."""
    value = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise AddressError("bit values must be 0 or 1")
        value |= b << i
    return value


def bits_to_list(value: int, cols: int) -> list[int]:
    return [(value >> i) & 1 for i in range(cols)]


def test_create_zeroed():
    arr = Subarray(256, 256)
    assert sum(arr.cells) == 0 and arr.latch == 0 and list(arr.trace) == []
    assert arr.rows * arr.cols == 65536

    small = Subarray(8, 4)
    assert small.rows * small.cols == 32


def test_create_too_small():
    with pytest.raises(DimensionError):
        Subarray(2, 4)
    with pytest.raises(DimensionError):
        Subarray(8, 2)


def test_create_too_large_allocates_nothing():
    Subarray(MAX_ROWS, MAX_COLS)
    for rows, cols in ((10**12, 8), (8, 10**12), (MAX_ROWS + 1, 8), (8, MAX_COLS + 1)):
        with pytest.raises(DimensionError, match="at most"):
            Subarray(rows, cols)


def test_write_read_roundtrip():
    arr = Subarray(8, 8)
    bits = bits_from_list([1, 0, 1, 1, 0, 0, 0, 0])
    arr.write_row(0, bits)
    assert arr.read_row(0) == bits
    assert arr.read_row(5) == 0            # never written
    with pytest.raises(AddressError):
        arr.write_row(8, 1)
    with pytest.raises(AddressError):
        arr.read_row(-1)


def test_activate_truth_tables():
    arr = Subarray(8, 4)
    arr.write_row(1, 0b1100)
    arr.write_row(2, 0b1010)
    execute(arr, [(ACTIVATE2, 1, 2, AND)])
    assert arr.latch == 0b1000
    execute(arr, [(ACTIVATE2, 1, 2, XOR)])
    assert arr.latch == 0b0110
    execute(arr, [(ACTIVATE2, 1, 2, NOR)])
    assert arr.latch == 0b0001
    execute(arr, [(ACTIVATE2, 1, 2, OR)])
    assert arr.latch == 0b1110


def test_activate_rejects_same_row():
    arr = Subarray(8, 4)
    with pytest.raises(AddressError):
        execute(arr, [(ACTIVATE2, 3, 3, AND)])
    with pytest.raises(AddressError):
        execute(arr, [(ACTIVATE2, 0, 9, AND)])


def test_activate_non_destructive():
    arr = Subarray(8, 4)
    arr.write_row(0, 0b0110)
    arr.write_row(1, 0b1011)
    before = list(arr.cells)
    for mode in (AND, NOR, OR, XOR):
        execute(arr, [(ACTIVATE2, 0, 1, mode)])
    assert arr.cells == before


def test_shift_semantics():
    arr = Subarray(8, 4)
    arr.latch = 0b0011
    execute(arr, [(SHIFT, LEFT, TILE, 4, 0)])
    assert arr.latch == 0b0110
    arr.latch = 0b1000
    execute(arr, [(SHIFT, RIGHT, GLOBAL, 0, 0)])
    assert arr.latch == 0b0100
    # two 2-bit tiles: no cross-tile leakage on tile-scoped left
    arr.latch = 0b0011            # tile0 = 11, tile1 = 00
    execute(arr, [(SHIFT, LEFT, TILE, 2, 0)])
    assert arr.latch == 0b0010    # tile0 = 10, tile1 = 00
    with pytest.raises(TileGeometryError):
        execute(arr, [(SHIFT, LEFT, TILE, 1, 0)])


def test_global_edges_zero_fill():
    arr = Subarray(8, 4)
    arr.latch = 0b1001
    execute(arr, [(SHIFT, LEFT, GLOBAL, 0, 0)])
    assert arr.latch == 0b0010
    arr.latch = 0b1001
    execute(arr, [(SHIFT, RIGHT, GLOBAL, 0, 0)])
    assert arr.latch == 0b0100


def test_writeback_and_zero_test():
    arr = Subarray(8, 4)
    arr.latch = 0b1010
    execute(arr, [(WRITEBACK, 3)])
    assert arr.read_row(3) == 0b1010 and arr.latch == 0b1010
    execute(arr, [(WRITEBACK, 4)])
    assert arr.read_row(4) == 0b1010
    arr.write_row(5, 0b0101)
    execute(arr, [(ACTIVATE2, 3, 5, OR)])
    assert arr.latch == 0b1111
    assert not arr.latch_is_zero()
    execute(arr, [(ACTIVATE2, 3, 5, AND)])
    assert arr.latch == 0
    assert arr.latch_is_zero()
    assert Subarray(8, 4).latch_is_zero()


@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
@settings(max_examples=100, deadline=None)
def test_de_morgan_consistency(a, b):
    arr = Subarray(8, 16)
    arr.write_row(0, a)
    arr.write_row(1, b)
    mask = arr.colmask
    execute(arr, [(ACTIVATE2, 0, 1, NOR)])
    nor = arr.latch
    execute(arr, [(ACTIVATE2, 0, 1, OR)])
    assert arr.latch == (~nor) & mask
    execute(arr, [(ACTIVATE2, 0, 1, AND)])
    nand = (~arr.latch) & mask
    execute(arr, [(ACTIVATE2, 0, 1, XOR)])
    assert arr.latch == ((a | b) & nand) & mask


@given(v=st.integers(0, 2**12 - 1))
@settings(max_examples=60, deadline=None)
def test_shift_left_right_restores_interior(v):
    arr = Subarray(8, 12)
    arr.latch = v
    execute(arr, [(SHIFT, LEFT, GLOBAL, 0, 0)])
    execute(arr, [(SHIFT, RIGHT, GLOBAL, 0, 0)])
    top = 1 << 11
    assert arr.latch == v & ~top       # only the edge bit is zero-filled away


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_trace_replay_closure(script):
    """Replaying the recorded trace reproduces the final state bit-exactly."""
    arr = Subarray(8, 8)
    for sel, val in script:
        if sel == 0:
            arr.write_row(val % 8, val)
        elif sel == 1:
            a = val % 8
            b = (a + 1 + val // 8 % 7) % 8
            execute(arr, [(ACTIVATE2, a, b, (AND, OR, XOR, NOR)[val % 4])])
        elif sel == 2:
            execute(arr, [(SHIFT, (LEFT, RIGHT)[val % 2], (GLOBAL, TILE)[(val >> 1) % 2], 4, 0)])
        else:
            execute(arr, [(WRITEBACK, val % 8)])
    twin = replay(arr.trace, 8, 8)
    assert twin.same_state(arr)


def serialized(trace, cols):
    out = io.StringIO()
    serialize_trace(trace, cols, out)
    return out.getvalue()


def joined_serializer(trace, cols):
    """The reference serializer: the whole text as one string."""
    return "\n".join([f"{seq} {_op_text(op, cols)}" for seq, op in enumerate(trace)] + [""])


def test_trace_grammar_roundtrip():
    arr = Subarray(8, 8)
    arr.write_row(2, 0xA5)
    arr.write_row(3, 0x3C)
    execute(arr, [(ACTIVATE2, 2, 3, XOR)])
    execute(arr, [(SHIFT, LEFT, GLOBAL, 0, 0)])
    execute(arr, [(SHIFT, RIGHT, TILE, 4, 0)])
    execute(arr, [(WRITEBACK, 1)])
    arr.latch_is_zero()
    text = serialized(arr.trace, arr.cols)
    assert text == joined_serializer(arr.trace, arr.cols)
    assert parse_trace(text) == list(arr.trace)
    twin = replay(parse_trace(text), 8, 8)
    assert twin.same_state(arr)
    assert serialized([], 8) == joined_serializer([], 8) == ""


def test_parse_rejects_unknown_shift_scope():
    assert parse_trace("0 SHIFT LEFT GLOBAL\n") == [("SHIFT", LEFT, GLOBAL, 0, 0)]
    with pytest.raises(TraceIOError):
        parse_trace("0 SHIFT LEFT BOGUS\n")


def _parse_each_line(text):
    """parse_trace without its memo or pieces: every line parsed on its own,
    and one longer than MAX_LINE_CHARS malformed."""
    ops = []
    for line in text.splitlines():
        if len(line) > MAX_LINE_CHARS:
            raise TraceIOError(f"trace line longer than {MAX_LINE_CHARS} characters: {_quote(line)}")
        line = line.strip()
        if line and not line.startswith("#"):
            ops.append(parse_trace_line(line))
    return ops


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """The canonical forward's unit and its trace file."""
    import random

    from sramntt.ntt import RingParams, TransformUnit

    unit = TransformUnit(RingParams.create(7681, 256, 16))
    rng = random.Random(6)
    unit.load_polynomials([[rng.randrange(7681) for _ in range(256)]
                           for _ in range(unit.layout.tiles)])
    unit.forward()
    path = tmp_path_factory.mktemp("canonical") / "fwd.trace"
    with open(path, "w") as fh:
        serialize_trace(unit.arr.trace, unit.arr.cols, fh)
    return unit, path


def test_memoized_parse_equals_the_per_line_parse_on_the_canonical_trace(canonical):
    unit, path = canonical
    text = path.read_text()
    ops = parse_trace(text)
    assert ops == _parse_each_line(text) == list(unit.arr.trace)
    # one tuple per distinct op text, shared by every line that repeats it
    assert len({id(op) for op in ops}) == len({line.split(None, 1)[1]
                                               for line in text.splitlines()})


def test_streamed_trace_equals_the_joined_text_on_the_canonical_trace(canonical):
    unit, path = canonical
    trace = unit.arr.trace
    assert len(trace) > 40 * LINES_PER_WRITE
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    serialize_trace(trace, unit.arr.cols, Recorder())
    assert [w.count("\n") for w in writes[:-1]] == [LINES_PER_WRITE] * (len(writes) - 1)
    assert "".join(writes) == path.read_text() == joined_serializer(trace, unit.arr.cols)


def test_parse_from_the_open_file_equals_its_text_and_holds_a_few_pieces(canonical):
    """The canonical trace crosses many piece boundaries; parsed from its open
    file it holds the ops and a few pieces, not the file's text."""
    unit, path = canonical
    text = path.read_text()
    assert len(text) > 30 * PIECE_CHARS
    tracemalloc.start()
    try:
        with open(path) as fh:
            from_file = parse_trace(fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert from_file == parse_trace(text) == list(unit.arr.trace)
    assert peak < len(text) / 2, (peak, len(text))


def _refuse_the_per_line_parser(monkeypatch):
    def refuse(lines, ops, parsed):
        raise AssertionError("a piece fell back to the per-line parser")
    monkeypatch.setattr("sramntt.subarray._parse_lines", refuse)


def test_the_canonical_trace_file_never_reaches_the_per_line_parser(canonical, monkeypatch):
    """Every piece of a serialized trace takes the regular expression pass."""
    unit, path = canonical
    _refuse_the_per_line_parser(monkeypatch)
    with open(path) as fh:
        assert parse_trace(fh) == list(unit.arr.trace)


def _outcome(parse, source):
    """The ops `parse` returns for `source`, or the message of its TraceIOError."""
    try:
        return parse(source)
    except TraceIOError as exc:
        return f"TraceIOError: {exc}"


def test_piecewise_parse_equals_the_per_line_parse_on_mutated_lines(tmp_path, monkeypatch):
    """A serialized trace of nearly three pieces with one line mutated, in
    the middle of the second piece or across the first piece's end:
    parse_trace, from text and from a file, returns the per-line parse's ops
    or raises its error, whichever path each piece takes."""
    ops = []
    for k in range(60000):
        # a few hundred texts, some first seen deep in the trace
        ops.append([(WRITE_ROW, k % 61, k % 7 * 0x9E3779B97F4A7C15), (ACTIVATE2, k % 53, (k + 1) % 53, XOR),
                    (SHIFT, LEFT, GLOBAL, 0, 0), (SHIFT, RIGHT, TILE, 16, k % 4 * 16),
                    (WRITEBACK, k // 997 % 64), (ZERO_TEST, k % 2)][k % 6])
    out = io.StringIO()
    serialize_trace(ops, 64, out)
    lines = out.getvalue().splitlines(keepends=True)
    assert 2 * PIECE_CHARS < len(out.getvalue()) < 3 * PIECE_CHARS
    with monkeypatch.context() as patch:
        _refuse_the_per_line_parser(patch)
        assert parse_trace(out.getvalue()) == ops
    longest = f"{2 ** 64} {WRITE_ROW} {MAX_ROWS - 1} {'f' * (MAX_COLS // 4)}"
    long_text = f"{WRITE_ROW} {MAX_ROWS - 1} {'0' * 19}{'f' * (MAX_COLS // 4)}"
    mutations = {
        "tab separator": lambda seq, text: f"{seq}\t{text}",
        "double space": lambda seq, text: f"{seq}  {text}",
        "trailing spaces": lambda seq, text: f"{seq} {text}  ",
        "trailing unit separator": lambda seq, text: f"{seq} {text}\x1f",
        "unit separator in the text": lambda seq, text: f"{seq} {text.replace(' ', chr(0x1f))}",
        "non-ASCII space in the text": lambda seq, text: f"{seq} {text.replace(' ', chr(0xa0))}",
        "non-ASCII digit sequence": lambda seq, text: f"\u0663 {text}",
        "letter sequence": lambda seq, text: f"x {text}",
        "missing sequence": lambda seq, text: text,
        "long sequence": lambda seq, text: f"{'0' * 30} {text}",
        "CRLF": lambda seq, text: f"{seq} {text}\r",
        "vertical tab": lambda seq, text: f"{seq} {text}\x0b{seq} {text}",
        "comment": lambda seq, text: f"# {text}\n{seq} {text}",
        "blank": lambda seq, text: f"\n{seq} {text}",
        "longest line": lambda seq, text: longest,
        "longest line and one digit more": lambda seq, text: "1" + longest,
        "over-long line": lambda seq, text: f"{seq} {WRITEBACK} {'0' * MAX_LINE_CHARS}1",
        "long text, then after a long sequence": lambda seq, text: f"0 {long_text}\n{seq} {long_text}",
        "new bad text": lambda seq, text: f"{seq} {WRITEBACK} x",
    }
    for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        # a line cut in two, its first half malformed
        mutations[f"{brk!r} in the text"] = lambda seq, text, brk=brk: f"{seq} {text.replace(' ', brk, 1)}"
    middle = next(i for i, n in enumerate(accumulate(map(len, lines)))
                  if n > PIECE_CHARS * 3 // 2)
    across = next(i for i, n in enumerate(accumulate(map(len, lines))) if n > PIECE_CHARS)
    path = tmp_path / "mutated.trace"
    for name, mutate in mutations.items():
        for i in (middle, across):
            mutated = mutate(*lines[i].rstrip("\n").split(" ", 1)) + "\n"
            # canonical lines parse as the ops they were serialized from
            want = _outcome(_parse_each_line, mutated)
            if not isinstance(want, str):
                want = ops[:i] + want + ops[i + 1:]
            text = "".join(lines[:i]) + mutated + "".join(lines[i + 1:])
            assert _outcome(parse_trace, text) == want, (name, i)
            with open(path, "w", newline="") as fh:
                fh.write(text)
            with open(path, newline="") as fh:
                assert _outcome(parse_trace, fh) == want, (name, i)


def test_longest_line_parses_and_a_longer_one_is_malformed():
    longest = f"{2 ** 64} {WRITE_ROW} {MAX_ROWS - 1} {'f' * (MAX_COLS // 4)}"
    assert len(longest) == MAX_LINE_CHARS
    want = [(WRITE_ROW, MAX_ROWS - 1, (1 << MAX_COLS) - 1)]
    assert parse_trace(longest + "\r\n") == parse_trace(longest) == want
    for line in (" " + longest, "0 WRITEBACK 0" + " " * MAX_LINE_CHARS,
                 "# " + "x" * MAX_LINE_CHARS):
        with pytest.raises(TraceIOError, match="longer than") as info:
            parse_trace(f"0 WRITEBACK 0\n{line}\n1 WRITEBACK 1\n")
        assert len(str(info.value)) < 200


def test_a_line_without_end_stops_the_parse_within_a_few_pieces(tmp_path):
    path = tmp_path / "one.trace"
    path.write_text("0 WRITEBACK 0\n" + "7" * (6 * PIECE_CHARS))
    tracemalloc.start()
    try:
        with open(path) as fh, pytest.raises(TraceIOError, match="longer than") as info:
            parse_trace(fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * PIECE_CHARS, peak
    assert len(str(info.value)) < 200


def test_an_over_long_line_across_a_piece_end_is_quoted_by_what_was_read(tmp_path):
    """A 3,000-character line starting 1,500 characters before the first
    piece ends is refused before its end is read, so its quote gives the
    characters read as a lower bound; one piece holding the whole line gives
    its length."""
    line = "1 WRITEBACK " + "0" * (3000 - 12) + "\n"
    full, rest = divmod(PIECE_CHARS - 1500, 1000)
    head = ("#" * 999 + "\n") * full + "#" * (rest - 1) + "\n"
    path = tmp_path / "long.trace"
    for text, length in ((head + line, "at least 1500"), (line + head, "3000")):
        assert text.index(line) in (0, PIECE_CHARS - 1500)
        path.write_text(text)
        with open(path) as fh:
            for source in (text, fh):
                with pytest.raises(TraceIOError, match=rf"'1 WRITEBACK 0+'\.\.\. \({length} characters\)$"):
                    parse_trace(source)


def test_trace_errors_quote_a_short_prefix_of_the_line():
    huge = "0 WRITEBACK " + "9" * 10 ** 6 + "x"
    for bad in (huge, "0 " + "Q" * 10 ** 6, "0 SHIFT LEFT " + "B" * 10 ** 6,
                "0 ZERO_TEST " + "2" * 10 ** 6, "0 WRITEBACK 0 " + "j" * 10 ** 6):
        with pytest.raises(TraceIOError) as info:
            parse_trace_line(bad)
        assert len(str(info.value)) < 300, str(info.value)[:300]


def test_piecewise_parse_splits_lines_as_splitlines(tmp_path):
    """Line breaks of every kind, comments and blank lines, with the first
    cut before, inside and after each break, parse as the whole text's
    splitlines gives them, from text and from a file read both ways."""
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029", "\n\n", "\n# note\r\n", "\x0b\r\n", "\r\r\n"]
    middle = "".join(f"{k} ACTIVATE2 {k} {k + 1} XOR{brk}" for k, brk in enumerate(breaks))
    tail = "\n\n# last\r\n" + "".join(f"{k} WRITE_ROW {k} {k:x}\r\n" for k in range(20))
    cuts = sorted({i + d for i, ch in enumerate(middle) if not ch.isalnum() for d in (0, 1)})
    path = tmp_path / "breaks.trace"
    for cut in cuts:
        # comment lines of 1000 characters and less up to the middle
        full, rest = divmod(PIECE_CHARS - cut, 1000)
        filler = "#" * 999 + "\n"
        text = filler * full + ("#" * (rest - 1) + "\n" if rest else "") + middle + tail
        assert text.index(middle) == PIECE_CHARS - cut
        want = _parse_each_line(text)
        assert len(want) == len(breaks) + 20
        assert parse_trace(text) == want, cut
        with open(path, "w", newline="") as fh:      # each break reaches the file as written
            fh.write(text)
        with open(path) as fh:
            assert parse_trace(fh) == want, cut
        with open(path, newline="") as fh:           # and is read untranslated
            assert parse_trace(fh) == want, cut


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
    # whitespace around a text is no part of its key in a piece of numbered lines
    ops = parse_trace("0 WRITEBACK 0\n1  WRITEBACK 0\n2 WRITEBACK 0 \n3 WRITEBACK 0\x1f\n")
    assert ops == [(WRITEBACK, 0)] * 4 and len({id(op) for op in ops}) == 1


@pytest.mark.parametrize("bad", ["WRITEBACK", "0 WRITEBACK", "0 WRITEBACK 0 junk",
                                 "0 WRITEBACK x", "0 SHIFT LEFT BOGUS",
                                 "0 ZERO_TEST 7", "0 ZERO_TEST -1", "0 ZERO_TEST 01"])
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
            readout = 1 if self.latch == 0 else 0
            if op[1] != readout:
                raise VerificationError("the latch gives the other readout")
            self.trace.append((ZERO_TEST, readout))
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
    st.tuples(st.just(ZERO_TEST), st.sampled_from([None, 0, 1])),
)


mark = st.sampled_from([None, None, "msb", "lsb"])
# a run of 1-12 equal shifts under one mark, tile runs longer than a tile among
# them: the generated program runs it as one statement
shift_run = st.builds(
    lambda op, n, edge: [(op, edge)] * n,
    st.one_of(st.tuples(st.just(SHIFT), st.sampled_from((LEFT, RIGHT)), st.just(GLOBAL),
                        st.just(0), st.just(0)),
              st.tuples(st.just(SHIFT), st.sampled_from((LEFT, RIGHT)), st.just(TILE),
                        st.sampled_from([3, 4, 10]), st.sampled_from([0, 1]))),
    st.integers(1, 12), mark)
# (op, mark) pairs: one op, or a run of shifts
program_piece = st.one_of(st.tuples(micro_op, mark).map(lambda pair: [pair]), shift_run)

# any row, or a sparse one, so that a marked run finds its edges clear now and then
row_value = st.one_of(st.integers(0, (1 << COLS) - 1),
                      st.sampled_from([0] + [1 << j for j in range(COLS)]))


def fresh_pair(cells, latch):
    """A subarray and a reference interpreter in the same start state."""
    arr = Subarray(ROWS, COLS)
    ref = ReferenceSubarray(ROWS, COLS)
    for machine in (arr, ref):
        machine.cells[:] = cells
        machine.latch = latch
    return arr, ref


@given(st.lists(row_value, min_size=ROWS, max_size=ROWS), row_value,
       st.lists(program_piece, max_size=24), st.lists(row_index, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_executor_matches_reference_interpreter(cells, latch, pieces, binding):
    pairs = [pair for piece in pieces for pair in piece]
    ops = [op for op, _ in pairs]
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
    assert list(arr.trace) == ref.trace
    assert (arr.cells, arr.latch) == (ref.cells, ref.latch)
    assert tallied(arr.trace)
    # one op at a time runs the same loop
    single, _ = fresh_pair(cells, latch)
    for op in ops[:len(ref.trace)]:
        execute(single, (op,))
    assert single.same_state(arr) and list(single.trace) == list(arr.trace)
    assert tallied(single.trace)
    # the generated program of the ops it can run, rows -1..-3 bound to
    # `binding`, each op observation-marked as drawn
    program = [(op, edge) for op, edge in pairs if op[0] in (ACTIVATE2, WRITEBACK, SHIFT)]
    marks = {i: edge for i, (_, edge) in enumerate(program) if edge}
    check_generated_run(cells, latch, [op for op, _ in program], marks, binding)


def bind(ops, rows):
    """ops with placeholder ~k replaced by rows[k] (CommandStream.bind's rule)."""
    def row(r):
        return rows[~r] if r < 0 else r
    return [(ACTIVATE2, row(op[1]), row(op[2]), op[3]) if op[0] == ACTIVATE2
            else (WRITEBACK, row(op[1])) if op[0] == WRITEBACK else op for op in ops]


class Stream:
    """A compiled stream as generate() reads one: ops, obs marks and bind."""

    def __init__(self, ops, obs_marks):
        self.ops = ops
        self.obs_marks = obs_marks

    def bind(self, rows):
        return bind(self.ops, rows)


def run_and_catch(run):
    try:
        run()
    except SimError as exc:
        return type(exc), str(exc)
    return None


def check_generated_run(cells, latch, ops, marks, binding):
    """generate() of ops, made on another array of the shape, runs like
    execute() and the reference on the bound ops."""
    gen, ref = fresh_pair(cells, latch)
    try:
        stream = Stream(ops, marks)
        program = generate(Subarray(ROWS, COLS), stream, LANE, 3)
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
    rows = tuple(binding)
    bound = bind(ops, rows)
    want_error = None
    for i, op in enumerate(bound):
        try:
            ref.apply(op, marks.get(i))
        except SimError as exc:
            want_error = type(exc)
            break
    twin, _ = fresh_pair(cells, latch)
    error = run_and_catch(lambda: program(gen, rows))
    assert error == run_and_catch(lambda: execute(twin, bound, marks, LANE))
    assert (error and error[0]) is want_error
    assert list(gen.trace) == list(twin.trace) == ref.trace
    assert (gen.cells, gen.latch) == (twin.cells, twin.latch) == (ref.cells, ref.latch)
    # a failed program logs the bound ops it ran as a batch; one that returns
    # logs its run, the stream and the very rows tuple, binding nothing
    if error:
        assert all(type(entry) is list for entry in gen.trace.log)
    else:
        assert len(gen.trace.log) == (1 if ops else 0)
        assert all(entry[0] is stream and entry[1] is rows for entry in gen.trace.log)
    assert tallied(gen.trace) and tallied(twin.trace)


@pytest.mark.parametrize("ops,marks,binding,error", [
    ([(ACTIVATE2, -1, 3, AND)], {}, (3, 0, 0), "got 3 twice"),
    ([(ACTIVATE2, -1, -2, XOR)], {}, (4, 4, 0), "got 4 twice"),
    ([(WRITEBACK, 1), (WRITEBACK, -3)], {}, (0, 0, ROWS), "row 8 outside"),
    ([(WRITEBACK, 1), (SHIFT, LEFT, GLOBAL, 0, 0), (WRITEBACK, 2)], {1: "msb"},
     (0, 0, 0), "live top bit"),
    ([(WRITEBACK, 1), (SHIFT, RIGHT, TILE, 4, 0), (WRITEBACK, 2)], {1: "lsb"},
     (0, 0, 0), "live low bit"),
    ([(ACTIVATE2, -1, -1, "NAND")], {}, (5, 0, 0), "got 5 twice"),
    ([(ACTIVATE2, -2, -2, AND), (WRITEBACK, ROWS)], {}, (0, 6, 0), "got 6 twice"),
])
def test_generated_program_fails_like_the_executor(ops, marks, binding, error):
    """A bad bound row, a bound same-row pair (one placeholder named twice
    among them, whatever follows it) and a live marked edge bit (in a lane's
    top or low column) leave the state and trace execute leaves."""
    cells = list(range(1, ROWS + 1))
    latch = 0b1000011000        # lane 0's top, lane 1's low and the unchecked remainder
    gen, twin = Subarray(ROWS, COLS), Subarray(ROWS, COLS)
    for arr in (gen, twin):
        arr.cells[:] = cells
        arr.latch = latch
    with pytest.raises(SimError, match=error) as raised:
        generate(Subarray(ROWS, COLS), Stream(ops, marks), LANE, 3)(gen, binding)
    with pytest.raises(raised.type, match=re.escape(str(raised.value))):
        execute(twin, bind(ops, binding), marks, LANE)
    assert (gen.cells, gen.latch, list(gen.trace)) == (twin.cells, twin.latch, list(twin.trace))
    assert tallied(gen.trace) and tallied(twin.trace)


@pytest.mark.parametrize("direction,edge,tile_masked", [
    (RIGHT, "lsb", False), (LEFT, "msb", False), (RIGHT, "lsb", True), (LEFT, "msb", True)])
def test_a_marked_run_fails_at_the_pulse_that_first_finds_a_live_edge_bit(
        direction, edge, tile_masked):
    """For each pulse k of a marked run of 8 data shifts, global or
    tile-masked, a latch bit that k pulses carry to the lane edge makes the
    generated program raise before pulse k, leaving what execute leaves."""
    lane, cols = 16, 64
    pulse = (SHIFT, direction, TILE, lane, 0) if tile_masked else (SHIFT, direction, GLOBAL, 0, 0)
    stream = Stream([(WRITEBACK, 1)] + [pulse] * 8 + [(WRITEBACK, 2)],
                    dict.fromkeys(range(1, 9), edge))
    program = generate(Subarray(8, cols), stream, lane)
    # edges at columns 0, 16, 32, 48 ("lsb") or 15, 31, 47, 63 ("msb"); eight
    # pulses carry column 40 right, or 36 left, past none of them
    quiet = 1 << (40 if direction == RIGHT else 36)
    for k in [*range(8), None]:
        gen, twin = Subarray(8, cols), Subarray(8, cols)
        for arr in (gen, twin):
            arr.cells[:] = range(3, 11)
            arr.latch = quiet if k is None else quiet | 1 << (16 + k if direction == RIGHT else 15 - k)
        error = run_and_catch(lambda: program(gen, ()))
        assert error == run_and_catch(lambda: execute(twin, stream.bind(()), stream.obs_marks, lane))
        assert (gen.cells, gen.latch, list(gen.trace)) == (twin.cells, twin.latch, list(twin.trace))
        if k is None:
            assert error is None and len(gen.trace) == 10
        else:
            assert error[0] is ObservationError and len(gen.trace) == 1 + k, k
        assert tallied(gen.trace) and tallied(twin.trace)


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
        generate(Subarray(ROWS, COLS), Stream([(WRITEBACK, 0), op], {}), LANE, 3)


# Ripple runs: 16 rows of 64 columns, observation marks over two 32-column lanes
R_ROWS, R_COLS, R_LANE = 16, 64, 32
GLOBAL_LEFT = (SHIFT, LEFT, GLOBAL, 0, 0)
TILE_LEFT = (SHIFT, LEFT, TILE, R_LANE, 0)


def ripple(chain, cs, shift, edge, dest=None):
    """The ops and marks of a ripple run between a WRITEBACK before it and one
    after it: a full round per pair of rows in `chain` (cur, then other),
    then a closing round into dest if one is given."""
    ops = [(WRITEBACK, R_ROWS - 1)]
    marks = {}
    for cur, other in zip(chain, chain[1:]):
        marks[len(ops)] = edge
        ops += [shift, (WRITEBACK, cs), (ACTIVATE2, cur, cs, XOR), (WRITEBACK, other),
                (ACTIVATE2, cur, cs, AND)]
    if dest is not None:
        marks[len(ops)] = edge
        ops += [shift, (WRITEBACK, cs), (ACTIVATE2, chain[-1], cs, XOR), (WRITEBACK, dest)]
    ops.append((WRITEBACK, R_ROWS - 2))
    return ops, {i: edge for i, edge in marks.items() if edge}


def carry_chain(rng, rounds, cs):
    """Rows cur_0, other_0 = cur_1, ...: each round's rows differ from each
    other and from cs, and come back now and then, as a ripple's two rows do."""
    chain = [rng.choice([r for r in range(R_ROWS - 2) if r != cs])]
    for _ in range(rounds):
        chain.append(rng.choice([r for r in range(R_ROWS - 2) if r not in (cs, chain[-1])]))
    return chain


def closed_shape(chain, cs, dest):
    """What _ripple_run finds for `ripple(chain, cs, ...)`: its full rounds
    while they alternate between chain[0] and chain[1], then a closing
    round, the round after them (a full round's first four ops close into
    its other), as (a, b, cs, dest, rounds) if there are 5 rounds or more."""
    a, b = chain[:2]
    n = 0
    while n + 1 < len(chain) and chain[n + 1] == (b, a)[n % 2]:
        n += 1
    if n + 1 < len(chain):
        dest = chain[n + 1]
    if dest is None or n + 1 < 5:
        return None
    return a, b, cs, dest, n + 1


def dying_state(rng, chain, death, low=0):
    """Random rows, and a latch carry at column `low` that the ones above it
    in cur_0 carry along for `death` rounds: the latch is zero first after
    full round `death` (counted from 0), in the one lane it lives in."""
    cells = [rng.getrandbits(R_COLS) for _ in range(R_ROWS)]
    cells[chain[0]] = ((1 << death) - 1) << (low + 1)
    return cells, 1 << low


def check_stream(ops, marks, cells, latch, rows=(), cols=R_COLS, lane=R_LANE):
    """generate() of ops leaves what execute() leaves: cells, latch, the
    trace's ops and any error, at the op execute raises at.  Returns the
    error, the trace's op count and whether the function ran the lines it
    runs on a zero array, which takes each closed form the function has."""
    gen, twin = Subarray(len(cells), cols), Subarray(len(cells), cols)
    for arr in (gen, twin):
        arr.cells[:] = cells
        arr.latch = latch
    stream = Stream(ops, marks)
    program = generate(Subarray(len(cells), cols), stream, lane, len(rows))
    lines = []
    error = run_and_catch(lambda: lines.append(lines_run(program, gen, rows)))
    assert error == run_and_catch(lambda: execute(twin, stream.bind(rows), marks, lane))
    assert (gen.cells, gen.latch, list(gen.trace)) == (twin.cells, twin.latch, list(twin.trace))
    assert tallied(gen.trace)
    # a zero array has no carry, no seed bit and no live edge
    return error, len(gen.trace), lines == [lines_run(program, Subarray(len(cells), cols), rows)]


def lines_run(program, arr, rows):
    """Run program(arr, rows), counting the line events of the generated
    function: a closed form runs a fixed count, its fallback more."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != "<generated micro-op program>":
            return None
        count += event == "line"
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        program(arr, rows)
    finally:
        sys.settrace(old)
    return count


@given(st.integers(2, 30), st.sampled_from([None, "cs", "cur", "other", "free"]),
       st.sampled_from([(GLOBAL_LEFT, None), (GLOBAL_LEFT, "msb"), (TILE_LEFT, None),
                        (TILE_LEFT, "msb"), ((SHIFT, LEFT, TILE, 8, 0), None)]),
       st.integers(0, 32), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_a_ripple_run_runs_like_the_executor(rounds, dest, shift_edge, death, dense,
                                             alternate, rng):
    """A run of 2-30 full ripple rounds, with or without a closing round into
    cs, cur, other or a row of its own, global (marked or not) or
    tile-masked, on two rows that alternate or on any chain: found when it
    has its closed form's shape, and run as execute runs it, whether the
    carry dies after any round or never does."""
    shift, edge = shift_edge
    cs = R_ROWS - 3
    chain = carry_chain(rng, rounds, cs)
    if alternate:
        chain = (chain[:2] * rounds)[:rounds + 1]
    target = {None: None, "cs": cs, "cur": chain[-1], "other": chain[-2], "free": R_ROWS - 1}[dest]
    ops, marks = ripple(chain, cs, shift, edge, target)
    assert _ripple_run(ops, 1, R_ROWS, marks.get) == closed_shape(chain, cs, target)
    if dense:
        *cells, latch = [rng.getrandbits(R_COLS) for _ in range(R_ROWS + 1)]
    else:
        cells, latch = dying_state(rng, chain, death)
    check_stream(ops, marks, cells, latch)


def add_ops(lane, shift, edge, a=1, b=2, cs=3, dest=4):
    """emit_add's ops on placeholder operands x = ~0 and y = ~1: the half
    add into a, the carry word in the latch, then lane ripple rounds on a
    and b, the last one closing into dest; and their marks."""
    ops = [(ACTIVATE2, -1, -2, XOR), (WRITEBACK, a), (ACTIVATE2, -1, -2, AND)]
    marks = {}
    cur, other = a, b
    for k in range(lane):
        marks[len(ops)] = edge
        ops += [shift, (WRITEBACK, cs), (ACTIVATE2, cur, cs, XOR)]
        if k < lane - 1:
            ops += [(WRITEBACK, other), (ACTIVATE2, cur, cs, AND)]
        else:
            ops.append((WRITEBACK, dest))
        cur, other = other, cur
    ops.append((WRITEBACK, 0))
    return ops, {i: e for i, e in marks.items() if e}


# lanes whose columns leave a partial remainder tile, and two wide ones
LANES = [(lane, 3 * lane + max(1, lane // 2)) for lane in range(3, 9)] + [(16, 56), (24, 84)]


@pytest.mark.parametrize("lane,cols", LANES)
@pytest.mark.parametrize("form", ["global", "global msb", "tile", "tile msb"])
def test_a_ripple_closed_form_holds_at_every_lane_and_shift_form(lane, cols, form):
    """An add's R = lane rounds, its operands bound through placeholders,
    leave what execute leaves, and the closed form runs exactly when P =
    S ^ K (the partial sum and the first pulse's carry word) has no run of
    R - 3 ones and no marked pulse finds a live edge: a carry along R - 4
    ones of P dies with a full round left, along R - 3 or R - 2 it does not.
    Lanes of fewer than 5 rounds have no closed form."""
    rng = random.Random(lane * 7 + len(form))
    shift = GLOBAL_LEFT if form.startswith("global") else (SHIFT, LEFT, TILE, lane, 0)
    edge = "msb" if form.endswith("msb") else None
    ops, marks = add_ops(lane, shift, edge)
    found = _ripple_run(ops, 3, 8, marks.get)
    assert found == ((1, 2, 3, 4, lane) if lane >= 5 else None)
    tiles = cols // lane
    states = []
    for base in (0, (tiles - 1) * lane):
        for ones in (lane - 4, lane - 3, lane - 2, lane - 1):
            # x ^ y holds a generate bit at base + 1 and `ones` ones of P above it
            run = ((1 << (ones + 1)) - 1) << (base + 1) if ones >= 0 else 0
            states.append((run | 1 << base, 1 << base, ones))
    for density in (1, 2, 3):
        def value():
            v = (1 << cols) - 1
            for _ in range(density):
                v &= rng.getrandbits(cols)
            return v
        states += [(value(), value(), None) for _ in range(6)]
    for x, y, ones in states:
        cells = [rng.getrandbits(cols) for _ in range(8)]
        error, ran, closed = check_stream(ops, marks, cells[:5] + [x, y, 0], 0, (5, 6),
                                          cols, lane)
        if found is None:
            continue
        s, k = x ^ y, ((x & y) << 1) & ((1 << cols) - 1)
        if shift[2] == TILE:
            k &= ~_tile_edge_masks(cols, lane)[0]
        assert closed == ("1" * (lane - 3) not in f"{s ^ k:b}" and error is None), (x, y)
        if ones is not None:
            # the carry leaves the lane's top column from ones = lane - 2 on
            assert closed == (ones <= lane - 4), ones
            assert (error is not None) == (edge is not None and ones >= lane - 2), ones


@pytest.mark.parametrize("shift", [GLOBAL_LEFT, TILE_LEFT])
def test_a_live_top_bit_at_each_pulse_of_a_ripple_raises_where_execute_does(shift):
    """A carry that reaches a lane's top column just before pulse k of a
    marked run (full rounds, then the closing round's pulse) raises
    ObservationError there, leaving the array, latch and trace execute
    leaves; a run whose carry dies first, or whose shifts are unmarked,
    raises nothing."""
    rng = random.Random(7)
    rounds = 6
    chain = [1, 2] * 4
    ops, marks = ripple(chain[:rounds + 1], 3, shift, "msb", 4)
    assert _ripple_run(ops, 1, R_ROWS, marks.get) == (1, 2, 3, 4, rounds + 1)
    for k in range(rounds + 1):
        cells, latch = dying_state(rng, chain, k + 1, low=R_LANE - 1 - k)
        error, ran, closed = check_stream(ops, marks, cells, latch)
        assert error[0] is ObservationError and ran == 1 + 5 * k and not closed
        assert check_stream(ops, {}, cells, latch)[0] is None
        if k:                          # the carry dies a round before it reaches the edge
            cells, latch = dying_state(rng, chain, k - 1, low=R_LANE - 1 - k)
            assert check_stream(ops, marks, cells, latch)[:2] == (None, len(ops))


@pytest.mark.parametrize("miss", ["shift", "mark", "cs", "other is cs", "other is cur",
                                  "cur is not other", "placeholder"])
def test_ripple_near_misses_cut_the_run_and_stay_exact(miss):
    """A round that differs from a ripple round (its shift, mark or cs, an
    aliased row, a broken chain or a placeholder) ends the run before it:
    the run is found only where a closing round ends it there (a round
    whose other is cs or cur writes a row a closing round may write), and
    the rounds after the miss are a run of their own when five or more are
    left.  Whatever the rest runs as, it runs as execute runs it, wherever
    the carry dies."""
    rng = random.Random(11)
    rounds = 8
    for j in range(1, rounds):
        chain = [1, 2] * 5
        ops, marks = ripple(chain[:rounds + 1], 3, GLOBAL_LEFT, "msb", 4)
        at = 1 + 5 * j                 # round j's shift
        rows = ()
        if miss == "shift":
            ops[at] = TILE_LEFT
        elif miss == "mark":
            del marks[at]
        elif miss == "cs":
            ops[at + 1:at + 5] = [(WRITEBACK, 5), (ACTIVATE2, chain[j], 5, XOR),
                                  (WRITEBACK, chain[j + 1]), (ACTIVATE2, chain[j], 5, AND)]
        elif miss == "other is cs":
            ops[at + 3] = (WRITEBACK, 3)
        elif miss == "other is cur":
            ops[at + 3] = (WRITEBACK, chain[j])
        elif miss == "cur is not other":
            ops[at + 2] = (ACTIVATE2, 6, 3, XOR)
        elif miss == "placeholder":
            ops[at + 3], rows = (WRITEBACK, -1), (chain[j + 1],)
        closes = miss in ("other is cs", "other is cur") and j + 1 >= 5
        assert _ripple_run(ops, 1, R_ROWS, marks.get) == (
            (1, 2, 3, ops[at + 3][1], j + 1) if closes else None)
        after = rounds - j
        assert _ripple_run(ops, at + 5, R_ROWS, marks.get) == (
            (chain[j + 1], chain[j + 2], 3, 4, after) if after >= 5 else None)
        for death in range(rounds + 2):
            cells, latch = dying_state(rng, chain, death)
            check_stream(ops, marks, cells, latch, rows)


def test_a_closing_round_into_a_row_out_of_range_is_left_to_fail_at_generation():
    ops, marks = ripple([1, 2] * 3, 3, GLOBAL_LEFT, "msb", R_ROWS)
    assert _ripple_run(ops, 1, R_ROWS, marks.get) is None
    with pytest.raises(AddressError, match=f"row {R_ROWS} outside"):
        generate(Subarray(R_ROWS, R_COLS), Stream(ops, marks), R_LANE)


def test_a_ripple_of_a_120_column_lane_compiles_and_runs():
    """119 full rounds and a closing round, tile-masked or marked and
    global, in one closed form and its rounds: random rows take the closed
    form, and a carry along 117 ones of P takes the rounds."""
    lane = 120
    rng = random.Random(3)
    chain = [1, 2] * 60
    ones = broadcast = 0
    for t in range(2):
        ones |= ((1 << (lane - 1)) - 2) << (t * lane)       # columns 1-118 of each lane
        broadcast |= 1 << (t * lane)
    for shift, edge in (((SHIFT, LEFT, TILE, lane, 0), None), (GLOBAL_LEFT, "msb")):
        ops, marks = ripple(chain, 3, shift, edge, 4)
        assert _ripple_run(ops, 1, 64, marks.get) == (1, 2, 3, 4, lane)
        for cells, closed in (([rng.getrandbits(256) & ~(1 << 255) for _ in range(64)], True),
                              ([ones] * 64, False)):
            assert check_stream(ops, marks, cells, broadcast, cols=256, lane=lane) == (
                None, len(ops), closed)


def smear_stream(lane, toward_msb, tile_masked):
    """emit_smear's ops on row 1 with temp row 2, after the seed isolation
    L := x & c[7] of a placeholder row x, then a writeback; a tile-masked
    stream has each global shift tile-masked instead, under the same marks."""
    E = Emitter(MontgomeryContext.create(3, lane - 1, lane_width=lane), default_rowmap(16),
                ExecPolicy())
    E.act(-1, 7, AND)
    E.wb(1)
    emit_smear(E, 1, 2, toward_msb)
    E.wb(0)
    stream = E.stream()
    if not tile_masked:
        return stream
    return Stream([(SHIFT, op[1], TILE, lane, 0) if op[0] == SHIFT and op[2] == GLOBAL else op
                   for op in stream.ops], stream.obs_marks)


def doubling(width):
    strides, span = [], 1
    while span < width:
        strides.append(min(span, width - span))
        span += strides[-1]
    return strides


@pytest.mark.parametrize("lane,cols", LANES)
@pytest.mark.parametrize("toward_msb,tile_masked", [(True, False), (False, False),
                                                    (False, True)])
def test_a_smear_closed_form_holds_at_every_lane_and_shift_form(lane, cols, toward_msb,
                                                                tile_masked):
    """emit_smear's doubling rounds, toward the MSB tile-masked, toward the
    LSB global or tile-masked under "lsb" marks, leave what execute leaves,
    and take the closed form exactly when the latch holds seed bits only:
    lane bottoms toward the MSB, lane tops toward the LSB, with or without
    a bit in the partial remainder tile or elsewhere."""
    rng = random.Random(lane * 3 + toward_msb + 2 * tile_masked)
    stream = smear_stream(lane, toward_msb, tile_masked)
    strides = doubling(lane - 1 if toward_msb else lane)
    found = _smear_run(stream.ops, 2, 8, stream.obs_marks.get)
    assert found == ((1, 2, strides) if len(strides) >= 2 else None)  # one round at lane 3
    lsb, msb = _tile_edge_masks(cols - cols % lane, lane)
    seeds = lsb if toward_msb else msb
    colmask = (1 << cols) - 1
    masks = [seeds, colmask]
    masks += [seeds | 1 << j for j in range(cols) if not seeds >> j & 1]
    masks += [(1 << j) for j in range(cols) if seeds >> j & 1]      # each seed alone
    for mask in masks:
        for x in (colmask, rng.getrandbits(cols)):
            cells = [rng.getrandbits(cols) for _ in range(8)]
            cells[5], cells[7] = x, mask
            error, _, closed = check_stream(stream.ops, stream.obs_marks, cells,
                                            rng.getrandbits(cols), (5,), cols, lane)
            if found:
                assert closed == (not x & mask & ~seeds), (mask, x)
                assert error is None or not closed


SMEAR_SHIFTS = st.one_of(
    st.tuples(st.just(SHIFT), st.sampled_from([LEFT, RIGHT]), st.just(GLOBAL), st.just(0),
              st.just(0)),
    st.tuples(st.just(SHIFT), st.sampled_from([LEFT, RIGHT]), st.just(TILE),
              st.sampled_from([2, 3, 4, 5, 8, 16]), st.sampled_from([0, 0, 1])))


@given(st.sampled_from(LANES[:6]), SMEAR_SHIFTS, st.sampled_from([None, "msb", "lsb"]),
       st.lists(st.integers(1, 3) | st.integers(1, 16), min_size=2, max_size=3),
       st.integers(0, 2),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_hand_built_smears_run_like_the_executor(lane_cols, shift, edge, strides, kind, rng):
    """Smears of any shift, tile geometry, mark and strides, wider than a
    lane or not, at lanes 3-8 with a partial remainder tile, on a latch of
    seed bits (some of them), of seed bits and one other, or of any bits:
    found whole, and run as execute runs them."""
    lane, cols = lane_cols
    ops, marks = [(WRITEBACK, 1)], {}
    for s in strides:
        marks.update(dict.fromkeys(range(len(ops), len(ops) + s), edge))
        ops += [shift] * s + [(WRITEBACK, 2), (ACTIVATE2, 1, 2, OR), (WRITEBACK, 1)]
    ops.append((WRITEBACK, 0))
    marks = {i: e for i, e in marks.items() if e}
    assert _smear_run(ops, 1, 8, marks.get) == (1, 2, strides)
    lsb, msb = _tile_edge_masks(cols - cols % lane, lane)
    seeds = lsb if shift[1] == LEFT else msb
    latch = seeds & rng.getrandbits(cols)
    if kind == 1:
        latch |= 1 << rng.randrange(cols)
    elif kind == 2:
        latch = rng.getrandbits(cols)
    check_stream(ops, marks, [rng.getrandbits(cols) for _ in range(8)], latch, (), cols, lane)


@pytest.mark.parametrize("shift,strides,lane,cols,every,one", [
    # right global rounds of 3 and 1 pulses: the offsets 0, 1, 3 and 4 do not
    # fit a lane, and a lane-1 seed spreads into lane 0 as well
    ((SHIFT, RIGHT, GLOBAL, 0, 0), (3, 1), 3, 6, 0b110110, 0b110),
    # left rounds in tiles of 3 on lanes of 4: the lane-1 seed sits at offset 1
    # of its tile, which cuts it a column sooner than the lane-0 seed
    ((SHIFT, LEFT, TILE, 3, 0), (1, 1), 4, 10, 0b110111, 0b111),
])
def test_a_smear_whose_seeds_spread_unlike_the_first_lanes_stays_on_its_rounds(
        shift, strides, lane, cols, every, one):
    """Rounds whose lane-1 seed does not spread into the lane-0 seed's
    pattern moved to its lane have no closed form: a lane-1 seed alone, the
    two seeds and the lane-0 seed alone leave what execute leaves."""
    ops = [(WRITEBACK, 1)]
    for s in strides:
        ops += [shift] * s + [(WRITEBACK, 2), (ACTIVATE2, 1, 2, OR), (WRITEBACK, 1)]
    seed0, seed1 = (1, 1 << lane) if shift[1] == LEFT else (1 << (lane - 1), 1 << (2 * lane - 1))

    def settle(latch):
        arr = Subarray(8, cols)
        arr.latch = latch
        execute(arr, ops)
        return arr.latch
    assert (settle(seed0), settle(seed0 | seed1)) == (one, every)
    assert settle(seed1) != one << lane
    for latch in (seed1, seed0 | seed1, seed0):
        assert check_stream(ops, {}, [0] * 8, latch, (), cols, lane)[:2] == (None, len(ops))


def test_single_op_methods_tally_what_they_record():
    """Each one-op batch, run by execute or by a host-port method of
    Subarray, tallies the op it records, and an op that raises records and
    tallies nothing."""
    arr = Subarray(ROWS, COLS)
    arr.write_row(1, 5)
    for op in ((ACTIVATE2, 1, 2, OR), (WRITEBACK, 3), (SHIFT, LEFT, GLOBAL, 0, 0),
               (SHIFT, RIGHT, TILE, LANE, 0)):
        execute(arr, [op])
    assert not arr.latch_is_zero()
    with pytest.raises(AddressError, match="ACTIVATE2 needs two distinct rows"):
        execute(arr, [(ACTIVATE2, 2, 2, AND)])
    with pytest.raises(AddressError):
        arr.write_row(ROWS, 0)
    assert list(arr.trace) == [(WRITE_ROW, 1, 5), (ACTIVATE2, 1, 2, OR), (WRITEBACK, 3),
                         (SHIFT, LEFT, GLOBAL, 0, 0), (SHIFT, RIGHT, TILE, LANE, 0),
                         (ZERO_TEST, 0)]
    assert arr.trace.log == [[op] for op in arr.trace]       # one-op batches, no runs
    assert tallied(arr.trace)


def test_executor_records_the_same_tuples_and_the_readout():
    """A batch is logged as the very list it was; each ZERO_TEST must find
    the readout it names in the latch, and one that names none raises."""
    arr = Subarray(ROWS, COLS)
    ops = [(WRITE_ROW, 1, 5), (ACTIVATE2, 1, 2, OR), (WRITEBACK, 3), (ZERO_TEST, 0)]
    execute(arr, ops)
    assert arr.trace.log == [ops] and arr.trace.log[0] is ops   # the latch holds 5, not zero
    with pytest.raises(VerificationError, match="reads 0, recorded 1"):
        execute(arr, [(WRITEBACK, 4), (ZERO_TEST, 1), (WRITEBACK, 5)])
    assert arr.trace[4:] == [(WRITEBACK, 4)] and arr.cells[5] == 0
    with pytest.raises(VerificationError, match="reads 0, recorded None"):
        execute(arr, [(ZERO_TEST, None)])
    assert len(arr.trace) == 5
    # the latch's own zero test logs the readout it reads
    assert not arr.latch_is_zero() and arr.trace[-1] == (ZERO_TEST, 0)
    execute(arr, [(ACTIVATE2, 0, 2, AND)])
    assert arr.latch_is_zero() and arr.trace[-1] == (ZERO_TEST, 1)
    assert tallied(arr.trace)


def test_tile_edge_masks_merge_both_old_loops():
    geometries = [(cols, lane) for cols in range(4, 81) for lane in range(2, 31)]
    geometries.append((256, 24))                     # dilithium: a 16-column remainder
    for cols, lane in geometries:
        assert _tile_edge_masks(cols, lane, 0) == reference_tile_edges(cols, lane, 0)
        full = cols - cols % lane                    # 0 when cols < lane
        assert _tile_edge_masks(full, lane) == reference_full_tile_edges(cols, lane)
        arr = Subarray(8, cols)
        assert arr.tile_edges(lane) == reference_tile_edges(cols, lane, 0)
        assert arr.tile_edges(lane, 0, full) == reference_full_tile_edges(cols, lane)
    with pytest.raises(TileGeometryError):
        _tile_edge_masks(8, 1)
    with pytest.raises(TileGeometryError):
        _tile_edge_masks(8, 4, 8)
