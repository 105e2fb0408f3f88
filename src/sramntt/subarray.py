"""Single-subarray SRAM model: bitline logic, a shifting sense-amp latch, writeback.

The array is a rows x cols grid of bits plus one latch register of cols bits.
Rows are stored as Python ints; bit j of a row int is the cell in column j.
Within a tile of width w starting at column t*w, the tile-local offset 0 (the
lowest column) is the LSB of the word stored there, so a "left" shift moves
bits toward higher offsets and doubles the word.

Every mutating operation is recorded in the trace, a ``Trace`` that logs
each batch and each compiled-stream run as one entry and reads as the
micro-ops in order.  Replaying it on a fresh array reproduces the final grid
and latch exactly; nothing the higher layers compute can bypass these five
micro-ops:

    WRITE_ROW  <addr> <hexbits>          host I/O (load a full row)
    ACTIVATE2  <a> <b> <AND|NOR|OR|XOR>  two-row bitline op, result -> latch
    SHIFT      <LEFT|RIGHT> <GLOBAL|TILE [width origin]>  1-bit latch shift
    WRITEBACK  <addr>                    latch -> row (latch preserved)
    ZERO_TEST  <0|1>                     wired-OR readout (1 iff latch == 0),
                                         checked again when a trace replays

The serialized trace is line oriented: ``<seq> <KIND> <args...>``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, islice

from .errors import (
    AddressError,
    DimensionError,
    ObservationError,
    ParameterError,
    TileGeometryError,
    TraceIOError,
    VerificationError,
)

WRITE_ROW = "WRITE_ROW"
ACTIVATE2 = "ACTIVATE2"
SHIFT = "SHIFT"
WRITEBACK = "WRITEBACK"
ZERO_TEST = "ZERO_TEST"

AND = "AND"
NOR = "NOR"
OR = "OR"
XOR = "XOR"
LOGIC_MODES = (AND, NOR, OR, XOR)

LEFT = "LEFT"
RIGHT = "RIGHT"
GLOBAL = "GLOBAL"
TILE = "TILE"

MIN_ROWS = 8
MIN_COLS = 4
# Upper bounds, checked before anything is sized by rows or cols: a row is one
# Python int of `cols` bits, and a run allocates per row and per tile.
MAX_ROWS = 4096
MAX_COLS = 4096


def _tile_edge_masks(span: int, width: int, origin: int = 0) -> tuple[int, int]:
    """Bit masks of every tile's lowest column and highest column in [0, span).

    Tiles of `width` columns start at `origin` and repeat up to `span`; a
    final partial tile covers any remainder.  A tile-scoped shift takes the
    whole latch (span = cols), so the remainder is masked too; the
    observation check takes the full lanes only (span = cols - cols % width),
    because the partial remainder zone holds no data.
    """
    if width < 2:
        raise TileGeometryError(f"tile width must be >= 2, got {width}")
    if not 0 <= origin < max(span, 1):
        raise TileGeometryError(f"tile origin {origin} outside [0,{span})")
    lsb = 0
    msb = 0
    start = origin
    while start < span:
        end = min(start + width, span)
        lsb |= 1 << start
        msb |= 1 << (end - 1)
        start = end
    return lsb, msb


_MSB_FAULT = "carry word has a live top bit before a left shift"
_LSB_FAULT = "half-sum has a live low bit before a right shift"

# ZERO_TEST records its readout: index by `latch == 0`
_ZERO_TESTS = ((ZERO_TEST, 0), (ZERO_TEST, 1))


class Trace:
    """The ops an array ran, in order, as a log of what ran.

    An entry is a list of op tuples, the batch ``execute`` ran (see there),
    or a (stream, rows) pair, one run of a compiled stream whose ops are
    ``stream.bind(rows)``.  The trace reads as the op tuples whenever it is
    iterated, indexed or sliced (``trace[i:j]``, ``trace[-1]``); ``len`` is
    the op count, kept as a running total.
    """

    __slots__ = ("log", "length", "_starts")

    def __init__(self):
        self.log: list = []
        self.length = 0
        self._starts = [0]      # op index of each entry, and the end; extended by slicing

    def add(self, entry, n: int) -> None:
        """Log `entry`, which holds n ops; an empty one is dropped."""
        if n:
            self.log.append(entry)
            self.length += n

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return chain.from_iterable(map(_entry_ops, self.log))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return next(self._ops_from(range(self.length)[key]))
        start, stop, step = key.indices(self.length)     # islice refuses a step below 1
        return list(islice(self._ops_from(start), 0, max(stop - start, 0), step))

    def _ops_from(self, index: int):
        """The ops from op `index` on, found by bisecting the entries' starts."""
        starts = self._starts
        if len(starts) <= len(self.log):
            starts += accumulate(map(len, map(_entry_ops, self.log[len(starts) - 1:])),
                                 initial=starts.pop())
        k = bisect_right(starts, index) - 1
        ops = chain.from_iterable(map(_entry_ops, islice(self.log, k, None)))
        return islice(ops, index - starts[k], None)


def _entry_ops(entry) -> list:
    return entry if type(entry) is list else entry[0].bind(entry[1])


class Subarray:
    """One SRAM subarray; the only compute substrate higher layers may use."""

    __slots__ = ("rows", "cols", "colmask", "cells", "latch", "trace", "_edge_cache")

    def __init__(self, rows: int = 256, cols: int = 256):
        check_size(rows, cols)
        self.rows = rows
        self.cols = cols
        self.colmask = (1 << cols) - 1
        self.cells = [0] * rows
        self.latch = 0
        self.trace = Trace()
        self._edge_cache: dict[tuple[int, int, int], tuple[int, int]] = {}

    # -- addressing ------------------------------------------------------

    def tile_edges(self, width: int, origin: int = 0,
                   span: int | None = None) -> tuple[int, int]:
        """Edge masks of the tiles in the first `span` columns (default: all)."""
        key = (self.cols if span is None else span, width, origin)
        masks = self._edge_cache.get(key)
        if masks is None:
            masks = _tile_edge_masks(*key)
            self._edge_cache[key] = masks
        return masks

    # -- host port -------------------------------------------------------

    def write_row(self, addr: int, bits: int) -> None:
        """Host write of a full row (normal cache store path)."""
        execute(self, [(WRITE_ROW, addr, bits)])

    def read_row(self, addr: int) -> int:
        """Host read; non-destructive and not traced (no array state changes)."""
        if not 0 <= addr < self.rows:
            raise AddressError(f"row {addr} outside [0,{self.rows})")
        return self.cells[addr]

    def latch_is_zero(self) -> bool:
        """Wired-OR readout of the latch; used as a carry-loop termination test."""
        execute(self, [_ZERO_TESTS[self.latch == 0]])
        return self.latch == 0

    # -- state helpers ---------------------------------------------------

    def same_state(self, other: "Subarray") -> bool:
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.cells == other.cells
            and self.latch == other.latch
        )


def check_size(rows: int, cols: int) -> None:
    """Reject an array outside MIN_ROWS x MIN_COLS .. MAX_ROWS x MAX_COLS,
    allocating nothing."""
    if rows < MIN_ROWS or cols < MIN_COLS:
        raise DimensionError(
            f"subarray must be at least {MIN_ROWS}x{MIN_COLS}, got {rows}x{cols}"
        )
    if rows > MAX_ROWS or cols > MAX_COLS:
        raise DimensionError(
            f"subarray must be at most {MAX_ROWS}x{MAX_COLS}, got {rows}x{cols}"
        )


# -- the executor -----------------------------------------------------------

def execute(arr: Subarray, ops, obs_marks: dict[int, str] | None = None,
            lane: int = 0) -> None:
    """Run op tuples against the grid and latch: the one definition of the micro-ops.

    Every op is checked before it acts: rows in range, two distinct
    activation rows, a known mode, direction and scope, and the tile
    geometry of a tile-scoped shift.  obs_marks maps the index of a shift to
    the lane edge ("msb" or "lsb") the carry-save invariants promise is zero
    in the latch; the check runs before that shift, whatever its scope, over
    the full lanes of `lane` columns.  A ZERO_TEST raises VerificationError
    unless the readout it names is the one the latch gives.

    The trace logs the list `ops` itself, which the caller must then leave
    as it is, unless an op raised: then it logs a copy cut before that op.

    This loop runs traces, host I/O (an emitter's zero tests among them)
    and ``generate``'s error fallback; no emitter runs ops through it, and
    the functions ``generate`` makes must leave the array exactly as it does.
    """
    cells = arr.cells
    nrows = arr.rows
    colmask = arr.colmask
    latch = arr.latch
    if type(ops) is not list:
        ops = list(ops)
    geometry = None                # (width, origin) of the tile masks in hand
    lsb = msb = 0
    obs_lsb = obs_msb = None       # full-lane masks, taken at the first marked shift
    try:
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == WRITEBACK:
                row = op[1]
                if not 0 <= row < nrows:
                    raise AddressError(f"row {row} outside [0,{nrows})")
                cells[row] = latch
            elif kind == ACTIVATE2:
                _, a, b, mode = op
                if not 0 <= a < nrows or not 0 <= b < nrows or a == b:
                    _bad_pair(nrows, a, b)
                if mode == AND:
                    latch = cells[a] & cells[b]
                elif mode == XOR:
                    latch = cells[a] ^ cells[b]
                elif mode == OR:
                    latch = cells[a] | cells[b]
                elif mode == NOR:
                    latch = ~(cells[a] | cells[b]) & colmask
                else:
                    raise AddressError(f"unknown logic mode {mode!r}")
            elif kind == SHIFT:
                _, direction, scope, width, origin = op
                if obs_marks and i in obs_marks:
                    if obs_lsb is None:
                        obs_lsb, obs_msb = arr.tile_edges(lane, 0, arr.cols - arr.cols % lane)
                    edge = obs_marks[i]
                    if edge == "msb" and latch & obs_msb:
                        raise ObservationError(_MSB_FAULT)
                    if edge == "lsb" and latch & obs_lsb:
                        raise ObservationError(_LSB_FAULT)
                if scope == GLOBAL:
                    if direction == LEFT:
                        latch = (latch << 1) & colmask
                    elif direction == RIGHT:
                        latch >>= 1
                    else:
                        raise TileGeometryError(f"unknown shift direction {direction!r}")
                elif scope == TILE:
                    if geometry != (width, origin):
                        lsb, msb = arr.tile_edges(width, origin)
                        geometry = (width, origin)
                    if direction == LEFT:
                        latch = (latch << 1) & colmask & ~lsb
                    elif direction == RIGHT:
                        latch = (latch >> 1) & ~msb
                    else:
                        raise TileGeometryError(f"unknown shift direction {direction!r}")
                else:
                    raise TileGeometryError(f"unknown shift scope {scope!r}")
            elif kind == WRITE_ROW:
                _, row, bits = op
                if not 0 <= row < nrows:
                    raise AddressError(f"row {row} outside [0,{nrows})")
                if not 0 <= bits <= colmask:
                    raise AddressError(f"row value wider than {arr.cols} columns")
                cells[row] = bits
            elif kind == ZERO_TEST:
                readout = int(latch == 0)
                if op[1] != readout:
                    raise VerificationError(
                        f"ZERO_TEST at op {i} reads {readout}, recorded {op[1]}")
            else:
                raise TraceIOError(f"unknown micro-op kind {kind!r}")
        i = len(ops)               # all ran; else i is the op that raised
    finally:
        arr.latch = latch
        arr.trace.add(ops if i == len(ops) else ops[:i], i)


def _bad_pair(nrows: int, a: int, b: int) -> None:
    for row in (a, b):
        if not 0 <= row < nrows:
            raise AddressError(f"row {row} outside [0,{nrows})")
    raise AddressError(f"ACTIVATE2 needs two distinct rows, got {a} twice")


# -- straight-line programs ----------------------------------------------------

_LOGIC = {AND: "c[{}] & c[{}]", XOR: "c[{}] ^ c[{}]", OR: "c[{}] | c[{}]",
          NOR: "~(c[{}] | c[{}]) & {colmask}"}


def generate(arr: Subarray, stream, lane: int = 0, params: int = 0):
    """One Python function running `stream.ops` (a stream has ``ops``,
    ``obs_marks`` and ``bind``) on any array of arr's shape: arr is read for
    its rows, columns and edge masks only.

    Rows -1 .. -params are placeholders.  ``program(arr, rows)`` leaves arr
    and its trace exactly as ``execute(arr, stream.bind(rows),
    stream.obs_marks, lane)`` does, raised errors included, and binds rows
    only on a failure: a program that returns logs (stream, rows).  Only
    ACTIVATE2, SHIFT and WRITEBACK can be generated.

    Each ACTIVATE2, WRITEBACK and SHIFT is one statement, and each maximal
    run of s equal SHIFT ops under one mark a loop of s pulses.

    Two idioms, found from the ops alone, get a closed form behind a cheap
    runtime test; when the test fails, their straight-line statements run.
    A ripple add (``_ripple_run``) is one carry-save addition when its carry
    provably dies with a full round left (``_ripple_statements``).  A
    predication smear (``_smear_run``) is one multiplication of the seed
    bits by the pattern it spreads each of them into, when the latch holds
    seed bits only (``_smear_statements``).  The state and the logged run
    are those of every op; only the host skips work.

    Literal rows, modes, directions, scopes and tile geometry are checked
    here, once, up to an activation that names one placeholder twice: no
    binding can run it, so every run goes to ``execute``.  At each run a
    bound row out of range, or a bound same-row pair, hands the bound ops to
    ``execute`` before any op runs, and that fallback always raises.  A
    marked pulse tests its lane edge first, so the pulse that finds a live
    bit stores the latch, logs the bound ops before it and raises
    ObservationError, as ``execute`` does.
    """
    nrows = arr.rows
    ops = stream.ops
    marks = stream.obs_marks
    names = [f"r{k}" for k in range(params)]
    guards: list[str] = []
    obs = None                                  # full-lane (lsb, msb) masks

    def guard(condition: str) -> None:
        if condition not in guards:
            guards.append(condition)

    def row(r: int) -> str:
        if -params <= r < 0:
            guard(f"0 <= {names[~r]} < {nrows}")
            return names[~r]
        if not 0 <= r < nrows:
            raise AddressError(f"row {r} outside [0,{nrows})")
        return str(r)

    def edge_of(i: int) -> str | None:
        edge = marks.get(i)
        return edge if edge in ("msb", "lsb") else None

    body = []
    i = 0
    while i < len(ops):
        op = ops[i]
        kind = op[0]
        s = 1                                   # the ops this statement runs
        if kind == SHIFT:
            edge = edge_of(i)
            if obs is None and (edge is not None or lane >= 2):
                obs = arr.tile_edges(lane, 0, arr.cols - arr.cols % lane)
            ripple = _ripple_run(ops, i, nrows, edge_of)
            if ripple:
                body += _ripple_statements(arr, op, i, edge, obs, *ripple)
                i += 5 * ripple[-1] - 1
                continue
            smear = _smear_run(ops, i, nrows, edge_of) if lane >= 2 else None
            if smear:
                body += _smear_statements(arr, ops, marks, i, edge, lane, obs, *smear)
                i += sum(smear[-1]) + 3 * len(smear[-1])
                continue
            while i + s < len(ops) and ops[i + s] == op and edge_of(i + s) == edge:
                s += 1
            body += _shift_run(arr, op, s, i, edge, obs)
        elif kind == WRITEBACK:
            body.append(f"c[{row(op[1])}] = L")
        elif kind == ACTIVATE2:
            _, a, b, mode = op
            ra, rb = row(a), row(b)
            if a == b and a >= 0:
                raise AddressError(f"ACTIVATE2 needs two distinct rows, got {a} twice")
            if a == b:
                # one placeholder twice: every binding is a same-row pair, which
                # execute reports with the bound row before it reads the mode
                guard("False")
                break
            if a < 0 or b < 0:
                guard(f"{ra} != {rb}")
            if mode not in _LOGIC:
                raise AddressError(f"unknown logic mode {mode!r}")
            body.append("L = " + _LOGIC[mode].format(ra, rb, colmask=arr.colmask))
        elif kind in (WRITE_ROW, ZERO_TEST):
            raise ParameterError(f"{kind} cannot run in a generated program")
        else:
            raise TraceIOError(f"unknown micro-op kind {kind!r}")
        i += s
    unpack = f"    {', '.join(names)}, = rows\n" if names else ""
    check = (f"    if not ({' and '.join(guards)}):\n"
             f"        return execute(arr, stream.bind(rows), marks, {lane})\n") if guards else ""
    source = ("def program(arr, rows):\n"
              f"{unpack}{check}"
              "    c = arr.cells\n"
              "    L = arr.latch\n"
              + "".join(f"    {line}\n" for line in body) +
              "    arr.latch = L\n"
              f"    arr.trace.add({'(stream, rows)' if names else 'entry'}, {len(ops)})\n")
    namespace = {"stream": stream, "entry": (stream, ()), "marks": marks, "execute": execute,
                 "fail": _observation_failed, "_MSB": _MSB_FAULT, "_LSB": _LSB_FAULT}
    exec(compile(source, "<generated micro-op program>", "exec"), namespace)
    return namespace["program"]


def _shift_run(arr: Subarray, op: tuple, s: int, i: int, edge: str | None,
               obs: tuple[int, int] | None) -> list[str]:
    """The statements of ops i .. i+s-1, s pulses of the shift `op`: one pulse,
    looped over k in [i, i+s) when s > 1.  Under an `edge` mark each pulse
    first checks that edge of the full-lane masks `obs`: a live bit fails at op k."""
    _, direction, scope, width, origin = op
    if scope == GLOBAL:
        keep = arr.colmask
    elif scope == TILE:
        lsb, msb = arr.tile_edges(width, origin)
        keep = arr.colmask & ~lsb if direction == LEFT else ~msb
    else:
        raise TileGeometryError(f"unknown shift scope {scope!r}")
    if direction == RIGHT and scope == GLOBAL:
        pulse = ["L >>= 1"]
    elif direction in (LEFT, RIGHT):
        # the columns a pulse can leave set in a latch within colmask
        sign, mask = ("<<", arr.colmask << 1) if direction == LEFT else (">>", arr.colmask >> 1)
        pulse = [f"L = (L {sign} 1) & {mask & keep:#x}"]
    else:
        raise TileGeometryError(f"unknown shift direction {direction!r}")
    if edge is not None:
        live, fault = (obs[1], "_MSB") if edge == "msb" else (obs[0], "_LSB")
        k = i if s == 1 else "k"
        pulse.insert(0, f"if L & {live:#x}: fail(arr, stream.bind(rows), {k}, L, {fault})")
    return pulse if s == 1 else [f"for k in range({i}, {i + s}):", *(f"    {p}" for p in pulse)]


def _ripple_run(ops: list, i: int, nrows: int, edge_of) -> tuple[int, int, int, int, int] | None:
    """The ripple add from the shift at op i on, as (a, b, cs, dest, R), if
    it has the shape ``_ripple_statements`` writes in closed form; else None.

    That shape is R >= 5 rounds, each with the first one's shift (a left
    one) under its mark.  A full round is SHIFT, WRITEBACK cs, ACTIVATE2
    cur cs XOR, WRITEBACK other, ACTIVATE2 cur cs AND, its cur a and its
    other b in even rounds and the other way round in odd ones; the last
    round closes the run, its first four ops writing dest in place of
    other.  Rows a, b and cs are three literal rows in range, dest any
    literal row in range."""
    shift = ops[i]
    if (shift[1] != LEFT or len(ops) < i + 4 or ops[i + 1][0] != WRITEBACK
            or ops[i + 2][0] != ACTIVATE2 or ops[i + 3][0] != WRITEBACK):
        return None
    cs, a, b = ops[i + 1][1], ops[i + 2][1], ops[i + 3][1]
    if not 0 <= min(a, b, cs) <= max(a, b, cs) < nrows or len({a, b, cs}) < 3:
        return None
    edge = edge_of(i)
    rounds = 1
    cur, other = a, b
    while (ops[i:i + 5] == [shift, (WRITEBACK, cs), (ACTIVATE2, cur, cs, XOR),
                            (WRITEBACK, other), (ACTIVATE2, cur, cs, AND)]
           and edge_of(i) == edge):
        rounds += 1
        cur, other = other, cur
        i += 5
    closing = ops[i:i + 4]
    if (rounds < 5 or len(closing) < 4 or edge_of(i) != edge
            or closing[:3] != [shift, (WRITEBACK, cs), (ACTIVATE2, cur, cs, XOR)]
            or closing[3][0] != WRITEBACK or not 0 <= closing[3][1] < nrows):
        return None
    return a, b, cs, closing[3][1], rounds


def _ripple_statements(arr: Subarray, shift: tuple, i: int, edge: str | None,
                       obs: tuple[int, int] | None, a: int, b: int, cs: int, dest: int,
                       rounds: int) -> list[str]:
    """The statements of a ripple run from op i on (see ``_ripple_run``):
    the closed form, then its straight-line rounds under ``else``.

    The closed form adds the partial sum S = c[a] and the carry word of the
    first pulse, K, in one carry-save addition V: S + K within the columns
    for a global shift, the SWAR add of each tile's low columns with the
    top ones XORed in for a tile-masked one (Hacker's Delight's multibyte
    add).  Round k leaves a non-zero carry only where a generate bit of
    S & K is followed by k ones of P = S ^ K, so if P has no run of R - 3
    ones (a ladder of ANDs with shifted copies of P) the carry is zero with a
    full round left: every round after that is a copy (a zero latch shifts
    to zero, the XOR with the zeroed cs gives back V, the AND zero again),
    which leaves cs = 0 and a, b, dest and the latch all V.  A marked run
    also needs each pulse's edge test to pass: the latch holds L, then the
    carries out of every column, S & K | P & ~V; with a live edge bit among
    them the rounds run and the pulse that finds it raises."""
    fallback = []
    cur, other = a, b
    for k in range(rounds):
        fallback += _shift_run(arr, shift, 1, i + 5 * k, edge, obs)
        fallback += [f"c[{cs}] = L", f"L = c[{cur}] ^ c[{cs}]"]
        if k < rounds - 1:
            fallback += [f"c[{other}] = L", f"L = c[{cur}] & c[{cs}]"]
        else:
            fallback.append(f"c[{dest}] = L")
        cur, other = other, cur
    colmask = arr.colmask
    if shift[2] == GLOBAL:
        keep, add = colmask, f"(S + K) & {colmask:#x}"
    else:
        lsb = arr.tile_edges(shift[3], shift[4])[0]
        high = lsb >> 1 | 1 << (arr.cols - 1)          # each tile's top column
        keep, low = colmask & ~lsb, colmask & ~high
        add = f"((S & {low:#x}) + (K & {low:#x})) ^ P & {high:#x}"
    lines = [f"S = c[{a}]", f"K = (L << 1) & {keep:#x}", "P = S ^ K", f"V = {add}",
             "X = P & P >> 1"]
    span = 2                                # X has a bit where P has a run of span ones
    while 2 * span <= rounds - 3:
        lines.append(f"X &= X >> {span}")
        span *= 2
    if span < rounds - 3:
        lines.append(f"X &= X >> {rounds - 3 - span}")
    test = "not X"
    if edge is not None:
        test += f" and not (L | S & K | P & ~V) & {obs[1] if edge == 'msb' else obs[0]:#x}"
    rows = " = ".join(f"c[{row}]" for row in dict.fromkeys((a, b, dest)))
    return (lines + [f"if {test}:", f"    c[{cs}] = 0", f"    L = {rows} = V", "else:"]
            + [f"    {line}" for line in fallback])


def _smear_run(ops: list, i: int, nrows: int, edge_of) -> tuple[int, int, list[int]] | None:
    """The predication smear from the shift at op i on, as (r, t, strides),
    if it has the shape ``_smear_statements`` writes in closed form; else
    None.

    That shape follows a WRITEBACK r, so the latch is row r, with two or
    more rounds of: `stride` pulses of the first pulse's shift under its
    mark, WRITEBACK t, ACTIVATE2 r t OR, WRITEBACK r.  Rows r and t are
    two literal rows in range."""
    if not i or ops[i - 1][0] != WRITEBACK:
        return None
    r, shift, edge = ops[i - 1][1], ops[i], edge_of(i)
    t = None
    strides = []
    n = len(ops)
    while i < n and ops[i] == shift and edge_of(i) == edge:
        s = 1
        while i + s < n and ops[i + s] == shift and edge_of(i + s) == edge:
            s += 1
        if t is None and i + s < n and ops[i + s][0] == WRITEBACK:
            t = ops[i + s][1]
        if ops[i + s:i + s + 3] != [(WRITEBACK, t), (ACTIVATE2, r, t, OR), (WRITEBACK, r)]:
            break
        strides.append(s)
        i += s + 3
    if len(strides) < 2 or not 0 <= min(r, t) <= max(r, t) < nrows or r == t:
        return None
    return r, t, strides


def _smear_statements(arr: Subarray, ops: list, marks: dict, i: int, edge: str | None,
                      lane: int, obs: tuple[int, int], r: int, t: int,
                      strides: list[int]) -> list[str]:
    """The statements of a smear run from op i on (see ``_smear_run``): the
    closed form, if it holds, then its straight-line rounds under ``else``.

    Its seeds are the bottom column of every full lane for a left smear and
    the top one for a right smear.  Every op of the run is OR-homomorphic
    in the latch, so the rounds take a latch of seed bits to the OR of what
    they take each seed to.  Run here with execute's semantics, on all the
    seeds and on the first lane's alone, they must give seeds x P, with P
    the one-seed pattern of row t and of row r, and no marked pulse may find
    a live edge; the offsets the strides add up to must fit a lane, so each
    seed's pattern stays in its lane and is P moved there.  Then a latch of
    seed bits, X of them at the lane bottoms, leaves t = X * P_t and
    r = L = X * P_r, and the function tests for the seeds alone at run time.
    """
    shift = ops[i]
    lines = []
    end = i
    for s in strides:
        lines += _shift_run(arr, shift, s, end, edge, obs)
        lines += [f"c[{t}] = L", f"L = c[{r}] | c[{t}]", f"c[{r}] = L"]
        end += s + 3
    offsets = 1
    for s in strides:
        offsets |= offsets << s
    lsb, msb = obs
    if offsets >> lane or not lsb:
        return lines
    left = shift[1] == LEFT
    scratch = Subarray(arr.rows, arr.cols)
    scratch._edge_cache = arr._edge_cache
    run, run_marks = ops[i:end], {k - i: marks[k] for k in range(i, end) if k in marks}

    def settle(latch: int) -> tuple[int, int]:
        scratch.cells[r] = scratch.latch = latch
        execute(scratch, run, run_marks, lane)
        return scratch.cells[t], scratch.latch

    try:
        every, one = settle(lsb if left else msb), settle(1 if left else 1 << (lane - 1))
    except ObservationError:
        return lines
    if every != (lsb * one[0], lsb * one[1]):
        return lines
    x = "L" if left else f"(L >> {lane - 1})"
    return ([f"if not L & {arr.colmask & ~(lsb if left else msb):#x}:",
             f"    c[{t}] = {x} * {one[0]:#x}",
             f"    L = c[{r}] = {x} * {one[1]:#x}",
             "else:"] + [f"    {line}" for line in lines])


def _observation_failed(arr: Subarray, bound, i: int, latch: int, message: str) -> None:
    """Leave arr as execute does when the check before op i fails, then raise."""
    arr.latch = latch
    arr.trace.add(bound[:i], i)
    raise ObservationError(message)


# -- replay and serialization ---------------------------------------------

def replay(ops, rows: int, cols: int) -> Subarray:
    """Pure-logic re-execution of a trace on a fresh grid."""
    arr = Subarray(rows, cols)
    execute(arr, ops)
    return arr


def _op_text(op: tuple, cols: int) -> str:
    """A trace line after its sequence number."""
    kind = op[0]
    if kind == WRITE_ROW:
        digits = (cols + 3) // 4
        return f"{WRITE_ROW} {op[1]} {op[2]:0{digits}x}"
    if kind == ACTIVATE2:
        return f"{ACTIVATE2} {op[1]} {op[2]} {op[3]}"
    if kind == SHIFT:
        if op[2] == TILE:
            return f"{SHIFT} {op[1]} {TILE} {op[3]} {op[4]}"
        return f"{SHIFT} {op[1]} {GLOBAL}"
    if kind == WRITEBACK:
        return f"{WRITEBACK} {op[1]}"
    if kind == ZERO_TEST:
        return f"{ZERO_TEST} {op[1]}"
    raise TraceIOError(f"unknown micro-op kind {kind!r}")


# Ops formatted per write of `serialize_trace`, and characters read per piece
# by `parse_trace`: about half a MiB of text each, so neither holds a trace.
LINES_PER_WRITE = 1 << 14
PIECE_CHARS = 1 << 19
# The longest trace line: a WRITE_ROW of a MAX_COLS-column row with a
# sequence number up to 2**64.  A longer line is malformed, so parsing never
# holds more than a piece and a line.
MAX_LINE_CHARS = len(f"{2 ** 64} {WRITE_ROW} {MAX_ROWS - 1} ") + (MAX_COLS + 3) // 4
# The characters str.splitlines breaks lines at (with "\r\n" as one break)
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# The ASCII ones but "\n": an ASCII piece without them splits at "\n" alone
_OTHER_ASCII_BREAKS = "".join(sorted(brk for brk in _LINE_BREAKS - {"\n"} if brk.isascii()))
# A line the fast path of `parse_trace` vouches for, capturing its text: a
# sequence number of at most 20 ASCII digits (2**64 has 20), one space and a
# text short enough that the line is at most MAX_LINE_CHARS long.
_SEQUENCED_LINE = re.compile(
    rf"^[0-9]{{1,20}} (.{{0,{MAX_LINE_CHARS - len(f'{2 ** 64} ')}}})$", re.MULTILINE)
# Characters of a line an error message quotes
_QUOTED_CHARS = 60


def serialize_trace(trace, cols: int, out) -> None:
    """Write the trace to the text stream `out`, one line per op, in batches
    of LINES_PER_WRITE lines of one pass; each distinct op is formatted once."""
    texts: dict[tuple, str] = {}
    ops = iter(trace)
    start = 0
    while batch := list(islice(ops, LINES_PER_WRITE)):
        lines = []
        for seq, op in enumerate(batch, start):
            text = texts.get(op)
            if text is None:
                text = texts[op] = _op_text(op, cols)
            lines.append(f"{seq} {text}\n")
        out.write("".join(lines))
        start += len(batch)


def _quote(text: str | None, cut: bool = False) -> str:
    """The repr of `text` for an error message, cut to its first _QUOTED_CHARS
    characters: a line read from a file can be a piece long.  A `cut` text is
    the start of a line not yet read to its end, so its length is a bound."""
    if text is None or len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({'at least ' if cut else ''}{len(text)} characters)"


_DECIMAL_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _number(token: str, base: int = 10) -> int:
    """`token` as an int if it is ASCII digits only: no sign, `_`, prefix or
    other script's digits, all of which int() accepts."""
    if not token or not (_DECIMAL_DIGITS if base == 10 else _HEX_DIGITS).issuperset(token):
        raise ValueError(token)
    return int(token, base)


def parse_trace_line(line: str) -> tuple:
    """One trace line as an op tuple; a missing or an extra token, or a
    number that is not ASCII decimal (hex for row bits) digits, is malformed."""
    parts = line.split()
    n = len(parts)
    if n < 2:
        raise TraceIOError(f"malformed trace line: {_quote(line)}")
    kind = parts[1]
    try:
        if kind == WRITEBACK:
            if n == 3:
                return (WRITEBACK, _number(parts[2]))
        elif kind == ACTIVATE2:
            if n == 5:
                return (ACTIVATE2, _number(parts[2]), _number(parts[3]), parts[4])
        elif kind == SHIFT:
            scope = parts[3] if n > 3 else None
            if scope == GLOBAL:
                if n == 4:
                    return (SHIFT, parts[2], GLOBAL, 0, 0)
            elif scope == TILE:
                if n == 6:
                    return (SHIFT, parts[2], TILE, _number(parts[4]), _number(parts[5]))
            else:
                raise TraceIOError(f"unknown shift scope {_quote(scope)} "
                                   f"in line {_quote(line)}")
        elif kind == WRITE_ROW:
            if n == 4:
                return (WRITE_ROW, _number(parts[2]), _number(parts[3], 16))
        elif kind == ZERO_TEST:
            if n == 3:
                if parts[2] not in ("0", "1"):
                    raise TraceIOError(f"zero-test readout is not 0 or 1 in line {_quote(line)}")
                return _ZERO_TESTS[parts[2] == "1"]
        else:
            raise TraceIOError(f"unknown micro-op kind {_quote(kind)} in line {_quote(line)}")
    except ValueError as exc:
        raise TraceIOError(f"malformed trace line: {_quote(line)}") from exc
    raise TraceIOError(f"malformed trace line: {_quote(line)}")


def _pieces(source):
    """`source`, a str or a text file, in pieces of PIECE_CHARS characters."""
    if isinstance(source, str):
        return (source[i:i + PIECE_CHARS] for i in range(0, len(source), PIECE_CHARS))
    return iter(lambda: source.read(PIECE_CHARS), "")


def _parse_lines(lines, ops: list, parsed: dict) -> None:
    """Append the op of each line to `ops`; `parsed` memoizes the op of each
    text after a sequence number."""
    if lines and max(map(len, lines)) > MAX_LINE_CHARS:
        cut = next(i for i, line in enumerate(lines) if len(line) > MAX_LINE_CHARS)
        _parse_lines(lines[:cut], ops, parsed)
        _too_long(lines[cut])
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        op = parsed.get(parts[1]) if len(parts) == 2 else None
        if op is None:
            op = parsed[parts[1]] = parse_trace_line(line)
        ops.append(op)


def _too_long(line: str, cut: bool = False) -> None:
    raise TraceIOError(f"trace line longer than {MAX_LINE_CHARS} characters: {_quote(line, cut)}")


def _parse_piece(piece: str, ops: list, parsed: dict) -> str | None:
    r"""The fast path of `parse_trace`: if `piece` is ASCII, breaks lines at
    "\n" alone, and every line up to its last "\n" is a sequence number, one
    space and a text that `parsed` holds or that parses with no whitespace
    around it, append those lines' ops and return the rest of the piece.
    Otherwise append nothing, add nothing to `parsed` and return None."""
    if not piece.isascii() or any(brk in piece for brk in _OTHER_ASCII_BREAKS):
        return None
    end = piece.rfind("\n") + 1
    if len(piece) - end > MAX_LINE_CHARS:
        return None
    texts = _SEQUENCED_LINE.findall(piece, 0, end)
    if len(texts) != piece.count("\n"):
        return None
    new = set(texts).difference(parsed)
    if new:
        # the memo's keys are the per-line path's: split(None, 1)[1] of a stripped line
        if any(text != text.strip() for text in new):
            return None
        try:
            parsed.update({text: parse_trace_line("0 " + text) for text in new})
        except TraceIOError:
            return None
    ops.extend(map(parsed.__getitem__, texts))
    return piece[end:]


def parse_trace(source) -> list[tuple]:
    r"""The op tuples of a serialized trace, from its text or an open text
    file; blank and ``#`` lines are skipped.

    The source is split into lines exactly as ``str.splitlines`` splits the
    whole text, one piece of PIECE_CHARS characters at a time: a piece's
    last line waits for the next piece unless a line break ends the piece,
    and waits after a ``\r`` too, which may be the first half of ``\r\n``.
    A line longer than MAX_LINE_CHARS is malformed, so no more than a piece
    and a line are held besides the ops.  Each distinct text after the
    sequence number is parsed, and so fully validated, once; later lines
    with the same text share its tuple.  The sequence numbers themselves are
    not checked: the first token of a line is skipped whatever it holds.

    A piece that is ASCII and breaks lines at "\n" alone takes one regular
    expression pass, `_parse_piece`, that finds the text after each sequence
    number and parses only the texts not seen before.  A piece with a blank
    or ``#`` line, another line break, non-ASCII text, a line that could be
    longer than MAX_LINE_CHARS, or a new text that has whitespace around it
    or does not parse goes whole through the per-line parser, which alone
    raises, so errors and memo keys are the per-line parser's.
    """
    ops: list[tuple] = []
    parsed: dict[str, tuple] = {}
    tail = ""
    for piece in _pieces(source):
        piece = tail + piece
        tail = _parse_piece(piece, ops, parsed)
        if tail is not None:
            continue
        lines = piece.splitlines()
        end = piece[-1]
        del piece                        # each piece's text and lines go before the next
        tail = "" if end in _LINE_BREAKS and end != "\r" else lines.pop()
        _parse_lines(lines, ops, parsed)
        del lines
        if len(tail) > MAX_LINE_CHARS:
            _too_long(tail, cut=True)        # the line may go on in the next piece
        if end == "\r":
            tail += end
    if tail:
        _parse_lines(tail.splitlines(), ops, parsed)
    return ops
