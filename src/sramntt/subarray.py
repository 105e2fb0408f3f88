"""Single-subarray SRAM model: bitline logic, a shifting sense-amp latch, writeback.

The array is a rows x cols grid of bits plus one latch register of cols bits.
Rows are stored as Python ints; bit j of a row int is the cell in column j.
Within a tile of width w starting at column t*w, the tile-local offset 0 (the
lowest column) is the LSB of the word stored there, so a "left" shift moves
bits toward higher offsets and doubles the word.

Every mutating operation appends one micro-op to the trace.  Replaying the
trace on a fresh array reproduces the final grid and latch exactly; nothing
the higher layers compute can bypass these five micro-ops:

    WRITE_ROW  <addr> <hexbits>          host I/O (load a full row)
    ACTIVATE2  <a> <b> <AND|NOR|OR|XOR>  two-row bitline op, result -> latch
    SHIFT      <LEFT|RIGHT> <GLOBAL|TILE [width origin]>  1-bit latch shift
    WRITEBACK  <addr>                    latch -> row (latch preserved)
    ZERO_TEST  <0|1>                     wired-OR readout (1 iff latch == 0)

The serialized trace is line oriented: ``<seq> <KIND> <args...>``.
"""

from __future__ import annotations

from .errors import (
    AddressError,
    DimensionError,
    ObservationError,
    TileGeometryError,
    TraceIOError,
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


# ZERO_TEST records its readout: index by `latch == 0`
_ZERO_TESTS = ((ZERO_TEST, 0), (ZERO_TEST, 1))


class Subarray:
    """One SRAM subarray; the only compute substrate higher layers may use."""

    __slots__ = ("rows", "cols", "colmask", "cells", "latch", "trace", "_edge_cache")

    def __init__(self, rows: int = 256, cols: int = 256, record: bool = True):
        if rows < MIN_ROWS or cols < MIN_COLS:
            raise DimensionError(
                f"subarray must be at least {MIN_ROWS}x{MIN_COLS}, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.colmask = (1 << cols) - 1
        self.cells = [0] * rows
        self.latch = 0
        self.trace: list[tuple] | None = [] if record else None
        self._edge_cache: dict[tuple[int, int, int], tuple[int, int]] = {}

    # -- addressing ------------------------------------------------------

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.rows:
            raise AddressError(f"row {addr} outside [0,{self.rows})")

    def tile_edges(self, width: int, origin: int = 0,
                   span: int | None = None) -> tuple[int, int]:
        """Edge masks of the tiles in the first `span` columns (default: all)."""
        key = (self.cols if span is None else span, width, origin)
        masks = self._edge_cache.get(key)
        if masks is None:
            masks = _tile_edge_masks(*key)
            self._edge_cache[key] = masks
        return masks

    # -- micro-ops -------------------------------------------------------

    def write_row(self, addr: int, bits: int) -> None:
        """Host write of a full row (normal cache store path)."""
        execute(self, ((WRITE_ROW, addr, bits),))

    def read_row(self, addr: int) -> int:
        """Host read; non-destructive and not traced (no array state changes)."""
        self._check_addr(addr)
        return self.cells[addr]

    def activate_pair(self, a: int, b: int, mode: str) -> None:
        """Activate rows a and b together; the latch captures mode(a, b) per column."""
        execute(self, ((ACTIVATE2, a, b, mode),))

    def shift_latch(
        self,
        direction: str,
        scope: str = GLOBAL,
        tile_width: int = 0,
        tile_origin: int = 0,
    ) -> None:
        """Move every latch bit one column; zero fill at array (or tile) edges."""
        execute(self, ((SHIFT, direction, scope, tile_width, tile_origin),))

    def latch_writeback(self, addr: int) -> None:
        """Drive the latch back into a row; the latch keeps its value."""
        execute(self, ((WRITEBACK, addr),))

    def latch_is_zero(self) -> bool:
        """Wired-OR readout of the latch; used as a carry-loop termination test."""
        execute(self, ((ZERO_TEST, 0),))       # records the readout it makes
        return self.latch == 0

    # -- state helpers ---------------------------------------------------

    def snapshot(self) -> tuple[tuple[int, ...], int]:
        return tuple(self.cells), self.latch

    def same_state(self, other: "Subarray") -> bool:
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.cells == other.cells
            and self.latch == other.latch
        )


def create_subarray(rows: int, cols: int, record: bool = True) -> Subarray:
    """Fresh all-zero subarray with an empty trace."""
    return Subarray(rows, cols, record=record)


# -- the executor -----------------------------------------------------------

def execute(arr: Subarray, ops, obs_marks: dict[int, str] | None = None,
            lane: int = 0) -> None:
    """Run op tuples against the grid and latch: the one definition of the micro-ops.

    Every op is checked before it acts: rows in range, two distinct
    activation rows, a known mode, direction and scope, and the tile
    geometry of a tile-scoped shift.  obs_marks maps the index of a shift to
    the lane edge ("msb" or "lsb") the carry-save invariants promise is zero
    in the latch; the check runs before that shift, whatever its scope, over
    the full lanes of `lane` columns.  Each executed op is appended to the
    trace as the same tuple object, except that a ZERO_TEST records the
    readout it actually made.
    """
    cells = arr.cells
    nrows = arr.rows
    colmask = arr.colmask
    latch = arr.latch
    trace = arr.trace
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
                        raise ObservationError("carry word has a live top bit before a left shift")
                    if edge == "lsb" and latch & obs_lsb:
                        raise ObservationError("half-sum has a live low bit before a right shift")
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
                op = _ZERO_TESTS[latch == 0]
            else:
                raise TraceIOError(f"unknown micro-op kind {kind!r}")
            if trace is not None:
                trace.append(op)
    finally:
        arr.latch = latch


def _bad_pair(nrows: int, a: int, b: int) -> None:
    for row in (a, b):
        if not 0 <= row < nrows:
            raise AddressError(f"row {row} outside [0,{nrows})")
    raise AddressError(f"activate_pair needs two distinct rows, got {a} twice")


# -- replay and serialization ---------------------------------------------

def apply_op(arr: Subarray, op: tuple) -> None:
    """Re-execute one trace tuple."""
    execute(arr, (op,))


def replay(ops, rows: int, cols: int) -> Subarray:
    """Pure-logic re-execution of a trace on a fresh grid."""
    arr = Subarray(rows, cols, record=False)
    execute(arr, ops)
    return arr


def format_op(seq: int, op: tuple, cols: int) -> str:
    kind = op[0]
    if kind == WRITE_ROW:
        digits = (cols + 3) // 4
        return f"{seq} {WRITE_ROW} {op[1]} {op[2]:0{digits}x}"
    if kind == ACTIVATE2:
        return f"{seq} {ACTIVATE2} {op[1]} {op[2]} {op[3]}"
    if kind == SHIFT:
        if op[2] == TILE:
            return f"{seq} {SHIFT} {op[1]} {TILE} {op[3]} {op[4]}"
        return f"{seq} {SHIFT} {op[1]} {GLOBAL}"
    if kind == WRITEBACK:
        return f"{seq} {WRITEBACK} {op[1]}"
    if kind == ZERO_TEST:
        return f"{seq} {ZERO_TEST} {op[1]}"
    raise TraceIOError(f"unknown micro-op kind {kind!r}")


def serialize_trace(trace, cols: int) -> str:
    lines = [format_op(i, op, cols) for i, op in enumerate(trace)]
    lines.append("")
    return "\n".join(lines)


def parse_trace_line(line: str) -> tuple:
    """One trace line as an op tuple; a missing or an extra token is malformed."""
    parts = line.split()
    n = len(parts)
    if n < 2:
        raise TraceIOError(f"malformed trace line: {line!r}")
    kind = parts[1]
    try:
        if kind == WRITEBACK:
            if n == 3:
                return (WRITEBACK, int(parts[2]))
        elif kind == ACTIVATE2:
            if n == 5:
                return (ACTIVATE2, int(parts[2]), int(parts[3]), parts[4])
        elif kind == SHIFT:
            scope = parts[3] if n > 3 else None
            if scope == GLOBAL:
                if n == 4:
                    return (SHIFT, parts[2], GLOBAL, 0, 0)
            elif scope == TILE:
                if n == 6:
                    return (SHIFT, parts[2], TILE, int(parts[4]), int(parts[5]))
            else:
                raise TraceIOError(f"unknown shift scope {scope!r} in line {line!r}")
        elif kind == WRITE_ROW:
            if n == 4:
                return (WRITE_ROW, int(parts[2]), int(parts[3], 16))
        elif kind == ZERO_TEST:
            if n == 3:
                return (ZERO_TEST, int(parts[2]))
        else:
            raise TraceIOError(f"unknown micro-op kind {kind!r} in line {line!r}")
    except ValueError as exc:
        raise TraceIOError(f"malformed trace line: {line!r}") from exc
    raise TraceIOError(f"malformed trace line: {line!r}")


def parse_trace(text: str):
    """The op tuples of a serialized trace; blank and ``#`` lines are skipped.

    Each distinct text after the sequence number is parsed, and so fully
    validated, once; later lines with the same text share its tuple.  The
    sequence numbers themselves are not checked: the first token of a line
    is skipped whatever it holds.
    """
    ops = []
    parsed = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        op = parsed.get(parts[1]) if len(parts) == 2 else None
        if op is None:
            op = parsed[parts[1]] = parse_trace_line(line)
        ops.append(op)
    return ops


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
