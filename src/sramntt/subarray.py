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

from .errors import AddressError, DimensionError, TileGeometryError, TraceIOError

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


def _tile_edge_masks(cols: int, width: int, origin: int) -> tuple[int, int]:
    """Bit masks of every tile's lowest column and highest column.

    Tiles of `width` columns start at `origin` and repeat up to `cols`; a
    final partial tile covers any remainder so the whole latch is masked.
    """
    if width < 2:
        raise TileGeometryError(f"tile width must be >= 2, got {width}")
    if not 0 <= origin < cols:
        raise TileGeometryError(f"tile origin {origin} outside [0,{cols})")
    lsb = 0
    msb = 0
    start = origin
    while start < cols:
        end = min(start + width, cols)
        lsb |= 1 << start
        msb |= 1 << (end - 1)
        start = end
    return lsb, msb


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
        self._edge_cache: dict[tuple[int, int], tuple[int, int]] = {}

    # -- addressing ------------------------------------------------------

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.rows:
            raise AddressError(f"row {addr} outside [0,{self.rows})")

    def tile_edges(self, width: int, origin: int = 0) -> tuple[int, int]:
        key = (width, origin)
        masks = self._edge_cache.get(key)
        if masks is None:
            masks = _tile_edge_masks(self.cols, width, origin)
            self._edge_cache[key] = masks
        return masks

    # -- micro-ops -------------------------------------------------------

    def write_row(self, addr: int, bits: int) -> None:
        """Host write of a full row (normal cache store path)."""
        self._check_addr(addr)
        if not 0 <= bits <= self.colmask:
            raise AddressError(f"row value wider than {self.cols} columns")
        self.cells[addr] = bits
        if self.trace is not None:
            self.trace.append((WRITE_ROW, addr, bits))

    def read_row(self, addr: int) -> int:
        """Host read; non-destructive and not traced (no array state changes)."""
        self._check_addr(addr)
        return self.cells[addr]

    def activate_pair(self, a: int, b: int, mode: str) -> None:
        """Activate rows a and b together; the latch captures mode(a, b) per column."""
        self._check_addr(a)
        self._check_addr(b)
        if a == b:
            raise AddressError(f"activate_pair needs two distinct rows, got {a} twice")
        ra = self.cells[a]
        rb = self.cells[b]
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
        if self.trace is not None:
            self.trace.append((ACTIVATE2, a, b, mode))

    def shift_latch(
        self,
        direction: str,
        scope: str = GLOBAL,
        tile_width: int = 0,
        tile_origin: int = 0,
    ) -> None:
        """Move every latch bit one column; zero fill at array (or tile) edges."""
        if scope == GLOBAL:
            if direction == LEFT:
                self.latch = (self.latch << 1) & self.colmask
            elif direction == RIGHT:
                self.latch >>= 1
            else:
                raise TileGeometryError(f"unknown shift direction {direction!r}")
        elif scope == TILE:
            lsb, msb = self.tile_edges(tile_width, tile_origin)
            if direction == LEFT:
                self.latch = ((self.latch << 1) & self.colmask) & ~lsb
            elif direction == RIGHT:
                self.latch = (self.latch >> 1) & ~msb
            else:
                raise TileGeometryError(f"unknown shift direction {direction!r}")
        else:
            raise TileGeometryError(f"unknown shift scope {scope!r}")
        if self.trace is not None:
            self.trace.append((SHIFT, direction, scope, tile_width, tile_origin))

    def latch_writeback(self, addr: int) -> None:
        """Drive the latch back into a row; the latch keeps its value."""
        self._check_addr(addr)
        self.cells[addr] = self.latch
        if self.trace is not None:
            self.trace.append((WRITEBACK, addr))

    def latch_is_zero(self) -> bool:
        """Wired-OR readout of the latch; used as a carry-loop termination test."""
        result = self.latch == 0
        if self.trace is not None:
            self.trace.append((ZERO_TEST, 1 if result else 0))
        return result

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


# -- replay and serialization ---------------------------------------------

def apply_op(arr: Subarray, op: tuple) -> None:
    """Re-execute one trace tuple through the ordinary micro-op methods."""
    kind = op[0]
    if kind == ACTIVATE2:
        arr.activate_pair(op[1], op[2], op[3])
    elif kind == WRITEBACK:
        arr.latch_writeback(op[1])
    elif kind == SHIFT:
        arr.shift_latch(op[1], op[2], op[3], op[4])
    elif kind == WRITE_ROW:
        arr.write_row(op[1], op[2])
    elif kind == ZERO_TEST:
        arr.latch_is_zero()
    else:
        raise TraceIOError(f"unknown micro-op kind {kind!r}")


def replay(ops, rows: int, cols: int) -> Subarray:
    """Pure-logic re-execution of a trace on a fresh grid."""
    arr = Subarray(rows, cols, record=False)
    for op in ops:
        apply_op(arr, op)
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
    parts = line.split()
    if len(parts) < 2:
        raise TraceIOError(f"malformed trace line: {line!r}")
    kind = parts[1]
    try:
        if kind == WRITE_ROW:
            return (WRITE_ROW, int(parts[2]), int(parts[3], 16))
        if kind == ACTIVATE2:
            return (ACTIVATE2, int(parts[2]), int(parts[3]), parts[4])
        if kind == SHIFT:
            if parts[3] == TILE:
                return (SHIFT, parts[2], TILE, int(parts[4]), int(parts[5]))
            if parts[3] == GLOBAL:
                return (SHIFT, parts[2], GLOBAL, 0, 0)
            raise TraceIOError(f"unknown shift scope {parts[3]!r} in line {line!r}")
        if kind == WRITEBACK:
            return (WRITEBACK, int(parts[2]))
        if kind == ZERO_TEST:
            return (ZERO_TEST, int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise TraceIOError(f"malformed trace line: {line!r}") from exc
    raise TraceIOError(f"unknown micro-op kind {kind!r} in line {line!r}")


def parse_trace(text: str):
    ops = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ops.append(parse_trace_line(line))
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
