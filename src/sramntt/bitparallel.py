"""Bit-parallel carry-save Montgomery multiplication and modular add/sub.

Everything here compiles down to the five subarray micro-ops and runs SIMD
across all tiles at once.  A multiplication by the compile-time constant A
("the twiddle") is a CommandStream: the bits of A decide which iterations get
the add-multiplicand block, so A never exists in the array at runtime.

Word layout: one operand word per row per tile, LSB at tile column offset 0.
The Montgomery word width is ``ctx.width`` (R = 2**width); words occupy
``ctx.lane_width`` columns, which is width+1 when the modulus has no headroom
bit (M >= 2**(width-1)).  The transform's context (``for_ring``) takes the
word one column narrower than its lane, so R = 2**(lane-1) > M, and a
multiplication runs lane-1 iterations.  With a headroom bit the running
value Sum + 2*Carry stays below 2M <= 2**lane, which makes three invariants
provable:

* the carry word's top lane bit is 0 before every left shift,
* the half-sum's low bit is 0 before every right shift (Montgomery parity),
* therefore every bit a global shift pushes across a tile edge is 0.

Compiled streams mark their data shifts with the first two, and
``subarray.execute`` (or the straight-line function ``subarray.generate``
makes of a stream) checks each mark before the shift runs.  The
resolve/modadd/modsub tail marks its global shifts the same way: the sign
smears ("lsb") and the adds whose sum stays below 2M ("msb").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import AddressError, ParameterError
from .subarray import (
    ACTIVATE2,
    AND,
    GLOBAL,
    LEFT,
    OR,
    RIGHT,
    SHIFT,
    TILE,
    WRITEBACK,
    XOR,
    Subarray,
    generate,
)


@dataclass(frozen=True)
class MontgomeryContext:
    """Modulus M, word width n (R = 2**n) and the derived lane geometry.

    The radix-2 loop needs no precomputed -M^-1 constant, so none is stored.
    """

    modulus: int
    width: int
    lane_width: int

    @classmethod
    def create(cls, modulus: int, width: int, lane_width: int | None = None) -> "MontgomeryContext":
        if width < 2:
            raise ParameterError(f"word width must be at least 2, got {width}")
        # bit lengths, not 2^width: a huge width allocates nothing before
        # the layout rejects its lane
        if modulus % 2 == 0 or modulus <= 2 or modulus.bit_length() > width:
            raise ParameterError(
                f"modulus must be odd with 2 < M < 2^{width}, got {modulus}"
            )
        if lane_width is None:
            # One headroom column keeps Sum + 2*Carry < 2M representable.
            lane_width = width if modulus.bit_length() < width else width + 1
        if lane_width < width:
            raise ParameterError("lane narrower than the Montgomery word")
        return cls(modulus=modulus, width=width, lane_width=lane_width)

    @classmethod
    def for_ring(cls, modulus: int, width: int) -> "MontgomeryContext":
        """The transform's context for a ring of coefficient width `width`.

        The lane is the ring width, or width + 1 when M leaves it no headroom
        bit (M >= 2^(width-1)); the word is the lane minus that headroom bit,
        so R = 2^(lane-1) > M.  Both follow from the lane alone, so a
        multiplication's program does too.
        """
        lane = cls.create(modulus, width).lane_width
        return cls.create(modulus, lane - 1, lane)

    @property
    def radix(self) -> int:
        return 1 << self.width

    @property
    def has_headroom(self) -> bool:
        return self.modulus.bit_length() < self.lane_width


@dataclass(frozen=True)
class ExecPolicy:
    """Execution knob: static worst-case loops vs. zero-test exits."""

    deterministic: bool = True


@dataclass(frozen=True)
class RowMap:
    """Row assignment of the six scratch rows (Sum, Carry, three half-adder
    temporaries, the predication mask m) and the constant rows the micro-op
    sequences lean on; operand rows are arguments of each emit_*."""

    sum_row: int
    carry_row: int
    aux1: int
    aux2: int
    aux3: int
    mask_row: int
    zeros: int
    ones: int
    lsb_mask: int
    msb_mask: int
    modulus_row: int
    neg_modulus_row: int

    def working_rows(self) -> tuple[int, int, int, int, int]:
        """The rows the modular add and subtract work in: all scratch but the mask."""
        return (self.sum_row, self.carry_row, self.aux1, self.aux2, self.aux3)

    def scratch_rows(self) -> tuple[int, ...]:
        return self.working_rows() + (self.mask_row,)

    def constant_rows(self) -> tuple[int, ...]:
        return (self.zeros, self.ones, self.lsb_mask, self.msb_mask,
                self.modulus_row, self.neg_modulus_row)

    def validate(self) -> None:
        rows = self.scratch_rows() + self.constant_rows()
        if len(set(rows)) != len(rows):
            raise AddressError("row map assigns one row to two roles")
        if min(rows) < 0:
            raise AddressError(f"row map assigns row {min(rows)}, below 0")


@dataclass(eq=False)
class CommandStream:
    """Compiled micro-op sequence, such as a multiplication's iterations on
    one four-bit chunk of the constant A.

    obs_marks maps the index of each data shift to the edge it must find zero
    ("msb" or "lsb"); step_marks pairs the index of each figure step's last op
    with its step number, 1-7 (the multiplication's iteration is the count
    of step-7 marks before it).  In a stream ``Emitter.compiled`` makes,
    operand k is the placeholder row ~k (-1, -2, ...) in the ops listed in
    `holes`, which ``bind`` fills.  `program` is ``subarray.generate``'s
    function of it, made at its first run on an array; a trace logs each run
    as (stream, rows), bound only when read, and ``perf.counts_of_tally``
    counts the ops of a stream (hashed by identity) once, times its runs.
    The streams of one array shape share one tuple per distinct op
    (``Emitter.stream``), so an op-by-op recount of a trace
    (``perf.counts_of_trace``) finds its ops in the Counter by identity
    rather than by comparing equal tuples.
    A segment of a body with zero tests (``Emitter.block``) has `zero_test`
    set when a zero test follows it.
    """

    ops: list[tuple]
    obs_marks: dict[int, str] = field(default_factory=dict)
    step_marks: list[tuple[int, int]] = field(default_factory=list)
    holes: list[int] = field(default_factory=list)
    program: Callable | None = field(default=None, repr=False)
    zero_test: bool = False

    def bind(self, rows) -> list[tuple]:
        """The ops with placeholder ~k replaced by rows[k]; other ops are shared."""
        if not self.holes:
            return self.ops
        ops = self.ops.copy()
        for i in self.holes:
            op = ops[i]
            if op[0] == WRITEBACK:
                ops[i] = (WRITEBACK, rows[~op[1]])
            else:
                a, b = op[1], op[2]
                ops[i] = (ACTIVATE2, rows[~a] if a < 0 else a, rows[~b] if b < 0 else b, op[3])
        return ops


# -- constants setup --------------------------------------------------------

def tiles_in(cols: int, lane: int) -> int:
    return cols // lane


def pack_words(values, lane: int, cols: int) -> int:
    """Per-tile words -> one row int (word t lands at columns [t*lane, (t+1)*lane))."""
    row = 0
    limit = 1 << lane
    for t, v in enumerate(values):
        if not 0 <= v < limit:
            raise ParameterError(f"word {v} does not fit a {lane}-bit lane")
        row |= v << (t * lane)
    if row >= (1 << cols):
        raise ParameterError("packed words exceed the array width")
    return row


def unpack_word(row: int, tile: int, lane: int) -> int:
    return (row >> (tile * lane)) & ((1 << lane) - 1)


def broadcast_word(value: int, lane: int, cols: int) -> int:
    return pack_words([value] * tiles_in(cols, lane), lane, cols)


def load_constants(arr: Subarray, rm: RowMap, ctx: MontgomeryContext) -> None:
    """Write the constant rows (replicated per tile) through the host port.

    The all-ones row is tile-masked (zero in any partial remainder zone) so
    complements computed against it never seed live bits outside the lanes;
    that keeps every bit a global shift can inject across a tile edge zero.
    """
    lane = ctx.lane_width
    cols = arr.cols
    neg_m = (1 << lane) - ctx.modulus
    arr.write_row(rm.zeros, 0)
    arr.write_row(rm.ones, broadcast_word((1 << lane) - 1, lane, cols))
    arr.write_row(rm.lsb_mask, broadcast_word(1, lane, cols))
    arr.write_row(rm.msb_mask, broadcast_word(1 << (lane - 1), lane, cols))
    arr.write_row(rm.modulus_row, broadcast_word(ctx.modulus, lane, cols))
    arr.write_row(rm.neg_modulus_row, broadcast_word(neg_m, lane, cols))


def default_rowmap(arr_rows: int) -> RowMap:
    """Scratch at the top of the array, constants just below; rows beneath are free."""
    top = arr_rows
    rm = RowMap(
        sum_row=top - 1, carry_row=top - 2, aux1=top - 3, aux2=top - 4,
        aux3=top - 5, mask_row=top - 6,
        zeros=top - 7, ones=top - 8, lsb_mask=top - 9, msb_mask=top - 10,
        modulus_row=top - 11, neg_modulus_row=top - 12,
    )
    rm.validate()
    return rm


# -- the emitter ---------------------------------------------------------------

@lru_cache(maxsize=16)
def _shared_programs(rm: RowMap, policy: ExecPolicy, word: int, lane: int,
                     rows: int, cols: int) -> tuple[dict, dict]:
    """The `programs` table every executing emitter on one array shape
    shares, and the `distinct` table of its streams' ops (``Emitter.stream``).

    Keyed on the word and the lane, not the whole context: no stream names
    the modulus (it lives in the constant rows), so every modulus of one
    word and lane shares it; the halving block's smear spans the word, so
    two words on one lane never share.  It holds the tail's streams, the
    multiplication's prologue and at most 2^MODMUL_CHUNK +
    2^(word % MODMUL_CHUNK) chunk streams, however many constants run.
    """
    return {}, {}


class Emitter:
    """The one handle for emitting a micro-op program.  Every ``emit_*`` and
    every body takes it first and finds the Montgomery context `ctx` (the
    word width, and the lane width its streams are compiled and checked at)
    and the scratch and constant rows in its row map `rm`; only operand rows
    are arguments.

    Collects emitted micro-ops into `ops`, `obs_marks` and `step_marks`,
    and keeps `programs`: one stream per body segment (a multiplication's
    bodies are its prologue and each chunk value of A, ``emit_modmul``),
    compiled once with its operand rows as placeholders (``compiled``).
    Executing emitters of one row map, policy, word, lane and array shape
    share one table, so a stream is compiled and generated once per shape,
    and one `distinct` table of their ops; a collecting emitter keeps its
    own of each, and its segment compilers share its `distinct`.

    Without an array it collects: ``run`` appends a stream's bound ops and
    marks, and ``stream`` hands them over.  With one it executes: ``run``
    calls a stream's generated function and ``block`` runs a body as its
    compiled segments, so no op is ever run from `ops`; the array's trace
    logs each run.  A segment compiler is a collecting emitter handed the
    `readouts` its ``ztest`` returns.
    """

    __slots__ = ("ctx", "rm", "policy", "arr", "ops", "obs_marks", "step_marks", "programs",
                 "distinct", "readouts")

    def __init__(self, ctx: MontgomeryContext, rm: RowMap, policy: ExecPolicy,
                 arr: Subarray | None = None):
        self.ctx = ctx
        self.rm = rm
        self.policy = policy
        self.arr = arr
        self.ops: list[tuple] = []
        self.obs_marks: dict[int, str] = {}
        self.step_marks: list[tuple[int, int]] = []
        self.programs, self.distinct = ({}, {}) if arr is None else _shared_programs(
            rm, policy, ctx.width, ctx.lane_width, arr.rows, arr.cols)
        self.readouts = None

    def act(self, a: int, b: int, mode: str) -> None:
        self.ops.append((ACTIVATE2, a, b, mode))

    def wb(self, row: int) -> None:
        self.ops.append((WRITEBACK, row))

    def shift_data(self, direction: str, obs: str | None = None) -> None:
        """Arithmetic 1-bit global shift.

        obs names the lane edge the carry-save invariants promise is zero in
        the latch; a live bit there raises ObservationError before the shift.
        """
        if obs is not None:
            self.obs_marks[len(self.ops)] = obs
        self.ops.append((SHIFT, direction, GLOBAL, 0, 0))

    def shift_mask(self, direction: str) -> None:
        """Predication-mask smear shift; always tile-masked."""
        self.ops.append((SHIFT, direction, TILE, self.ctx.lane_width, 0))

    def ztest(self) -> bool:
        """A segment compiler's next readout; the ops before it are dropped, as
        earlier segments hold them.  Past the last readout, StopIteration
        ends the segment here.  Any other emitter raises ParameterError."""
        if self.readouts is None:
            raise ParameterError("zero-test loops cannot be compiled ahead of time")
        readout = next(self.readouts)
        self.ops, self.obs_marks, self.step_marks = [], {}, []
        return readout

    def step(self, k: int) -> None:
        """Mark the last op as the end of the figure's step k."""
        self.step_marks.append((len(self.ops) - 1, k))

    def stream(self) -> CommandStream:
        """The ops collected so far, with the indices of those naming a
        placeholder; each op is first replaced, in place, by the `distinct`
        table's tuple of its value (see ``CommandStream``)."""
        ops = self.ops
        ops[:] = map(self.distinct.setdefault, ops, ops)
        holes = [i for i, op in enumerate(ops)
                 if op[0] == WRITEBACK and op[1] < 0
                 or op[0] == ACTIVATE2 and (op[1] < 0 or op[2] < 0)]
        return CommandStream(ops=ops, obs_marks=self.obs_marks,
                             step_marks=self.step_marks, holes=holes)

    def block(self, body, rows: tuple) -> None:
        """body(E, *rows), run as its compiled segments bound to `rows`.

        After a segment that ends at a zero test, the array's readout
        (a ZERO_TEST in the trace) selects the next segment.  A body without
        a zero test is one segment.  A collecting emitter appends the
        segments and takes its own ``ztest``, which raises ParameterError
        unless it is compiling a segment."""
        readouts = ()
        while True:
            stream = self.compiled(body, len(rows), readouts)
            self.run(stream, rows)
            if not stream.zero_test:
                return
            readouts += (self.ztest() if self.arr is None else self.arr.latch_is_zero(),)

    def compiled(self, body, operands: int, readouts: tuple = ()) -> CommandStream:
        """The segment of body(E, *placeholders) after the zero tests that
        read `readouts`, compiled once for this emitter on a segment
        compiler with the same context, row map and policy; operand k is
        the placeholder row ~k.  The program table is keyed by (body,
        readouts)."""
        stream = self.programs.get((body, readouts))
        if stream is None:
            C = Emitter(self.ctx, self.rm, self.policy)
            C.distinct = self.distinct
            C.readouts = iter(readouts)
            zero_test = False
            try:
                body(C, *[~k for k in range(operands)])
            except StopIteration:                  # the segment ends at a zero test
                zero_test = True
            stream = self.programs[body, readouts] = C.stream()
            stream.zero_test = zero_test
        return stream

    def run(self, stream: CommandStream, rows=()) -> None:
        """Run a compiled stream with its placeholders bound to `rows`.

        Without an array, append the bound ops and the stream's marks.  With
        one, call the function ``subarray.generate`` makes of it at its first
        run, which logs the run and binds no rows.  Ops emitted by hand on an
        executing emitter can never run, so it raises ParameterError instead."""
        if self.arr is None:
            base = len(self.ops)
            self.ops += stream.bind(rows)
            self.obs_marks.update((base + i, edge) for i, edge in stream.obs_marks.items())
            self.step_marks += [(base + i, k) for i, k in stream.step_marks]
            return
        if self.ops:
            raise ParameterError(f"{len(self.ops)} ops emitted outside a block cannot run")
        program = stream.program
        if program is None:
            program = stream.program = generate(self.arr, stream, self.ctx.lane_width, len(rows))
        program(self.arr, rows)


# -- micro-op sequences ------------------------------------------------------

def emit_select_m(E) -> None:
    """mask_row := M where LSB(Sum)=1, else 0, independently per tile.

    Isolates the low bit of Sum, widens it across the word's columns by
    shift+OR doubling (M < 2^width, so no higher column matters), then masks
    the modulus row with it.
    """
    rm = E.rm
    E.act(rm.sum_row, rm.lsb_mask, AND)
    E.wb(rm.mask_row)
    emit_smear(E, rm.mask_row, rm.aux3, toward_msb=True)
    E.act(rm.mask_row, rm.modulus_row, AND)
    E.wb(rm.mask_row)


def emit_smear(E, row: int, temp: int, toward_msb: bool) -> None:
    """Widen a one-bit-per-tile mask by doubling rounds: toward the MSB over
    the word's columns, toward the LSB over the lane's.

    Precondition: the latch still holds `row` (true right after its writeback).
    Doubling over w columns needs ceil(log2 w) OR rounds; the hardware shifts
    one bit per micro-op, so a stride-s round costs s shift pulses (w-1
    pulses in total).

    A smear toward the LSB spreads a sign bit down from the lane's top
    column over all lane_width columns, so before every pulse each lane's
    lowest set bit is at column >= 1: it shifts as data, global with an
    "lsb" mark.  The m-selection smear toward the MSB covers the word's
    `width` columns from the LSB, since it is ANDed with M < 2^width; it
    stays tile-masked, which keeps a multiplication's global shifts at
    exactly n + popcount(A).

    Its rounds are a smear run to ``subarray.generate``: a latch of lane
    bits only (each lane's bottom, or top, column) runs them as two
    multiplications by the pattern one bit spreads into.
    """
    w = E.ctx.width if toward_msb else E.ctx.lane_width
    span = 1
    while span < w:
        stride = min(span, w - span)
        for _ in range(stride):
            if toward_msb:
                E.shift_mask(LEFT)
            else:
                E.shift_data(RIGHT, obs="lsb")
        E.wb(temp)
        E.act(row, temp, OR)
        E.wb(row)
        span += stride


# Bits of the constant A one compiled stream of a multiplication covers: a
# table holds at most 2^MODMUL_CHUNK + 2^(word % MODMUL_CHUNK) of them per shape
MODMUL_CHUNK = 4


def emit_modmul(E, a_value: int, b_row: int) -> None:
    """The carry-save Montgomery loop for the compile-time constant A = a_value.

    A 3-op prologue zeroes Sum and Carry (leaving latch == Carry); then per
    bit position i in [0, E.ctx.width) comes the add-B block when a_i is 1,
    always followed by the m-selection and halving block.  Invariant between
    iterations: the last writeback was Carry, so the latch already holds the
    word the next left shift needs.  The loop has no zero test, so it runs
    compiled under either policy: the prologue, then one stream per
    MODMUL_CHUNK bits of A, low bits first (the last chunk holds the
    width % MODMUL_CHUNK bits left, if any), each compiled once per chunk
    value and length (``_modmul_bits``).

    A constant that is not an int in [0, 2^width), a bool included, raises
    ParameterError before any op is emitted.
    """
    if type(a_value) is not int or not 0 <= a_value < E.ctx.radix:
        raise ParameterError(f"constant {a_value!r} is not an integer in [0, 2^{E.ctx.width})")
    E.run(E.compiled(_modmul_prologue, 0))
    rows = (b_row,)
    width = E.ctx.width
    for low in range(0, width, MODMUL_CHUNK):
        length = min(MODMUL_CHUNK, width - low)
        bits = (a_value >> low) & ((1 << length) - 1)
        E.run(E.compiled(_modmul_bits(bits, length), 1), rows)


@lru_cache(maxsize=None)
def _modmul_bits(bits: int, length: int):
    """The body of `length` iterations of the loop on the chunk `bits` of A,
    low bit first.  One object per (bits, length), so that the program
    table, keyed by the body, holds one stream per chunk."""
    return partial(_modmul_iterations, bits=bits, length=length)


def _modmul_iterations(E, b_row: int, bits: int, length: int) -> None:
    for i in range(length):
        if (bits >> i) & 1:
            _modmul_add_b(E, b_row)
        _modmul_halve(E)


def _modmul_prologue(E) -> None:
    rm = E.rm
    E.act(rm.zeros, rm.ones, AND)
    E.wb(rm.sum_row)
    E.wb(rm.carry_row)


def _modmul_add_b(E, b_row: int) -> None:
    rm = E.rm
    E.shift_data(LEFT, obs="msb")      # Carry << 1
    E.wb(rm.carry_row)
    E.act(rm.sum_row, b_row, AND)      # c1
    E.wb(rm.aux1)
    E.act(rm.sum_row, b_row, XOR)      # s1
    E.wb(rm.aux2)
    E.step(1)
    E.act(rm.carry_row, rm.aux2, AND)  # c2
    E.wb(rm.aux3)
    E.act(rm.carry_row, rm.aux2, XOR)  # Sum
    E.wb(rm.sum_row)
    E.step(2)
    E.act(rm.aux1, rm.aux3, OR)        # Carry = c1 | c2
    E.wb(rm.carry_row)
    E.step(3)


def _modmul_halve(E) -> None:
    rm = E.rm
    emit_select_m(E)
    E.act(rm.sum_row, rm.mask_row, AND)    # c1
    E.wb(rm.aux1)
    E.act(rm.sum_row, rm.mask_row, XOR)    # s1
    E.wb(rm.aux2)
    E.shift_data(RIGHT, obs="lsb")         # s1 >> 1
    E.wb(rm.aux2)
    E.step(4)
    E.act(rm.aux2, rm.aux1, AND)           # c2
    E.wb(rm.aux3)
    E.act(rm.aux2, rm.aux1, XOR)           # s2 (c1's row is free)
    E.wb(rm.aux1)
    E.step(5)
    E.act(rm.carry_row, rm.aux1, AND)      # c3 (s1's row is free)
    E.wb(rm.aux2)
    E.act(rm.carry_row, rm.aux1, XOR)      # Sum
    E.wb(rm.sum_row)
    E.step(6)
    E.act(rm.aux3, rm.aux2, OR)            # Carry = c2 | c3
    E.wb(rm.carry_row)
    E.step(7)


def emit_add(E, x_row: int, y_row: int, dest_row: int,
             tmp_a: int, tmp_b: int, cs_row: int, no_wrap: bool = False) -> None:
    """dest := (x + y) mod 2^lane per tile, by iterated half-add + carry shift.

    A deterministic policy unrolls the worst case (lane_width iterations, after
    which the carry word is provably zero); otherwise the loop exits on the
    wired-OR zero test.  no_wrap promises x + y < 2^lane in every lane: the
    carry shifts then go global with an "msb" mark (see ``_ripple``).
    """
    E.act(x_row, y_row, XOR)
    E.wb(tmp_a)
    E.act(x_row, y_row, AND)                   # latch = carry word
    _ripple(E, tmp_a, tmp_b, cs_row, dest_row, no_wrap)


def emit_add3(E, x_row: int, y_row: int, z_row: int, dest_row: int,
              p_row: int, cb_row: int, tmp_a: int) -> None:
    """dest := (x + y + z) mod 2^lane; one carry-save layer, then the add loop.

    The two partial carry words are disjoint (x&y vs (x^y)&z), so OR merges
    them exactly.  Reuses p_row for the second carry and cb_row for the
    shifted carry inside the loop.
    """
    E.act(x_row, y_row, XOR)
    E.wb(p_row)
    E.act(p_row, z_row, XOR)
    E.wb(tmp_a)
    E.act(p_row, z_row, AND)
    E.wb(cb_row)
    E.act(x_row, y_row, AND)
    E.wb(p_row)
    E.act(p_row, cb_row, OR)                   # latch = merged carry word
    _ripple(E, tmp_a, p_row, cb_row, dest_row)


def _ripple(E, cur: int, other: int, cs_row: int, dest_row: int,
            no_wrap: bool = False) -> None:
    """Fold the carry word in the latch into the partial sum in `cur`.

    Each round shifts the carry one column, half-adds it into the partial
    sum, and leaves the next carry word in the latch.  `other` and `cs_row`
    are scratch; the sum ends in dest_row.  A deterministic policy runs all
    lane_width rounds, the last of which writes its sum to dest_row (the
    carry word is then provably zero); a data-dependent one stops at the
    round whose carry word tests zero and copies its sum to dest_row.  The
    deterministic rounds are a ripple run to ``subarray.generate``, whose
    function does them as one carry-save addition when the carry provably
    dies with a full round left.

    At every round, partial sum + 2 * carry word = x + y, so a live top
    carry bit means x + y >= 2^lane.  A wrapping add shifts tile-masked; a
    no_wrap add shifts as data, globally, and the "msb" mark checks the
    promise live.
    """
    w = E.ctx.lane_width
    deterministic = E.policy.deterministic
    shift = partial(E.shift_data, LEFT, "msb") if no_wrap else partial(E.shift_mask, LEFT)
    for k in range(w):
        shift()
        E.wb(cs_row)
        E.act(cur, cs_row, XOR)
        if deterministic and k == w - 1:
            E.wb(dest_row)
            return
        E.wb(other)
        E.act(cur, cs_row, AND)
        cur, other = other, cur
        if not deterministic and E.ztest():
            break
    if cur != dest_row:
        E.act(cur, E.rm.zeros, OR)
        E.wb(dest_row)


def emit_mask_select(E, take_row: int, else_row: int, sel_row: int,
                     tmp: int, dest_row: int) -> None:
    """dest := take where sel is set, else `else`, as else ^ ((else ^ take) & sel).

    Three activations; only tmp and dest are written, and no complement is
    taken, so no bit appears outside the lanes.
    """
    E.act(else_row, take_row, XOR)
    E.wb(tmp)
    E.act(tmp, sel_row, AND)
    E.wb(tmp)
    E.act(else_row, tmp, XOR)
    E.wb(dest_row)


def _sign_select(E, u_row: int, take_row: int, sel_row: int, tmp: int,
                 dest_row: int) -> None:
    """dest := take where u is negative (its top lane bit set), else u.

    Isolates u's sign bit into sel_row and smears it over the lane, so the
    mask select sees a whole-word mask."""
    E.act(u_row, E.rm.msb_mask, AND)
    E.wb(sel_row)
    emit_smear(E, sel_row, tmp, toward_msb=False)
    emit_mask_select(E, take_row, u_row, sel_row, tmp, dest_row)


def emit_resolve(E, dest_row: int) -> None:
    """dest := ((Sum + 2*Carry) conditionally minus M) per tile, in [0, M).

    Precondition: the latch holds Carry (always true right after the modmul
    loop).  t = Sum + Carry<<1 < 2M fits the lane, so its add cannot wrap and
    shifts globally; u = t - M mod 2^lane has an unambiguous sign bit thanks
    to the headroom column, and a smeared sign mask selects t (u negative)
    or u.
    """
    E.block(_resolve, (dest_row,))


def _resolve(E, dest_row: int) -> None:
    rm = E.rm
    E.shift_data(LEFT, obs="msb")              # Carry << 1, provably lossless
    E.wb(rm.carry_row)
    emit_add(E, rm.sum_row, rm.carry_row, rm.aux1,
             rm.aux2, rm.aux3, rm.mask_row, no_wrap=True)  # t < 2M
    emit_add(E, rm.aux1, rm.neg_modulus_row, rm.aux2,
             rm.aux3, rm.mask_row, rm.carry_row)                    # u = t - M
    _sign_select(E, rm.aux2, rm.aux1, rm.aux3, rm.mask_row, dest_row)


def _check_tail(E, op: str, rows: tuple) -> None:
    """Raise before emitting anything if the modulus leaves no headroom bit
    or an operand is one of the row map's working rows (the mask row may be
    one)."""
    if not E.ctx.has_headroom:
        raise ParameterError(f"modular {op} needs a headroom bit: modulus {E.ctx.modulus}, "
                             f"lane {E.ctx.lane_width}")
    working = E.rm.working_rows()
    for row in rows:
        if row in working:
            raise AddressError(f"modular {op} works in row {row}: it cannot be an operand")


def emit_modadd(E, a_row: int, b_row: int, dest_row: int) -> None:
    """dest := (a + b) mod M in the working rows Sum, Carry and aux1-3.
    Needs the headroom bit (M < 2^(lane-1)) and no operand among the working
    rows: raises ParameterError or AddressError before emitting anything."""
    _check_tail(E, "add", (a_row, b_row, dest_row))
    E.block(_modadd, (a_row, b_row, dest_row))


def _modadd(E, a_row: int, b_row: int, dest_row: int) -> None:
    rm = E.rm
    t_row, u_row, l_row, tmp, cs = rm.working_rows()
    emit_add(E, a_row, b_row, t_row, u_row, l_row, cs, no_wrap=True)  # a + b < 2M
    emit_add(E, t_row, rm.neg_modulus_row, u_row, l_row, tmp, cs)
    _sign_select(E, u_row, t_row, l_row, tmp, dest_row)   # a+b < M: keep t


def emit_modsub(E, a_row: int, b_row: int, dest_row: int) -> None:
    """dest := (a - b) mod M via two's complement; conditional +M by sign mask.
    Needs the headroom bit and takes no operand among its working rows, as
    ``emit_modadd`` does."""
    _check_tail(E, "subtract", (a_row, b_row, dest_row))
    E.block(_modsub, (a_row, b_row, dest_row))


def _modsub(E, a_row: int, b_row: int, dest_row: int) -> None:
    rm = E.rm
    p1, p2, p3, p4, p5 = rm.working_rows()
    E.act(b_row, rm.ones, XOR)                         # ~b within the lane
    E.wb(p1)
    emit_add3(E, a_row, p1, rm.lsb_mask, p2, p3, p4, p5)  # u = a-b
    emit_add(E, p2, rm.modulus_row, p3, p4, p5, p1)       # w = u+M
    _sign_select(E, p2, p3, p4, p5, dest_row)             # a < b: take w


# -- public operations -------------------------------------------------------

def compile_twiddle_commands(a_value: int, ctx: MontgomeryContext, rm: RowMap,
                             b_row: int, policy: ExecPolicy = ExecPolicy()) -> CommandStream:
    """Compile the multiplication-by-A micro-op stream (A appears only here).

    The stream starts with a 3-op prologue establishing Sum = Carry = 0 and
    contains, per bit position, the add-B block exactly when that bit of A is
    set; no data-dependent test on A remains at runtime.  The multiplicand
    row b_row may be no scratch or constant row of rm.
    """
    rm.validate()
    if b_row in rm.scratch_rows() + rm.constant_rows():
        raise AddressError(f"multiplicand row {b_row} is a scratch or constant row")
    E = Emitter(ctx, rm, policy)
    emit_modmul(E, a_value, b_row)
    return E.stream()

