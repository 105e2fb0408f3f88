"""Shared test machinery: batched in-array Montgomery multiplication runs,
and the paper-step count of a micro-op trace.

B operands are packed one per tile so a single command stream verifies many
cases at once.  B is reduced mod M at load time (Montgomery needs residue
multiplicands; the oracle value is unchanged by the reduction).
"""

from __future__ import annotations

from sramntt.bitparallel import (
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    default_rowmap,
    emit_modmul,
    emit_resolve,
    load_constants,
    pack_words,
    tiles_in,
    unpack_word,
)
from sramntt.subarray import ACTIVATE2, SHIFT, WRITEBACK, Subarray

B_ROW = 0

# the (order, q) rings of acceptance criterion 5, each on a 256 x 256 array
CRIT5_SETTINGS = [(4, 257), (8, 257), (256, 7681), (256, 8380417), (1024, 12289)]


class ModmulBench:
    """Reusable subarray wired for multiplications modulo one fixed modulus."""

    def __init__(self, modulus: int, width: int, rows: int = 32, cols: int = 256):
        self.ctx = MontgomeryContext.create(modulus, width)
        self.lane = self.ctx.lane_width
        self.tiles = tiles_in(cols, self.lane)
        self.arr = Subarray(rows, cols)
        self.rm = default_rowmap(rows)
        self.policy = ExecPolicy()
        self.emitter = Emitter(self.ctx, self.rm, self.policy, self.arr)
        load_constants(self.arr, self.rm, self.ctx)

    def run(self, a_value: int, b_values) -> list[int]:
        """One SIMD multiplication A * b_t * R^-1 mod M per tile; resolved values."""
        m = self.ctx.modulus
        reduced = [b % m for b in b_values]
        self.arr.write_row(B_ROW, pack_words(
            reduced + [0] * (self.tiles - len(reduced)), self.lane, self.arr.cols))
        emit_modmul(self.emitter, a_value, b_row=B_ROW)
        emit_resolve(self.emitter, self.rm.mask_row)
        bits = self.arr.read_row(self.rm.mask_row)
        return [unpack_word(bits, t, self.lane) for t in range(len(b_values))]


def modmul_value(a: int, b: int, modulus: int, width: int, **kw) -> int:
    """Single in-array Montgomery product (fresh bench per call)."""
    return ModmulBench(modulus, width, **kw).run(a, [b])[0]


def paper_steps(ops) -> int:
    """Count a micro-op trace in the paper's steps, the unit of its latency.

    One paper step activates two rows and writes back both logic results, with
    any shift fused into the writeback.  The rule:

    * a step is one ACTIVATE2;
    * a second ACTIVATE2 on the same two rows, with only WRITEBACKs since the
      first, joins the first one's step (the second result of a half-adder
      line), so a step holds at most two results;
    * WRITEBACK and SHIFT cost nothing: writebacks belong to their step and
      the paper's shifts are costless;
    * WRITE_ROW and ZERO_TEST cost one step each.

    Predication (the m-selection smear) is charged like any other activation.
    """
    steps = 0
    open_pair = None            # rows of a step that can still take a result
    for op in ops:
        kind = op[0]
        if kind == ACTIVATE2:
            pair = {op[1], op[2]}
            if pair == open_pair:
                open_pair = None
            else:
                steps += 1
                open_pair = pair
        elif kind != WRITEBACK:
            open_pair = None
            if kind != SHIFT:
                steps += 1
    return steps
