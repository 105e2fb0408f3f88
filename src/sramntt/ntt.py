"""Negacyclic NTT pipeline on the simulated subarray.

Layout: each tile holds one polynomial, one coefficient per row, so butterfly
operands are picked purely by row address (no word-alignment shifting ever).
The forward transform is in-place Cooley-Tukey with merged psi powers in
bit-reversed twiddle order (output bit-reversed); the inverse is
Gentleman-Sande consuming bit-reversed input.  The inverse pays one scaling
pass, ahead of its sweep: one multiplication per coefficient by n^-1, or by
spectrum[c] * n^-1 when it also takes the pointwise product.  Twiddles and
these multipliers are stored pre-multiplied by R = 2^(lane-1), the
Montgomery radix of the word one headroom column narrower than the lane, so
the Montgomery products come out plain.

Each transform is written once, as a list of (kernel, constant index,
coefficients) steps: ``forward_steps``, or ``inverse_steps`` (``scale_steps``
then the sweep).  ``TransformUnit`` runs it and ``perf.estimate`` counts it.

Coefficient rows beyond the per-tile resident capacity are staged by the host
(WRITE_ROW swaps, identical row indices in every tile), which keeps the SIMD
schedule shared across tiles for any polynomial order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitparallel import (
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    RowMap,
    default_rowmap,
    emit_modadd,
    emit_modmul,
    emit_modsub,
    emit_resolve,
    load_constants,
    pack_words,
    unpack_word,
)
from .errors import CapacityError, ParameterError
from .subarray import MAX_ROWS, OR, Subarray

# read off the row map, so that a row added to it moves the layout with it
SCRATCH_ROWS = len(default_rowmap(MAX_ROWS).scratch_rows())
CONSTANT_ROWS = len(default_rowmap(MAX_ROWS).constant_rows())

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for anything a modulus here can be)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_order(order: int) -> None:
    if order < 2 or order & (order - 1):
        raise ParameterError(f"order must be a power of two >= 2, got {order}")


def check_ring(q: int, order: int, width: int | None = None) -> int:
    """Check a ring without its O(order) root search; return its coefficient
    width (by default the residues' width plus a headroom bit)."""
    check_order(order)
    if not is_prime(q):
        raise ParameterError(f"modulus {q} is not prime")
    if (q - 1) % (2 * order) != 0:
        raise ParameterError(
            f"no 2*{order}-th root of unity: {q} != 1 (mod {2 * order})"
        )
    min_width = max((q - 1).bit_length(), 3)
    if width is None:
        return min_width + 1
    if width < min_width:
        raise ParameterError(f"width {width} cannot represent residues mod {q}")
    return width


def find_roots(q: int, order: int) -> int:
    """Smallest psi with psi^order = -1 mod q.

    psi^order = -1 holds exactly for the primitive 2*order-th roots of unity.
    For any g, z = g^((q-1)/(2*order)) has z^order = g^((q-1)/2), the Legendre
    symbol of g, so the first quadratic non-residue g gives one primitive root
    z; the others are the odd powers z^k, k < 2*order, and psi is their
    minimum.  That is O(order) multiplications however large q is.
    """
    check_ring(q, order)
    g = 2
    while pow(g, (q - 1) // 2, q) != q - 1:
        g += 1
    z = pow(g, (q - 1) // (2 * order), q)
    z2 = z * z % q
    psi = root = z
    for _ in range(order - 1):
        root = root * z2 % q
        psi = min(psi, root)
    return psi


def bit_reverse(x: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def bit_reverse_permute(coeffs):
    """out[i] = in[bitrev(i)]; involutive."""
    n = len(coeffs)
    if n & (n - 1):
        raise ParameterError("length must be a power of two")
    bits = n.bit_length() - 1
    return [coeffs[bit_reverse(i, bits)] for i in range(n)]


@dataclass(frozen=True)
class RingParams:
    """Z_q[x]/(x^order + 1) with a chosen coefficient bitwidth."""

    q: int
    order: int
    psi: int
    width: int

    @classmethod
    def create(cls, q: int, order: int, width: int | None = None) -> "RingParams":
        width = check_ring(q, order, width)
        return cls(q=q, order=order, psi=find_roots(q, order), width=width)

    @property
    def log2_order(self) -> int:
        return self.order.bit_length() - 1


@dataclass(frozen=True)
class TwiddleTable:
    """Montgomery-scaled butterfly constants, bit-reversed twiddle indexing.

    forward[k] feeds the k-th Cooley-Tukey block (k = 1..order-1, pre-increment
    order); inverse[k] is the negated counterpart for the Gentleman-Sande
    sweep; scale_inv_r is n^-1 * R mod q, the multiplier of the inverse's
    scaling pass, or its factor when the pass also takes a pointwise product.
    """

    forward: tuple[int, ...]
    inverse: tuple[int, ...]
    scale_inv_r: int


def precompute_twiddles(ring: RingParams, ctx: MontgomeryContext) -> TwiddleTable:
    """Forward table psi^bitrev(k) * R and the paired inverse table.

    The Gentleman-Sande sweep visits the (length, start) blocks in reverse
    stage order, so inverse index k_i within the per-stage band [L, 2L) pairs
    with forward index k_f = 3L - 1 - k_i; the block needs the modular
    inverse of that forward twiddle, Montgomery-scaled, which equals the
    negated forward twiddle at k_i (psi^order = -1).
    """
    q = ring.q
    r = ctx.radix % q
    bits = ring.log2_order
    fwd = [0] + [pow(ring.psi, bit_reverse(k, bits), q) * r % q for k in range(1, ring.order)]
    n_inv = pow(ring.order, -1, q)
    return TwiddleTable(forward=tuple(fwd), inverse=tuple(-z % q for z in fwd),
                        scale_inv_r=n_inv * r % q)


@dataclass(frozen=True)
class TileLayout:
    """Row/column assignment of one subarray for SIMD transforms.

    capacity counts coefficient space the headline way (rows minus the scratch
    rows, times tiles); resident_rows is what one tile can actually keep
    while the constant rows are loaded; the gap is host-swapped.
    """

    rows: int
    cols: int
    tile_width: int
    tiles: int
    order: int
    coeff_rows: tuple[int, ...]
    rowmap: RowMap
    capacity: int
    resident_rows: int

    @property
    def swapped(self) -> bool:
        return self.order > self.resident_rows


def resident_rows(rows: int, order: int) -> int:
    """Coefficient rows a tile can keep loaded alongside scratch and constants.

    In the host-swap regime the direct-mapped slot count must not divide any
    butterfly span (a power of two), or a pair could collide on one slot; one
    row is dropped to force an odd factor in.  A single slot divides every
    span, so a swapped layout with one slot has no resident rows at all.
    """
    resident = rows - SCRATCH_ROWS - CONSTANT_ROWS
    if order > resident and resident > 1 and resident & (resident - 1) == 0:
        resident -= 1
    return 0 if order > resident == 1 else resident


def layout_plan(rows: int, cols: int, width: int, order: int) -> TileLayout:
    if width < 3:
        raise ParameterError(f"coefficient width must be >= 3, got {width}")
    tiles = cols // width
    if tiles < 1:
        raise CapacityError(f"no {width}-bit tile fits in {cols} columns")
    capacity = tiles * (rows - SCRATCH_ROWS)
    if order > capacity:
        raise CapacityError(
            f"order {order} exceeds array capacity {capacity} "
            f"({tiles} tiles x {rows - SCRATCH_ROWS} coefficient rows)"
        )
    resident = resident_rows(rows, order)
    if resident < 1:
        raise CapacityError(f"{rows} rows leave too few coefficient slots")
    rowmap = default_rowmap(rows)
    return TileLayout(
        rows=rows, cols=cols, tile_width=width, tiles=tiles, order=order,
        coeff_rows=tuple(range(resident)), rowmap=rowmap,
        capacity=capacity, resident_rows=resident,
    )


def forward_butterfly(E, twiddle: int, rj: int, rl: int) -> None:
    """One Cooley-Tukey butterfly on rows rj and rl: t = twiddle * a[rl] * R^-1,
    then a[rl] := a[rj] - t and a[rj] := a[rj] + t, all mod q.  The product
    lands in the mask row, which modsub and modadd read as t."""
    mask = E.rm.mask_row
    emit_modmul(E, twiddle, b_row=rl)
    emit_resolve(E, mask)
    emit_modsub(E, rj, mask, rl)
    emit_modadd(E, rj, mask, rj)


def inverse_butterfly(E, twiddle: int, rj: int, rl: int) -> None:
    """One Gentleman-Sande butterfly on rows rj and rl: a[rj] := a[rj] + a[rl]
    and a[rl] := twiddle * (a[rj] - a[rl]) * R^-1, all mod q.  The difference
    is parked in the dead a[rl] row, as the multiplication predicates on the
    mask row; the flush runs the park before its compiled blocks."""
    rm = E.rm
    emit_modsub(E, rj, rl, rm.mask_row)
    emit_modadd(E, rj, rl, rj)
    E.act(rm.mask_row, rm.zeros, OR)
    E.wb(rl)
    E.flush()
    emit_modmul(E, twiddle, b_row=rl)
    emit_resolve(E, rl)


def scale_row(E, multiplier: int, row: int) -> None:
    """row := multiplier * row * R^-1 mod q."""
    emit_modmul(E, multiplier, b_row=row)
    emit_resolve(E, row)


def forward_steps(order: int):
    """The in-place Cooley-Tukey sweep as (kernel, twiddle index, coefficients)
    steps, k indexing ``TwiddleTable.forward``."""
    k = 0
    length = order // 2
    while length >= 1:
        for start in range(0, order, 2 * length):
            k += 1
            for j in range(start, start + length):
                yield forward_butterfly, k, (j, j + length)
        length //= 2


def scale_steps(order: int):
    """One scaling step per coefficient c, by multiplier c."""
    return ((scale_row, c, (c,)) for c in range(order))


def inverse_steps(order: int):
    """The scaling pass, then the Gentleman-Sande sweep.  The constants are
    the order multipliers followed by ``TwiddleTable.inverse``, so the
    sweep's twiddle k has index order + k."""
    yield from scale_steps(order)
    k = order
    length = 1
    while length < order:
        for start in range(0, order, 2 * length):
            k -= 1
            for j in range(start, start + length):
                yield inverse_butterfly, order + k, (j, j + length)
        length *= 2


class TransformUnit:
    """One subarray loaded for SIMD transforms: up to `tiles` polynomials,
    shared command schedule, host-swapped rows when the order outgrows the
    per-tile residency."""

    def __init__(self, ring: RingParams, rows: int = 256, cols: int = 256,
                 policy: ExecPolicy = ExecPolicy()):
        self.ring = ring
        # the lane is one column wider than the ring width when that leaves
        # no headroom bit, so modular add/sub always have one; the word is
        # the lane minus that bit
        self.ctx = MontgomeryContext.for_ring(ring.q, ring.width)
        self.layout = layout_plan(rows, cols, self.ctx.lane_width, ring.order)
        self.table = precompute_twiddles(ring, self.ctx)
        self.policy = policy
        self.arr = Subarray(rows, cols)
        self.rm = self.layout.rowmap
        self.emitter = Emitter(self.ctx, self.rm, policy, self.arr)
        load_constants(self.arr, self.rm, self.ctx)
        self._host: list[int] = [0] * ring.order        # packed row per coefficient
        self._slot_virt: list[int | None] = [None] * self.layout.resident_rows
        self.butterflies = 0

    # -- residency -----------------------------------------------------

    def _ensure(self, coeff: int) -> int:
        slot = coeff % self.layout.resident_rows
        row = self.layout.coeff_rows[slot]
        occupant = self._slot_virt[slot]
        if occupant != coeff:
            if occupant is not None:
                self._host[occupant] = self.arr.read_row(row)
            self.arr.write_row(row, self._host[coeff])
            self._slot_virt[slot] = coeff
        return row

    def load_polynomials(self, polys) -> None:
        """One polynomial per tile (extra tiles stay zero); standard order in."""
        tiles = self.layout.tiles
        order = self.ring.order
        if len(polys) > tiles:
            raise CapacityError(f"{len(polys)} polynomials for {tiles} tiles")
        lane = self.ctx.lane_width
        for p in polys:
            self._check_residues(p, "polynomial")
        for c in range(order):
            words = [p[c] for p in polys]
            self._host[c] = pack_words(words + [0] * (tiles - len(words)),
                                       lane, self.arr.cols)
        self._slot_virt = [None] * self.layout.resident_rows
        for c in range(min(order, self.layout.resident_rows)):
            self._ensure(c)

    def read_polynomials(self, count: int | None = None) -> list[list[int]]:
        if count is None:
            count = self.layout.tiles
        # type() rather than isinstance(): bool is an int subclass
        if type(count) is not int or not 0 <= count <= self.layout.tiles:
            raise ParameterError(f"count {count!r} is not an integer in [0, {self.layout.tiles}]")
        lane = self.ctx.lane_width
        out = [[0] * self.ring.order for _ in range(count)]
        for c in range(self.ring.order):
            slot = c % self.layout.resident_rows
            if self._slot_virt[slot] == c:
                bits = self.arr.read_row(self.layout.coeff_rows[slot])
            else:
                bits = self._host[c]
            for t in range(count):
                out[t][c] = unpack_word(bits, t, lane)
        return out

    def _check_residues(self, values, what: str) -> None:
        """`order` values, each an int in [0, q): none is reduced or coerced."""
        if len(values) != self.ring.order:
            raise ParameterError(f"{what} length must equal the ring order")
        q = self.ring.q
        for v in values:
            # type() rather than isinstance(): bool is an int subclass
            if type(v) is not int or not 0 <= v < q:
                raise ParameterError(f"{what} entry {v!r} is not an integer residue in [0, {q})")

    # -- transforms ------------------------------------------------------

    def _run(self, steps, constants) -> None:
        """Each step's kernel on its constant and its coefficients' rows."""
        E = self.emitter
        for kernel, i, coeffs in steps:
            kernel(E, constants[i], *map(self._ensure, coeffs))
            if kernel is not scale_row:
                self.butterflies += 1

    def forward(self) -> None:
        """In-place forward transform; rows end up holding the bit-reversed spectrum."""
        self._run(forward_steps(self.ring.order), self.table.forward)

    def inverse(self, spectrum=None) -> None:
        """Gentleman-Sande inverse on a bit-reversed spectrum; standard order out.

        One scaling pass runs ahead of the sweep: row c is multiplied by n^-1,
        or by spectrum[c] * n^-1 when a multiplier spectrum (bit-reversed
        order) is given, so that the inverse also takes the pointwise product
        that ``pointwise_by(spectrum)`` would.  Scaling by n^-1 commutes with
        the linear sweep, so it joins the pointwise multiplier, and either way
        each row pays one modmul and one resolve.
        """
        if spectrum is not None:
            self._check_residues(spectrum, "spectrum")
        scale, q = self.table.scale_inv_r, self.ring.q
        multipliers = [v * scale % q for v in spectrum or [1] * self.ring.order]
        self._run(inverse_steps(self.ring.order), multipliers + list(self.table.inverse))

    def pointwise_by(self, spectrum) -> None:
        """Multiply the resident spectra by a shared spectrum (bit-reversed order).

        The multiplier values are compiled into the command stream after
        Montgomery pre-scaling, exactly like twiddles.  A product headed for
        the inverse costs less as ``inverse(spectrum)``, which takes it in the
        inverse's own scaling pass.
        """
        self._check_residues(spectrum, "spectrum")
        q = self.ring.q
        r = self.ctx.radix % q
        self._run(scale_steps(self.ring.order), [v * r % q for v in spectrum])


def polymul_pipeline(a_polys, b, ring: RingParams, rows: int = 256, cols: int = 256,
                     policy: ExecPolicy = ExecPolicy()):
    """NTT(a_i) * NTT(b) -> INTT, batched one a-polynomial per tile.

    Returns (products, unit_a, unit_b); the units expose traces and stats.
    The b spectrum is read out once and compiled, times n^-1, into the
    inverse's scaling pass (``inverse(b_hat)``), so it is shared by every
    tile and the product and the n^-1 scaling cost one pass together.
    """
    unit_b = TransformUnit(ring, rows, cols, policy)
    unit_b.load_polynomials([list(b)])
    unit_b.forward()
    b_hat = unit_b.read_polynomials(1)[0]
    unit_a = TransformUnit(ring, rows, cols, policy)
    unit_a.load_polynomials([list(p) for p in a_polys])
    unit_a.forward()
    unit_a.inverse(b_hat)
    return unit_a.read_polynomials(len(a_polys)), unit_a, unit_b


def polymul_negacyclic(a, b, ring: RingParams, rows: int = 256, cols: int = 256,
                       policy: ExecPolicy = ExecPolicy()):
    """a * b in Z_q[x]/(x^order + 1), entirely through the array pipeline."""
    products, _, _ = polymul_pipeline([a], b, ring, rows, cols, policy)
    return products[0]
