"""Ring setup, layout planning, and the in-array transform pipeline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramntt.bitparallel import ExecPolicy, MontgomeryContext
from sramntt.errors import CapacityError, ParameterError
from sramntt.ntt import (
    RingParams,
    TransformUnit,
    bit_reverse,
    bit_reverse_permute,
    find_roots,
    is_prime,
    layout_plan,
    polymul_negacyclic,
    polymul_pipeline,
    precompute_twiddles,
)
from sramntt.oracle import oracle_intt, oracle_ntt, schoolbook_negacyclic
from sramntt.subarray import WRITE_ROW, WRITEBACK


def test_find_roots_known_rings():
    psi = find_roots(7681, 256)
    assert pow(psi, 256, 7681) == 7680
    psi = find_roots(8380417, 256)
    assert pow(psi, 256, 8380417) == 8380416
    with pytest.raises(ParameterError):
        find_roots(3329, 256)           # 3329 != 1 mod 512
    with pytest.raises(ParameterError):
        find_roots(7680, 256)           # composite


def test_find_roots_smallest_and_deterministic():
    psi = find_roots(257, 4)
    assert psi == 4 and all(pow(x, 4, 257) != 256 for x in range(2, 4))
    assert find_roots(257, 4) == find_roots(257, 4)


def linear_scan_psi(q, order):
    """The definition of psi, scanned the slow way: the least root of x^order = -1."""
    return next(x for x in range(2, q) if pow(x, order, q) == q - 1)


@pytest.mark.parametrize("q", [257, 7681, 12289, 8380417])
def test_find_roots_equals_linear_scan(q):
    orders = [1 << k for k in range(1, 9) if (q - 1) % (1 << (k + 1)) == 0]
    assert orders
    for order in orders:
        assert find_roots(q, order) == linear_scan_psi(q, order), order


def test_find_roots_large_prime_is_fast():
    q = 18014398509404161                    # 54-bit prime, 4096 | q - 1
    ring = RingParams.create(q, 2048)
    assert pow(ring.psi, 2048, q) == q - 1


def test_twiddle_table_shape_and_scaling():
    ring = RingParams.create(257, 4)
    ctx = MontgomeryContext.for_ring(ring.q, ring.width)
    table = precompute_twiddles(ring, ctx)
    assert table.forward[0] == 0 and table.inverse[0] == 0
    assert all(table.forward[k] for k in range(1, 4))      # 3 entries, k = 1..3
    # applying the scaled twiddle through a Montgomery product is plain zeta*x
    from harness import modmul_value
    r_inv = pow(ctx.radix, -1, ring.q)
    rng = random.Random(0)
    for k in range(1, 4):
        zeta = table.forward[k] * r_inv % ring.q
        for _ in range(4):
            x = rng.randrange(ring.q)
            assert modmul_value(table.forward[k], x, ring.q, ctx.width) == zeta * x % ring.q


def test_negacyclic_inverse_equals_negated_forward():
    ring = RingParams.create(257, 8)
    ctx = MontgomeryContext.for_ring(ring.q, ring.width)
    t = precompute_twiddles(ring, ctx)
    r_inv = pow(ctx.radix, -1, ring.q)
    for k in range(1, 8):
        fwd = t.forward[k] * r_inv % ring.q
        inv = t.inverse[k] * r_inv % ring.q
        assert inv == (ring.q - fwd) % ring.q


@pytest.mark.parametrize("q, order", [(17, 8), (97, 16), (257, 8), (7681, 256),
                                      (12289, 1024), (8380417, 256)])
def test_inverse_twiddles_invert_the_paired_forward_block(q, order):
    """The Gentleman-Sande block k in band [L, 2L) undoes the Cooley-Tukey
    block 3L - 1 - k: its twiddle is that one's inverse, Montgomery-scaled."""
    ring = RingParams.create(q, order)
    ctx = MontgomeryContext.for_ring(q, ring.width)
    t = precompute_twiddles(ring, ctx)
    r = ctx.radix % q
    r_inv = pow(r, -1, q)
    band = 1
    while band < order:
        for k in range(band, 2 * band):
            paired = t.forward[3 * band - 1 - k] * r_inv % q
            assert t.inverse[k] == pow(paired, -1, q) * r % q, (band, k)
        band *= 2


def test_layout_capacity_claims():
    assert layout_plan(256, 256, 256, 1).capacity == 250
    assert layout_plan(256, 256, 14, 1).capacity == 4500
    plan = layout_plan(256, 256, 16, 256)
    assert plan.tiles == 16
    assert plan.swapped and plan.resident_rows == 244
    with pytest.raises(CapacityError):
        layout_plan(256, 256, 256, 251)
    with pytest.raises(CapacityError):
        layout_plan(256, 256, 16, 4096)


def test_a_swapped_layout_needs_two_slots():
    """One slot would hold both operands of every butterfly."""
    assert layout_plan(13, 8, 4, 1).resident_rows == 1         # no swap: fine
    for rows, order in ((13, 2), (14, 4), (14, 64)):           # 1 slot, or 2 cut to 1
        with pytest.raises(CapacityError, match="too few coefficient slots"):
            layout_plan(rows, 64, 4, order)
    assert layout_plan(15, 64, 4, 4).resident_rows == 3


def test_layout_rowmap_disjoint_from_coefficients():
    plan = layout_plan(256, 256, 16, 200)
    special = set(plan.rowmap.scratch_rows()) | set(plan.rowmap.constant_rows())
    assert not special & set(plan.coeff_rows)
    assert len(special) == 12


def test_bit_reverse_permute():
    p = list(range(8))
    out = bit_reverse_permute(p)
    assert out[1] == 4 and out[4] == 1 and out[3] == 6 and out[6] == 3
    assert bit_reverse_permute(out) == p
    assert bit_reverse_permute([5, 9]) == [5, 9]


def fwd_unit(ring, polys, rows=64, cols=64, **kw):
    unit = TransformUnit(ring, rows, cols, **kw)
    unit.load_polynomials(polys)
    unit.forward()
    return unit


def test_forward_matches_oracle_spot():
    ring = RingParams.create(257, 4)
    unit = fwd_unit(ring, [[1, 0, 0, 0]])
    got = unit.read_polynomials(1)[0]
    want = oracle_ntt([1, 0, 0, 0], ring.q, ring.psi)
    assert got == [want[bit_reverse(i, 2)] for i in range(4)]


def test_forward_constant_polynomial():
    ring = RingParams.create(257, 8)
    c = 9
    unit = fwd_unit(ring, [[c] + [0] * 7])
    got = unit.read_polynomials(1)[0]
    want = oracle_ntt([c] + [0] * 7, ring.q, ring.psi)
    assert got == [want[bit_reverse(i, 3)] for i in range(8)]


def test_forward_linearity():
    ring = RingParams.create(257, 8)
    rng = random.Random(4)
    a = [rng.randrange(257) for _ in range(8)]
    b = [rng.randrange(257) for _ in range(8)]
    ab = [(x + y) % 257 for x, y in zip(a, b)]
    fa = fwd_unit(ring, [a]).read_polynomials(1)[0]
    fb = fwd_unit(ring, [b]).read_polynomials(1)[0]
    fab = fwd_unit(ring, [ab]).read_polynomials(1)[0]
    assert fab == [(x + y) % 257 for x, y in zip(fa, fb)]


def test_roundtrip_and_butterfly_count():
    ring = RingParams.create(257, 8)
    rng = random.Random(5)
    polys = [[rng.randrange(257) for _ in range(8)] for _ in range(3)]
    unit = fwd_unit(ring, polys)
    assert unit.butterflies == (8 // 2) * 3            # (order/2) * log2(order)
    unit.inverse()
    assert unit.read_polynomials(3) == polys
    assert unit.butterflies == 8 * 3                   # order * log2(order): no scaled row


def test_intt_of_constant_spectrum():
    ring = RingParams.create(257, 8)
    c = 123
    unit = TransformUnit(ring, 64, 64)
    unit.load_polynomials([[c] * 8])
    unit.inverse()
    got = unit.read_polynomials(1)[0]
    assert got == oracle_intt([c] * 8, ring.q, ring.psi)
    assert got == [c] + [0] * 7


def test_simd_tiles_match_isolated_runs():
    ring = RingParams.create(257, 8)
    rng = random.Random(6)
    polys = [[rng.randrange(257) for _ in range(8)] for _ in range(4)]
    batched = fwd_unit(ring, polys).read_polynomials(4)
    isolated = [fwd_unit(ring, [p]).read_polynomials(1)[0] for p in polys]
    assert batched == isolated


def test_polymul_identities_and_random():
    ring = RingParams.create(257, 8)
    rng = random.Random(7)
    a = [rng.randrange(257) for _ in range(8)]
    unit_poly = [1] + [0] * 7
    assert polymul_negacyclic(a, unit_poly, ring, 64, 64) == a
    x = [0, 1] + [0] * 6
    xtop = [0] * 7 + [1]
    assert polymul_negacyclic(x, xtop, ring, 64, 64) == [256] + [0] * 7
    b = [rng.randrange(257) for _ in range(8)]
    assert polymul_negacyclic(a, b, ring, 64, 64) == schoolbook_negacyclic(a, b, 257)


def test_polymul_batched_pipeline():
    ring = RingParams.create(7681, 16, 16)
    rng = random.Random(8)
    a_polys = [[rng.randrange(7681) for _ in range(16)] for _ in range(5)]
    b = [rng.randrange(7681) for _ in range(16)]
    products, unit_a, _ = polymul_pipeline(a_polys, b, ring)
    for a, c in zip(a_polys, products):
        assert c == schoolbook_negacyclic(a, b, 7681)
    assert unit_a.butterflies == 2 * (16 // 2) * 4     # forward + inverse


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "data-dependent"])
@pytest.mark.parametrize("order,rows,cols", [(8, 64, 64), (32, 32, 64)], ids=["resident", "swapped"])
def test_inverse_of_a_spectrum_takes_the_pointwise_product(order, rows, cols, deterministic):
    """inverse(s) reads back what pointwise_by(s) and then inverse() do, and
    pays one scaling pass where they pay two."""
    ring = RingParams.create(257, order)
    policy = ExecPolicy(deterministic=deterministic)
    rng = random.Random(order)
    spectrum = [rng.randrange(257) for _ in range(order)]
    two_passes = TransformUnit(ring, rows, cols, policy)
    assert two_passes.layout.swapped == (order == 32)
    spectra = [[rng.randrange(257) for _ in range(order)] for _ in range(two_passes.layout.tiles)]
    two_passes.load_polynomials(spectra)
    two_passes.pointwise_by(spectrum)
    two_passes.inverse()
    one_pass = TransformUnit(ring, rows, cols, policy)
    one_pass.load_polynomials(spectra)
    one_pass.inverse(spectrum)
    assert one_pass.read_polynomials() == two_passes.read_polynomials()
    assert len(one_pass.arr.trace) < len(two_passes.arr.trace)


# a spectrum entry must be an int residue: no reduction, no bool, no float
BAD_MULTIPLIERS = {"q": 257, "above-q": 258, "negative": -1, "bool": True, "float": 1.5}


@pytest.mark.parametrize("call", ["pointwise_by", "inverse"])
@pytest.mark.parametrize("bad", BAD_MULTIPLIERS.values(), ids=BAD_MULTIPLIERS.keys())
def test_a_multiplier_that_is_not_a_residue_is_rejected_before_any_op(call, bad):
    ring = RingParams.create(257, 8)
    unit = TransformUnit(ring, 64, 64)
    unit.load_polynomials([[1] * 8])
    ops = len(unit.arr.trace)
    with pytest.raises(ParameterError, match="not an integer residue"):
        getattr(unit, call)([5] * 7 + [bad])
    assert len(unit.arr.trace) == ops
    with pytest.raises(ParameterError, match="length"):
        getattr(unit, call)([5] * 7)


def test_swapped_layout_roundtrip_and_product():
    ring = RingParams.create(257, 32)
    rng = random.Random(9)
    unit = TransformUnit(ring, rows=32, cols=64)
    assert unit.layout.swapped
    polys = [[rng.randrange(257) for _ in range(32)] for _ in range(unit.layout.tiles)]
    unit.load_polynomials(polys)
    unit.forward()
    unit.inverse()
    assert unit.read_polynomials(len(polys)) == polys
    a = [rng.randrange(257) for _ in range(32)]
    b = [rng.randrange(257) for _ in range(32)]
    assert polymul_negacyclic(a, b, ring, 32, 64) == schoolbook_negacyclic(a, b, 257)


def test_in_place_row_discipline():
    """The transform writes only coefficient rows and the six scratch rows."""
    ring = RingParams.create(257, 8)
    unit = fwd_unit(ring, [[1, 2, 3, 4, 5, 6, 7, 8]])
    allowed_wb = set(unit.layout.coeff_rows) | set(unit.rm.scratch_rows())
    allowed_write = allowed_wb | set(unit.rm.constant_rows())
    for op in unit.arr.trace:
        if op[0] == WRITEBACK:
            assert op[1] in allowed_wb
        elif op[0] == WRITE_ROW:
            assert op[1] in allowed_write


def test_load_validation():
    ring = RingParams.create(257, 8)
    unit = TransformUnit(ring, 64, 64)
    with pytest.raises(ParameterError):
        unit.load_polynomials([[300] * 8])
    with pytest.raises(ParameterError):
        unit.load_polynomials([[1] * 7])
    with pytest.raises(CapacityError):
        unit.load_polynomials([[0] * 8] * (unit.layout.tiles + 1))
    for bad in (True, 1.5):
        with pytest.raises(ParameterError):
            unit.load_polynomials([[bad] + [0] * 7])


def test_read_count_is_an_int_within_the_tiles():
    """Reading 9 of order 8's six 10-bit tiles on 64 x 64 would read zero
    rows past the tiles, and -1 nothing; neither, nor a bool, is a count."""
    ring = RingParams.create(257, 8)
    polys = [[1, 2, 3, 4, 5, 6, 7, 8]]
    unit = TransformUnit(ring, 64, 64)
    unit.load_polynomials(polys)
    assert unit.layout.tiles == 6
    for bad in (9, -1, True):
        with pytest.raises(ParameterError, match="count"):
            unit.read_polynomials(bad)
    assert unit.read_polynomials(0) == []
    assert unit.read_polynomials(1) == polys
    assert len(unit.read_polynomials()) == len(unit.read_polynomials(6)) == 6


def test_width_handling():
    with pytest.raises(ParameterError):
        RingParams.create(7681, 256, 12)       # cannot represent residues
    # width == ceil(log2 q) is accepted; the lane grows one headroom column,
    # and the word is the ring width
    ring = RingParams.create(7681, 16, 13)
    unit = TransformUnit(ring, 64, 64)
    assert unit.ctx.lane_width == 14 and unit.layout.tile_width == 14 and unit.ctx.width == 13
    rng = random.Random(11)
    polys = [[rng.randrange(7681) for _ in range(16)] for _ in range(2)]
    unit.load_polynomials(polys)
    unit.forward()
    unit.inverse()
    assert unit.read_polynomials(2) == polys


# -- differential: small configurations against the oracles -------------------

# primes q with 2*order | q - 1: every one below 2^14 per order, and two wide ones
PRIMES = {1 << k: [q for q in range(2 * (1 << k) + 1, 1 << 14, 2 * (1 << k)) if is_prime(q)]
          for k in range(1, 6)}
WIDE_PRIMES = (65537, 8380417)


@st.composite
def small_configurations(draw):
    """A ring with n <= 32, its width with or without a headroom bit, an array
    that does or does not force host swap, and an execution policy."""
    order = draw(st.sampled_from(sorted(PRIMES)))
    q = draw(st.sampled_from(PRIMES[order]) | st.sampled_from(WIDE_PRIMES))
    min_width = max((q - 1).bit_length(), 3)
    ring = RingParams.create(q, order, min_width + draw(st.integers(0, 1)))
    lane = MontgomeryContext.for_ring(q, ring.width).lane_width
    # 12 rows hold scratch and constants; a tile keeps rows - 12 coefficients,
    # and a swapped tile at least 3 (2 would be cut to 1, which every span collides on)
    swap = order > 2 and draw(st.booleans())
    rows = draw(st.integers(15, order + 11) if swap else st.integers(order + 12, order + 16))
    tiles = -(-order // (rows - 6)) + draw(st.integers(0, 1))
    cols = tiles * lane + draw(st.integers(0, lane - 1))
    policy = ExecPolicy(deterministic=draw(st.booleans()), tile_scope_all=draw(st.booleans()))
    return ring, rows, cols, policy, swap


@given(small_configurations(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_small_configurations_match_the_oracles(config, rng):
    """Forward, roundtrip and polymul agree with the array-free oracles."""
    ring, rows, cols, policy, swap = config
    q, n = ring.q, ring.order
    unit = TransformUnit(ring, rows, cols, policy)
    assert unit.layout.swapped == swap
    polys = [[rng.randrange(q) for _ in range(n)] for _ in range(unit.layout.tiles)]
    unit.load_polynomials(polys)
    unit.forward()
    assert unit.read_polynomials() == [bit_reverse_permute(oracle_ntt(p, q, ring.psi))
                                       for p in polys]
    unit.inverse()
    assert unit.read_polynomials() == polys
    b = [rng.randrange(q) for _ in range(n)]
    products, _, _ = polymul_pipeline(polys, b, ring, rows, cols, policy)
    assert products == [schoolbook_negacyclic(p, b, q) for p in polys]
