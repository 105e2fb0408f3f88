"""Self-consistency of the array-free reference implementations."""

import random

import pytest

from sramntt.errors import ParameterError
from sramntt.ntt import find_roots
from sramntt.oracle import (
    modinv,
    oracle_intt,
    oracle_montmul,
    oracle_ntt,
    schoolbook_negacyclic,
)


def test_montmul_examples():
    assert oracle_montmul(4, 3, 7, 3) == 5
    assert oracle_montmul(0, 6, 7, 3) == 0
    assert oracle_montmul(1, 1, 9, 4) == modinv(16, 9)
    assert modinv(16, 9) == 4
    with pytest.raises(ParameterError):
        oracle_montmul(1, 1, 8, 3)


def test_ntt_zero_and_roundtrip():
    q, order = 257, 8
    psi = find_roots(q, order)
    assert oracle_ntt([0] * order, q, psi) == [0] * order
    rng = random.Random(0)
    for _ in range(20):
        a = [rng.randrange(q) for _ in range(order)]
        assert oracle_intt(oracle_ntt(a, q, psi), q, psi) == a


def test_golden_vector_order4():
    # frozen from this oracle at build time: q=257, psi=4, a=(1,2,3,4)
    q = 257
    psi = find_roots(q, 4)
    assert psi == 4
    golden = oracle_ntt([1, 2, 3, 4], q, psi)
    assert golden == [56, 97, 42, 66]
    assert oracle_intt(golden, q, psi) == [1, 2, 3, 4]


def test_schoolbook_identities():
    q, order = 257, 8
    rng = random.Random(1)
    a = [rng.randrange(q) for _ in range(order)]
    unit = [1] + [0] * (order - 1)
    assert schoolbook_negacyclic(a, unit, q) == a
    x = [0, 1] + [0] * (order - 2)
    x_top = [0] * (order - 1) + [1]
    expect = [q - 1] + [0] * (order - 1)
    assert schoolbook_negacyclic(x, x_top, q) == expect
    with pytest.raises(ParameterError):
        schoolbook_negacyclic([1, 2], [1], q)


def test_convolution_theorem_consistency():
    q, order = 257, 8
    psi = find_roots(q, order)
    rng = random.Random(2)
    for _ in range(10):
        a = [rng.randrange(q) for _ in range(order)]
        b = [rng.randrange(q) for _ in range(order)]
        fa = oracle_ntt(a, q, psi)
        fb = oracle_ntt(b, q, psi)
        prod = [x * y % q for x, y in zip(fa, fb)]
        assert oracle_intt(prod, q, psi) == schoolbook_negacyclic(a, b, q)
