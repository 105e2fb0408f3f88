"""Array-free ground truth: big-integer Montgomery product, direct quadratic
NTT/INTT, and schoolbook and Kronecker-substitution negacyclic multiplication.

Deliberately naive (no FFT structure, no carry-save tricks) so these share
nothing with the in-array code paths they judge.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError


@lru_cache(maxsize=64)
def modinv(a: int, m: int) -> int:
    """Inverse of a mod m; cached, as the exhaustive multiplier checks ask
    for (2^width)^-1 mod M millions of times on a few pairs."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ParameterError(f"{a} has no inverse mod {m}") from None


def oracle_montmul(a: int, b: int, modulus: int, width: int) -> int:
    """Exact a * b * (2^width)^-1 mod modulus."""
    if modulus % 2 == 0:
        raise ParameterError("Montgomery modulus must be odd")
    return (a * b * modinv(1 << width, modulus)) % modulus


def oracle_ntt(coeffs, q: int, psi: int) -> list[int]:
    """Negacyclic transform by direct evaluation at the odd powers psi^(2k+1)."""
    n = len(coeffs)
    out = []
    for k in range(n):
        root = pow(psi, 2 * k + 1, q)
        acc = 0
        x = 1
        for c in coeffs:
            acc += c * x
            x = x * root % q
        out.append(acc % q)
    return out


def oracle_intt(spectrum, q: int, psi: int) -> list[int]:
    """Inverse of oracle_ntt (direct sum; oracle_intt(oracle_ntt(a)) == a)."""
    n = len(spectrum)
    n_inv = modinv(n, q)
    psi_inv = modinv(psi, q)
    out = []
    for j in range(n):
        acc = 0
        for k, v in enumerate(spectrum):
            acc += v * pow(psi_inv, (2 * k + 1) * j, q)
        out.append(acc * n_inv % q)
    return out


def _check_lengths(a, b) -> int:
    n = len(a)
    if len(b) != n:
        raise ParameterError("length mismatch")
    if n & (n - 1):
        raise ParameterError("length must be a power of two")
    return n


def schoolbook_negacyclic(a, b, q: int) -> list[int]:
    """c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j mod q."""
    n = _check_lengths(a, b)
    c = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                c[k] += ai * bj
            else:
                c[k - n] -= ai * bj
    return [x % q for x in c]


def kronecker_negacyclic(a, b, q: int) -> list[int]:
    """schoolbook_negacyclic's result by Kronecker substitution.

    Each polynomial (reduced mod q) is packed into one integer, one
    coefficient per byte-aligned slot wide enough for a sum of n products
    below q^2, so one big-integer multiplication carries no slot into the
    next.  The 2n slots of the product are the plain convolution c, and the
    result is c_i - c_(i+n) mod q.
    """
    n = _check_lengths(a, b)
    size = (2 * q.bit_length() + n.bit_length() + 7) // 8

    def pack(p) -> int:
        return int.from_bytes(b"".join((c % q).to_bytes(size, "little") for c in p), "little")

    c = (pack(a) * pack(b)).to_bytes(2 * n * size, "little")
    slots = [int.from_bytes(c[i:i + size], "little") for i in range(0, 2 * n * size, size)]
    return [(lo - hi) % q for lo, hi in zip(slots[:n], slots[n:])]
