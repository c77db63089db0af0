"""Truncated q-series with exact integer coefficients.

A truncated q-series is the tuple of its coefficients of q^0..q^qmax
(inclusive truncation): exactly qmax + 1 ints, so its order is its length
minus one.  A series graded from a rational power of q is stored from that
power: the caller knows the leading exponent, and every comparison puts both
sides at the same one.  All arithmetic is exact; coefficients are
arbitrary-precision Python ints.

Every function here that takes `qmax` refuses a negative one with
ValueError, and every series it returns is such a tuple.  On tuples `+`
concatenates and `* int` repeats, so series are multiplied by `product`
and added coefficient by coefficient, never with those operators.
"""
from __future__ import annotations

from functools import lru_cache


def _one(qmax: int) -> tuple:
    """The series 1 at order qmax, which must be >= 0."""
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    return (1,) + (0,) * qmax


# ---------------------------------------------------------------------------
# public q-objects

def product(a: tuple, b: tuple) -> tuple:
    """The product of two series, at the lower order of the two, by one
    big-integer multiplication (Kronecker substitution).

    Cut both series to the lower length, size.  Each coefficient c_e of the
    full product of the cut series, e = 0..2 size - 2, is a sum of at most
    size terms a_i b_(e-i), so |c_e| <= bound = size * max|a_i| * max|b_j|
    <= 2^(w-1) - 1 with w = bound.bit_length() + 1.  So at y = 2^w the ints
    A = sum_i a_i y^i and B = sum_j b_j y^j multiply to A B = sum_e c_e y^e
    with every digit c_e in [-y/2, y/2), and such digits are unique: the
    residue r of A B mod y is c_0 mod y, so c_0 is r when r < y/2 and
    r - y (a borrow) otherwise, and (A B - c_0) / y = sum_e c_(e+1) y^e
    repeats the step.  The digits below y^size depend only on A B mod
    y^size, which is all that is read."""
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    bound = size * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return (0,) * size
    width = bound.bit_length() + 1
    packed_a = packed_b = 0
    for c in reversed(a):
        packed_a = (packed_a << width) + c
    for c in reversed(b):
        packed_b = (packed_b << width) + c
    rest = packed_a * packed_b & ((1 << width * size) - 1)
    mask, half, borrow = (1 << width) - 1, 1 << (width - 1), 1 << width
    coeffs = []
    for _ in range(size):
        c = rest & mask
        rest >>= width
        if c >= half:
            c -= borrow
            rest += 1
        coeffs.append(c)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def inv_pochhammer(n: int, qmax: int) -> tuple:
    """1/(q)_n truncated at qmax.

    Built at order qmax: starting from 1, dividing by each factor (1 - q^j)
    with j <= min(n, qmax) is the in-place stride sum c[d] += c[d - j] for d
    from j up to qmax, since 1/(1 - q^j) = sum_i q^{ij}.  Factors with
    j > qmax are 1 below the truncation."""
    if n < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {n}")
    coeffs = list(_one(qmax))
    for j in range(1, min(n, qmax) + 1):
        for d in range(j, qmax + 1):
            coeffs[d] += coeffs[d - j]
    return tuple(coeffs)


def inv_pochhammer_product(parts, qmax: int) -> tuple:
    """1 / prod_p (q)_p over the given parts, truncated at qmax.

    The product depends only on the multiset of nonzero parts, so zeros are
    dropped and the rest sorted before the cached build."""
    key = tuple(sorted(p for p in parts if p))
    if key and key[0] < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {key[0]}")
    return _inv_pochhammer_product(key, qmax)


@lru_cache(maxsize=None)
def _inv_pochhammer_product(parts: tuple[int, ...], qmax: int) -> tuple:
    """`inv_pochhammer_product` of sorted positive parts: a new multiset costs
    one product, the cached one without its largest part times 1/(q)_largest."""
    if not parts:
        return _one(qmax)
    return product(_inv_pochhammer_product(parts[:-1], qmax),
                   inv_pochhammer(parts[-1], qmax))
