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
from itertools import islice
from operator import add, mul, neg, sub


def _shifted(coeffs: tuple, d: int) -> tuple:
    """The coefficients of q^d times `coeffs` at the same order, d >= 0."""
    size = len(coeffs)
    return (0,) * size if d >= size else (0,) * d + coeffs[: size - d]


def _one(qmax: int) -> tuple:
    """The series 1 at order qmax, which must be >= 0."""
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    return (1,) + (0,) * qmax


# ---------------------------------------------------------------------------
# public q-objects

def product(a: tuple, b: tuple) -> tuple:
    """The product of two series, at the lower order of the two."""
    size = min(len(a), len(b))
    # a = q^la A and b = q^lb B, so a b = q^(la + lb) A B: coefficient e of
    # A B is A[0] B[e] + ... + A[e] B[0], the first e + 1 entries of A
    # against the last e + 1 of B reversed through its entry top
    la = next((i for i, c in enumerate(a) if c), size)
    lb = next((i for i, c in enumerate(b) if c), size)
    top = size - 1 - la - lb
    if top < 0:
        return (0,) * size
    a, rb = a[la:la + top + 1], b[lb + top:lb - 1 if lb else None:-1]
    return (0,) * (la + lb) + tuple(
        sum(map(mul, a[: e + 1], rb[top - e:])) for e in range(top + 1))


def euler_inverse(qmax: int) -> tuple:
    """1 / prod_{k>=1} (1 - q^k); coefficient of q^m counts partitions of m.

    Factors (1 - q^k) with k > qmax are 1 below the truncation, so this is
    1/(q)_qmax at order qmax, built by `inv_pochhammer` without expanding
    (q)_qmax."""
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    return inv_pochhammer(qmax, qmax)


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


def _q_pascal(width: int, qmax: int):
    """Yield, for step s = 0, 1, 2, ..., the list `rows` whose entry k is
    the coefficient tuple of [s choose k]_q at order qmax, k = 0..width
    (zero for k > s).  The same list is updated in place between yields, so
    a caller takes the tuples it needs before asking for the next step.

    Step s applies the q-Pascal rule [s, k] = [s-1, k-1] + q^k [s-1, k] to
    each row k <= min(s, width), from the right, so row k - 1 still holds
    [s-1, k-1] when row k reads it."""
    rows = [_one(qmax)] + [(0,) * (qmax + 1)] * width
    step = 0
    while True:
        yield rows
        step += 1
        for k in range(min(step, width), 0, -1):
            rows[k] = tuple(map(add, rows[k - 1], _shifted(rows[k], k)))


def qbinomial(n: int, m: int, qmax: int) -> tuple:
    """[N choose M]_q = (q)_N / ((q)_M (q)_{N-M}), truncated at qmax, the
    row M of step N of `_q_pascal`."""
    if m < 0 or m > n:
        raise ValueError(f"qbinomial requires 0 <= M <= N, got N={n}, M={m}")
    return next(islice(_q_pascal(m, qmax), n, None))[m]


def qmultinomial(ks, qmax: int) -> tuple:
    """(q)_{k_1+...+k_r} / prod_i (q)_{k_i}, truncated at qmax: the product
    over i of [k_1+...+k_i choose k_i]_q."""
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError(f"qmultinomial requires non-negative parts, got {ks}")
    out, total = _one(qmax), 0
    for k in ks:
        total += k
        out = product(out, qbinomial(total, k, qmax))
    return out


def pochhammer_z_expansion(n: int, qmax: int) -> tuple[tuple, ...]:
    """(z;q)_N as its N + 1 z-coefficients.

    Coefficient of z^j is (-1)^j q^{j(j-1)/2} [N choose j]_q; every
    [N choose j]_q is row j of step N of one `_q_pascal` pass.
    """
    if n < 0:
        raise ValueError("N must be >= 0")
    rows = next(islice(_q_pascal(n, qmax), n, None))
    out = []
    for j, row in enumerate(rows):
        row = _shifted(row, j * (j - 1) // 2)
        out.append(tuple(map(neg, row)) if j % 2 else row)
    return tuple(out)


def inv_pochhammer_z_expansion(n: int, zdeg: int, qmax: int) -> tuple[tuple, ...]:
    """(z;q)_N^{-1} modulo z^{zdeg+1}, as its zdeg + 1 z-coefficients;
    coefficient of z^j is [N+j-1 choose j]_q, row j of step N - 1 + j of
    one `_q_pascal` pass."""
    if zdeg < 0:
        raise ValueError("zdeg must be >= 0")
    if n == 0:
        if zdeg > 0:
            raise ValueError("N=0 admits no inverse expansion beyond the constant 1")
        return (_one(qmax),)
    if n < 0:
        raise ValueError("N must be >= 0")
    steps = islice(_q_pascal(zdeg, qmax), n - 1, n + zdeg)
    return tuple(rows[j] for j, rows in enumerate(steps))


def durfee_check(m: int, qmax: int) -> bool:
    """Check sum_{a-b=m, a,b>=0} q^{ab}/((q)_a (q)_b) = 1/(q)_inf up to qmax.

    With a = b + m, the term's exponent b(b+m) grows from b to b + 1 by
    2b + 1 + m = b + a + 1 >= 1, so it increases strictly from the first
    admissible b = max(0, -m), and the first b past qmax ends the sum: every
    later term vanishes at this order.  Each term is added into one
    coefficient list at its exponent: map stops at the end of the list."""
    total = [0] * (qmax + 1)
    b = max(0, -m)
    while (d := b * (b + m)) <= qmax:
        total[d:] = map(add, total[d:], inv_pochhammer_product((b + m, b), qmax))
        b += 1
    return tuple(total) == euler_inverse(qmax)


def lemma_d3_check(m_bound: int, n_bound: int, variant: str, qmax: int) -> bool:
    """Two finite q-identities relating alternating/shifted sums to 1/((q)_M (q)_N).

    variant "i":  sum_j (-1)^j q^{j(j-1)/2} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = q^{MN} / ((q)_M (q)_N)
    variant "ii": sum_j q^{(M-j)(N-j)} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = 1 / ((q)_M (q)_N)
    Each term is added into one coefficient list at its exponent."""
    if m_bound < 0 or n_bound < 0:
        raise ValueError("M and N must be >= 0")
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    big_m, big_n = m_bound, n_bound
    lhs = [0] * (qmax + 1)
    for j in range(min(big_m, big_n) + 1):
        base = inv_pochhammer_product((big_m - j, big_n - j, j), qmax)
        if variant == "i":
            d, op = j * (j - 1) // 2, sub if j % 2 else add
        else:
            d, op = (big_m - j) * (big_n - j), add
        lhs[d:] = map(op, lhs[d:], base)
    rhs = inv_pochhammer_product((big_m, big_n), qmax)
    if variant == "i":
        rhs = _shifted(rhs, big_m * big_n)
    return tuple(lhs) == rhs
