"""Truncated q-series with exact integer coefficients.

A QSeries holds coefficients of q^0..q^qmax (inclusive truncation).  A
series graded from a rational power of q is stored from that power: the
caller knows the leading exponent, and every comparison puts both sides at
the same one.  All arithmetic is exact; coefficients are arbitrary-precision
Python ints.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul


class QSeries:
    """sum_{d=0}^{qmax} coeffs[d] q^d, truncated inclusively."""

    __slots__ = ("qmax", "coeffs")

    def __init__(self, coeffs, qmax: int | None = None):
        coeffs = list(coeffs)
        if qmax is None:
            qmax = len(coeffs) - 1
        if qmax < 0:
            raise ValueError(f"qmax must be >= 0, got {qmax}")
        if len(coeffs) < qmax + 1:
            coeffs = coeffs + [0] * (qmax + 1 - len(coeffs))
        self.qmax = qmax
        self.coeffs = tuple(coeffs[: qmax + 1])

    def __getitem__(self, d: int) -> int:
        """Coefficient of q^d; 0 beyond the truncation is an error."""
        if d < 0:
            return 0
        if d > self.qmax:
            raise IndexError(f"degree {d} beyond truncation order {self.qmax}")
        return self.coeffs[d]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        m = min(self.qmax, other.qmax)
        return QSeries([self.coeffs[d] + other.coeffs[d] for d in range(m + 1)], m)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries([c * other for c in self.coeffs], self.qmax)
        # coefficient d is a[0] b[d] + ... + a[d] b[0]: the first d + 1
        # coefficients of a against the last d + 1 of b reversed through m
        m = min(self.qmax, other.qmax)
        a, rb = self.coeffs, other.coeffs[m::-1]
        return QSeries([sum(map(mul, a[: d + 1], rb[m - d:]))
                        for d in range(m + 1)], m)

    def shift(self, d: int) -> "QSeries":
        """Multiply by q^d (d >= 0 integer); keeps qmax, drops overflow."""
        if d < 0:
            raise ValueError("shift exponent must be non-negative")
        return QSeries([0] * d + list(self.coeffs), self.qmax)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.qmax == other.qmax and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.qmax, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.qmax >= 8 else ""
        return f"QSeries([{head}{tail}], qmax={self.qmax})"


def q_one(qmax: int) -> QSeries:
    return QSeries([1], qmax)


def q_zero(qmax: int) -> QSeries:
    return QSeries([0], qmax)


def q_monomial(d: int, qmax: int) -> QSeries:
    """q^d truncated at qmax (zero series if d > qmax)."""
    coeffs = [0] * (qmax + 1)
    if 0 <= d <= qmax:
        coeffs[d] = 1
    return QSeries(coeffs, qmax)


# ---------------------------------------------------------------------------
# public q-objects

def euler_inverse(qmax: int) -> QSeries:
    """1 / prod_{k>=1} (1 - q^k); coefficient of q^m counts partitions of m.

    Factors (1 - q^k) with k > qmax are 1 below the truncation, so this is
    1/(q)_qmax at order qmax, built by `inv_pochhammer` without expanding
    (q)_qmax."""
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    return inv_pochhammer(qmax, qmax)


def pochhammer(n: int, qmax: int) -> QSeries:
    """(q)_n = prod_{k=1}^{n} (1 - q^k), truncated at qmax.

    Built at order qmax: starting from 1, each factor (1 - q^j) with
    j <= min(n, qmax) is applied in place, c[d] -= c[d - j] for d from qmax
    down to j, so every coefficient read still belongs to the previous
    partial product.  Factors with j > qmax are 1 below the truncation."""
    if n < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {n}")
    coeffs = [1] + [0] * qmax
    for j in range(1, min(n, qmax) + 1):
        for d in range(qmax, j - 1, -1):
            coeffs[d] -= coeffs[d - j]
    return QSeries(coeffs, qmax)


@lru_cache(maxsize=None)
def inv_pochhammer(n: int, qmax: int) -> QSeries:
    """1/(q)_n truncated at qmax.

    Built at order qmax: starting from 1, dividing by each factor (1 - q^j)
    with j <= min(n, qmax) is the in-place stride sum c[d] += c[d - j] for d
    from j up to qmax, since 1/(1 - q^j) = sum_i q^{ij}.  Factors with
    j > qmax are 1 below the truncation."""
    if n < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {n}")
    coeffs = [1] + [0] * qmax
    for j in range(1, min(n, qmax) + 1):
        for d in range(j, qmax + 1):
            coeffs[d] += coeffs[d - j]
    return QSeries(coeffs, qmax)


def inv_pochhammer_product(parts, qmax: int) -> QSeries:
    """1 / prod_p (q)_p over the given parts, truncated at qmax.

    The product depends only on the multiset of nonzero parts, so zeros are
    dropped and the rest sorted before the cached build."""
    key = tuple(sorted(p for p in parts if p))
    if key and key[0] < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {key[0]}")
    return _inv_pochhammer_product(key, qmax)


@lru_cache(maxsize=None)
def _inv_pochhammer_product(parts: tuple[int, ...], qmax: int) -> QSeries:
    """`inv_pochhammer_product` of sorted positive parts: a new multiset costs
    one product, the cached one without its largest part times 1/(q)_largest."""
    if not parts:
        return q_one(qmax)
    return _inv_pochhammer_product(parts[:-1], qmax) * inv_pochhammer(parts[-1], qmax)


def qbinomial(n: int, m: int, qmax: int) -> QSeries:
    """[N choose M]_q = (q)_N / ((q)_M (q)_{N-M}), truncated at qmax.

    Built at order qmax by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]:
    row k holds [n, k] for k = 0..M, and each step n updates the rows in
    place from the right, so row k - 1 still holds [n-1, k-1] when row k
    reads it."""
    if m < 0 or m > n:
        raise ValueError(f"qbinomial requires 0 <= M <= N, got N={n}, M={m}")
    rows = [q_one(qmax)] + [q_zero(qmax)] * m
    for step in range(1, n + 1):
        for k in range(min(step, m), 0, -1):
            rows[k] = rows[k - 1] + rows[k].shift(k)
    return rows[m]


def qmultinomial(ks, qmax: int) -> QSeries:
    """(q)_{k_1+...+k_r} / prod_i (q)_{k_i}, truncated at qmax: the product
    over i of [k_1+...+k_i choose k_i]_q."""
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError(f"qmultinomial requires non-negative parts, got {ks}")
    out, total = q_one(qmax), 0
    for k in ks:
        total += k
        out = out * qbinomial(total, k, qmax)
    return out


def pochhammer_z_expansion(n: int, qmax: int) -> tuple[QSeries, ...]:
    """(z;q)_N as its N + 1 z-coefficients.

    Coefficient of z^j is (-1)^j q^{j(j-1)/2} [N choose j]_q.
    """
    if n < 0:
        raise ValueError("N must be >= 0")
    return tuple(qbinomial(n, j, qmax).shift(j * (j - 1) // 2) * (-1 if j % 2 else 1)
                 for j in range(n + 1))


def inv_pochhammer_z_expansion(n: int, zdeg: int, qmax: int) -> tuple[QSeries, ...]:
    """(z;q)_N^{-1} modulo z^{zdeg+1}, as its zdeg + 1 z-coefficients;
    coefficient of z^j is [N+j-1 choose j]_q."""
    if zdeg < 0:
        raise ValueError("zdeg must be >= 0")
    if n == 0:
        if zdeg > 0:
            raise ValueError("N=0 admits no inverse expansion beyond the constant 1")
        return (q_one(qmax),)
    if n < 0:
        raise ValueError("N must be >= 0")
    return tuple(qbinomial(n + j - 1, j, qmax) for j in range(zdeg + 1))


def durfee_check(m: int, qmax: int) -> bool:
    """Check sum_{a-b=m, a,b>=0} q^{ab}/((q)_a (q)_b) = 1/(q)_inf up to qmax.

    With a = b + m, the term's exponent b(b+m) grows from b to b + 1 by
    2b + 1 + m = b + a + 1 >= 1, so it increases strictly from the first
    admissible b = max(0, -m), and the first b past qmax ends the sum: every
    later term vanishes at this order."""
    total = q_zero(qmax)
    b = max(0, -m)
    while b * (b + m) <= qmax:
        total = total + inv_pochhammer_product((b + m, b), qmax).shift(b * (b + m))
        b += 1
    return total == euler_inverse(qmax)


def lemma_d3_check(m_bound: int, n_bound: int, variant: str, qmax: int) -> bool:
    """Two finite q-identities relating alternating/shifted sums to 1/((q)_M (q)_N).

    variant "i":  sum_j (-1)^j q^{j(j-1)/2} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = q^{MN} / ((q)_M (q)_N)
    variant "ii": sum_j q^{(M-j)(N-j)} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = 1 / ((q)_M (q)_N)
    """
    if m_bound < 0 or n_bound < 0:
        raise ValueError("M and N must be >= 0")
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    big_m, big_n = m_bound, n_bound
    lhs = q_zero(qmax)
    for j in range(min(big_m, big_n) + 1):
        base = inv_pochhammer_product((big_m - j, big_n - j, j), qmax)
        if variant == "i":
            term = base.shift(j * (j - 1) // 2) * (-1 if j % 2 else 1)
        else:
            term = base.shift((big_m - j) * (big_n - j))
        lhs = lhs + term
    rhs = inv_pochhammer_product((big_m, big_n), qmax)
    if variant == "i":
        rhs = rhs.shift(big_m * big_n)
    return lhs == rhs
