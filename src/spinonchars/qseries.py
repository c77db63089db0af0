"""Truncated q-series with exact integer coefficients.

A QSeries holds coefficients of q^0..q^qmax (inclusive truncation).  A
series graded from a rational power of q is stored from that power: the
caller knows the leading exponent, and every comparison puts both sides at
the same one.  All arithmetic is exact; coefficients are arbitrary-precision
Python ints.
"""
from __future__ import annotations

from functools import lru_cache


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
        if isinstance(other, int):
            other = QSeries([other], self.qmax)
        m = min(self.qmax, other.qmax)
        return QSeries([self.coeffs[d] + other.coeffs[d] for d in range(m + 1)], m)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.qmax)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QSeries([other], self.qmax)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries([c * other for c in self.coeffs], self.qmax)
        m = min(self.qmax, other.qmax)
        out = [0] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: m + 1 - i]):
                if b:
                    out[i + j] += a * b
        return QSeries(out, m)

    __rmul__ = __mul__

    def shift(self, d: int) -> "QSeries":
        """Multiply by q^d (d >= 0 integer); keeps qmax, drops overflow."""
        if d < 0:
            raise ValueError("shift exponent must be non-negative")
        return QSeries([0] * d + list(self.coeffs), self.qmax)

    def inverse(self) -> "QSeries":
        """Series inverse; requires unit constant term (+-1)."""
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise ValueError(f"constant term {a0} is not a unit")
        inv = [a0] + [0] * self.qmax
        for d in range(1, self.qmax + 1):
            s = sum(self.coeffs[j] * inv[d - j] for j in range(1, d + 1))
            inv[d] = -a0 * s
        return QSeries(inv, self.qmax)

    def truncate(self, qmax: int) -> "QSeries":
        if qmax > self.qmax:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: qmax + 1], qmax)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            return self.inverse() ** (-e)
        result = QSeries([1], self.qmax)
        for _ in range(e):
            result = result * self
        return result

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
# exact polynomial helpers (dense int lists, low degree first)

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den[0] must be a unit.

    Raises ValueError if the division leaves a remainder.
    """
    if den[0] not in (1, -1):
        raise ValueError("divisor constant term must be a unit")
    deg = len(num) - len(den)
    if deg < 0:
        raise ValueError("quotient would have negative degree")
    quo = [0] * (deg + 1)
    for d in range(deg + 1):
        s = num[d] - sum(den[j] * quo[d - j] for j in range(1, min(d, len(den) - 1) + 1))
        quo[d] = den[0] * s
    if _poly_mul(quo, den) != num:
        raise ValueError("polynomial division is not exact")
    return quo


@lru_cache(maxsize=None)
def _poch_poly(n: int) -> tuple[int, ...]:
    """(q)_n = prod_{k=1}^{n} (1 - q^k) as an exact polynomial, of degree
    n(n+1)/2; only the exact divisions of `qbinomial` and `qmultinomial`
    need it untruncated."""
    if n == 0:
        return (1,)
    prev = list(_poch_poly(n - 1))
    factor = [1] + [0] * (n - 1) + [-1]
    return tuple(_poly_mul(prev, factor))


def _to_qseries(poly, qmax: int) -> QSeries:
    return QSeries(list(poly[: qmax + 1]), qmax)


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


def qbinomial(n: int, m: int, qmax: int) -> QSeries:
    """(q)_n / ((q)_m (q)_{n-m}) by exact polynomial division."""
    if m < 0 or m > n:
        raise ValueError(f"qbinomial requires 0 <= M <= N, got N={n}, M={m}")
    den = _poly_mul(list(_poch_poly(m)), list(_poch_poly(n - m)))
    return _to_qseries(_poly_div_exact(list(_poch_poly(n)), den), qmax)


def qmultinomial(ks, qmax: int) -> QSeries:
    """(q)_{sum k_i} / prod_i (q)_{k_i} by exact polynomial division."""
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError(f"qmultinomial requires non-negative parts, got {ks}")
    den = [1]
    for k in ks:
        den = _poly_mul(den, list(_poch_poly(k)))
    return _to_qseries(_poly_div_exact(list(_poch_poly(sum(ks))), den), qmax)


class ZPolyQ:
    """Polynomial in an auxiliary variable z with QSeries coefficients."""

    __slots__ = ("zdeg", "coeffs")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the z^0 coefficient")
        qmax = coeffs[0].qmax
        if any(c.qmax != qmax for c in coeffs):
            raise ValueError("all z-coefficients must share qmax")
        self.zdeg = len(coeffs) - 1
        self.coeffs = tuple(coeffs)

    def __getitem__(self, j: int) -> QSeries:
        if j < 0 or j > self.zdeg:
            return q_zero(self.coeffs[0].qmax)
        return self.coeffs[j]

    def __mul__(self, other: "ZPolyQ") -> "ZPolyQ":
        qmax = min(self.coeffs[0].qmax, other.coeffs[0].qmax)
        out = [q_zero(qmax) for _ in range(self.zdeg + other.zdeg + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + (a * b).truncate(qmax)
        return ZPolyQ(out)

    def truncate_z(self, zdeg: int) -> "ZPolyQ":
        qmax = self.coeffs[0].qmax
        coeffs = list(self.coeffs[: zdeg + 1])
        while len(coeffs) < zdeg + 1:
            coeffs.append(q_zero(qmax))
        return ZPolyQ(coeffs)

    def __eq__(self, other):
        if not isinstance(other, ZPolyQ):
            return NotImplemented
        return self.zdeg == other.zdeg and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ZPolyQ(zdeg={self.zdeg}, qmax={self.coeffs[0].qmax})"


def pochhammer_z_expansion(n: int, qmax: int) -> ZPolyQ:
    """(z;q)_N as a degree-N polynomial in z.

    Coefficient of z^j is (-1)^j q^{j(j-1)/2} [N choose j]_q.
    """
    if n < 0:
        raise ValueError("N must be >= 0")
    coeffs = []
    for j in range(n + 1):
        c = qbinomial(n, j, qmax).shift(j * (j - 1) // 2)
        coeffs.append(c * (-1 if j % 2 else 1))
    return ZPolyQ(coeffs)


def inv_pochhammer_z_expansion(n: int, zdeg: int, qmax: int) -> ZPolyQ:
    """(z;q)_N^{-1} modulo z^{zdeg+1}; coefficient of z^j is [N+j-1 choose j]_q."""
    if zdeg < 0:
        raise ValueError("zdeg must be >= 0")
    if n == 0:
        if zdeg > 0:
            raise ValueError("N=0 admits no inverse expansion beyond the constant 1")
        return ZPolyQ([q_one(qmax)])
    if n < 0:
        raise ValueError("N must be >= 0")
    return ZPolyQ([qbinomial(n + j - 1, j, qmax) for j in range(zdeg + 1)])


def durfee_check(m: int, qmax: int) -> bool:
    """Check sum_{a-b=m, a,b>=0} q^{ab}/((q)_a (q)_b) = 1/(q)_inf up to qmax."""
    total = q_zero(qmax)
    b = 0
    while True:
        a = b + m
        if a < 0:
            b += 1
            continue
        if a * b > qmax:
            if b > abs(m):
                break
            b += 1
            continue
        term = (inv_pochhammer(a, qmax) * inv_pochhammer(b, qmax)).shift(a * b)
        total = total + term
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
        base = (
            inv_pochhammer(big_m - j, qmax)
            * inv_pochhammer(big_n - j, qmax)
            * inv_pochhammer(j, qmax)
        )
        if variant == "i":
            term = base.shift(j * (j - 1) // 2) * (-1 if j % 2 else 1)
        else:
            term = base.shift((big_m - j) * (big_n - j))
        lhs = lhs + term
    rhs = inv_pochhammer(big_m, qmax) * inv_pochhammer(big_n, qmax)
    if variant == "i":
        rhs = rhs.shift(big_m * big_n) if big_m * big_n <= qmax else q_zero(qmax)
    return lhs == rhs
