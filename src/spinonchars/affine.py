"""Level-1 affine sl_n characters: lattice sums, string functions, spinon cuts,
and the sl_2 fermionic / spinon-basis forms.

Weights are stored in fundamental-weight coordinates (m_1..m_{n-1}), which
quotient by the torus relation x_1...x_n = 1.  Each table factors the exact
rational conformal dimension Delta_k out of the grading, so stored q-degrees
are non-negative integers.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .partitions import partitions_of
from .qseries import QSeries, euler_inverse, inv_pochhammer, q_zero
from .symfunc import exps_to_fw


def conformal_dimension(n: int, k: int) -> Fraction:
    """Delta_k = k(n-k)/2n, the level-1 highest-weight grade offset."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return Fraction(k * (n - k), 2 * n)


def weight_norm(coords, n: int) -> Fraction:
    """(lambda, lambda) in fundamental-weight coordinates via the inverse Cartan
    Gram matrix (Lambda_i, Lambda_j) = min(i,j) - ij/n."""
    coords = tuple(coords)
    if len(coords) != n - 1:
        raise ValueError(f"expected {n - 1} coordinates, got {coords}")
    total = Fraction(0)
    for i, mi in enumerate(coords, start=1):
        if mi == 0:
            continue
        for j, mj in enumerate(coords, start=1):
            if mj:
                total += mi * mj * (min(i, j) - Fraction(i * j, n))
    return total


def weight_class(coords, n: int) -> int:
    """Conjugacy class sum_i i*m_i mod n."""
    return sum(i * m for i, m in enumerate(coords, start=1)) % n


def weight_eps_pairing(coords, n: int, i: int) -> Fraction:
    """(lambda, eps_i) for lambda in fundamental-weight coordinates."""
    coords = tuple(coords)
    tail = sum(coords[i - 1:])
    weighted = sum(j * m for j, m in enumerate(coords, start=1))
    return tail - Fraction(weighted, n)


class CharacterTable:
    """Weight -> coefficient array, graded relative to q^delta."""

    def __init__(self, n: int, k: int, qmax: int):
        if not 0 <= k < n:
            raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        self.n = n
        self.k = k
        self.qmax = qmax
        self.delta = conformal_dimension(n, k)
        self.rows: dict[tuple[int, ...], list[int]] = {}

    def add(self, weight, degree: int, coeff: int) -> None:
        weight = tuple(weight)
        if len(weight) != self.n - 1:
            raise ValueError(f"weight {weight} has wrong length for n={self.n}")
        if not 0 <= degree <= self.qmax:
            raise ValueError(f"degree {degree} outside 0..{self.qmax}")
        if weight not in self.rows:
            self.rows[weight] = [0] * (self.qmax + 1)
        self.rows[weight][degree] += coeff

    def prune(self) -> "CharacterTable":
        self.rows = {w: r for w, r in self.rows.items() if any(r)}
        return self

    def validate(self) -> "CharacterTable":
        """Class membership and non-negativity of every coefficient."""
        for w, row in self.rows.items():
            if weight_class(w, self.n) != self.k:
                raise AssertionError(f"weight {w} not in class {self.k} mod {self.n}")
            if any(c < 0 for c in row):
                raise AssertionError(f"negative multiplicity at weight {w}: {row}")
        return self

    def row(self, weight) -> list[int]:
        return list(self.rows.get(tuple(weight), [0] * (self.qmax + 1)))

    def first_difference(self, other: "CharacterTable"):
        """None if equal; else (weight, degree, self_coeff, other_coeff)."""
        if (self.n, self.k, self.qmax, self.delta) != (
            other.n, other.k, other.qmax, other.delta,
        ):
            return ((), -1, None, None)
        for w in sorted(set(self.rows) | set(other.rows)):
            a, b = self.row(w), other.row(w)
            for d in range(self.qmax + 1):
                if a[d] != b[d]:
                    return (w, d, a[d], b[d])
        return None

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self.first_difference(other) is None

    def to_json_dict(self) -> dict:
        self.prune()
        return {
            "n": self.n,
            "k": self.k,
            "delta": f"{self.delta.numerator}/{self.delta.denominator}",
            "qmax": self.qmax,
            "rows": [
                {"weight": list(w), "coeffs": list(self.rows[w])}
                for w in sorted(self.rows)
            ],
        }

    def __repr__(self):
        return (
            f"CharacterTable(n={self.n}, k={self.k}, qmax={self.qmax}, "
            f"delta={self.delta}, nrows={len(self.rows)})"
        )


def bosonic_character(n: int, k: int, qmax: int) -> CharacterTable:
    """Lattice sum over (c_1..c_n) in Z^n with sum c_i = k; the vector
    k_i = c_i - k/n contributes q^{sum k_i^2/2} / (q)_inf^{n-1} at weight
    (c_1-c_2, ..., c_{n-1}-c_n)."""
    table = CharacterTable(n, k, qmax)
    power = euler_inverse(qmax) ** (n - 1)
    budget = k + 2 * qmax  # sum c_i^2 <= k + 2 qmax  <=>  relative degree <= qmax
    _lattice_sum(table, power, math.isqrt(budget) + 1, k, budget, [])
    return table.prune().validate()


def _lattice_sum(table, power, bound, remaining_sum, remaining_sq, vec):
    """Add the terms of every lattice vector that extends `vec`, with the
    remaining entries summing to `remaining_sum` and their squares to at most
    `remaining_sq`.  A module-level function, not a closure, so that no
    reference cycle outlives the sum."""
    n, k, qmax = table.n, table.k, table.qmax
    if len(vec) == n - 1:
        c = remaining_sum
        if c * c > remaining_sq:
            return
        vec = vec + [c]
        degree2 = sum(x * x for x in vec) - k
        assert degree2 % 2 == 0 and degree2 >= 0
        degree = degree2 // 2
        weight = exps_to_fw(vec)
        for d in range(degree, qmax + 1):
            table.add(weight, d, power[d - degree])
        return
    for c in range(-bound, bound + 1):
        if c * c <= remaining_sq:
            _lattice_sum(table, power, bound, remaining_sum - c,
                         remaining_sq - c * c, vec + [c])


def string_function_closed(n: int, coords, qmax: int) -> QSeries:
    """c^Lambda_lambda = q^{|lambda|^2/2} / (q)_inf^{n-1} (offset carries the
    fractional exponent)."""
    norm = weight_norm(coords, n)
    return (euler_inverse(qmax) ** (n - 1)).with_offset(norm / 2)


def _spinon_a_values(n: int, coords, n_spinons: int):
    """The A_i = N/n + (lambda, eps_i); None unless all are non-negative ints."""
    a_vals = []
    for i in range(1, n + 1):
        a = Fraction(n_spinons, n) + weight_eps_pairing(coords, n, i)
        if a.denominator != 1 or a < 0:
            return None
        a_vals.append(int(a))
    assert sum(a_vals) == n_spinons
    return a_vals


def spinon_string_function(
    n: int, k: int, coords, n_spinons: int, form: str, qmax: int
) -> QSeries:
    """The N-spinon cut of the string function, in either stated form.

    Returns the zero series (with the string function's offset) when N is in
    the wrong class or some A_i fails to be a non-negative integer.
    """
    if form not in ("multisum", "alternating"):
        raise ValueError(f"unknown form {form!r}")
    offset = weight_norm(coords, n) / 2
    zero = q_zero(qmax, offset)
    if n_spinons % n != k % n:
        return zero
    a_vals = _spinon_a_values(n, coords, n_spinons)
    if a_vals is None:
        return zero
    total = q_zero(qmax)
    if form == "alternating":
        for m in range(min(a_vals) + 1):
            term = inv_pochhammer(m, qmax)
            for a in a_vals:
                term = term * inv_pochhammer(a - m, qmax)
            term = term.shift(m * (m - 1) // 2)
            total = total + (term * (-1 if m % 2 else 1))
    else:
        for term in _multisum_terms(a_vals, n_spinons, qmax, 1, 0, 0,
                                    QSeries([1], qmax)):
            total = total + term
    return total.with_offset(offset)


def _multisum_terms(a_vals, n_spinons, qmax, j, s_prev, exponent, denom):
    """Yield the terms of the multisum form below the prefix m_1..m_{j-1},
    whose sum is s_prev = S_{j-1}.  A module-level generator, not a closure,
    so that no reference cycle outlives the sum.

    Nested sum over m_1..m_{n-2}; S_j = m_1+...+m_j; the term is
    q^{sum_j (A_j - S_{j-1}) m_j + (A_{n-1} - S_{n-2})(A_n - S_{n-2})}
    over (q)_{A_1} (q)_{A_2-S_1} ... (q)_{A_n-S_{n-2}} prod_j (q)_{m_j}."""
    n = len(a_vals)
    if j == n - 1:
        sub1 = a_vals[n - 2] - s_prev
        sub2 = a_vals[n - 1] - s_prev
        if sub1 < 0 or sub2 < 0:
            return
        exp = exponent + sub1 * sub2
        if exp > qmax:
            return
        term = denom * inv_pochhammer(sub1, qmax) * inv_pochhammer(sub2, qmax)
        yield term.shift(exp)
        return
    sub = a_vals[j - 1] - s_prev
    if sub < 0:
        return
    base = denom * inv_pochhammer(sub, qmax)
    for m in range(n_spinons - s_prev + 1):
        yield from _multisum_terms(a_vals, n_spinons, qmax, j + 1, s_prev + m,
                                   exponent + sub * m,
                                   base * inv_pochhammer(m, qmax))


def verify_spinon_cut(n: int, k: int, coords, qmax: int) -> bool:
    """Check c^Lambda_lambda = sum_N c^{Lambda,N}_lambda below the truncation.

    The cuts have non-negative coefficients, so once the partial sum matches
    the closed form and two further admissible N contribute nothing below the
    truncation, all later terms vanish there too.
    """
    if weight_class(coords, n) != k % n:
        raise ValueError(f"weight {tuple(coords)} is not in class {k} mod {n}")
    target = string_function_closed(n, coords, qmax)
    partial = q_zero(qmax, target.offset)
    n_spinons = k % n
    cap = n * (qmax + n + 6)
    matched_at = None
    while n_spinons <= cap:
        term = spinon_string_function(n, k, coords, n_spinons, "alternating", qmax)
        if any(c < 0 for c in term.coeffs):
            return False
        if matched_at is None:
            partial = partial + term
            if partial == target:
                matched_at = n_spinons
        else:
            if not term.is_zero():
                return False
            if n_spinons >= matched_at + 2 * n:
                return True
        n_spinons += n
    return False


def sl2_fermionic_character(k: int, form: str, qmax: int) -> CharacterTable:
    """The two fermionic sl_2 forms as CharacterTables.

    root form:   sum over m1,m2 >= 0 of
                 q^{m1^2 - m1 m2 + m2^2 + k(m1-m2)} / ((q)_m1 (q)_m2)
                 at weight 2(m1-m2)+k  (prefactor q^{k^2/4} = q^{Delta_k});
    spinon form: sum over m1,m2 >= 0 with m1+m2 = k mod 2 of
                 q^{(m1+m2)^2/4} / ((q)_m1 (q)_m2) at weight m1-m2.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if form not in ("root", "spinon"):
        raise ValueError(f"unknown form {form!r}")
    table = CharacterTable(2, k, qmax)
    delta = table.delta
    # With M = max(m1, m2), `floor(M)` bounds the exponent of every pair
    # below and grows with M >= 1, so the pairs past `m_bound` contribute
    # nothing up to q^qmax.  Root form: m1^2 - m1 m2 + m2^2 >= 3M^2/4 and
    # k(m1 - m2) >= -kM.  Spinon form: M <= m1 + m2.
    if form == "root":
        def exponent(m1, m2):
            return m1 * m1 - m1 * m2 + m2 * m2 + k * (m1 - m2)

        def floor(big_m):
            return Fraction(3 * big_m * big_m, 4) - k * big_m
    else:
        def exponent(m1, m2):
            return Fraction((m1 + m2) ** 2, 4) - delta

        def floor(big_m):
            return Fraction(big_m * big_m, 4) - delta
    m_bound = 0
    while floor(m_bound + 1) <= qmax:
        m_bound += 1
    past = m_bound + 1
    lowest = min(min(exponent(past, m), exponent(m, past)) for m in range(past + 1))
    if lowest <= qmax:
        raise AssertionError(
            f"{form} form: a pair with max(m1, m2) = {past} has exponent "
            f"{lowest} <= qmax = {qmax}, past the bound {m_bound}"
        )
    for m1 in range(m_bound + 1):
        for m2 in range(m_bound + 1):
            if form == "root":
                exp = exponent(m1, m2)
                # with the q^{k^2/4} prefactor this grades relative to Delta_k
                if exp < 0 or exp > qmax:
                    continue
                weight = (2 * (m1 - m2) + k,)
                degree0 = exp
            else:
                if (m1 + m2) % 2 != k:
                    continue
                rel = exponent(m1, m2)
                assert rel.denominator == 1 and rel >= 0
                if rel > qmax:
                    continue
                weight = (m1 - m2,)
                degree0 = int(rel)
            series = inv_pochhammer(m1, qmax) * inv_pochhammer(m2, qmax)
            for d in range(degree0, qmax + 1):
                table.add(weight, d, series[d - degree0])
    return table.prune().validate()


def sl2_spinon_enumeration(k: int, qmax: int) -> CharacterTable:
    """Enumerate the sl_2 spinon basis: M1+M2 spinons with weakly increasing
    non-negative modes, energy (M1+M2)^2/4 + sum of modes, weight M1-M2."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    table = CharacterTable(2, k, qmax)
    delta = table.delta
    total = k
    while True:
        base = Fraction(total * total, 4) - delta
        if base > qmax:
            break
        assert base.denominator == 1 and base >= 0
        budget = qmax - int(base)
        # mode multisets of M spinons = partitions with at most M parts (zeros
        # padded); each partition is enumerated once and counted, by its
        # length l, for every M >= l
        at_most = [[0] * (budget + 1) for _ in range(total + 1)]
        for size in range(budget + 1):
            for lam in partitions_of(size, max_len=total):
                at_most[len(lam)][size] += 1
        for length in range(1, total + 1):
            at_most[length] = [
                a + b for a, b in zip(at_most[length - 1], at_most[length])
            ]
        for m1_count in range(total + 1):
            m2_count = total - m1_count
            weight = (m1_count - m2_count,)
            for e1 in range(budget + 1):
                c1 = at_most[m1_count][e1]
                if c1 == 0:
                    continue
                for e2 in range(budget - e1 + 1):
                    c2 = at_most[m2_count][e2]
                    if c2:
                        table.add(weight, int(base) + e1 + e2, c1 * c2)
        total += 2
    return table.prune().validate()
