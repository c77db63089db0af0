"""Level-1 affine sl_n characters: lattice sums, string functions, spinon cuts,
and the sl_2 fermionic / spinon-basis forms.

Weights are stored in fundamental-weight coordinates (m_1..m_{n-1}), which
quotient by the torus relation x_1...x_n = 1.  `exps_to_fw` and `_eps`
convert between them and the eps-coordinates (c_1..c_n), and no other module
does.  Each table factors the exact rational conformal dimension Delta_k out
of the grading, so stored q-degrees are non-negative integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from operator import itemgetter, mul, sub

from .partitions import partition_counts
from .qseries import QSeries, inv_pochhammer_product, q_zero


def conformal_dimension(n: int, k: int) -> Fraction:
    """Delta_k = k(n-k)/2n, the level-1 highest-weight grade offset."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return Fraction(k * (n - k), 2 * n)


def exps_to_fw(exps) -> tuple[int, ...]:
    """Monomial exponents or eps-coordinates (c_1..c_n) -> fundamental-weight
    coordinates (c_1-c_2, ..., c_{n-1}-c_n)."""
    return tuple(map(sub, exps, exps[1:]))


def _eps(weight) -> list[int]:
    """The inverse of `exps_to_fw` with c_n = 0: c_i = m_i + ... + m_{n-1}."""
    return [*accumulate(reversed(weight), initial=0)][::-1]


def scaled_weight_norm(coords, n: int) -> int:
    """n * (lambda, lambda) = n sum c_i^2 - (sum c_i)^2, an integer, with
    c = `_eps(coords)`: lambda = sum c_i eps_i, and (eps_i, eps_j) =
    delta_ij - 1/n."""
    coords = tuple(coords)
    if len(coords) != n - 1:
        raise ValueError(f"expected {n - 1} coordinates, got {coords}")
    c = _eps(coords)
    return n * sum(x * x for x in c) - sum(c) ** 2


def weight_class(coords, n: int) -> int:
    """Conjugacy class sum_i i*m_i mod n."""
    return sum(map(mul, count(1), coords)) % n


def dominant_weight(weight) -> tuple[int, ...]:
    """The dominant weight (every coordinate >= 0) of the Weyl orbit of
    `weight`.  The weight is `exps_to_fw(c)` with c = `_eps(weight)`; the
    Weyl group S_n permutes the c_i, and the weight of an arrangement is
    dominant exactly when it is weakly decreasing."""
    return exps_to_fw(sorted(_eps(weight), reverse=True))


def orbit_size(dominant) -> int:
    """The number of weights in the orbit of a dominant weight: the n!
    arrangements of its c (see `dominant_weight`) over the r! orderings of
    each run of r equal entries, which is a run of r - 1 zero coordinates."""
    size, run = math.factorial(len(dominant) + 1), 1
    for m in dominant:
        run = run + 1 if m == 0 else 1
        size //= run
    return size


def _arrangements(values: tuple[int, ...], memo: dict) -> dict[int, list[tuple[int, ...]]]:
    """The distinct arrangements a of the sorted tuple `values`, grouped by
    their first entry: a_1 -> the weights (a_1 - a_2, ..., a_{r-1} - a_r).
    An arrangement that starts with v is v followed by one of the rest, so
    its weight is (v - f, *w) for a group f -> w of the rest.  Removing the
    same entries in any order leaves the same rest, and `memo` builds the
    groups of each rest once."""
    groups = memo.get(values)
    if groups is not None:
        return groups
    if len(values) == 1:
        groups = {values[0]: [()]}
    else:
        groups = {}
        for i, v in enumerate(values):
            if i and v == values[i - 1]:
                continue
            weights = groups[v] = []
            for f, rest in _arrangements(values[:i] + values[i + 1:], memo).items():
                head = (v - f,)
                weights += [head + w for w in rest]
    memo[values] = groups
    return groups


def _expand(pairs) -> list:
    """(w, value) for every weight w of the orbit of each (dominant weight,
    value) pair: the weights of the arrangements of its c (see
    `dominant_weight`), one tuple each, through one memo of `_arrangements`
    shared by all the orbits."""
    memo: dict = {}
    return [(w, value) for key, value in pairs
            for weights in _arrangements(tuple(sorted(_eps(key))), memo).values()
            for w in weights]


class CharacterTable:
    """Weight -> coefficient array, graded relative to q^delta, kept as one
    row per Weyl orbit.

    A level-1 character is W-invariant, so its string functions are
    constant on each orbit of the Weyl group (Kac, Infinite-dimensional Lie
    algebras, ch. 12).  `orbits` maps the dominant weight of each orbit to
    the row that every weight of the orbit holds; `row` reads any weight
    through its orbit, and `items` expands the orbits to one (weight, row)
    pair per weight.  No row changes once a builder returns it, so several
    orbits may share one row object (`bosonic_character` shares them)."""

    def __init__(self, n: int, k: int, qmax: int):
        if not 0 <= k < n:
            raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        self.n = n
        self.k = k
        self.qmax = qmax
        self.delta = conformal_dimension(n, k)
        self.orbits: dict[tuple[int, ...], list[int] | tuple[int, ...]] = {}

    @classmethod
    def from_weights(cls, n: int, k: int, qmax: int, rows) -> "CharacterTable":
        """The table holding `rows[w]` at each weight w of the dict `rows`
        and zeros at every other weight, with its all-zero rows dropped.
        Raises AssertionError unless that is W-invariant: two weights of one
        orbit hold different rows, or an orbit holds a row that is not zero
        at only some of its weights."""
        table = cls(n, k, qmax)
        orbits, held = table.orbits, {}
        for w, row in rows.items():
            if len(w) != n - 1:
                raise ValueError(f"weight {w} has wrong length for n={n}")
            row = list(row)
            if not any(row):
                continue
            key = dominant_weight(w)
            first = orbits.setdefault(key, row)
            if first != row:
                raise AssertionError(
                    f"not W-invariant: weights {w} and {key} of one orbit hold "
                    f"{row} and {first}")
            held[key] = held.get(key, 0) + 1
        for key, count in held.items():
            if count != orbit_size(key):
                raise AssertionError(
                    f"not W-invariant: the orbit of {key} holds a row at {count} "
                    f"of its {orbit_size(key)} weights")
        return table

    def validate(self) -> "CharacterTable":
        """Class membership and non-negativity of every coefficient, checked
        once per orbit: the Weyl group moves a weight by roots, which are
        in class 0, and every weight of an orbit holds the orbit's row.  A
        failure names the orbit's dominant weight."""
        n, k = self.n, self.k
        for w, row in self.orbits.items():
            if weight_class(w, n) != k:
                raise AssertionError(f"weight {w} not in class {k} mod {n}")
            if min(row) < 0:
                raise AssertionError(f"negative multiplicity at weight {w}: {list(row)}")
        return self

    def row(self, weight) -> list[int]:
        """The coefficients at `weight`, the row of its orbit, as a new
        list; zeros at a weight the table does not hold.  A weight of the
        wrong length raises ValueError."""
        weight = tuple(weight)
        if len(weight) != self.n - 1:
            raise ValueError(f"weight {weight} has wrong length for n={self.n}")
        return list(self.orbits.get(dominant_weight(weight), [0] * (self.qmax + 1)))

    def items(self) -> list[tuple[tuple[int, ...], list[int] | tuple[int, ...]]]:
        """(weight, row) for every weight of every orbit, in weight order;
        the weights of one orbit share the orbit's row object."""
        pairs = _expand(self.orbits.items())
        pairs.sort(key=itemgetter(0))  # the int-tuple keys sort fastest
        return pairs

    def first_difference(self, other: "CharacterTable"):
        """None if equal; else (weight, degree, self_coeff, other_coeff) at
        the first weight in sorted order whose rows differ.  Rows are
        compared once per orbit, and only the orbits that differ are
        expanded to find that weight."""
        if (self.n, self.k, self.qmax, self.delta) != (
            other.n, other.k, other.qmax, other.delta,
        ):
            return ((), -1, None, None)
        differ = [key for key in self.orbits.keys() | other.orbits.keys()
                  if self.row(key) != other.row(key)]
        if not differ:
            return None
        w, key = min(_expand((key, key) for key in differ))
        a, b = self.row(key), other.row(key)
        d = next(d for d in range(self.qmax + 1) if a[d] != b[d])
        return (w, d, a[d], b[d])

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self.first_difference(other) is None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "delta": f"{self.delta.numerator}/{self.delta.denominator}",
            "qmax": self.qmax,
            "rows": [{"weight": list(w), "coeffs": list(row)} for w, row in self.items()],
        }

    def __repr__(self):
        return (
            f"CharacterTable(n={self.n}, k={self.k}, qmax={self.qmax}, "
            f"delta={self.delta}, norbits={len(self.orbits)})"
        )


def bosonic_character(n: int, k: int, qmax: int) -> CharacterTable:
    """Lattice sum over (c_1..c_n) in Z^n with sum c_i = k; the vector
    k_i = c_i - k/n contributes q^{sum k_i^2/2} / (q)_inf^{n-1} at weight
    (c_1-c_2, ..., c_{n-1}-c_n).

    Given sum c_i = k, the weight determines the vector, so each row is one
    copy of the series 1/(q)_inf^{n-1}, which is 1/(q)_qmax^{n-1} below the
    truncation, shifted to the vector's degree (sum c_i^2 - k)/2.  That
    degree is at most qmax, so the rows take only the qmax + 1 values of
    the shifted series, built once here, and every row holds a 1.  A
    permutation of c keeps its sum and its norm and moves its weight along
    the Weyl orbit, and the orbit's dominant weight is that of the weakly
    decreasing arrangement (see `dominant_weight`), so only those vectors
    are enumerated, one per orbit.  Every orbit of one degree holds the
    same tuple, so the table has at most qmax + 1 row objects."""
    table = CharacterTable(n, k, qmax)
    power = inv_pochhammer_product((qmax,) * (n - 1), qmax).coeffs
    shifted = [(0,) * degree + power[:qmax + 1 - degree] for degree in range(qmax + 1)]
    orbits = table.orbits
    # sum c_i^2 <= k + 2 qmax  <=>  relative degree <= qmax
    for c in _decreasing_vectors(n, k, k + 2 * qmax):
        weight, degree2 = exps_to_fw(c), sum(x * x for x in c) - k
        assert degree2 % 2 == 0 and degree2 >= 0
        assert weight not in orbits, f"weight {weight} met twice"
        orbits[weight] = shifted[degree2 // 2]
    return table.validate()


def _decreasing_vectors(length: int, total: int, max_sq: int, top: int | None = None):
    """Yield every weakly decreasing integer vector (c_1..c_r), r = `length`,
    with entries summing to `total`, squares summing to at most `max_sq`
    and, given `top`, no entry above it, in lexicographic order; none if
    r < 1.

    By Cauchy-Schwarz, r entries summing to t with squares summing to at most
    R exist over the reals only if t^2 <= r R; a prefix is extended only if
    the entries after it can still meet that bound.  For r = 1 the bound is
    exact: the last entry is t.  A module-level generator, not a closure, so
    that no reference cycle outlives the sum."""
    if length < 1 or total * total > length * max_sq:
        return
    if length == 1:
        if top is None or total <= top:
            yield (total,)
        return
    bound = math.isqrt(max_sq)
    for c in range(-bound, (bound if top is None else min(bound, top)) + 1):
        for rest in _decreasing_vectors(length - 1, total - c, max_sq - c * c, c):
            yield (c, *rest)


def _spinon_a_values(n: int, coords, n_spinons: int):
    """The A_i = N/n + (lambda, eps_i), i = 1..n; None unless all are
    non-negative integers.  As (lambda, eps_i) = c_i - sum_j c_j / n with
    c = `_eps(coords)`, n A_i = N + n c_i - sum_j c_j, so every A_i is an
    integer exactly when n divides N - sum_j c_j."""
    c = _eps(coords)
    shift, rem = divmod(n_spinons - sum(c), n)
    a_vals = [shift + x for x in c]
    if rem or min(a_vals) < 0:
        return None
    assert len(a_vals) == n and sum(a_vals) == n_spinons
    return a_vals


def spinon_string_function(
    n: int, k: int, coords, n_spinons: int, form: str, qmax: int
) -> QSeries:
    """The N-spinon cut of the string function, in either stated form, graded
    from q^{|lambda|^2/2}: coefficient d belongs to q^{|lambda|^2/2 + d}.

    alternating: sum_{m=0}^{min A_i} (-1)^m q^{m(m-1)/2}
                 / ((q)_m prod_i (q)_{A_i - m});
    multisum:    the nested sum of `_multisum_terms`.
    Every denominator is one `inv_pochhammer_product`, cached by its
    multiset of indices, so terms sharing a multiset share one series.

    The alternating form is W-symmetric.  The Weyl group permutes the
    eps_i, so a Weyl image w(lambda) has (w(lambda), eps_i) =
    (lambda, eps_{s(i)}) for a permutation s, and its A_i are those of lambda
    permuted.  The alternating form reads A only through min_i A_i and
    prod_i (q)_{A_i - m}, both unchanged by any permutation of the A_i, so
    it is a function of the multiset of the A_i (and qmax; N = sum A_i and
    n = len(A)).  `_alternating_cut` is therefore memoized on the sorted
    A_i: the cuts of a whole Weyl orbit are one computation.  The
    multisum form is not keyed that way.  Its terms read A in order (the
    exponent A_1 m_1 + ..., the indices A_1, A_2 - S_1, ...), and that it is
    symmetric at all follows only from its equality with the alternating
    form, which the `cut-forms` cases check; so it is evaluated at the
    ordered A of each weight, and each check tests it there.

    Returns the zero series when N is in the wrong class or some A_i fails to
    be a non-negative integer.
    """
    if form not in ("multisum", "alternating"):
        raise ValueError(f"unknown form {form!r}")
    total = q_zero(qmax)
    if n_spinons % n != k % n:
        return total
    a_vals = _spinon_a_values(n, coords, n_spinons)
    if a_vals is None:
        return total
    if form == "alternating":
        return _alternating_cut(tuple(sorted(a_vals)), qmax)
    for term in _multisum_terms(a_vals, n_spinons, qmax, 1, 0, 0, ()):
        total = total + term
    return total


@lru_cache(maxsize=None)
def _alternating_cut(a_sorted: tuple[int, ...], qmax: int) -> QSeries:
    """The alternating form of `spinon_string_function` at the sorted A_i,
    one per Weyl orbit (see there); the result is an immutable `QSeries`,
    so every caller may share it."""
    total = q_zero(qmax)
    for m in range(a_sorted[0] + 1):
        term = inv_pochhammer_product((m, *(a - m for a in a_sorted)), qmax)
        term = term.shift(m * (m - 1) // 2)
        total = total + (term * (-1 if m % 2 else 1))
    return total


def _multisum_terms(a_vals, n_spinons, qmax, j, s_prev, exponent, denom):
    """Yield the terms of the multisum form below the prefix m_1..m_{j-1},
    whose sum is s_prev = S_{j-1}, exponent the prefix's part of the power
    of q and denom the tuple of its Pochhammer indices
    (A_1, m_1, A_2 - S_1, m_2, ...).  Only a leaf builds a series, one
    `inv_pochhammer_product` of its whole tuple.  A module-level generator,
    not a closure, so that no reference cycle outlives the sum.

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
        yield inv_pochhammer_product(denom + (sub1, sub2), qmax).shift(exp)
        return
    sub = a_vals[j - 1] - s_prev
    if sub < 0:
        return
    for m in range(n_spinons - s_prev + 1):
        yield from _multisum_terms(a_vals, n_spinons, qmax, j + 1, s_prev + m,
                                   exponent + sub * m, denom + (sub, m))


def verify_spinon_cut(n: int, k: int, coords, qmax: int) -> bool:
    """Check c^Lambda_lambda = sum_N c^{Lambda,N}_lambda below the truncation.

    Both sides are graded from q^{|lambda|^2/2}, so the closed form
    c^Lambda_lambda = q^{|lambda|^2/2} / (q)_inf^{n-1} is 1/(q)_inf^{n-1}.

    The sum stops at a proved N.  Let Q_n(A; m) be the exponent of a term of
    `_multisum_terms`, N = sum A_i.  Then Q_n(A; m) = A_1 m_1 +
    Q_{n-1}(A_2 - m_1, ..., A_n - m_1; m_2, ...), and by induction
    Q_n + sum A_i^2 / 2 >= N^2 / (2(n-1)) for all real A and m: at n = 2,
    A_1 A_2 + (A_1^2 + A_2^2)/2 = N^2/2; in the step, with x = A_1,
    z = N - A_1 - (n-1) m_1 and p = n - 1, twice p times the slack is
    (z/sqrt(p-1) - sqrt(p-1) x)^2.  As sum A_i^2 = |lambda|^2 + N^2/n, every
    term of the N-spinon cut sits at a degree d with 2n(n-1) d >= N^2 -
    (n-1) n|lambda|^2, so no cut with N^2 > (n-1)(2n qmax + n|lambda|^2)
    reaches q^qmax.  The cut just past that N is checked to vanish, and a
    negative coefficient in any cut fails the check.

    The cuts of one Weyl orbit are shared through the memo of
    `_alternating_cut` (see `spinon_string_function`), and the checks above
    still run on every cut.
    """
    if weight_class(coords, n) != k % n:
        raise ValueError(f"weight {tuple(coords)} is not in class {k} mod {n}")
    bound = (n - 1) * (2 * n * qmax + scaled_weight_norm(coords, n))
    partial = q_zero(qmax)
    n_spinons = k % n
    while n_spinons * n_spinons <= bound:
        term = spinon_string_function(n, k, coords, n_spinons, "alternating", qmax)
        if any(c < 0 for c in term.coeffs):
            return False
        partial = partial + term
        n_spinons += n
    past = spinon_string_function(n, k, coords, n_spinons, "alternating", qmax)
    if not past.is_zero():
        raise AssertionError(
            f"spinon cut: the {n_spinons}-spinon cut at weight {tuple(coords)} "
            f"reaches q^{qmax}, past the bound N^2 <= {bound}"
        )
    return partial == inv_pochhammer_product((qmax,) * (n - 1), qmax)


def sl2_spinon_grades(k: int, qmax: int):
    """Yield (N, (N^2 - k)/4) for N = k, k+2, ... while the grade is at most
    qmax.  At rank 2, N spinons sit at N^2/4 - Delta_k = (N^2 - k)/4, an
    integer since N = k mod 2; it grows with N, so the first N past qmax ends
    every spinon sum exactly."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    n_spinons = k
    while (grade := (n_spinons * n_spinons - k) // 4) <= qmax:
        yield n_spinons, grade
        n_spinons += 2


def sl2_fermionic_character(k: int, form: str, qmax: int) -> CharacterTable:
    """The two fermionic sl_2 forms as CharacterTables.

    root form:   sum over m1,m2 >= 0 of
                 q^{m1^2 - m1 m2 + m2^2 + k(m1-m2)} / ((q)_m1 (q)_m2)
                 at weight 2(m1-m2)+k  (prefactor q^{k^2/4} = q^{Delta_k});
    spinon form: sum over m1,m2 >= 0 with m1+m2 = k mod 2 of
                 q^{(m1+m2)^2/4} / ((q)_m1 (q)_m2) at weight m1-m2.
    Both are summed weight by weight and folded into orbits by
    `CharacterTable.from_weights`, which checks that the sum is W-invariant.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if form not in ("root", "spinon"):
        raise ValueError(f"unknown form {form!r}")
    if form == "root":
        terms = _root_form_terms(k, qmax)
    else:
        terms = ((m1, total - m1, grade, (2 * m1 - total,))
                 for total, grade in sl2_spinon_grades(k, qmax)
                 for m1 in range(total + 1))
    rows: dict[tuple[int], list[int]] = {}
    for m1, m2, degree0, weight in terms:
        series = inv_pochhammer_product((m1, m2), qmax)
        row = rows.setdefault(weight, [0] * (qmax + 1))
        for d in range(degree0, qmax + 1):
            row[d] += series[d - degree0]
    return CharacterTable.from_weights(2, k, qmax, rows).validate()


def _root_form_terms(k: int, qmax: int):
    """Yield (m1, m2, exponent, weight) for the root-form pairs with exponent
    at most qmax; with the q^{k^2/4} prefactor the exponent grades relative
    to Delta_k.

    With M = max(m1, m2), m1^2 - m1 m2 + m2^2 >= 3M^2/4 and k(m1 - m2) >= -kM,
    so 4 * exponent >= 3M^2 - 4kM, which grows with M >= 1: the pairs past
    the last M with 3M^2 - 4kM <= 4 qmax contribute nothing up to q^qmax."""
    def exponent(m1, m2):
        return m1 * m1 - m1 * m2 + m2 * m2 + k * (m1 - m2)

    m_bound = 0
    while 3 * (m_bound + 1) ** 2 - 4 * k * (m_bound + 1) <= 4 * qmax:
        m_bound += 1
    past = m_bound + 1
    lowest = min(min(exponent(past, m), exponent(m, past)) for m in range(past + 1))
    if lowest <= qmax:
        raise AssertionError(
            f"root form: a pair with max(m1, m2) = {past} has exponent "
            f"{lowest} <= qmax = {qmax}, past the bound {m_bound}"
        )
    for m1 in range(m_bound + 1):
        for m2 in range(m_bound + 1):
            exp = exponent(m1, m2)
            if 0 <= exp <= qmax:
                yield m1, m2, exp, (2 * (m1 - m2) + k,)


def sl2_spinon_enumeration(k: int, qmax: int) -> CharacterTable:
    """Enumerate the sl_2 spinon basis: M1+M2 spinons with weakly increasing
    non-negative modes, energy (M1+M2)^2/4 + sum of modes, weight M1-M2.

    The mode multisets of M spinons with modes summing to s are the
    partitions of s with at most M parts (zeros padded), so the states of
    each (M1, M2) are counted by `partitions.partition_counts` without
    building a partition.  The counts are summed weight by weight and folded
    into orbits by `CharacterTable.from_weights`, which checks that the sum
    is W-invariant."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    rows: dict[tuple[int], list[int]] = {}
    for total, base in sl2_spinon_grades(k, qmax):
        budget = qmax - base
        at_most = partition_counts(total, budget)
        for m1_count in range(total + 1):
            m2_count = total - m1_count
            weight = (m1_count - m2_count,)
            row = rows.setdefault(weight, [0] * (qmax + 1))
            for e1 in range(budget + 1):
                c1 = at_most[m1_count][e1]
                if c1 == 0:
                    continue
                for e2 in range(budget - e1 + 1):
                    c2 = at_most[m2_count][e2]
                    if c2:
                        row[base + e1 + e2] += c1 * c2
    return CharacterTable.from_weights(2, k, qmax, rows).validate()
