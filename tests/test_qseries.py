"""Exact q-series arithmetic: pinned small values and algebraic invariants."""
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinonchars.partitions import partitions_of
from spinonchars.qseries import (
    QSeries,
    durfee_check,
    euler_inverse,
    inv_pochhammer,
    inv_pochhammer_product,
    inv_pochhammer_z_expansion,
    lemma_d3_check,
    pochhammer_z_expansion,
    q_one,
    q_zero,
    qbinomial,
    qmultinomial,
)
from oracles import pochhammer


def test_qbinomial_4_2_pinned():
    """[4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4."""
    assert qbinomial(4, 2, 4).coeffs == (1, 1, 2, 1, 1)


def test_qmultinomial_1_1_1_pinned():
    """[3; 1,1,1]_q = 1 + 2q + 2q^2 + q^3."""
    assert qmultinomial([1, 1, 1], 3).coeffs == (1, 2, 2, 1)


def test_qbinomial_counts_partitions_in_a_box():
    """The coefficient of q^d in [n, m]_q counts the partitions of d that fit
    in an m x (n - m) box."""
    for n in range(13):
        for m in range(n + 1):
            counts = tuple(sum(1 for _ in partitions_of(d, max_part=n - m, max_len=m))
                           for d in range(16))
            assert qbinomial(n, m, 15).coeffs == counts, (n, m)


def test_qbinomial_symmetry_and_unimodality_examples():
    for n in range(8):
        for m in range(n + 1):
            a = qbinomial(n, m, 20)
            b = qbinomial(n, n - m, 20)
            assert a == b, f"[{n},{m}] != [{n},{n - m}]"
            assert all(c >= 0 for c in a.coeffs)


def test_pochhammer_times_inverse_is_one():
    for n in range(7):
        prod = pochhammer(n, 15) * inv_pochhammer(n, 15)
        assert prod == q_one(15), f"(q)_{n} * 1/(q)_{n} != 1"


def test_euler_inverse_counts_partitions():
    # partition numbers p(0..10)
    assert euler_inverse(10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_euler_inverse_matches_pentagonal_recurrence():
    # p(m) = sum_{j>=1} (-1)^{j+1} (p(m - j(3j-1)/2) + p(m - j(3j+1)/2))
    qmax = 300
    p = [1]
    for m in range(1, qmax + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
    assert euler_inverse(qmax).coeffs == tuple(p)


def _exact_pochhammer(n):
    """(q)_n expanded in full by the schoolbook product of its factors."""
    poly = [1]
    for k in range(1, n + 1):
        factor = [1] + [0] * (k - 1) + [-1]
        out = [0] * (len(poly) + k)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    return tuple(poly)


def test_truncated_pochhammers():
    for qmax in range(13):
        for n in range(2 * qmax + 1):
            poch, inv = pochhammer(n, qmax), inv_pochhammer(n, qmax)
            assert poch * inv == q_one(qmax), (n, qmax)
            exact = _exact_pochhammer(n)[: qmax + 1]
            assert poch.coeffs == exact + (0,) * (qmax + 1 - len(exact)), (n, qmax)
            if n >= qmax:
                assert inv == euler_inverse(qmax), (n, qmax)


def test_negative_pochhammer_index_rejected():
    for build in (pochhammer, inv_pochhammer):
        with pytest.raises(ValueError):
            build(-1, 5)
    with pytest.raises(ValueError):
        euler_inverse(-1)


def test_inv_pochhammer_product_is_the_chain_of_factors():
    """Every tuple of at most 4 parts <= 6, so every multiset in every order
    and with any number of zeros, gives the left-to-right product of its
    inverse Pochhammers at each order 0..12."""
    for qmax in range(13):
        chains = {(): q_one(qmax)}  # each tuple's chain extends its prefix's
        for length in range(1, 5):
            for parts in product(range(7), repeat=length):
                chains[parts] = chains[parts[:-1]] * inv_pochhammer(parts[-1], qmax)
        for parts, chain in chains.items():
            assert inv_pochhammer_product(parts, qmax) == chain, (parts, qmax)
    assert inv_pochhammer_product(iter([0, 3, 1]), 6) == inv_pochhammer_product(
        (1, 3), 6)


def test_inv_pochhammer_product_rejects_a_negative_part():
    for parts in ((-1,), (2, -1), (0, 3, -2, 1)):
        with pytest.raises(ValueError):
            inv_pochhammer_product(parts, 5)


def test_getitem_beyond_truncation_is_an_error():
    s = q_one(4).shift(2)
    assert s[2] == 1 and s[-3] == 0
    with pytest.raises(IndexError):
        s[5]


small_series = st.builds(
    lambda cs: QSeries(cs, 8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=9),
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_multiplication_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _convolution(a, b):
    """The product by the schoolbook double loop, truncated at the lower order."""
    m = min(a.qmax, b.qmax)
    out = [0] * (m + 1)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return m, tuple(out)


mixed_series = st.builds(
    QSeries,
    st.lists(st.integers(-9, 9) | st.just(0), min_size=1, max_size=12),
    st.integers(0, 11),
)


@settings(max_examples=100, deadline=None)
@given(mixed_series, mixed_series)
def test_multiplication_is_the_truncated_convolution(a, b):
    """Operands of different orders, with zero and negative coefficients."""
    prod = a * b
    assert (prod.qmax, prod.coeffs) == _convolution(a, b)


@st.composite
def shifted_series(draw):
    """A random series at a random order 0..11, shifted by 0..qmax + 2, so
    that long runs of leading zeros and all-zero series occur."""
    qmax = draw(st.integers(0, 11))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=qmax + 1))
    return QSeries([0] * draw(st.integers(0, qmax + 2)) + coeffs, qmax)


def _well_formed(series, qmax):
    """The invariant of every QSeries: a tuple of exactly qmax + 1 ints."""
    coeffs = series.coeffs
    assert series.qmax == qmax
    assert type(coeffs) is tuple and len(coeffs) == qmax + 1, coeffs
    assert all(type(c) is int for c in coeffs), coeffs


@settings(max_examples=200, deadline=None)
@given(shifted_series(), shifted_series())
def test_arithmetic_matches_explicit_loops_on_shifted_series(a, b):
    """`*`, `+`, `shift` and `* int` against the schoolbook convolution and
    coefficient-by-coefficient loops, with every result well formed."""
    m = min(a.qmax, b.qmax)
    prod = a * b
    _well_formed(prod, m)
    assert (prod.qmax, prod.coeffs) == _convolution(a, b)
    total = a + b
    _well_formed(total, m)
    assert total.coeffs == tuple(a.coeffs[d] + b.coeffs[d] for d in range(m + 1))
    for d in range(a.qmax + 3):
        shifted = a.shift(d)
        _well_formed(shifted, a.qmax)
        assert shifted.coeffs == tuple(a.coeffs[e - d] if e >= d else 0
                                       for e in range(a.qmax + 1)), d
    for k in (0, 1, -1, 2, -3, 7):
        scaled = a * k
        _well_formed(scaled, a.qmax)
        assert scaled.coeffs == tuple(c * k for c in a.coeffs), k


def test_qbinomials_are_ratios_of_pochhammers():
    """[n choose m]_q = (q)_n / ((q)_m (q)_{n-m}) for every 0 <= m <= n <= 20,
    read from `qbinomial` and from both z-expansions, against the oracle
    (q)_n and the inverse Pochhammers, with every coefficient well formed."""
    qmax = 24

    def ratio(n, m):
        return pochhammer(n, qmax) * inv_pochhammer(m, qmax) * inv_pochhammer(n - m, qmax)

    for n in range(21):
        rows = pochhammer_z_expansion(n, qmax)
        assert len(rows) == n + 1
        for m in range(n + 1):
            expected = ratio(n, m)
            got = qbinomial(n, m, qmax)
            _well_formed(got, qmax)
            assert got == expected, (n, m)
            _well_formed(rows[m], qmax)
            assert rows[m] == expected.shift(m * (m - 1) // 2) * (-1) ** m, (n, m)
        if n:
            zdeg = 21 - n
            inverse = inv_pochhammer_z_expansion(n, zdeg, qmax)
            assert len(inverse) == zdeg + 1
            for j, coeff in enumerate(inverse):
                _well_formed(coeff, qmax)
                assert coeff == ratio(n + j - 1, j), (n, j)


def test_finite_product_z_expansion_pinned():
    """(z; q)_2 = 1 - (1+q)z + q z^2."""
    exp = pochhammer_z_expansion(2, 6)
    assert exp[0] == q_one(6)
    assert exp[1] == QSeries([-1, -1], 6)
    assert exp[2] == q_one(6).shift(1)


def test_z_expansion_product_is_one():
    for n in range(1, 6):
        zdeg = n + 2
        lhs = pochhammer_z_expansion(n, 12)
        rhs = inv_pochhammer_z_expansion(n, zdeg, 12)
        assert (len(lhs), len(rhs)) == (n + 1, zdeg + 1)
        for j in range(zdeg + 1):
            prod = q_zero(12)
            for i in range(min(j, n) + 1):
                prod = prod + lhs[i] * rhs[j - i]
            assert prod == (q_one(12) if j == 0 else q_zero(12)), f"N={n}, z^{j} residue {prod}"


def test_inverse_z_expansion_rejects_empty_product_tail():
    with pytest.raises(ValueError):
        inv_pochhammer_z_expansion(0, 1, 5)


def test_durfee_rectangle_identity_small():
    for m in range(-10, 11):
        for qmax in range(21):
            assert durfee_check(m, qmax), f"shifted Durfee sum fails at m={m}, qmax={qmax}"


def test_two_variable_finite_identities_small():
    for big_m in range(5):
        for big_n in range(5):
            for variant in ("i", "ii"):
                assert lemma_d3_check(big_m, big_n, variant, 12), (
                    f"variant {variant} fails at M={big_m}, N={big_n}"
                )
