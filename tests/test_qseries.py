"""Exact q-series arithmetic: pinned small values and algebraic invariants."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinonchars.qseries import (
    QSeries,
    ZPolyQ,
    _poch_poly,
    durfee_check,
    euler_inverse,
    inv_pochhammer,
    inv_pochhammer_z_expansion,
    lemma_d3_check,
    pochhammer,
    pochhammer_z_expansion,
    q_monomial,
    q_one,
    q_zero,
    qbinomial,
    qmultinomial,
)


def test_qbinomial_4_2_pinned():
    """[4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4."""
    assert qbinomial(4, 2, 4).coeffs == (1, 1, 2, 1, 1)


def test_qmultinomial_1_1_1_pinned():
    """[3; 1,1,1]_q = 1 + 2q + 2q^2 + q^3."""
    assert qmultinomial([1, 1, 1], 3).coeffs == (1, 2, 2, 1)


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


def test_truncated_pochhammers():
    for qmax in range(13):
        for n in range(2 * qmax + 1):
            poch, inv = pochhammer(n, qmax), inv_pochhammer(n, qmax)
            assert poch * inv == q_one(qmax), (n, qmax)
            exact = _poch_poly(n)[: qmax + 1]
            assert poch.coeffs == exact + (0,) * (qmax + 1 - len(exact)), (n, qmax)
            if n >= qmax:
                assert inv == euler_inverse(qmax), (n, qmax)


def test_negative_pochhammer_index_rejected():
    for build in (pochhammer, inv_pochhammer):
        with pytest.raises(ValueError):
            build(-1, 5)
    with pytest.raises(ValueError):
        euler_inverse(-1)


def test_truncated_pochhammers_skip_the_exact_product():
    # the exact (q)_n has degree n(n+1)/2; building at the truncation order
    # must not expand it
    inv_pochhammer.cache_clear()
    before = _poch_poly.cache_info().currsize
    euler_inverse(120)
    pochhammer(80, 30)
    inv_pochhammer(80, 30)
    assert _poch_poly.cache_info().currsize == before


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        QSeries([2, 1], 4).inverse()
    s = QSeries([1, 3, 5], 6)
    assert s * s.inverse() == q_one(6)


def test_getitem_beyond_truncation_is_an_error():
    s = q_monomial(2, 4)
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


def test_finite_product_z_expansion_pinned():
    """(z; q)_2 = 1 - (1+q)z + q z^2."""
    exp = pochhammer_z_expansion(2, 6)
    assert exp[0] == q_one(6)
    assert exp[1] == QSeries([-1, -1], 6)
    assert exp[2] == q_monomial(1, 6)


def test_z_expansion_product_is_one():
    for n in range(1, 6):
        zdeg = n + 2
        prod = (pochhammer_z_expansion(n, 12)
                * inv_pochhammer_z_expansion(n, zdeg, 12)).truncate_z(zdeg)
        assert prod[0] == q_one(12)
        for j in range(1, zdeg + 1):
            assert prod[j] == q_zero(12), f"N={n}, z^{j} residue {prod[j]}"


def test_inverse_z_expansion_rejects_empty_product_tail():
    with pytest.raises(ValueError):
        inv_pochhammer_z_expansion(0, 1, 5)


def test_durfee_rectangle_identity_small():
    for m in range(-4, 5):
        assert durfee_check(m, 20), f"shifted Durfee sum fails at m={m}"


def test_two_variable_finite_identities_small():
    for big_m in range(5):
        for big_n in range(5):
            for variant in ("i", "ii"):
                assert lemma_d3_check(big_m, big_n, variant, 12), (
                    f"variant {variant} fails at M={big_m}, N={big_n}"
                )


def test_zpoly_multiplication_matches_manual_convolution():
    a = ZPolyQ([q_one(6), q_monomial(1, 6)])
    b = ZPolyQ([q_one(6), q_one(6) * 2, q_monomial(2, 6)])
    prod = a * b
    assert prod[0] == q_one(6)
    assert prod[1] == q_one(6) * 2 + q_monomial(1, 6)
    assert prod[3] == q_monomial(1, 6) * q_monomial(2, 6)
