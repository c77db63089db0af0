"""Exact q-series arithmetic: pinned small values and algebraic invariants.
A series is the tuple of its qmax + 1 coefficients."""
import inspect
from itertools import product as cartesian

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinonchars import qseries, symfunc
from spinonchars.affine import spinon_string_function, verify_spinon_cut
from spinonchars.partitions import partitions_of
from spinonchars.qseries import inv_pochhammer, inv_pochhammer_product, product
from spinonchars.symfunc import (
    _shifted,
    durfee_check,
    euler_inverse,
    inv_pochhammer_z_expansion,
    lemma_d3_check,
    pochhammer_z_expansion,
    qbinomial,
    qmultinomial,
    rogers_szego,
    rs_generating_check,
)
from oracles import convolution_product, pochhammer


def _one(qmax):
    return (1,) + (0,) * qmax


def _zero(qmax):
    return (0,) * (qmax + 1)


def _at_order(coeffs, qmax):
    """The series of `coeffs` at order qmax: cut, or padded with zeros."""
    coeffs = tuple(coeffs[: qmax + 1])
    return coeffs + (0,) * (qmax + 1 - len(coeffs))


def _sum(*series):
    """Coefficient-wise sum, at the lower order."""
    return tuple(map(sum, zip(*series)))


def test_qbinomial_4_2_pinned():
    """[4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4."""
    assert qbinomial(4, 2, 4) == (1, 1, 2, 1, 1)


def test_qmultinomial_1_1_1_pinned():
    """[3; 1,1,1]_q = 1 + 2q + 2q^2 + q^3."""
    assert qmultinomial([1, 1, 1], 3) == (1, 2, 2, 1)


def test_qbinomial_counts_partitions_in_a_box():
    """The coefficient of q^d in [n, m]_q counts the partitions of d that fit
    in an m x (n - m) box."""
    for n in range(13):
        for m in range(n + 1):
            counts = tuple(sum(1 for _ in partitions_of(d, max_part=n - m, max_len=m))
                           for d in range(16))
            assert qbinomial(n, m, 15) == counts, (n, m)


def test_qbinomial_symmetry_and_unimodality_examples():
    for n in range(8):
        for m in range(n + 1):
            a = qbinomial(n, m, 20)
            b = qbinomial(n, n - m, 20)
            assert a == b, f"[{n},{m}] != [{n},{n - m}]"
            assert all(c >= 0 for c in a)


def test_pochhammer_times_inverse_is_one():
    for n in range(7):
        prod = product(pochhammer(n, 15), inv_pochhammer(n, 15))
        assert prod == _one(15), f"(q)_{n} * 1/(q)_{n} != 1"


def test_euler_inverse_counts_partitions():
    # partition numbers p(0..10)
    assert euler_inverse(10) == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


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
    assert euler_inverse(qmax) == tuple(p)


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
            assert product(poch, inv) == _one(qmax), (n, qmax)
            assert poch == _at_order(_exact_pochhammer(n), qmax), (n, qmax)
            if n >= qmax:
                assert inv == euler_inverse(qmax), (n, qmax)


def test_negative_pochhammer_index_rejected():
    for build in (pochhammer, inv_pochhammer):
        with pytest.raises(ValueError):
            build(-1, 5)
    with pytest.raises(ValueError):
        euler_inverse(-1)


def _public_functions(module):
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__}


# one call per public function of `qseries` or `symfunc` that takes an order,
# and per function of another layer that builds a series at the order it is
# given
NEGATIVE_ORDER_CALLS = {
    "euler_inverse": lambda q: euler_inverse(q),
    "inv_pochhammer": lambda q: inv_pochhammer(2, q),
    "inv_pochhammer_product": lambda q: inv_pochhammer_product((1, 2), q),
    "inv_pochhammer_product-empty": lambda q: inv_pochhammer_product((0,), q),
    "qbinomial": lambda q: qbinomial(3, 1, q),
    "qmultinomial": lambda q: qmultinomial((1, 1), q),
    "qmultinomial-empty": lambda q: qmultinomial((), q),
    "pochhammer_z_expansion": lambda q: pochhammer_z_expansion(2, q),
    "inv_pochhammer_z_expansion": lambda q: inv_pochhammer_z_expansion(2, 1, q),
    "inv_pochhammer_z_expansion-empty": lambda q: inv_pochhammer_z_expansion(0, 0, q),
    "durfee_check": lambda q: durfee_check(0, q),
    "lemma_d3_check": lambda q: lemma_d3_check(1, 1, "i", q),
    "spinon_string_function-alternating":
        lambda q: spinon_string_function(3, 0, (0, 0), 3, "alternating", q),
    "spinon_string_function-multisum":
        lambda q: spinon_string_function(3, 0, (0, 0), 3, "multisum", q),
    "spinon_string_function-zero":
        lambda q: spinon_string_function(3, 0, (0, 0), 1, "alternating", q),
    "verify_spinon_cut": lambda q: verify_spinon_cut(3, 0, (0, 0), q),
    "rogers_szego": lambda q: rogers_szego(2, 2, q),
    "rs_generating_check": lambda q: rs_generating_check(2, 2, q),
    "rs_generating_check-empty": lambda q: rs_generating_check(-1, 2, q),
}


def test_negative_order_calls_cover_every_public_qseries_function():
    takes_order = {name for module in (qseries, symfunc) for name in _public_functions(module)
                   if "qmax" in inspect.signature(getattr(module, name)).parameters}
    assert takes_order <= {key.split("-")[0] for key in NEGATIVE_ORDER_CALLS}


@pytest.mark.parametrize("call", NEGATIVE_ORDER_CALLS.values(), ids=NEGATIVE_ORDER_CALLS)
@pytest.mark.parametrize("qmax", (-1, -3))
def test_a_negative_order_is_refused(call, qmax):
    """No function builds a series of a negative order: a series of length
    0 or less would break the invariant every caller trusts."""
    with pytest.raises(ValueError):
        call(qmax)


@pytest.mark.parametrize("call", [
    lambda: rogers_szego(2, 0, 4), lambda: rogers_szego(0, -1, 4),
    lambda: rs_generating_check(2, 0, 3), lambda: rs_generating_check(-1, 0, 3)])
def test_no_variables_is_refused(call):
    """H_N is a polynomial in at least one variable: nvars < 1 is refused
    rather than recursed on without end."""
    with pytest.raises(ValueError, match="nvars must be >= 1"):
        call()


def test_inv_pochhammer_product_is_the_chain_of_factors():
    """Every tuple of at most 4 parts <= 6, so every multiset in every order
    and with any number of zeros, gives the left-to-right product of its
    inverse Pochhammers at each order 0..12."""
    for qmax in range(13):
        chains = {(): _one(qmax)}  # each tuple's chain extends its prefix's
        for length in range(1, 5):
            for parts in cartesian(range(7), repeat=length):
                chains[parts] = product(chains[parts[:-1]], inv_pochhammer(parts[-1], qmax))
        for parts, chain in chains.items():
            assert inv_pochhammer_product(parts, qmax) == chain, (parts, qmax)
    assert inv_pochhammer_product(iter([0, 3, 1]), 6) == inv_pochhammer_product(
        (1, 3), 6)


def test_inv_pochhammer_product_rejects_a_negative_part():
    for parts in ((-1,), (2, -1), (0, 3, -2, 1)):
        with pytest.raises(ValueError):
            inv_pochhammer_product(parts, 5)


def test_getitem_beyond_truncation_is_an_error():
    s = _shifted(_one(4), 2)
    assert s == (0, 0, 1, 0, 0) and s[2] == 1
    with pytest.raises(IndexError):
        s[5]


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=9).map(
    lambda cs: _at_order(cs, 8))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_multiplication_commutes(a, b):
    assert product(a, b) == product(b, a)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_multiplication_associates_and_distributes(a, b, c):
    assert product(product(a, b), c) == product(a, product(b, c))
    assert product(a, _sum(b, c)) == _sum(product(a, b), product(a, c))


def _convolution(a, b):
    """The product by the schoolbook double loop, truncated at the lower order."""
    m = min(len(a), len(b)) - 1
    out = [0] * (m + 1)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


mixed_series = st.builds(
    _at_order,
    st.lists(st.integers(-9, 9) | st.just(0), min_size=1, max_size=12),
    st.integers(0, 11),
)


@settings(max_examples=100, deadline=None)
@given(mixed_series, mixed_series)
def test_multiplication_is_the_truncated_convolution(a, b):
    """Operands of different orders, with zero and negative coefficients."""
    assert product(a, b) == _convolution(a, b)


@st.composite
def wide_series(draw):
    """A series of 1..60 coefficients, each of up to 200 bits and either
    sign, after a run of leading zeros that may fill it."""
    length = draw(st.integers(1, 60))
    most = 2 ** draw(st.integers(0, 200))
    coeffs = draw(st.lists(st.integers(-most, most), min_size=length, max_size=length))
    return _at_order([0] * draw(st.integers(0, length)) + coeffs, length - 1)


@settings(max_examples=300, deadline=None)
@given(wide_series(), wide_series())
@example((2 ** 200,) * 60, (2 ** 200,) * 60)
@example((-(2 ** 200),) * 60, (2 ** 200,) * 37)
@example((3,) * 5, (-5,) * 9)
@example((1,), (1,))
@example((0,) * 4, (7, 0, 1))
def test_packed_product_matches_the_convolution(a, b):
    """`product` packs each series into one int and multiplies once; it
    must give the coefficient-by-coefficient product of the oracle on
    signed series of unequal lengths and wide coefficients.  The examples
    put a coefficient of the full product at the bound of its slot width,
    where a slot one bit narrower reads the wrong sign."""
    got = product(a, b)
    _well_formed(got, min(len(a), len(b)) - 1)
    assert got == convolution_product(a, b)


@st.composite
def shifted_series(draw):
    """A random series at a random order 0..11, shifted by 0..qmax + 2, so
    that long runs of leading zeros and all-zero series occur."""
    qmax = draw(st.integers(0, 11))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=qmax + 1))
    return _at_order([0] * draw(st.integers(0, qmax + 2)) + coeffs, qmax)


def _well_formed(series, qmax):
    """The invariant of every series: a tuple of exactly qmax + 1 ints."""
    assert type(series) is tuple and len(series) == qmax + 1, series
    assert all(type(c) is int for c in series), series


@settings(max_examples=200, deadline=None)
@given(shifted_series(), shifted_series())
def test_arithmetic_matches_explicit_loops_on_shifted_series(a, b):
    """`product` and `_shifted` against the schoolbook convolution and a
    coefficient-by-coefficient loop, with every result well formed."""
    prod = product(a, b)
    _well_formed(prod, min(len(a), len(b)) - 1)
    assert prod == _convolution(a, b)
    for d in range(len(a) + 2):
        shifted = _shifted(a, d)
        _well_formed(shifted, len(a) - 1)
        assert shifted == tuple(a[e - d] if e >= d else 0 for e in range(len(a))), d


orders = st.integers(0, 12)
indices = st.integers(0, 8)

# For each public function of `qseries`, and each function of the q-binomial
# block of `symfunc`, a strategy of (arguments, order of the result).
CALLS = {
    "euler_inverse": st.builds(lambda q: ((q,), q), orders),
    "inv_pochhammer": st.builds(lambda n, q: ((n, q), q), indices, orders),
    "inv_pochhammer_product": st.builds(lambda ps, q: ((ps, q), q),
                                        st.lists(indices, max_size=4), orders),
    "qbinomial": st.builds(lambda n, m, q: ((n + m, m, q), q), indices, indices, orders),
    "qmultinomial": st.builds(lambda ks, q: ((ks, q), q), st.lists(indices, max_size=4),
                              orders),
    "pochhammer_z_expansion": st.builds(lambda n, q: ((n, q), q), indices, orders),
    "inv_pochhammer_z_expansion": st.builds(
        lambda n, z, q: ((n, z if n else 0, q), q), indices, indices, orders),
    "product": st.builds(lambda a, b: ((a, b), min(len(a), len(b)) - 1),
                         shifted_series(), shifted_series()),
    "durfee_check": st.builds(lambda m, q: ((m, q), q), st.integers(-8, 8), orders),
    "lemma_d3_check": st.builds(lambda m, n, v, q: ((m, n, v, q), q),
                                indices, indices, st.sampled_from(("i", "ii")), orders),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_series_is_a_tuple_of_qmax_plus_one_ints(data):
    """Every public function of `qseries`, and of the q-binomial block of
    `symfunc`, at small random arguments, returns series that keep the
    invariant; a z-expansion is a tuple of them, and a check of an identity
    returns True."""
    assert (_public_functions(qseries) <= set(CALLS)
            <= _public_functions(qseries) | _public_functions(symfunc))
    name = data.draw(st.sampled_from(sorted(CALLS)))
    args, qmax = data.draw(CALLS[name])
    result = getattr(qseries if name in vars(qseries) else symfunc, name)(*args)
    if name.endswith("_check"):
        assert result is True, (name, args)
    elif name.endswith("_z_expansion"):
        assert type(result) is tuple and result, (name, args)
        for entry in result:
            _well_formed(entry, qmax)
    else:
        _well_formed(result, qmax)


def test_qbinomials_are_ratios_of_pochhammers():
    """[n choose m]_q = (q)_n / ((q)_m (q)_{n-m}) for every 0 <= m <= n <= 20,
    read from `qbinomial` and from both z-expansions, against the oracle
    (q)_n and the inverse Pochhammers, with every coefficient well formed."""
    qmax = 24

    def ratio(n, m):
        return product(product(pochhammer(n, qmax), inv_pochhammer(m, qmax)),
                       inv_pochhammer(n - m, qmax))

    for n in range(21):
        rows = pochhammer_z_expansion(n, qmax)
        assert len(rows) == n + 1
        for m in range(n + 1):
            expected = ratio(n, m)
            got = qbinomial(n, m, qmax)
            _well_formed(got, qmax)
            assert got == expected, (n, m)
            _well_formed(rows[m], qmax)
            sign = (-1) ** m
            assert rows[m] == tuple(sign * c for c in _shifted(expected, m * (m - 1) // 2)), (
                n, m)
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
    assert exp[0] == _one(6)
    assert exp[1] == (-1, -1, 0, 0, 0, 0, 0)
    assert exp[2] == _shifted(_one(6), 1)


def test_z_expansion_product_is_one():
    for n in range(1, 6):
        zdeg = n + 2
        lhs = pochhammer_z_expansion(n, 12)
        rhs = inv_pochhammer_z_expansion(n, zdeg, 12)
        assert (len(lhs), len(rhs)) == (n + 1, zdeg + 1)
        for j in range(zdeg + 1):
            prod = _zero(12)
            for i in range(min(j, n) + 1):
                prod = _sum(prod, product(lhs[i], rhs[j - i]))
            assert prod == (_one(12) if j == 0 else _zero(12)), f"N={n}, z^{j} residue {prod}"


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
