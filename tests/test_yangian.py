"""Drinfel'd polynomials, GZ schemes, and the decomposition of the level-1
characters into border-strip modules."""
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinonchars import verify, yangian
from spinonchars.affine import bosonic_character, conformal_dimension, from_weights
from spinonchars.partitions import all_partitions_upto, padded, partitions_of
from spinonchars.strips import reduce, shape, sl2_partition_to_strip, strip
from spinonchars.symfunc import (
    SymPoly,
    drinfeld_evaluation,
    drinfeld_tame,
    elementary,
    gz_schemes,
    gz_to_sst,
    gz_weight,
    schur_skew,
    sst_to_gz,
    weight_projection,
)
from spinonchars.verify import _sub_partitions, sl2_hw_character, weight_rows
from spinonchars.yangian import sl2_yangian_decomposition, yangian_decomposition
from oracles import eval_ones, poly_degrees, reduced_strips, skew_shapes


# ---------------------------------------------------------------------------
# Drinfel'd polynomials

def test_drinfeld_evaluation_pinned():
    # lambda = (2,1) at rank 2: single root at u = -... stored in half-units
    polys = drinfeld_evaluation([2, 1], 2)
    assert polys == ((4,),)
    assert poly_degrees(polys) == (1,)


def test_drinfeld_tame_equals_evaluation_on_straight_shapes():
    for lam in all_partitions_upto(6):
        for n in (2, 3, 4):
            if len(lam) > n:
                continue
            assert drinfeld_tame((lam, ()), n) == drinfeld_evaluation(lam, n), (
                lam, n,
            )


def test_drinfeld_roots_form_unit_spaced_strings():
    for lam in all_partitions_upto(6):
        for n in (2, 3):
            if len(lam) > n:
                continue
            for roots in drinfeld_evaluation(lam, n):
                if roots:
                    assert list(roots) == list(
                        range(roots[0], roots[-1] + 1, 2)
                    ), (lam, n, roots)


def test_drinfeld_tame_skips_full_columns():
    # a full column of height n contributes to no P_i
    cols = strip([1, 2], 2)  # leftmost column full at rank 2
    polys = drinfeld_tame(shape(cols), 2)
    reduced = drinfeld_tame(shape(reduce(cols, 2)), 2)
    assert poly_degrees(polys) == poly_degrees(reduced)


def test_drinfeld_column_too_tall_rejected():
    with pytest.raises(ValueError, match="height"):
        drinfeld_tame(((1, 1, 1), ()), 2)


# ---------------------------------------------------------------------------
# GZ schemes

def test_gz_pinned_single_box():
    schemes = gz_schemes([1], [], 2, 0)
    assert len(schemes) == 2
    assert sorted(gz_weight(s) for s in schemes) == [(-1,), (1,)]


def test_gz_counts_match_schur_monomials():
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            for n in (2, 3):
                for n_spinons in (0, 1, 2):
                    if len(mu) > n_spinons or len(lam) > n_spinons + n:
                        continue
                    schemes = gz_schemes(lam, mu, n, n_spinons)
                    schur = schur_skew((lam, mu), n, "jt_h")
                    total = sum(
                        c for c in schur.terms.values()
                    ) if schur.terms else 0
                    assert len(schemes) == total, (lam, mu, n, n_spinons)


def test_gz_weights_match_schur_weight_projection():
    for lam in all_partitions_upto(4):
        for mu in _sub_partitions(lam):
            for n in (2, 3):
                if len(lam) > n or len(mu) > 0:
                    continue
                schemes = gz_schemes(lam, mu, n, 0)
                got: dict = {}
                for s in schemes:
                    w = gz_weight(s)
                    got[w] = got.get(w, 0) + 1
                expected = weight_projection(schur_skew((lam, mu), n, "jt_h"))
                assert got == expected, (lam, mu, n)


def test_gz_sst_round_trip():
    for lam in all_partitions_upto(4):
        for mu in _sub_partitions(lam):
            for n in (2, 3):
                for n_spinons in (0, 1):
                    if len(mu) > n_spinons or len(lam) > n_spinons + n:
                        continue
                    for s in gz_schemes(lam, mu, n, n_spinons):
                        tab = gz_to_sst(s)
                        assert sst_to_gz(tab, lam, mu, n) == s


@settings(max_examples=60, deadline=None)
@given(skew_shapes(7), st.integers(0, 3), st.integers(2, 4))
def test_gz_schemes_past_the_census(shape, n_spinons, n):
    """At outer size <= 7, N <= 3 and n <= 4 (the `gz` suite stops at 5, 2
    and 3): the schemes count the monomials of s_{lam/mu} in n variables
    and carry its weights, both read off the `jt_h` determinant, and each
    scheme survives the round trip through its tableau."""
    lam, mu = shape
    assume(len(mu) <= n_spinons and len(lam) <= n_spinons + n)
    schemes = gz_schemes(lam, mu, n, n_spinons)
    schur = schur_skew(shape, n, "jt_h")
    assert len(schemes) == sum(schur.terms.values())
    got: dict = {}
    for s in schemes:
        w = gz_weight(s)
        got[w] = got.get(w, 0) + 1
        assert sst_to_gz(gz_to_sst(s), lam, mu, n) == s
    assert got == weight_projection(schur)


def test_gz_schemes_interleave_within_their_length_bounds():
    """Every scheme `gz_schemes` returns for the inputs of the `gz[` cases of
    `verify` is a chain of n + 1 tuples of len(lam) ints from mu, padded, to
    lam, in which each row interleaves above the one before, row_{m,i} >=
    row_{m-1,i} >= row_{m,i+1}; row 0 has at most N parts and row m at most
    N + m."""
    params = [c.params for c in verify.build_suite("gz") if c.id.startswith("gz[")]
    assert len(params) > 100
    for p in params:
        lam, mu, n, n_spinons = tuple(p["outer"]), tuple(p["inner"]), p["n"], p["N"]
        for scheme in gz_schemes(lam, mu, n, n_spinons):
            assert len(scheme) == n + 1, p
            assert scheme[0] == padded(mu, len(lam)) and scheme[-1] == lam, (p, scheme)
            for m, row in enumerate(scheme):
                assert type(row) is tuple and len(row) == len(lam), (p, scheme)
                assert all(type(part) is int for part in row), (p, scheme)
                assert sum(part > 0 for part in row) <= n_spinons + m, (p, scheme)
            for low, high in zip(scheme, scheme[1:]):
                assert all(h >= b for h, b in zip(high, low)), (p, scheme)
                assert all(b >= h for b, h in zip(low, high[1:])), (p, scheme)


def test_gz_interleaving_violation_rejected():
    """A column that repeats an entry counts rows (0, 0), (1, 1), (1, 1), of
    which the second does not interleave above the first."""
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        sst_to_gz({(0, 0): 1, (1, 0): 1}, [1, 1], [], 2)


def test_sst_to_gz_reads_a_tableau_of_the_shape():
    assert sst_to_gz({(0, 0): 1, (0, 1): 2}, [2], [], 2) == ((0,), (1,), (2,))
    assert sst_to_gz({(0, 1): 2, (1, 0): 2}, [2, 1], [1], 2) == ((1, 0), (1, 0), (2, 1))


@pytest.mark.parametrize("tableau,lam", [
    ({(0, 0): 1}, [2]),  # ends at (1)
    ({(0, 0): 1, (0, 1): 1, (0, 2): 2}, [2]),  # ends at (3)
    ({(0, 0): 1, (0, 1): 3}, [2]),  # entry 3 > n
    ({(0, 0): 2, (0, 1): 1}, [2]),  # a row decreases
    ({(0, 0): 0, (0, 1): 1}, [2]),  # entry 0 < 1
    ({(0, 0): 1, (0, 2): 2}, [2]),  # a cell outside lam
])
def test_sst_to_gz_refuses_what_is_not_a_tableau_of_the_shape(tableau, lam):
    """Rows counted from these tableaux fail to end at lam, to interleave, or
    to give the tableau back, and each is refused, where the count alone
    once returned a scheme or dropped an entry."""
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        sst_to_gz(tableau, lam, [], 2)


# ---------------------------------------------------------------------------
# decompositions

def _strip_search(n, k, qmax):
    """The Yangian route strip by strip: every reduced strip of class k up to
    the truncation order, its Schur polynomial by the dual Jacobi-Trudi
    determinant, projected onto weights, summed weight by weight and folded
    into orbits only at the end, where a sum that is not W-invariant raises.
    The oracle of the transfer-matrix sum.

    The dual determinant [e_{lam'_i - mu'_j - i + j}] has one row per column
    of the strip, and e_m = 0 for m > n, so its cost stays flat where that of
    [h_{lam_i - mu_j - i + j}], one row per row of the strip, does not: at
    (5, k, 4), whose strips reach 20-24 boxes, each k took 0.3-0.8 s with
    h's and a cold memo, against 3 ms with e's.  With e's, checking every
    point the property test draws, each once with a cold memo, takes about
    0.2 s, and no point more than 30 ms (2 vCPU, CPython 3.11)."""
    rows = {}
    base = k * (n - k)
    for cols, e2 in reduced_strips(n, k, base + 2 * n * qmax):
        rel, rem = divmod(e2 - base, 2 * n)
        assert rem == 0 and rel >= 0, cols
        for w, c in weight_projection(schur_skew(shape(cols), n, "jt_e")).items():
            rows.setdefault(w, [0] * (qmax + 1))[rel] += c
    return from_weights(n, k, qmax, rows)


# every point at which the tests and the `decomposition` suite run the route
ROUTE_POINTS = [
    (2, 0, 6), (2, 1, 6), (3, 0, 4), (3, 1, 4), (3, 2, 4),  # small
    (2, 0, 16), (3, 0, 9), (4, 0, 6),  # deep
    (3, 0, 2), (3, 1, 1),  # anchors and acceptance 5
    (2, 0, 8), (2, 1, 8), (3, 0, 5), (3, 1, 5), (3, 2, 5), (4, 0, 3), (4, 1, 3),
]


@pytest.mark.parametrize("n,k,qmax", ROUTE_POINTS)
def test_yangian_decomposition_matches_the_strip_search(n, k, qmax):
    assert yangian_decomposition(n, k, qmax) == _strip_search(n, k, qmax)


def test_route_points_cover_the_decomposition_suite():
    for case in verify.build_suite("decomposition"):
        if case.id.startswith("yangian["):
            p = case.params
            assert (p["n"], p["k"], p["qmax"]) in ROUTE_POINTS, case.id


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.integers(0, {2: 16, 3: 8, 4: 5, 5: 4}[n]))))
def test_yangian_decomposition_matches_the_strip_search_hypothesis(point):
    table = yangian_decomposition(*point)
    assert table == _strip_search(*point)
    assert table == bosonic_character(*point)


# rank -> order of the diagram automorphism check, every k
AUTOMORPHISM_ORDERS = {2: 40, 3: 20, 4: 12, 5: 8, 6: 6, 7: 6, 8: 6}


@pytest.mark.parametrize("route", [yangian_decomposition, bosonic_character],
                         ids=["yangian", "bosonic"])
def test_each_route_commutes_with_the_diagram_automorphism(route):
    """The diagram automorphism of sl(n) reverses the fundamental-weight
    coordinates and takes Lambda_k to Lambda_{n-k}, so the table of
    (n, (n - k) mod n) is that of (n, k) with each orbit key reversed (a
    reversed dominant weight is dominant).  Each route is checked on its
    own, so a defect that two routes share, which a comparison of the two
    cannot see, still shows."""
    for n, qmax in AUTOMORPHISM_ORDERS.items():
        tables = [route(n, k, qmax) for k in range(n)]
        for k, table in enumerate(tables):
            assert tables[-k % n] == {key[::-1]: row for key, row in table.items()}, (n, k)


def test_yangian_decomposition_refuses_rank_one():
    """Ranks 0 and 1 are refused before a table is built, with the message
    of `bosonic_character`."""
    for n in (0, 1):
        with pytest.raises(ValueError, match="^rank must be >= 2$"):
            yangian_decomposition(n, 0, 3)


def test_times_e_matches_the_polynomial_product():
    """`_times_e` gives m_nu e_h in the monomial basis: the coefficient of
    each dominant monomial x^mu of the product of polynomials, with mu
    normalized by e_n = 1 (a product is homogeneous, so no two of its mu
    normalize alike).  The parts 0, 1, 2 make runs of every length up to n,
    each one below the next, so a run's raised parts meet the run above."""
    for n in range(2, 8):
        for nu in combinations_with_replacement(range(3), n - 1):
            nu = (*reversed(nu), 0)
            m_nu = SymPoly(n, {p: 1 for p in set(permutations(nu))})
            for h in range(n + 1):
                expected = {
                    tuple(x - e[-1] for x in e): c
                    for e, c in (m_nu * elementary(h, n)).monomials()
                    if list(e) == sorted(e, reverse=True)
                }
                assert dict(yangian._times_e(nu, h)) == expected, (nu, h)


@pytest.mark.parametrize("n,k,qmax", [(37, 0, 3), (50, 0, 3), (100, 3, 2), (200, 0, 1),
                                      (200, 7, 1)])
def test_yangian_decomposition_matches_bosonic_at_large_rank(n, k, qmax):
    """`_times_e` counts its images per run of equal parts, so the route is
    polynomial in the rank: a few ms at each of these points."""
    assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax)


def test_yangian_decomposition_matches_bosonic_small():
    for n, k, qmax in [(2, 0, 6), (2, 1, 6), (3, 0, 4), (3, 1, 4), (3, 2, 4)]:
        assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax), (
            n, k,
        )


@pytest.mark.parametrize("n,k,qmax", [(2, 0, 16), (3, 0, 9), (4, 0, 6)])
def test_yangian_decomposition_matches_bosonic_deep(n, k, qmax):
    # deep enough that enumerating every strip size by size takes minutes
    assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax)


@pytest.mark.parametrize("n,qmax", [(2, 40), (3, 20), (4, 12), (5, 8), (6, 6), (7, 6), (8, 6)])
def test_yangian_decomposition_matches_bosonic_in_every_class(n, qmax, monkeypatch):
    """Every class at ranks 2-8, deep enough that the sum closes runs of
    every height from 1 to n (and the empty prefix's run of height 0)."""
    heights = set()
    close = yangian._close_run
    monkeypatch.setattr(yangian, "_close_run", lambda value, h: heights.add(h) or close(value, h))
    for k in range(n):
        assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax), k
    assert heights == set(range(n + 1))


@pytest.mark.parametrize("n,k,qmax,closed", [
    (2, 0, 11, 77), (2, 1, 10, 67), (3, 0, 6, 54), (3, 1, 5, 47), (4, 0, 4, 36),
    (5, 0, 3, 21), (8, 4, 10, 487), (200, 100, 0, 2)])
def test_the_sweep_keeps_only_prefixes_it_can_complete(n, k, qmax, closed, monkeypatch):
    """A prefix is kept only if one column of the height its class lacks
    still fits in the table, the least any completion costs.  Before that
    bound the sweep closed as many runs at each small point but 1 202 at
    (200, 100, 0), whose only strip is one column of height 100."""
    calls = []
    close = yangian._close_run
    monkeypatch.setattr(yangian, "_close_run", lambda value, h: calls.append(h) or close(value, h))
    assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax)
    assert len(calls) == closed


def test_yangian_vacuum_anchor_rank3():
    # first excited level of the rank-3 vacuum is the adjoint: 8 states
    table = yangian_decomposition(3, 0, 2)
    level1 = sum(row[1] for _, row in weight_rows(table))
    assert level1 == 8
    assert table[(1, 1)][1] == 1  # highest weight of the adjoint


def test_yangian_k1_anchor_rank3():
    # ground level of the k=1 sector is the 3-dimensional fundamental
    table = yangian_decomposition(3, 1, 1)
    assert conformal_dimension(3, 1) == Fraction(1, 3)
    assert sum(row[0] for _, row in weight_rows(table)) == 3


def test_sl2_yangian_matches_bosonic():
    for k in (0, 1):
        assert sl2_yangian_decomposition(k, 8) == bosonic_character(2, k, 8), k


def test_sl2_route_refuses_slots_too_narrow(monkeypatch):
    """With every partition count read as 1, the slot width falls below the
    bit length of the largest coefficient at q^40, so slots carry into each
    other; the route raises AssertionError instead of returning a table."""
    monkeypatch.setattr(yangian, "partition_counts",
                        lambda length, size: [[1] * (size + 1)] * (length + 1))
    assert sl2_yangian_decomposition(0, 20) == bosonic_character(2, 0, 20)
    for k in (0, 1):
        with pytest.raises(AssertionError, match="overflows|not W-invariant"):
            sl2_yangian_decomposition(k, 40)


def test_sl2_hw_character_dimensions():
    # dim = product of (m_i + 1) over the mode multiplicities
    poly = sl2_hw_character((2, 1), 3)
    assert eval_ones(poly) == (1 + 1) ** 3  # m_0 = 1, m_1 = 1, m_2 = 1


def test_sl2_route_h_factors_chain_to_the_module_characters():
    """The packed `_packed_h` chained over m_0 = N - l(lambda), m_1, m_2,
    ... from the weight 0 gives the weights of `sl2_hw_character`, for every
    N <= 6 and |lambda| <= 6; the `hw-module` cases check that character
    against each strip's Schur polynomial, so they vouch for what the
    rank-2 route sums.  Slot j of a packed value, `width` bits wide, holds
    the coefficient at the weight -p + 2j, so after the chain, at p = N;
    zero coefficients are read as absent.  Every coefficient is at most the
    dimension 2^6 < 2^width, so no slot carries into the next."""
    width = 8
    for n_spinons in range(7):
        for size in range(7):
            for lam in partitions_of(size, max_len=n_spinons):
                value = 1
                for m in (n_spinons - len(lam), *Counter(lam).values()):
                    value *= yangian._packed_h(m, width)
                assert value >> width * (n_spinons + 1) == 0, (lam, n_spinons)
                coeffs = [value >> width * j & (1 << width) - 1
                          for j in range(n_spinons + 1)]
                weights = range(-n_spinons, n_spinons + 1, 2)
                expected = weight_projection(sl2_hw_character(lam, n_spinons))
                assert {(w,): c for w, c in zip(weights, coeffs) if c} == expected, (
                    lam, n_spinons)


def test_hw_case_census(monkeypatch):
    """`verify._hw_case` passes on every (lambda, N) with N, |lambda| < 6,
    the tame module of each strip has Drinfel'd polynomials at n = 2, and a
    wrong character is reported with its locus."""
    for n_spinons in range(6):
        for size in range(6):
            for lam in partitions_of(size, max_len=n_spinons):
                assert verify._hw_case(lam, n_spinons) is None, (lam, n_spinons)
                cols = sl2_partition_to_strip(lam, n_spinons)
                assert max(cols, default=0) <= 2
                polys = drinfeld_tame(shape(cols), 2)
                assert len(polys) == 1 and polys[0] == tuple(sorted(polys[0]))
    monkeypatch.setattr(verify, "sl2_hw_character", lambda lam, N: SymPoly.one(2))
    assert (verify._hw_case([2, 1], 3)
            == "strip character mismatch for ((2, 1), 3)")
