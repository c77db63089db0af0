"""Drinfel'd polynomials, GZ schemes, and the decomposition of the level-1
characters into border-strip modules."""
from fractions import Fraction

import pytest

from spinonchars.affine import bosonic_character
from spinonchars.partitions import Partition, SkewShape, all_partitions_upto, partitions_of
from spinonchars.strips import BorderStrip
from spinonchars.symfunc import schur_skew, weight_projection
from spinonchars.yangian import (
    DrinfeldPolys,
    GZScheme,
    drinfeld_evaluation,
    drinfeld_tame,
    gz_schemes,
    gz_to_sst,
    gz_weight,
    hw_module_table,
    sl2_hw_character,
    sl2_yangian_decomposition,
    sst_to_gz,
    yangian_decomposition,
)


def _sub_partitions(lam):
    if not lam.parts:
        yield Partition()
        return
    for size in range(lam.size() + 1):
        for mu in partitions_of(size, max_part=lam[1], max_len=len(lam)):
            if lam.contains(mu):
                yield mu


# ---------------------------------------------------------------------------
# Drinfel'd polynomials

def test_drinfeld_evaluation_pinned():
    # lambda = (2,1) at rank 2: single root at u = -... stored in half-units
    polys = drinfeld_evaluation(Partition([2, 1]), 2)
    assert polys.poly_degrees() == (1,)


def test_drinfeld_tame_equals_evaluation_on_straight_shapes():
    for lam in all_partitions_upto(6):
        for n in (2, 3, 4):
            if len(lam) > n:
                continue
            assert drinfeld_tame(SkewShape(lam), n) == drinfeld_evaluation(lam, n), (
                lam, n,
            )


def test_drinfeld_roots_form_unit_spaced_strings():
    for lam in all_partitions_upto(6):
        for n in (2, 3):
            if len(lam) > n:
                continue
            for roots in drinfeld_evaluation(lam, n).roots:
                if roots:
                    assert list(roots) == list(
                        range(roots[0], roots[-1] + 1, 2)
                    ), (lam, n, roots)


def test_drinfeld_tame_skips_full_columns():
    # a full column of height n contributes to no P_i
    strip = BorderStrip([1, 2], 2)  # leftmost column full at rank 2
    polys = drinfeld_tame(strip.shape, 2)
    reduced = drinfeld_tame(strip.reduce().shape, 2)
    assert polys.poly_degrees() == reduced.poly_degrees()


def test_drinfeld_column_too_tall_rejected():
    with pytest.raises(ValueError, match="height"):
        drinfeld_tame(SkewShape(Partition([1, 1, 1])), 2)


# ---------------------------------------------------------------------------
# GZ schemes

def test_gz_pinned_single_box():
    schemes = gz_schemes(Partition([1]), Partition([]), 2, 0)
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
                    schur = schur_skew(SkewShape(lam, mu), n, "sst")
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
                expected = weight_projection(schur_skew(SkewShape(lam, mu), n, "sst"))
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
                        assert sst_to_gz(tab, lam, mu, n, n_spinons) == s


def test_gz_interleaving_violation_rejected():
    with pytest.raises(ValueError, match="interleaving"):
        GZScheme([Partition([2]), Partition([1])], 2)


# ---------------------------------------------------------------------------
# decompositions

def test_yangian_decomposition_matches_bosonic_small():
    for n, k, qmax in [(2, 0, 6), (2, 1, 6), (3, 0, 4), (3, 1, 4), (3, 2, 4)]:
        assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax), (
            n, k,
        )


@pytest.mark.parametrize("n,k,qmax", [(2, 0, 16), (3, 0, 9), (4, 0, 6)])
def test_yangian_decomposition_matches_bosonic_deep(n, k, qmax):
    # deep enough that enumerating every strip size by size takes minutes
    assert yangian_decomposition(n, k, qmax) == bosonic_character(n, k, qmax)


def test_yangian_vacuum_anchor_rank3():
    # first excited level of the rank-3 vacuum is the adjoint: 8 states
    table = yangian_decomposition(3, 0, 2)
    level1 = sum(row[1] for row in table.rows.values())
    assert level1 == 8
    assert table.row([1, 1])[1] == 1  # highest weight of the adjoint


def test_yangian_k1_anchor_rank3():
    # ground level of the k=1 sector is the 3-dimensional fundamental
    table = yangian_decomposition(3, 1, 1)
    assert table.delta == Fraction(1, 3)
    assert sum(row[0] for row in table.rows.values()) == 3


def test_sl2_yangian_matches_bosonic():
    for k in (0, 1):
        assert sl2_yangian_decomposition(k, 8) == bosonic_character(2, k, 8), k


def test_sl2_hw_character_dimensions():
    # dim = product of (m_i + 1) over the mode multiplicities
    lam = Partition([2, 1])
    poly = sl2_hw_character(lam, 3)
    assert poly.eval_ones() == (1 + 1) ** 3  # m_0 = 1, m_1 = 1, m_2 = 1


def test_hw_module_table_census():
    for n_spinons in range(6):
        for size in range(6):
            for lam in partitions_of(size, max_len=n_spinons):
                e, ch, strip, polys = hw_module_table(lam, n_spinons)
                assert e == size + Fraction(n_spinons * n_spinons, 4)
                assert strip.n == 2
                assert isinstance(polys, DrinfeldPolys)


def test_hw_module_anchor():
    e, ch, strip, _ = hw_module_table(Partition([2, 1]), 3)
    assert strip.rows == (2, 3, 2)
    assert e == Fraction(21, 4)
