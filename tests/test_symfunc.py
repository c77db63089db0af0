"""Symmetric polynomials: skew Schur routes, expansion coefficients, and the
q-deformed binomial generating polynomials."""
import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from spinonchars.affine import (
    bosonic_character,
    sl2_spinon_enumeration,
    spinon_string_function,
)
from spinonchars.partitions import Partition, SkewShape, all_partitions_upto, partitions_of
from spinonchars.qseries import QSeries
from spinonchars.strips import BorderStrip, enumerate_border_strips
from spinonchars.symfunc import (
    complete,
    elementary,
    littlewood_richardson,
    rogers_szego,
    rs_generating_check,
    schur_skew,
    sl2_strip_product,
    stabilization_check,
    strip_schur,
    weight_projection,
)
from spinonchars.verify import build_suite, small_norm_weights
from spinonchars.yangian import gz_schemes, sl2_yangian_decomposition


def _sub_partitions(lam):
    if not lam.parts:
        yield Partition()
        return
    for size in range(lam.size() + 1):
        for mu in partitions_of(size, max_part=lam[1], max_len=len(lam)):
            if lam.contains(mu):
                yield mu


def test_three_schur_routes_agree_small_census():
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            shape = SkewShape(lam, mu)
            for nvars in (1, 2, 3):
                a = schur_skew(shape, nvars, "jt_h")
                b = schur_skew(shape, nvars, "jt_e")
                c = schur_skew(shape, nvars, "sst")
                assert a == b == c, (lam, mu, nvars)


def test_schur_straight_shapes_pinned():
    # s_(2,1) in 3 variables has 8 monomial terms counted with multiplicity
    s = schur_skew(SkewShape(Partition([2, 1])), 3, "jt_h")
    assert s.eval_ones() == 8
    # s_(1,1) = e_2
    assert schur_skew(SkewShape(Partition([1, 1])), 3, "jt_h") == elementary(2, 3)
    # s_(2) = h_2
    assert schur_skew(SkewShape(Partition([2])), 3, "jt_h") == complete(2, 3)


def test_littlewood_richardson_pinned():
    lr = littlewood_richardson(SkewShape(Partition([2, 1]), Partition([1])))
    assert {tuple(p.parts): c for p, c in lr.items()} == {(2,): 1, (1, 1): 1}
    lr = littlewood_richardson(SkewShape(Partition([2, 2]), Partition([1])))
    assert {tuple(p.parts): c for p, c in lr.items()} == {(2, 1): 1}


def test_littlewood_richardson_nonnegative_and_dimension_correct():
    for n in (2, 3):
        for size in range(6):
            for strip in enumerate_border_strips(n, size, reduced=False):
                coeffs = littlewood_richardson(strip.shape)
                nvars = max(size, 1)
                lhs = schur_skew(strip.shape, nvars, "jt_h").eval_ones()
                rhs = 0
                for nu, c in coeffs.items():
                    assert c >= 0, (strip, nu, c)
                    rhs += c * schur_skew(SkewShape(nu), nvars, "jt_h").eval_ones()
                assert lhs == rhs, strip


def test_strip_schur_matches_jacobi_trudi():
    for n in (2, 3, 4):
        for size in range(7):
            for strip in enumerate_border_strips(n, size, reduced=True):
                assert strip_schur(strip, n) == schur_skew(strip.shape, n, "jt_h")


def test_schur_helpers_leave_no_cyclic_garbage():
    """Memoized minors, tableau fillings, strip recurrences, partition
    generators and the recursive enumerations and sums of the other layers,
    the verifier's case builders among them, are freed by reference
    counting, not left for the collector."""
    shape = SkewShape(Partition([4, 3, 1]), Partition([2]))
    calls = {
        "schur_skew jt_h": lambda: schur_skew(shape, 3, "jt_h"),
        "schur_skew sst": lambda: schur_skew(shape, 3, "sst"),
        "strip_schur": lambda: strip_schur(BorderStrip.from_rows([2, 3, 1], 3), 3),
        "partitions_of": lambda: list(partitions_of(8)),
        "enumerate_border_strips": lambda: enumerate_border_strips(3, 5, True),
        "gz_schemes": lambda: gz_schemes((3, 2, 1), (1,), 3, 2),
        "rogers_szego": lambda: rogers_szego(3, 3, 4),
        "rs_generating_check": lambda: rs_generating_check(3, 3, 4),
        "bosonic_character": lambda: bosonic_character(3, 1, 4),
        "spinon_string_function multisum": lambda: spinon_string_function(
            3, 0, (0, 0), 3, "multisum", 6),
        "sl2_spinon_enumeration": lambda: sl2_spinon_enumeration(1, 6),
        "sl2_yangian_decomposition": lambda: sl2_yangian_decomposition(1, 6),
        "small_norm_weights": lambda: small_norm_weights(3, 1),
        "spinon-cut suite": lambda: build_suite("spinon-cut", n=2),
        "bijections suite": lambda: build_suite("bijections", n=2),
    }
    was_enabled = gc.isenabled()
    gc.disable()  # an automatic collection would hide a cycle
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            assert gc.collect() == 0, name
    finally:
        if was_enabled:
            gc.enable()


def test_sl2_strip_product_matches_schur_up_to_e2_powers():
    e2 = elementary(2, 2)
    for size in range(8):
        for strip in enumerate_border_strips(2, size, reduced=True):
            prod = sl2_strip_product(strip.rows)
            lifted = prod
            r = len(strip.rows)
            for _ in range(r - 1):
                lifted = lifted * e2
            assert lifted == strip_schur(strip, 2), strip


def test_complete_h_rewrite_with_e2_factor():
    e2 = elementary(2, 2)
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = complete(a, 2) * complete(b, 2) - complete(a + b, 2)
            rhs = e2 * complete(a - 1, 2) * complete(b - 1, 2)
            assert lhs == rhs, (a, b)


def test_stabilization_adding_full_column_preserves_weights():
    for n in (2, 3):
        for size in range(6):
            for strip in enumerate_border_strips(n, size, reduced=True):
                assert stabilization_check(list(strip.cols), n), strip


def test_rogers_szego_at_q_one_is_multinomial_expansion():
    for total in range(5):
        for nvars in (1, 2, 3):
            poly = rogers_szego(total, nvars, 8)
            at_one = sum(
                sum(c.coeffs) for c in poly.terms.values()
                if isinstance(c, QSeries)
            )
            # at q=1 the polynomial collapses to (x_1+...+x_nvars)^total
            assert at_one == nvars ** total, (total, nvars)


def test_rogers_szego_generating_function():
    for nvars in (1, 2, 3):
        assert rs_generating_check(4, nvars, 4), nvars


def test_weight_projection_collapses_e2():
    poly = elementary(2, 2) * complete(1, 2)
    assert weight_projection(poly) == weight_projection(complete(1, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3))
def test_h_products_commute(a, b, nvars):
    assert complete(a, nvars) * complete(b, nvars) == \
        complete(b, nvars) * complete(a, nvars)
