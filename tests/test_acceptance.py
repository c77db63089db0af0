"""Acceptance suite: one test per top-level guarantee, with the reproduction
bounds pinned.  Criteria 1-9 run the cases of the `verify` suites, whose
builders in `verify.SUITES` hold the bounds.  Each test prints a single
PASS/FAIL line for its criterion."""
import time
from fractions import Fraction

from spinonchars import verify
from spinonchars.yangian import yangian_decomposition


def _run(suite: str, *prefixes: str) -> verify.VerificationReport:
    """Run the default cases of `suite`, or those whose id starts with one of
    `prefixes`."""
    cases = [c for c in verify.build_suite(suite)
             if not prefixes or c.id.startswith(prefixes)]
    assert cases, f"no {suite} case matches {prefixes}"
    return verify.run_cases(suite, cases)


def _report(num: int, label: str, started: float, report=None, ok: bool = True) -> None:
    first = next((c for c in report.cases if not c.passed), None) if report else None
    ok = ok and first is None
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status} ({time.perf_counter() - started:.1f}s)")
    detail = "" if first is None else f"first failing case {first.id}, locus {first.locus}"
    if detail:
        print(f"  {detail}")
    assert ok, f"acceptance criterion {num} ({label}) failed. {detail}"


def test_acceptance_1_q_series_identities():
    """Durfee sums, the finite two-index identities, the finite-product
    z-expansions, and the q-binomial generating function, at pinned bounds."""
    started = time.perf_counter()
    _report(1, "q-series identities", started, _run("qids"))


def test_acceptance_2_schur_routes_and_expansion():
    """Three skew-Schur routes agree on every skew shape with outer size <= 6
    in up to 4 variables; the straight-shape expansion of every border strip of
    size <= 6 has non-negative coefficients and preserves dimensions."""
    started = time.perf_counter()
    _report(2, "skew Schur routes", started, _run("schur"))


def test_acceptance_3_spinon_cuts():
    """Summing the N-spinon cuts reconstructs every string function with
    |weight|^2/2 - Delta_k <= 2 for n in {2,3,4}, and the multisum form of each
    cut equals the alternating form, all to order q^8."""
    started = time.perf_counter()
    _report(3, "spinon cuts", started, _run("spinon-cut"))


def test_acceptance_4_sl2_four_routes():
    """Bosonic, both fermionic forms, and direct spinon-mode enumeration give
    identical rank-2 tables for k in {0,1} to order q^10."""
    started = time.perf_counter()
    _report(4, "rank-2 four-way equality", started, _run("sl2"))


def test_acceptance_5_yangian_decomposition():
    """The border-strip decomposition reproduces the bosonic tables: n=2 to
    q^8, n=3 to q^5, n=4 (k=0,1) to q^3; plus the pinned anchors at rank 3."""
    started = time.perf_counter()
    report = _run("decomposition", "yangian[")
    vac3 = yangian_decomposition(3, 0, 2)
    ok = sum(row[1] for row in vac3.rows.values()) == 8  # the adjoint
    ok = ok and vac3.row([1, 1])[1] == 1
    fund3 = yangian_decomposition(3, 1, 1)
    ok = ok and fund3.delta == Fraction(1, 3)
    ok = ok and sum(row[0] for row in fund3.rows.values()) == 3
    _report(5, "Yangian decomposition", started, report, ok)


def test_acceptance_6_sl2_module_sum():
    """The rank-2 module sum over (lambda, N) pairs reproduces the bosonic
    tables to q^8, and each module's energy/character cross-checks pass for
    every partition of size <= 5."""
    started = time.perf_counter()
    report = _run("decomposition", "sl2-yangian[", "hw-module[")
    _report(6, "rank-2 module sum", started, report)


def test_acceptance_7_label_bijections():
    """Strip <-> rapidity <-> motif round trips on the census of reduced strips
    of size <= 6 at ranks 2 and 3, the square construction agreeing with the
    composed route, and the mode-sequence postconditions."""
    started = time.perf_counter()
    _report(7, "label bijections", started, _run("bijections"))


def test_acceptance_8_gz_and_drinfeld():
    """GZ scheme counts and weights match skew Schur polynomials (outer size
    <= 5, ranks 2-3, up to 2 spinons), the tableau encoding round-trips, and
    the two Drinfel'd polynomial routes agree with unit-spaced root strings
    for every partition of size <= 6."""
    started = time.perf_counter()
    _report(8, "GZ schemes and Drinfel'd polynomials", started, _run("gz"))


def test_acceptance_9_rapidity_energy_report():
    """The rapidity-energy convention harness returns a structured verdict:
    either a convention matching the strip energy on the census, or explicit
    per-strip mismatch records.  It must never fail silently."""
    started = time.perf_counter()
    _report(9, "rapidity energy harness", started,
            _run("bijections", "rapidity-convention-harness"))
