"""Verification suites: each case checks one identity and reports a locus on
failure.  `SUITES` maps each suite name to its case builder, whose defaults
are the pinned reproduction bounds; the CLI and the acceptance tests both run
these builders.  A builder's parameters (`n`, `qmax`, or neither) are the
overrides its suite reads."""
from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from . import affine, qseries, strips, symfunc, yangian
from .partitions import Partition, SkewShape, all_partitions_upto, partitions_of
from .qseries import q_one, q_zero


@dataclass
class Case:
    id: str
    params: dict
    run: Callable[[], object]  # returns None on pass, else a locus


@dataclass
class CaseResult:
    id: str
    params: dict
    passed: bool
    locus: object
    seconds: float


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "cases": [
                {
                    "id": c.id,
                    "params": c.params,
                    "pass": c.passed,
                    "locus": c.locus,
                    "seconds": round(c.seconds, 4),
                }
                for c in self.cases
            ],
        }


def run_cases(suite: str, cases: list[Case]) -> VerificationReport:
    results = []
    for case in cases:
        start = time.perf_counter()
        try:
            locus = case.run()
        except Exception as exc:  # identity bugs must surface, not crash the run
            locus = f"exception: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CaseResult(case.id, case.params, locus is None, locus, elapsed))
    results.sort(key=lambda r: r.id)
    return VerificationReport(suite, results)


def _series_locus(a, b):
    """First differing exponent between two QSeries, or None."""
    for d in range(min(a.qmax, b.qmax) + 1):
        if a.coeffs[d] != b.coeffs[d]:
            return {"q_degree": d, "lhs": a.coeffs[d], "rhs": b.coeffs[d]}
    return None


def _table_locus(a, b):
    diff = a.first_difference(b)
    if diff is None:
        return None
    w, d, x, y = diff
    return {"weight": list(w), "q_degree": d, "lhs": x, "rhs": y}


# ---------------------------------------------------------------------------
# suite: qids

def qids_cases(qmax: int | None = None) -> list[Case]:
    """Durfee sums (|m| <= 10) and z-expansion products (N <= 8) to q^30, the
    finite two-index identities (M, N <= 10) to q^20, and the q-binomial
    generating function (N <= 4, up to 3 variables) to q^4.  `qmax` replaces
    30 and caps 20; the suite has no rank."""
    if qmax is None:
        qmax = 30
    d3_qmax = min(qmax, 20)
    cases = []
    for m in range(-10, 11):
        cases.append(Case(
            f"durfee[m={m:+03d}]", {"m": m, "qmax": qmax},
            lambda m=m: None if qseries.durfee_check(m, qmax) else "sum != 1/(q)oo",
        ))
    for big_m in range(11):
        for big_n in range(11):
            for variant in ("i", "ii"):
                cases.append(Case(
                    f"lemma-d3[{variant}][M={big_m:02d},N={big_n:02d}]",
                    {"M": big_m, "N": big_n, "variant": variant, "qmax": d3_qmax},
                    lambda M=big_m, N=big_n, v=variant: None
                    if qseries.lemma_d3_check(M, N, v, d3_qmax)
                    else "sides differ",
                ))

    def zprod_check(n_val):
        zdeg = n_val + 2
        lhs = qseries.pochhammer_z_expansion(n_val, qmax)
        rhs = qseries.inv_pochhammer_z_expansion(n_val, zdeg, qmax)
        for j in range(zdeg + 1):
            prod = sum((lhs[i] * rhs[j - i] for i in range(min(j, n_val) + 1)),
                       q_zero(qmax))
            locus = _series_locus(prod, q_one(qmax) if j == 0 else q_zero(qmax))
            if locus is not None:
                return {"z_degree": j, **locus}
        return None

    for n_val in range(1, 9):
        cases.append(Case(
            f"z-expansion-product[N={n_val}]", {"N": n_val, "qmax": qmax},
            lambda n_val=n_val: zprod_check(n_val),
        ))
    for nvars in range(1, 4):
        cases.append(Case(
            f"rs-generating[nvars={nvars}]",
            {"Nmax": 4, "nvars": nvars, "qmax": 4},
            lambda nv=nvars: None
            if symfunc.rs_generating_check(4, nv, 4)
            else "generating function mismatch",
        ))
    return cases


# ---------------------------------------------------------------------------
# suite: schur

def _sub_partitions(lam: Partition):
    if not lam.parts:
        yield Partition()
        return
    for size in range(lam.size() + 1):
        for mu in partitions_of(size, max_part=lam.parts[0], max_len=len(lam)):
            if lam.contains(mu):
                yield mu


def schur_cases() -> list[Case]:
    """The three skew-Schur routes on every skew shape with outer size <= 6 in
    1..4 variables, the straight-shape expansion of every border strip of size
    <= 6 at ranks 2 and 3, checked on the coefficient of every dominant
    monomial (`_ribbon_locus`), and the rank-2 h-rewrite for 1 <= a, b <= 6.
    The suite takes neither a rank nor a truncation order."""
    cases = []

    def check_shape(shape, nvars):
        base = symfunc.schur_skew(shape, nvars, "jt_h")
        for method in ("jt_e", "sst"):
            other = symfunc.schur_skew(shape, nvars, method)
            if base != other:
                return {"method": method, "shape": repr(shape)}
        return None

    for lam in all_partitions_upto(6):
        for mu in _sub_partitions(lam):
            shape = SkewShape(lam, mu)
            for nvars in range(1, 5):
                cases.append(Case(
                    f"schur[{lam.parts}/{mu.parts},v={nvars}]",
                    {"outer": list(lam.parts), "inner": list(mu.parts),
                     "nvars": nvars},
                    lambda s=shape, v=nvars: check_shape(s, v),
                ))

    for n_rank in (2, 3):
        for size in range(7):
            for strip in strips.enumerate_border_strips(n_rank, size, reduced=False):
                cases.append(Case(
                    f"lr[n={n_rank},rows={list(strip.rows)}]",
                    {"n": n_rank, "rows": list(strip.rows)},
                    lambda s=strip: _ribbon_locus(s, symfunc.ribbon_expansion(s.rows)),
                ))

    for a in range(1, 7):
        for b in range(1, 7):
            def check_h(a=a, b=b):
                lhs = (symfunc.complete(a, 2) * symfunc.complete(b, 2)
                       - symfunc.complete(a + b, 2))
                rhs = (symfunc.elementary(2, 2)
                       * symfunc.complete(a - 1, 2)
                       * symfunc.complete(b - 1, 2))
                return None if lhs == rhs else {"a": a, "b": b}
            cases.append(Case(
                f"h-rewrite[a={a},b={b}]", {"a": a, "b": b}, check_h,
            ))
    return cases


def _ribbon_locus(strip, coeffs):
    """None if `coeffs` (partition -> coefficient) is the Schur expansion of
    the strip's skew Schur function, else a locus.  For every partition mu of
    |strip| the coefficient of the dominant monomial x^mu in s_strip, the
    number of semistandard fillings of the strip with content mu, must equal
    sum_nu c_nu K_{nu,mu}.  The Kostka matrix is unitriangular, so this
    fixes every coefficient."""
    size = strip.size()
    for nu, c in coeffs.items():
        if c < 0 or nu.size() != size:
            return {"nu": list(nu.parts), "coeff": c}
    shape = strip.shape
    for mu in partitions_of(size):
        lhs = symfunc.skew_kostka(shape.outer, shape.inner, mu)
        rhs = sum(c * _kostka(nu, mu) for nu, c in coeffs.items())
        if lhs != rhs:
            return {"mu": list(mu.parts), "lhs": lhs, "rhs": rhs}
    return None


@lru_cache(maxsize=None)
def _kostka(nu: Partition, mu: Partition) -> int:
    """K_{nu,mu}, computed once: the strips of a census share their straight
    shapes and contents."""
    return symfunc.skew_kostka(nu, Partition(), mu)


# ---------------------------------------------------------------------------
# suite: bijections

def bijection_cases(n: int | None = None) -> list[Case]:
    """Label round trips and both energy forms on every reduced strip of size
    <= 6, and the mode-list postconditions, at ranks 2 and 3 (or rank `n`);
    plus the rapidity-energy convention harness on the same census.  No
    truncation order."""
    ranks = (2, 3) if n is None else (n,)
    max_size = 6
    cases = []
    for n in ranks:
        for size in range(max_size + 1):
            for strip in strips.enumerate_border_strips(n, size, reduced=True):

                def round_trips(strip=strip, n=n):
                    seq = strips.strip_to_rapidity(strip)
                    if strips.rapidity_to_strip(seq, n) != strip:
                        return "strip->rapidity->strip failed"
                    motif = strips.rapidity_to_motif(seq)
                    if strips.motif_to_rapidity(motif) != seq:
                        return "rapidity->motif->rapidity failed"
                    if strips.motif_to_strip(motif) != strip:
                        return "square construction disagrees with rapidity route"
                    return None

                cases.append(Case(
                    f"roundtrip[n={n},rows={list(strip.rows)}]",
                    {"n": n, "rows": list(strip.rows)}, round_trips,
                ))
                cases.append(Case(
                    f"energy-forms[n={n},rows={list(strip.rows)}]",
                    {"n": n, "rows": list(strip.rows)},
                    lambda s=strip: (strips.energy(s), None)[1],
                ))

    for n in ranks:
        for modes in _mode_lists(n, 6, 4, [], 0, 0):
            cases.append(Case(
                f"modes[n={n},{modes}]", {"n": n, "modes": modes},
                lambda m=modes, n=n: _modes_case(m, n),
            ))
    cases.append(Case(
        "rapidity-convention-harness", {"max_size": max_size, "ranks": list(ranks)},
        lambda: _harness_case(max_size, ranks),
    ))
    return cases


def _mode_lists(n, max_modes, max_value, prefix, last, run):
    """Yield every weakly increasing mode list that extends `prefix` (ending
    in a run of `run` modes equal to `last`), rises by at most one at a step,
    starts at 0, and has at most `max_modes` modes, none above `max_value`.
    A run of equal modes stacks a column, so runs are capped at height n.  A
    module-level generator, not a closure, so that no reference cycle
    outlives the enumeration."""
    if prefix:
        yield list(prefix)
    if len(prefix) == max_modes:
        return
    for v in range(last, max_value + 1):
        if v > (last + 1 if prefix else 0):
            break
        new_run = run + 1 if prefix and v == last else 1
        if new_run <= n:
            yield from _mode_lists(n, max_modes, max_value, prefix + [v], v, new_run)


def _modes_case(modes, n):
    try:
        strips.modes_to_strip(modes, n)
    except ValueError:
        return "rejected admissible mode list"
    except AssertionError as exc:
        return str(exc)
    return None


def _harness_case(max_size, ranks):
    """The harness must return a structured verdict, never fail silently:
    both conventions with their counts, a record per mismatch naming the
    strip, the expected energy and what the convention gave (or its error),
    a non-empty census and a conclusion."""
    report = strips.discover_rapidity_convention(max_size, ranks)
    missing = {"census", "conventions", "conclusion"} - set(report)
    if missing:
        return f"report lacks {sorted(missing)}"
    total = 0
    for name in ("literal", "tail"):
        data = report["conventions"].get(name)
        if data is None:
            return f"missing convention {name}"
        missing = {"matches", "mismatch_count", "mismatches"} - set(data)
        if missing:
            return f"convention {name} lacks {sorted(missing)}"
        if data["mismatch_count"] != len(data["mismatches"]):
            return "mismatch records inconsistent"
        for rec in data["mismatches"]:
            if not ({"strip", "expected"} <= set(rec) and ("got" in rec or "error" in rec)):
                return f"convention {name} has a mismatch record with keys {sorted(rec)}"
        total += data["matches"] + data["mismatch_count"]
    if total == 0:
        return "empty census"
    if not isinstance(report["conclusion"], str):
        return "conclusion is not a string"
    return None


# ---------------------------------------------------------------------------
# suite: spinon-cut

def small_norm_weights(n: int, k: int, max_extra=2):
    """Class-k weights with |lambda|^2/2 - Delta_k <= max_extra, in sorted
    order.  The weight of a vector c with sum c_i = k has |lambda|^2/2 -
    Delta_k = (sum c_i^2 - k)/2, as in `affine.bosonic_character`, so these
    are the weights of that table to q^max_extra, every one of whose rows
    holds a 1."""
    return [weight for weight, _ in affine.bosonic_character(n, k, max_extra).items()]


def spinon_cut_cases(n: int | None = None, qmax: int | None = None) -> list[Case]:
    """Cut sums against the closed string functions, and multisum against
    alternating cut forms (N <= 3n), for every weight with
    |lambda|^2/2 - Delta_k <= 2 at ranks 2, 3 and 4 (or rank `n`), to q^8."""
    ranks = (2, 3, 4) if n is None else (n,)
    if qmax is None:
        qmax = 8
    cases = []
    for n in ranks:
        for k in range(n):
            for coords in small_norm_weights(n, k):
                cases.append(Case(
                    f"spinon-cut[n={n},k={k},w={list(coords)}]",
                    {"n": n, "k": k, "weight": list(coords), "qmax": qmax},
                    lambda n=n, k=k, c=coords: None
                    if affine.verify_spinon_cut(n, k, c, qmax)
                    else "cut sum != closed form",
                ))
                for n_spinons in range(k, 3 * n + 1, n):
                    cases.append(Case(
                        f"cut-forms[n={n},k={k},w={list(coords)},N={n_spinons}]",
                        {"n": n, "k": k, "weight": list(coords), "N": n_spinons,
                         "qmax": qmax},
                        lambda n=n, k=k, c=coords, N=n_spinons: _series_locus(
                            affine.spinon_string_function(n, k, c, N, "multisum", qmax),
                            affine.spinon_string_function(n, k, c, N, "alternating", qmax),
                        ),
                    ))
    return cases


# ---------------------------------------------------------------------------
# suite: sl2

def sl2_cases(qmax: int | None = None) -> list[Case]:
    """Bosonic, both fermionic forms and mode enumeration agree at rank 2 for
    k = 0, 1, to q^10.  The suite is rank 2 and takes no rank."""
    if qmax is None:
        qmax = 10
    cases = []
    for k in (0, 1):
        def four_way(k=k):
            bos = affine.bosonic_character(2, k, qmax)
            for name, table in (
                ("fermionic-root", affine.sl2_fermionic_character(k, "root", qmax)),
                ("fermionic-spinon", affine.sl2_fermionic_character(k, "spinon", qmax)),
                ("spinon-enum", affine.sl2_spinon_enumeration(k, qmax)),
            ):
                locus = _table_locus(bos, table)
                if locus is not None:
                    return {"kind": name, **locus}
            return None

        cases.append(Case(
            f"sl2-four-way[k={k}]", {"k": k, "qmax": qmax}, four_way,
        ))
    return cases


# ---------------------------------------------------------------------------
# suite: decomposition

def decomposition_cases(n: int | None = None, qmax: int | None = None) -> list[Case]:
    """The border-strip decomposition against the bosonic tables at n=2 to
    q^8, n=3 to q^5 and n=4 (k=0,1) to q^3, or at rank `n` only; a given
    `qmax` replaces these orders and takes every k.  Also the rank-2 module
    sum to q^8 and the module checks for every partition of size <= 5 with
    N <= 5 spinons, which take neither a rank nor an order."""
    cases = []
    for rank in ((2, 3, 4) if n is None else (n,)):
        ks = range(rank) if rank < 4 or qmax is not None else (0, 1)
        order = {2: 8, 3: 5}.get(rank, 3) if qmax is None else qmax
        for k in ks:
            cases.append(Case(
                f"yangian[n={rank},k={k},qmax={order}]",
                {"n": rank, "k": k, "qmax": order},
                lambda n=rank, k=k, q=order: _table_locus(
                    affine.bosonic_character(n, k, q),
                    yangian.yangian_decomposition(n, k, q),
                ),
            ))
    for k in (0, 1):
        cases.append(Case(
            f"sl2-yangian[k={k},qmax=8]", {"k": k, "qmax": 8},
            lambda k=k: _table_locus(
                affine.bosonic_character(2, k, 8),
                yangian.sl2_yangian_decomposition(k, 8),
            ),
        ))
    for n_spinons in range(6):
        for size in range(6):
            for lam in partitions_of(size, max_len=n_spinons):
                cases.append(Case(
                    f"hw-module[lam={list(lam.parts)},N={n_spinons}]",
                    {"lam": list(lam.parts), "N": n_spinons},
                    lambda lam=lam, N=n_spinons: _hw_case(lam, N),
                ))
    return cases


def _hw_case(lam, n_spinons):
    try:
        yangian.hw_module_table(lam, n_spinons)
    except AssertionError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# suite: gz (branching schemes and Drinfel'd polynomial cross-checks)

def gz_cases(n: int | None = None) -> list[Case]:
    """GZ schemes against skew Schur polynomials for outer size <= 5 and up to
    2 spinons at ranks 2 and 3 (or rank `n`), and the two Drinfel'd
    polynomial routes for every partition of size <= 6 at ranks 2-4.  No
    truncation order."""
    ranks = (2, 3) if n is None else (n,)
    cases = []
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            for n in ranks:
                for n_spinons in range(3):
                    if len(mu) > n_spinons or len(lam) > n_spinons + n:
                        continue
                    cases.append(Case(
                        f"gz[{lam.parts}/{mu.parts},n={n},N={n_spinons}]",
                        {"outer": list(lam.parts), "inner": list(mu.parts),
                         "n": n, "N": n_spinons},
                        lambda l=lam, m=mu, n=n, N=n_spinons: _gz_case(l, m, n, N),
                    ))
    for lam in all_partitions_upto(6):
        for n in (2, 3, 4):
            if len(lam) > n:
                continue
            cases.append(Case(
                f"drinfeld[{lam.parts},n={n}]",
                {"lam": list(lam.parts), "n": n},
                lambda l=lam, n=n: _drinfeld_case(l, n),
            ))
    return cases


def _gz_case(lam, mu, n, n_spinons):
    schemes = yangian.gz_schemes(lam, mu, n, n_spinons)
    shape = SkewShape(lam, mu)
    weights: dict = {}
    for s in schemes:
        w = yangian.gz_weight(s)
        weights[w] = weights.get(w, 0) + 1
        tab = yangian.gz_to_sst(s)
        if yangian.sst_to_gz(tab, lam, mu, n, n_spinons) != s:
            return {"scheme": repr(s), "fault": "sst round trip"}
    # gz weights live on the N+n-variable torus; compare full monomial records
    monomials = symfunc.weight_projection(symfunc.schur_skew(shape, n, "sst"))
    if weights != monomials:
        return {"fault": "weight multiset mismatch",
                "gz": {str(k): v for k, v in sorted(weights.items())},
                "schur": {str(k): v for k, v in sorted(monomials.items())}}
    return None


def _drinfeld_case(lam, n):
    ev = yangian.drinfeld_evaluation(lam, n)
    tame = yangian.drinfeld_tame(SkewShape(lam), n)
    if ev != tame:
        return {"fault": "evaluation != tame", "ev": ev.to_json_dict(),
                "tame": tame.to_json_dict()}
    for roots in ev.roots:
        if roots and list(roots) != list(range(roots[0], roots[-1] + 1, 2)):
            return {"fault": "roots not a unit string", "roots": list(roots)}
    return None


SUITES = {
    "qids": qids_cases,
    "schur": schur_cases,
    "bijections": bijection_cases,
    "spinon-cut": spinon_cut_cases,
    "sl2": sl2_cases,
    "decomposition": decomposition_cases,
    "gz": gz_cases,
}


def build_suite(name: str, n: int | None = None, qmax: int | None = None) -> list[Case]:
    """The cases of one suite, or of every suite for "all".  "all" passes each
    builder the overrides it reads; a named suite given an override it does
    not read raises ValueError naming the flag."""
    given = {"n": n, "qmax": qmax}
    if name == "all":
        return [case for key in sorted(SUITES) for case in _build(key, given)]
    if name not in SUITES:
        raise KeyError(name)
    unread = [flag for flag, value in given.items()
              if value is not None and flag not in _reads(name)]
    if unread:
        raise ValueError(f"suite {name} takes no --{unread[0]}")
    return _build(name, given)


def _reads(name: str):
    return inspect.signature(SUITES[name]).parameters


def _build(name: str, given: dict) -> list[Case]:
    reads = _reads(name)
    return SUITES[name](**{flag: value for flag, value in given.items() if flag in reads})
