"""Verification suites: each case checks one identity and reports a locus on
failure.  A case is `(id, params, check)` and runs as `check(**params)`:
each case kind has one module-level check whose parameter names are the keys
of its JSON-plain `params`, the inputs the report prints, so a case can be
re-run from its report record.  `SUITES` maps each suite name to its case
builder, whose defaults are the pinned reproduction bounds; the CLI and the
acceptance tests both run these builders.  A builder's parameters (`n`,
`qmax`, or neither) are the overrides its suite reads.

`strips` and `symfunc` are imported inside the builders and checks that
read them, so that a suite which reads neither (`spinon-cut`, `sl2`) does
not load them."""
from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from operator import add
from typing import Callable, NamedTuple

from . import affine, qseries, yangian
from .partitions import all_partitions_upto, contains, partition, partitions_of


class Case(NamedTuple):
    id: str
    params: dict  # JSON-plain; its keys are the parameter names of `check`
    check: Callable[..., object]  # check(**params) is None on pass, else a locus


def run_cases(suite: str, cases: list[Case]) -> dict:
    """Run every case as `check(**params)` and return the report that
    `verify --format json` prints: {"suite", "passed", "cases"}, with one
    {"id", "params", "pass", "locus", "seconds"} per case, sorted by id, and
    each time rounded to 4 places."""
    results = []
    for case in cases:
        start = time.perf_counter()
        try:
            locus = case.check(**case.params)
        except Exception as exc:  # identity bugs must surface, not crash the run
            locus = f"exception: {exc}"
        results.append({"id": case.id, "params": case.params, "pass": locus is None,
                        "locus": locus, "seconds": round(time.perf_counter() - start, 4)})
    results.sort(key=lambda r: r["id"])
    return {"suite": suite, "passed": all(r["pass"] for r in results),
            "cases": results}


def _series_locus(a, b):
    """First differing exponent between two series, below the lower order
    of the two, or None."""
    for d, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return {"q_degree": d, "lhs": x, "rhs": y}
    return None


def _coordinate(x: int) -> tuple[int]:
    """The piece of one weight coordinate in a weight tuple."""
    return (x,)


def weight_rows(orbits: dict) -> list[tuple[tuple[int, ...], tuple]]:
    """(weight, row) for every weight of every orbit of the table `orbits`
    (see `affine`), in weight order; the weights of one orbit share one
    tuple of its row.  Each weight is its head and rest from
    `affine.laid_out`, with each coordinate laid out as a 1-tuple."""
    length = len(next(iter(orbits), ()))  # n - 1
    parts = affine.laid_out(orbits, [None, (), *[_coordinate] * length], tuple)
    return list(zip(map(add, parts[::3], parts[1::3]), parts[2::3]))


def first_difference(a: dict, b: dict):
    """None if the tables `a` and `b`, of one (n, k, qmax), are equal; else
    (weight, degree, a_coeff, b_coeff) at the first weight in sorted order
    whose rows differ.  No orbit is expanded: the orbit of m starts at c_n,
    c_1, ..., c_{n-1}, as w_1 = c_a - c_b is least at a least c_a and a
    greatest c_b, and each later w_i at the greatest c left (c as in
    `affine.dominant_weight`, c_n = 0)."""
    differ = [key for key in a.keys() | b.keys() if a.get(key) != b.get(key)]
    if not differ:
        return None
    w, key = min(((-sum(key), *key[:-1]), key) for key in differ)
    x, y = a.get(key), b.get(key)
    x, y = x or (0,) * len(y), y or (0,) * len(x)
    d = next(d for d, (p, q) in enumerate(zip(x, y)) if p != q)
    return (w, d, x[d], y[d])


def _table_locus(a, b):
    diff = first_difference(a, b)
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
    return [
        *(Case(f"durfee[m={m:+03d}]", {"m": m, "qmax": qmax}, _durfee)
          for m in range(-10, 11)),
        *(Case(f"lemma-d3[{variant}][M={big_m:02d},N={big_n:02d}]",
               {"M": big_m, "N": big_n, "variant": variant, "qmax": d3_qmax}, _lemma_d3)
          for big_m in range(11) for big_n in range(11) for variant in ("i", "ii")),
        *(Case(f"z-expansion-product[N={n_val}]", {"N": n_val, "qmax": qmax}, _z_product)
          for n_val in range(1, 9)),
        *(Case(f"rs-generating[nvars={nvars}]", {"Nmax": 4, "nvars": nvars, "qmax": 4},
               _rs_generating)
          for nvars in range(1, 4)),
    ]


def _durfee(m, qmax):
    from . import symfunc
    return None if symfunc.durfee_check(m, qmax) else "sum != 1/(q)oo"


def _lemma_d3(M, N, variant, qmax):
    from . import symfunc
    return None if symfunc.lemma_d3_check(M, N, variant, qmax) else "sides differ"


def _z_product(N, qmax):
    """The z-expansions of (z; q)_N and 1/(z; q)_N multiply to 1 through
    z^{N+2}."""
    from . import symfunc
    zdeg = N + 2
    lhs = symfunc.pochhammer_z_expansion(N, qmax)
    rhs = symfunc.inv_pochhammer_z_expansion(N, zdeg, qmax)
    for j in range(zdeg + 1):
        total = [0] * (qmax + 1)
        for i in range(min(j, N) + 1):
            total[:] = map(add, total, qseries.product(lhs[i], rhs[j - i]))
        locus = _series_locus(total, [1 if j == 0 else 0] + [0] * qmax)
        if locus is not None:
            return {"z_degree": j, **locus}
    return None


def _rs_generating(Nmax, nvars, qmax):
    from . import symfunc
    if symfunc.rs_generating_check(Nmax, nvars, qmax):
        return None
    return "generating function mismatch"


# ---------------------------------------------------------------------------
# suite: schur

def _sub_partitions(lam: tuple[int, ...]):
    for size in range(sum(lam) + 1):
        for mu in partitions_of(size, max_part=max(lam, default=0), max_len=len(lam)):
            if contains(lam, mu):
                yield mu


def schur_cases() -> list[Case]:
    """The three skew-Schur routes on every skew shape with outer size <= 6 in
    1..4 variables, the straight-shape expansion of every border strip of size
    <= 6 at ranks 2 and 3, checked on the coefficient of every dominant
    monomial (`_ribbon_locus`), and the rank-2 h-rewrite for 1 <= a, b <= 6.
    The suite takes neither a rank nor a truncation order."""
    from . import strips
    cases = []
    for lam in all_partitions_upto(6):
        for mu in _sub_partitions(lam):
            for nvars in range(1, 5):
                cases.append(Case(
                    f"schur[{lam}/{mu},v={nvars}]",
                    {"outer": list(lam), "inner": list(mu), "nvars": nvars},
                    _schur_routes,
                ))
    for rank in (2, 3):
        for size in range(7):
            for cols in strips.enumerate_border_strips(rank, size, reduced=False):
                rows = list(strips.transpose(cols))
                cases.append(Case(f"lr[n={rank},rows={rows}]",
                                  {"n": rank, "rows": rows}, _lr))
    for a in range(1, 7):
        for b in range(1, 7):
            cases.append(Case(f"h-rewrite[a={a},b={b}]", {"a": a, "b": b}, _h_rewrite))
    return cases


def _schur_routes(outer, inner, nvars):
    from . import symfunc
    shape = partition(outer), partition(inner)
    if not contains(*shape):
        raise ValueError(f"inner {shape[1]} not contained in outer {shape[0]}")
    base = symfunc.schur_skew(shape, nvars, "jt_h")
    for method in ("jt_e", "sst"):
        if base != symfunc.schur_skew(shape, nvars, method):
            return {"method": method, "shape": repr(shape)}
    return None


def _lr(n, rows):
    """The case runs its own gate: `strips.from_rows` refuses rows that
    are not positive ints, or whose strip has a column taller than n.  The
    rank does nothing else, as a strip's shape, size and Schur expansion are
    those of its columns at every rank that holds it, so the check past the
    gate is `_lr_check`, memoized on the columns, and a strip of the census
    at ranks 2 and 3 is checked once."""
    from . import strips
    return _lr_check(strips.from_rows(rows, n))


@lru_cache(maxsize=None)
def _lr_check(cols: tuple[int, ...]):
    """The check of `_lr` for the strip with columns `cols`."""
    from . import strips, symfunc
    return _ribbon_locus(cols, symfunc.ribbon_expansion(strips.transpose(cols)))


def _ribbon_locus(cols, coeffs):
    """None if `coeffs` (partition -> coefficient) is the Schur expansion of
    the skew Schur function of the strip with columns `cols`, else a locus.
    For every partition mu of |strip| the coefficient of the dominant
    monomial x^mu in s_strip, the number of semistandard fillings of the
    strip with content mu, must equal sum_nu c_nu K_{nu,mu}.  The Kostka
    matrix is unitriangular, so this fixes every coefficient."""
    from . import strips, symfunc
    size = sum(cols)
    for nu, c in coeffs.items():
        if c < 0 or sum(nu) != size:
            return {"nu": list(nu), "coeff": c}
    outer, inner = strips.shape(cols)
    for mu in partitions_of(size):
        lhs = symfunc.skew_kostka(outer, inner, mu)
        rhs = sum(c * _kostka(nu, mu) for nu, c in coeffs.items())
        if lhs != rhs:
            return {"mu": list(mu), "lhs": lhs, "rhs": rhs}
    return None


@lru_cache(maxsize=None)
def _kostka(nu: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """K_{nu,mu}, computed once: the strips of a census share their straight
    shapes and contents."""
    from . import symfunc
    return symfunc.skew_kostka(nu, (), mu)


def _h_rewrite(a, b):
    """h_a h_b - h_{a+b} = e_2 h_{a-1} h_{b-1} in two variables."""
    from . import symfunc
    h = symfunc.complete
    lhs = symfunc.sum_of_products(((1, h(a, 2), h(b, 2)), (-1, h(a + b, 2), {0: 1})))
    rhs = symfunc.sum_of_products(((1, h(a - 1, 2), h(b - 1, 2)),))
    rhs = symfunc.sum_of_products(((1, symfunc.elementary(2, 2), rhs),))
    return None if lhs == rhs else {"a": a, "b": b}


# ---------------------------------------------------------------------------
# suite: bijections

def bijection_cases(n: int | None = None) -> list[Case]:
    """Label round trips and both energy forms on every reduced strip of size
    <= 6, and the mode-list postconditions, at ranks 2 and 3 (or rank `n`);
    plus the rapidity-energy convention harness on the same census.  No
    truncation order."""
    from . import strips
    ranks = (2, 3) if n is None else (n,)
    max_size = 6
    cases = []
    for rank in ranks:
        for size in range(max_size + 1):
            for cols in strips.enumerate_border_strips(rank, size, reduced=True):
                rows = list(strips.transpose(cols))
                cases.append(Case(f"roundtrip[n={rank},rows={rows}]",
                                  {"n": rank, "rows": rows}, _round_trips))
                cases.append(Case(f"energy-forms[n={rank},rows={rows}]",
                                  {"n": rank, "rows": rows}, _energy_forms))
    for rank in ranks:
        for modes in _mode_lists(rank, 6, 4, [], 0, 0):
            cases.append(Case(f"modes[n={rank},{modes}]", {"n": rank, "modes": modes},
                              _modes_case))
    cases.append(Case("rapidity-convention-harness",
                      {"max_size": max_size, "ranks": list(ranks)}, _harness_case))
    return cases


def _round_trips(n, rows):
    from . import strips
    strip = strips.from_rows(rows, n)
    text = strips.strip_to_rapidity(strip, n)
    if strips.rapidity_to_strip(text, n) != strip:
        return "strip->rapidity->strip failed"
    if strips.rapidity(**strips.to_record(text, n)) != text or strips.motif(text, n) != text:
        return "rapidity->motif->rapidity failed"
    if strips.motif_to_strip(text, n) != strip:
        return "square construction disagrees with rapidity route"
    return None


def _energy_forms(n, rows):
    """`strips.energy` raises if a reduced strip's two energy forms differ."""
    from . import strips
    strips.energy(strips.from_rows(rows, n), n)
    return None


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


def _modes_case(n, modes):
    from . import strips
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
    from . import strips
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
    return [weight for weight, _ in weight_rows(affine.bosonic_character(n, k, max_extra))]


def spinon_cut_cases(n: int | None = None, qmax: int | None = None) -> list[Case]:
    """Cut sums against the closed string functions, and multisum against
    alternating cut forms (N <= 3n), for every weight with
    |lambda|^2/2 - Delta_k <= 2 at ranks 2, 3 and 4 (or rank `n`), to q^8.
    Every weight of the census is built before a case runs."""
    if qmax is None:
        qmax = 8
    cases = []
    for rank in ((2, 3, 4) if n is None else (n,)):
        for k in range(rank):
            for coords in small_norm_weights(rank, k):
                weight = list(coords)
                cases.append(Case(f"spinon-cut[n={rank},k={k},w={weight}]",
                                  {"n": rank, "k": k, "weight": weight, "qmax": qmax},
                                  _spinon_cut))
                for n_spinons in range(k, 3 * rank + 1, rank):
                    cases.append(Case(
                        f"cut-forms[n={rank},k={k},w={weight},N={n_spinons}]",
                        {"n": rank, "k": k, "weight": weight, "N": n_spinons, "qmax": qmax},
                        _cut_forms,
                    ))
    return cases


def _spinon_cut(n, k, weight, qmax):
    return None if affine.verify_spinon_cut(n, k, weight, qmax) else "cut sum != closed form"


def _cut_forms(n, k, weight, N, qmax):
    return _series_locus(
        affine.spinon_string_function(n, k, weight, N, "multisum", qmax),
        affine.spinon_string_function(n, k, weight, N, "alternating", qmax),
    )


# ---------------------------------------------------------------------------
# suite: sl2

def sl2_cases(qmax: int | None = None) -> list[Case]:
    """Bosonic, both fermionic forms and mode enumeration agree at rank 2 for
    k = 0, 1, to q^10.  The suite is rank 2 and takes no rank."""
    if qmax is None:
        qmax = 10
    return [Case(f"sl2-four-way[k={k}]", {"k": k, "qmax": qmax}, _sl2_four_way)
            for k in (0, 1)]


def _sl2_four_way(k, qmax):
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


# ---------------------------------------------------------------------------
# suite: decomposition

def decomposition_cases(n: int | None = None, qmax: int | None = None) -> list[Case]:
    """The border-strip decomposition against the bosonic tables at n=2 to
    q^8, n=3 to q^5 and n=4 (k=0,1) to q^3, or at rank `n` only (the k=0,1
    tables to q^3); a given `qmax` replaces these orders and takes every k.
    Also the rank-2 module sum to q^8 and the module checks for every
    partition of size <= 5 with N <= 5 spinons, which take neither a rank
    nor an order."""
    cases = []
    for rank in ((2, 3, 4) if n is None else (n,)):
        ks = range(rank) if rank < 4 or qmax is not None else (0, 1)
        order = {2: 8, 3: 5}.get(rank, 3) if qmax is None else qmax
        for k in ks:
            cases.append(Case(f"yangian[n={rank},k={k},qmax={order}]",
                              {"n": rank, "k": k, "qmax": order}, _yangian))
    for k in (0, 1):
        cases.append(Case(f"sl2-yangian[k={k},qmax=8]", {"k": k, "qmax": 8}, _sl2_yangian))
    for n_spinons in range(6):
        for size in range(6):
            for lam in partitions_of(size, max_len=n_spinons):
                cases.append(Case(f"hw-module[lam={list(lam)},N={n_spinons}]",
                                  {"lam": list(lam), "N": n_spinons}, _hw_case))
    return cases


def _yangian(n, k, qmax):
    return _table_locus(affine.bosonic_character(n, k, qmax),
                        yangian.yangian_decomposition(n, k, qmax))


def _sl2_yangian(k, qmax):
    return _table_locus(affine.bosonic_character(2, k, qmax),
                        yangian.sl2_yangian_decomposition(k, qmax))


def sl2_hw_character(lam: tuple[int, ...], n_spinons: int):
    """prod_{i>=0} h_{m_i} in two variables, with m_0 = N - l(lambda), as
    the dict of its packed monomials (see `symfunc`); the m_i of the parts
    are counted in one pass."""
    from . import symfunc
    if len(lam) > n_spinons:
        raise ValueError("need l(lambda) <= N")
    poly = symfunc.complete(n_spinons - len(lam), 2)  # the m_0 factor
    for m in Counter(lam).values():
        poly = symfunc.sum_of_products(((1, poly, symfunc.complete(m, 2)),))
    return poly


def _hw_case(lam, N):
    """The (lambda, N) module's sl2 character against the Schur polynomial of
    its border strip; `lam` is a list or tuple of parts.
    `strips.sl2_partition_to_strip` checks the strip's size N + 2(r - 1), r
    its number of rows, and its energy |lambda| + N^2/4.  The strip
    polynomial carries one (x1 x2) factor per extra row pair, invisible in
    sl2 weights, so the character is lifted by e_2^{r - 1} first."""
    from . import strips, symfunc
    lam = partition(lam)
    try:
        strip = strips.sl2_partition_to_strip(lam, N)
    except AssertionError as exc:
        return str(exc)
    lifted = sl2_hw_character(lam, N)
    for _ in range((sum(strip) - N) // 2):
        lifted = symfunc.sum_of_products(((1, lifted, symfunc.elementary(2, 2)),))
    if symfunc.schur_skew(strips.shape(strip), 2) != lifted:
        return f"strip character mismatch for ({lam}, {N})"
    return None


# ---------------------------------------------------------------------------
# suite: gz (branching schemes and Drinfel'd polynomial cross-checks)

def gz_cases(n: int | None = None) -> list[Case]:
    """GZ schemes against skew Schur polynomials for outer size <= 5 and up to
    2 spinons at ranks 2 and 3 (or rank `n`), and
    the two Drinfel'd polynomial routes for every partition of size <= 6 at
    ranks 2-4.  No truncation order."""
    ranks = (2, 3) if n is None else (n,)
    cases = []
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            for rank in ranks:
                for n_spinons in range(3):
                    if len(mu) > n_spinons or len(lam) > n_spinons + rank:
                        continue
                    cases.append(Case(
                        f"gz[{lam}/{mu},n={rank},N={n_spinons}]",
                        {"outer": list(lam), "inner": list(mu),
                         "n": rank, "N": n_spinons},
                        _gz_case,
                    ))
    for lam in all_partitions_upto(6):
        for rank in (2, 3, 4):
            if len(lam) > rank:
                continue
            cases.append(Case(f"drinfeld[{lam},n={rank}]",
                              {"lam": list(lam), "n": rank}, _drinfeld_case))
    return cases


def _gz_case(outer, inner, n, N):
    """The case runs its own gate, the bounds of `symfunc.gz_shape` that
    `gz_schemes` checks: mu inside lam, l(mu) <= N and l(lam) <= N + n.  N
    does nothing else (see `gz_schemes`), so the check past the gate is
    `_gz_check`, memoized on (lam, mu, n), and the cases that differ only
    in N share one."""
    from . import symfunc
    return _gz_check(*symfunc.gz_shape(outer, inner, n, N), n)


@lru_cache(maxsize=None)
def _gz_check(lam, mu, n):
    """The GZ schemes of lam/mu at rank n, each round-tripped through its
    tableau, against the weights of s_{lam/mu}.  The schemes are built at
    the least N that the bounds of `symfunc.gz_shape` admit."""
    from . import symfunc
    schemes = symfunc.gz_schemes(lam, mu, n, max(len(mu), len(lam) - n))
    weights: dict = {}
    for s in schemes:
        w = symfunc.gz_weight(s)
        weights[w] = weights.get(w, 0) + 1
        tab = symfunc.gz_to_sst(s)
        if symfunc.sst_to_gz(tab, lam, mu, n) != s:
            return {"scheme": repr(s), "fault": "sst round trip"}
    # the weights of s_{lam/mu} in n variables, by jt_h: a determinant, not
    # the horizontal-strip walk that builds the schemes
    monomials = symfunc.weight_projection(symfunc.schur_skew((lam, mu), n, "jt_h"), n)
    if weights != monomials:
        return {"fault": "weight multiset mismatch",
                "gz": {str(k): v for k, v in sorted(weights.items())},
                "schur": {str(k): v for k, v in sorted(monomials.items())}}
    return None


def _drinfeld_case(lam, n):
    from . import symfunc
    ev = symfunc.drinfeld_evaluation(lam, n)
    tame = symfunc.drinfeld_tame((partition(lam), ()), n)
    if ev != tame:
        return {"fault": "evaluation != tame", "ev": [list(r) for r in ev],
                "tame": [list(r) for r in tame]}
    for roots in ev:
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
    not read raises ValueError naming the flag.  No rank or order is
    refused here: the command line holds each to its ceiling."""
    given = {"n": n, "qmax": qmax}
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    if name == "all":
        return [case for key in sorted(SUITES) for case in _build(key, given)]
    unread = [flag for flag, value in given.items()
              if value is not None and flag not in _reads(name)]
    if unread:
        raise ValueError(f"suite {name} takes no --{unread[0]}")
    return _build(name, given)


def _reads(name: str) -> tuple[str, ...]:
    """The parameter names of `SUITES[name]`: the overrides its suite reads."""
    code = SUITES[name].__code__
    return code.co_varnames[:code.co_argcount]


def _build(name: str, given: dict) -> list[Case]:
    reads = _reads(name)
    return SUITES[name](**{flag: value for flag, value in given.items() if flag in reads})
