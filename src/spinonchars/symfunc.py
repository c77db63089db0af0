"""Symmetric polynomials in finitely many variables, with integer
coefficients; the q-binomials and the identities built on them, and
Rogers-Szego as composition -> q-series dicts; GZ schemes and Drinfel'd
polynomials.  Everything is exact.

A polynomial in nvars variables is the dict from each monomial's packed key
to its nonzero int coefficient, and nvars is passed beside it: a key packs
the exponent vector one byte per variable, x_1 most significant, so a
product of monomials is one integer add.  {0: 1} is 1, {} is 0, and two
polynomials are equal when their dicts are.  `sum_of_products` is the one
arithmetic.

No `char` command reads this module: it holds what only the verification
suites and the tests check, so that a command that builds a table does not
load it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice
from operator import add, neg, sub

from .affine import exps_to_fw
from .partitions import conjugate, contains, ends_at, horizontal_strips, padded, partition
from .qseries import _one, inv_pochhammer, inv_pochhammer_product, product


_MAX_DEGREE = 255  # the largest exponent one byte of a packed key holds


def _degree(poly: dict) -> int:
    """The total degree of `poly`, 0 for the zero polynomial: the largest
    byte sum of a packed key."""
    return max((sum(key.to_bytes(-(-key.bit_length() // 8), "big")) for key in poly),
               default=0)


def sum_of_products(products) -> dict:
    """sum of c * a * b over the (c, a, b) in `products`, with c an int and
    a, b polynomials in one set of variables.  A sum, a difference or a
    scalar multiple is such a sum with b = {0: 1}.

    Adding packed keys adds exponent vectors byte by byte while no entry
    passes 255.  An entry e1_i + e2_i of a product is at most |e1| + |e2|
    <= deg a + deg b, so a pair whose degrees sum past 255 raises
    ValueError before any pair is multiplied: no byte ever carries."""
    products = list(products)
    for _, a, b in products:
        d = _degree(a) + _degree(b)
        if d > _MAX_DEGREE:
            raise ValueError(f"a product of degree {d} passes {_MAX_DEGREE}, "
                             "the largest exponent a packed monomial holds")
    return _sum_of_products(products)


def _sum_of_products(products) -> dict:
    """`sum_of_products` without the degree check: the caller proves that
    no product passes degree 255.  The result is built in one dict, and its
    zero coefficients are dropped once, at the end."""
    out: dict = {}
    get = out.get
    for c, a, b in products:
        for e1, c1 in a.items():
            c1 *= c
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _packed(idx, nvars: int) -> int:
    """The packed key of the monomial x_{i+1} for each i in `idx`, a
    repeated i raising its exponent."""
    return sum(1 << 8 * (nvars - 1 - i) for i in idx)


@lru_cache(maxsize=None)
def elementary(m: int, nvars: int) -> dict:
    """e_m: sum of squarefree degree-m monomials; zero for m < 0 or m > nvars.
    Memoized: callers share the dict and never change it."""
    if m < 0 or m > nvars:
        return {}
    return dict.fromkeys((_packed(idx, nvars) for idx in combinations(range(nvars), m)), 1)


@lru_cache(maxsize=None)
def complete(m: int, nvars: int) -> dict:
    """h_m: sum of all degree-m monomials; zero for m < 0.  Memoized, as
    `elementary` is.  An m past 255 raises ValueError, as x_1^m has no
    packed key."""
    if m < 0:
        return {}
    if m > _MAX_DEGREE:
        raise ValueError(f"h_{m} has an exponent past {_MAX_DEGREE}")
    return dict.fromkeys((_packed(idx, nvars) for idx in
                          combinations_with_replacement(range(nvars), m)), 1)


@lru_cache(maxsize=None)
def _jt_det(basis, nvars: int, rows: tuple, cols: tuple) -> dict:
    """det[basis(r - c, nvars)] over r in `rows` and c in `cols`, with
    `basis` `complete` or `elementary`, by expansion along the first column.
    Callers shift rows and cols so that cols[0] == 0 (see `schur_skew`); the
    memo keeps every minor for the life of the process.

    No product here passes degree 255, so it calls `_sum_of_products`
    unchecked.  The entry at (r, c) is homogeneous of degree r - c, so every
    term of the determinant is homogeneous of degree sum(rows) - sum(cols),
    and so is each product of an entry at (r, cols[0]) and its minor.  A
    minor is taken only under a nonzero entry, r - cols[0] >= 0, so its own
    degree sum(rows) - sum(cols) - (r - cols[0]) is at most its parent's.
    `schur_skew`, the only caller, starts from degree |lam| - |mu|, the
    shape's cell count, and refuses more than 255 cells."""
    if not rows:
        return {0: 1}
    shift = cols[1] if len(cols) > 1 else 0
    minor_cols = tuple(c - shift for c in cols[1:])
    return _sum_of_products(
        (-1 if pos % 2 else 1, entry,
         _jt_det(basis, nvars, tuple(x - shift for x in rows[:pos] + rows[pos + 1:]),
                 minor_cols))
        for pos, r in enumerate(rows) if (entry := basis(r, nvars))
    )


def schur_skew(shape: tuple, nvars: int, method: str = "jt_h") -> dict:
    """Skew Schur polynomial of the shape (outer, inner) by determinant (jt_h,
    jt_e) or tableau sum (sst).

    jt_h is det[h_{lam_i - mu_j - i + j}] and jt_e det[e_{lam'_i - mu'_j - i +
    j}] (Macdonald I.5), both `_jt_det` with rows lam_i - i and columns
    mu_j - j (of the conjugates for jt_e).  The two determinant routes share
    that one memo of minors for the life of the process, keyed by the row and
    column index sequences shifted so that the first column is 0: an entry
    depends only on a row index minus a column index, so the shift leaves the
    minor unchanged, and shapes that differ by it share their minors.

    sst sums over the semistandard tableaux with entries 1..nvars, read as
    chains inner = k_0 <= k_1 <= ... <= k_nvars = outer in which k_i/k_{i-1},
    the cells holding i, is a horizontal strip, by a transfer matrix (Stanley,
    EC1 4.7): the chains that reach one k_i share its dict from content
    prefix to count, and the last strip must end at outer (`ends_at`).  It
    reads no determinant.  Layer i depends only on (inner, outer, i), so the
    layers are shared across variable counts (`_sst_layer`): the polynomial
    in nvars variables is the last, `ends_at`, step from layer nvars - 1.

    Every route refuses a shape of more than 255 cells with ValueError: its
    polynomial's degree would pass what a packed monomial holds."""
    outer, inner = shape
    cells = sum(outer) - sum(inner)
    if cells > _MAX_DEGREE:
        raise ValueError(f"a skew shape of more than {_MAX_DEGREE} cells")
    if method in ("jt_h", "jt_e"):
        lam, mu, basis = outer, inner, complete
        if method == "jt_e":
            lam, mu, basis = conjugate(lam), conjugate(mu), elementary
        mu = padded(mu, len(lam))
        shift = mu[0] if mu else 0  # the first column index mu_1 - 1 goes to 0
        return _jt_det(basis, nvars, tuple(p - i - shift for i, p in enumerate(lam)),
                       tuple(p - j - shift for j, p in enumerate(mu)))
    if method == "sst":
        inner = padded(inner, len(outer))
        if not nvars:
            return {0: 1} if inner == outer else {}
        terms: dict = {}
        total = sum(outer)
        for kappa, counts in _sst_layer(inner, outer, nvars - 1).items():
            if ends_at(kappa, outer):  # the last strip ends at outer
                size = total - sum(kappa)
                for prefix, c in counts.items():
                    key = (prefix << 8) + size
                    terms[key] = terms.get(key, 0) + c
        return terms
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def _sst_layer(inner: tuple, outer: tuple, i: int) -> dict:
    """k_i -> packed content prefix -> count, over the chains inner = k_0 <=
    ... <= k_i inside outer whose steps are horizontal strips; inner is
    padded to len(outer).  A prefix holds the i step sizes, one byte each,
    the first most significant.  Memoized for the life of the process:
    callers read these dicts and never change them."""
    if not i:
        return {inner: {0: 1}}
    grown: dict = {}
    for kappa, counts in _sst_layer(inner, outer, i - 1).items():
        for rho, size in horizontal_strips(kappa, outer):
            into = grown.setdefault(rho, {})
            for prefix, c in counts.items():
                key = (prefix << 8) + size
                into[key] = into.get(key, 0) + c
    return grown


def ribbon_expansion(rows) -> dict[tuple[int, ...], int]:
    """Expand the ribbon (border strip) Schur function with row lengths
    `rows` as sum_nu d_{nu,alpha} s_nu by Gessel's rule (Stanley EC2 7.19):
    d_{nu,alpha} is the number of standard Young tableaux of shape nu whose
    descent composition is alpha = rows.  A ribbon rotated by 180 degrees has
    the same Schur function, so the rows may be read in either order."""
    alpha = tuple(rows)
    if any(a < 1 for a in alpha):
        raise ValueError(f"ribbon rows must be positive: {list(alpha)}")
    return dict(_descent_table(sum(alpha)).get(alpha, {}))


@lru_cache(maxsize=None)
def _descent_table(size: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Descent composition -> shape nu -> number of standard Young tableaux
    of shape nu, |nu| = size, with that descent composition.  Tableaux are
    grown by placing 1, 2, ..., size; i is a descent when i+1 lands in a
    lower row, which starts a new part of the composition.  Equal
    (shape, last row, composition) prefixes are merged, so the work is
    bounded by the number of such states, not of tableaux."""
    states = {((), -1, ()): 1}  # (shape, row of the last entry, composition)
    for _ in range(size):
        grown: dict = {}
        for (shape, last, comp), count in states.items():
            padded = shape + (0,)
            for row in range(len(padded)):
                if row and padded[row - 1] == padded[row]:
                    continue  # no addable cell in this row
                new_shape = padded[:row] + (padded[row] + 1,) + shape[row + 1:]
                new_comp = comp + (1,) if row > last else comp[:-1] + (comp[-1] + 1,)
                key = (new_shape, row, new_comp)
                grown[key] = grown.get(key, 0) + count
        states = grown
    table: dict = {}
    for (shape, _, comp), count in states.items():
        by_shape = table.setdefault(comp, {})
        by_shape[shape] = by_shape.get(shape, 0) + count
    return table


def skew_kostka(outer: tuple[int, ...], inner: tuple[int, ...], mu) -> int:
    """The number of semistandard tableaux of shape outer/inner with content
    mu, which is the coefficient of x^mu in s_{outer/inner}: the number of
    chains inner = k_0 < k_1 < ... < outer in which each k_i/k_{i-1} is a
    horizontal strip of mu_i boxes.  With inner empty this is the Kostka
    number K_{outer,mu}."""
    layer = {padded(inner, len(outer)): 1}
    for m in mu:
        grown: dict = {}
        for kappa, count in layer.items():
            for rho, size in horizontal_strips(kappa, outer):
                if size == m:
                    grown[rho] = grown.get(rho, 0) + count
        layer = grown
    return layer.get(outer, 0)


def weight_projection(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Collapse a polynomial in nvars variables onto fundamental-weight
    coordinates (x_1...x_n = 1)."""
    out: dict = {}
    for key, c in poly.items():
        w = exps_to_fw(key.to_bytes(nvars, "big"))
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# q-binomials, and the identities built on them

def _shifted(coeffs: tuple, d: int) -> tuple:
    """The coefficients of q^d times `coeffs` at the same order, d >= 0."""
    size = len(coeffs)
    return (0,) * size if d >= size else (0,) * d + coeffs[: size - d]


def euler_inverse(qmax: int) -> tuple:
    """1 / prod_{k>=1} (1 - q^k); coefficient of q^m counts partitions of m.

    Factors (1 - q^k) with k > qmax are 1 below the truncation, so this is
    1/(q)_qmax at order qmax, built by `inv_pochhammer` without expanding
    (q)_qmax."""
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    return inv_pochhammer(qmax, qmax)


def _q_pascal(width: int, qmax: int):
    """Yield, for step s = 0, 1, 2, ..., the list `rows` whose entry k is
    the coefficient tuple of [s choose k]_q at order qmax, k = 0..width
    (zero for k > s).  The same list is updated in place between yields, so
    a caller takes the tuples it needs before asking for the next step.

    Step s applies the q-Pascal rule [s, k] = [s-1, k-1] + q^k [s-1, k] to
    each row k <= min(s, width), from the right, so row k - 1 still holds
    [s-1, k-1] when row k reads it."""
    rows = [_one(qmax)] + [(0,) * (qmax + 1)] * width
    step = 0
    while True:
        yield rows
        step += 1
        for k in range(min(step, width), 0, -1):
            rows[k] = tuple(map(add, rows[k - 1], _shifted(rows[k], k)))


def qbinomial(n: int, m: int, qmax: int) -> tuple:
    """[N choose M]_q = (q)_N / ((q)_M (q)_{N-M}), truncated at qmax, the
    row M of step N of `_q_pascal`."""
    if m < 0 or m > n:
        raise ValueError(f"qbinomial requires 0 <= M <= N, got N={n}, M={m}")
    return next(islice(_q_pascal(m, qmax), n, None))[m]


def qmultinomial(ks, qmax: int) -> tuple:
    """(q)_{k_1+...+k_r} / prod_i (q)_{k_i}, truncated at qmax: the product
    over i of [k_1+...+k_i choose k_i]_q."""
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError(f"qmultinomial requires non-negative parts, got {ks}")
    out, total = _one(qmax), 0
    for k in ks:
        total += k
        out = product(out, qbinomial(total, k, qmax))
    return out


def pochhammer_z_expansion(n: int, qmax: int) -> tuple[tuple, ...]:
    """(z;q)_N as its N + 1 z-coefficients.

    Coefficient of z^j is (-1)^j q^{j(j-1)/2} [N choose j]_q; every
    [N choose j]_q is row j of step N of one `_q_pascal` pass.
    """
    if n < 0:
        raise ValueError("N must be >= 0")
    rows = next(islice(_q_pascal(n, qmax), n, None))
    out = []
    for j, row in enumerate(rows):
        row = _shifted(row, j * (j - 1) // 2)
        out.append(tuple(map(neg, row)) if j % 2 else row)
    return tuple(out)


def inv_pochhammer_z_expansion(n: int, zdeg: int, qmax: int) -> tuple[tuple, ...]:
    """(z;q)_N^{-1} modulo z^{zdeg+1}, as its zdeg + 1 z-coefficients;
    coefficient of z^j is [N+j-1 choose j]_q, row j of step N - 1 + j of
    one `_q_pascal` pass."""
    if zdeg < 0:
        raise ValueError("zdeg must be >= 0")
    if n == 0:
        if zdeg > 0:
            raise ValueError("N=0 admits no inverse expansion beyond the constant 1")
        return (_one(qmax),)
    if n < 0:
        raise ValueError("N must be >= 0")
    steps = islice(_q_pascal(zdeg, qmax), n - 1, n + zdeg)
    return tuple(rows[j] for j, rows in enumerate(steps))


def durfee_check(m: int, qmax: int) -> bool:
    """Check sum_{a-b=m, a,b>=0} q^{ab}/((q)_a (q)_b) = 1/(q)_inf up to qmax.

    With a = b + m, the term's exponent b(b+m) grows from b to b + 1 by
    2b + 1 + m = b + a + 1 >= 1, so it increases strictly from the first
    admissible b = max(0, -m), and the first b past qmax ends the sum: every
    later term vanishes at this order.  Each term is added into one
    coefficient list at its exponent: map stops at the end of the list."""
    total = [0] * (qmax + 1)
    b = max(0, -m)
    while (d := b * (b + m)) <= qmax:
        total[d:] = map(add, total[d:], inv_pochhammer_product((b + m, b), qmax))
        b += 1
    return tuple(total) == euler_inverse(qmax)


def lemma_d3_check(m_bound: int, n_bound: int, variant: str, qmax: int) -> bool:
    """Two finite q-identities relating alternating/shifted sums to 1/((q)_M (q)_N).

    variant "i":  sum_j (-1)^j q^{j(j-1)/2} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = q^{MN} / ((q)_M (q)_N)
    variant "ii": sum_j q^{(M-j)(N-j)} / ((q)_{M-j}(q)_{N-j}(q)_j)
                  = 1 / ((q)_M (q)_N)
    Each term is added into one coefficient list at its exponent."""
    if m_bound < 0 or n_bound < 0:
        raise ValueError("M and N must be >= 0")
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    big_m, big_n = m_bound, n_bound
    lhs = [0] * (qmax + 1)
    for j in range(min(big_m, big_n) + 1):
        base = inv_pochhammer_product((big_m - j, big_n - j, j), qmax)
        if variant == "i":
            d, op = j * (j - 1) // 2, sub if j % 2 else add
        else:
            d, op = (big_m - j) * (big_n - j), add
        lhs[d:] = map(op, lhs[d:], base)
    rhs = inv_pochhammer_product((big_m, big_n), qmax)
    if variant == "i":
        rhs = _shifted(rhs, big_m * big_n)
    return tuple(lhs) == rhs


def rogers_szego(total: int, nvars: int, qmax: int) -> dict:
    """H_N as composition -> q-series: the coefficient of x^comp, over every
    composition of N into nvars parts, is the q-multinomial of comp."""
    if total < 0:
        raise ValueError("N must be >= 0")
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, got {nvars}")
    return {comp: qmultinomial(comp, qmax) for comp in _compositions(total, nvars)}


def _compositions(total: int, parts: int, prefix: tuple = ()):
    """Yield every composition of `total` into `parts` non-negative parts,
    after `prefix`, in lexicographic order.  A module-level generator, not a
    closure, so that no reference cycle outlives the iteration."""
    if parts == 1:
        yield prefix + (total,)
        return
    for v in range(total + 1):
        yield from _compositions(total - v, parts - 1, prefix + (v,))


def rs_generating_check(nmax: int, nvars: int, qmax: int) -> bool:
    """Verify sum_N H_N t^N/(q)_N = prod_i (t x_i; q)_inf^{-1} through t^nmax.

    The right side's t^N coefficient is expanded independently via the
    single-variable expansion 1/(t z; q)_inf = sum_j z^j t^j / (q)_j.
    """
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, got {nvars}")
    for total in range(nmax + 1):
        scale = inv_pochhammer(total, qmax)
        lhs = {comp: product(c, scale)
               for comp, c in rogers_szego(total, nvars, qmax).items()}
        rhs = {comp: inv_pochhammer_product(comp, qmax)
               for comp in _compositions(total, nvars)}
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# GZ schemes and Drinfel'd polynomials

def drinfeld_evaluation(lam, n: int) -> tuple[tuple[int, ...], ...]:
    """The monic Drinfel'd polynomials P_1..P_{n-1} of the evaluation module
    of highest weight lam, each as the sorted tuple of its roots in
    half-integer units: P_i has the unit-spaced string of roots
    (i-1)/2 + lam_i - j, j = 0..lam_i-lam_{i+1}-1 (halves stored)."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"lambda must have at most {n} parts")
    lam = padded(lam, n)
    return tuple(tuple(sorted(i + 2 * (lam[i] - j) for j in range(lam[i] - lam[i + 1])))
                 for i in range(n - 1))


def drinfeld_tame(shape: tuple, n: int) -> tuple[tuple[int, ...], ...]:
    """The Drinfel'd polynomials P_1..P_{n-1} of the tame module of the skew
    shape (outer, inner), as `drinfeld_evaluation` gives them: each column j
    of height i contributes the root (lam'_j + mu'_j)/2 + j - 1/2 to P_i
    (halves stored)."""
    lc = conjugate(shape[0])
    mc = padded(conjugate(shape[1]), len(lc))
    roots: list[list[int]] = [[] for _ in range(n - 1)]
    for j, (a, b) in enumerate(zip(lc, mc), start=1):
        height = a - b
        if height == 0:
            continue
        if height > n:
            raise ValueError(f"column {j} has height {height} > n={n}")
        if height == n:
            continue  # full columns contribute to no P_i
        roots[height - 1].append(a + b + 2 * j - 1)
    return tuple(tuple(sorted(r)) for r in roots)


def gz_shape(lam, mu, n: int, n_spinons: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lam, mu) as partitions, or ValueError unless mu lies in lam, mu has
    at most N parts and lam at most N + n: the shapes whose GZ schemes
    `gz_schemes` builds."""
    lam, mu = partition(lam), partition(mu)
    if not contains(lam, mu):
        raise ValueError(f"{mu} not contained in {lam}")
    if len(mu) > n_spinons:
        raise ValueError(f"l(mu)={len(mu)} exceeds N={n_spinons}")
    if len(lam) > n_spinons + n:
        raise ValueError(f"l(lambda)={len(lam)} exceeds N+n={n_spinons + n}")
    return lam, mu


def gz_schemes(lam, mu, n: int, n_spinons: int) -> list[tuple[tuple[int, ...], ...]]:
    """All GZ schemes from mu (row 0) to lam (row n): the chains of rows, each
    padded to len(lam) parts, in which row m interleaves above row m - 1,
    row_{m,i} >= row_{m-1,i} >= row_{m,i+1}.

    Row m interleaves above row m - 1 exactly when row m / row m - 1 is a
    horizontal strip, so rows 1..n-1 are drawn by `horizontal_strips` inside
    lam, and a chain is kept where lam / row n - 1 is a horizontal strip too
    (`ends_at`).  mu has at most N parts and lam at most N + n (both checked
    here, by `gz_shape`).  No row needs a length cap: a row that interlaces
    above one of l parts has at most l + 1 (its part l + 2 is at most part
    l + 1 of the row below, 0), so row m has at most N + m parts.  N enters
    only through those two bounds: every N that passes them gives the same
    schemes."""
    lam, mu = gz_shape(lam, mu, n, n_spinons)
    chains = [(padded(mu, len(lam)),)]
    for _ in range(n - 1):
        chains = [(*chain, rho) for chain in chains
                  for rho, _ in horizontal_strips(chain[-1], lam)]
    return [(*chain, lam) for chain in chains if ends_at(chain[-1], lam)]


def gz_weight(scheme) -> tuple[int, ...]:
    """Fundamental-weight coordinates from the row-sum differences."""
    sums = [sum(row) for row in scheme]
    return exps_to_fw([sums[m] - sums[m - 1] for m in range(1, len(sums))])


def gz_to_sst(scheme) -> dict[tuple[int, int], int]:
    """Boxes added between row m-1 and row m receive entry m (cells 0-indexed)."""
    tableau: dict[tuple[int, int], int] = {}
    for m in range(1, len(scheme)):
        for i, (low, high) in enumerate(zip(scheme[m - 1], scheme[m])):
            for j in range(low, high):
                tableau[(i, j)] = m
    return tableau


def sst_to_gz(tableau: dict[tuple[int, int], int], lam, mu, n: int):
    """Inverse of gz_to_sst: row m is mu plus the boxes with entry <= m, each
    row padded to len(lam) parts.  The tableau is read once, counting its
    boxes per (entry, row).  Raises ValueError unless `tableau` is a
    semistandard tableau of shape lam/mu with entries 1..n: the rows so built
    never shrink, so they form a scheme exactly when each interleaves above
    the one before (`ends_at`) and the last is lam, and the tableau is that
    scheme's exactly when `gz_to_sst` gives it back, which also refuses every
    entry outside 1..n and every cell outside the rows of lam."""
    lam, mu = partition(lam), partition(mu)
    counts: dict[tuple[int, int], int] = {}  # (entry, row) -> boxes
    for (i, _), e in tableau.items():
        counts[e, i] = counts.get((e, i), 0) + 1
    rows = [padded(mu, len(lam))]
    for m in range(1, n + 1):
        rows.append(tuple(p + counts.get((m, i), 0) for i, p in enumerate(rows[-1])))
    scheme = tuple(rows)
    if (scheme[-1] != lam or not all(map(ends_at, scheme, scheme[1:]))
            or gz_to_sst(scheme) != tableau):
        raise ValueError(f"not a semistandard tableau of shape {lam}/{mu} "
                         f"with entries 1..{n}")
    return scheme
