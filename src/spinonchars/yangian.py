"""The border-strip decompositions of the level-1 affine characters: the
Yangian route at every rank and the rank-2 module sum."""
from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb, gcd

from .affine import _check_table, exps_to_fw, from_weights, sl2_spinon_grades, validate
from .partitions import partition_counts


def yangian_decomposition(n: int, k: int, qmax: int) -> dict:
    """ch L(Lambda_k) = sum over reduced border strips kappa of class k of
    q^{E(kappa)} s_kappa, graded relative to Delta_k, summed by the
    transfer-matrix method (Stanley, EC1 4.7) over merged search states
    instead of strip by strip.  Energies are kept as e2 = 2n*E, and
    2n*Delta_k = k(n-k).

    Search.  A strip is built by appending its columns left to right, so
    the first column appended is the leftmost, and each new column has
    every earlier one to its left.  For a prefix of s columns and m boxes
    let d = n*s - m = sum_i (n - b_i).  In the column form of
    `strips.energy`, 2n*E = m(n - m) + 2n * sum_i (columns left of i) b_i,
    so appending a column of height b adds b(n - 2m - b) + 2n*s*b =
    b(2d + n - b) to e2, and sets d <- d + n - b.

    * Start: a strip is reduced when its leftmost column, the first one
      appended, is shorter than n.  That term makes d >= 1 and no column
      makes d smaller, so d = 0 holds for the empty prefix alone, which may
      take heights 1..n-1 only; every other prefix takes 1..n.
    * Class: m = n*s - d, so m = -d (mod n), and a prefix is a strip of class
      k exactly when -d = k (mod n).
    * Termination: the grade is (e2 - k(n-k)) / 2n <= qmax exactly when
      e2 <= k(n-k) + 2n*qmax = e2_max.  The first column adds b(n-b) >= n-1
      >= 1, and every later one at least 2d + n - 1 >= n + 1 (b(2d+n-b) is
      concave in b, and its values at b = 1 and b = n are 2d+n-1 and 2dn),
      so a prefix above e2_max has no extension within it.
    * Completion: a prefix of class r != k (so d >= 1) is only a stage on
      the way.  Its extensions to class k append heights b_1..b_t with
      sum_i b_i = need = (k - r) mod n (mod n), at deficits d = d_1 <= d_2
      <= ..., and column i adds b_i(2d_i + n - b_i), which grows with d_i.
      Merge b_1 and b_2 into one column of height c = b_1 + b_2, less n if
      that passes n, so c is in 1..n and the class is kept.  Without a wrap
      this adds 2n*b_2 less and leaves a deficit n smaller to the later
      columns.  With one, put x = n - b_1, so b_2 = c + x: it adds
      (n - x)(2d + x) + x(2d + n + x) > 0 less and leaves the same deficit.
      Merging until one column is left, no extension adds less than the
      one column of height need, which adds need(2d + n - need); a prefix
      that cannot afford that is dropped with its whole subtree, and every
      prefix kept has a completion within e2_max.

    Schur values.  Let c_1..c_s be a strip's column heights, left to right.
    In canonical position (`strips.shape`) the strip fills
    columns 1..s, and the top box of column i shares its row with the bottom
    box of column i + 1, so mu'_i = lam'_{i+1} - 1 and
    c_i = lam'_i - lam'_{i+1} + 1.  So the dual Jacobi-Trudi matrix
    [e_{lam'_i - mu'_j - i + j}] (Macdonald I.5) has e_{c_i + ... + c_j} at
    (i, j) for i <= j, e_0 = 1 at (j + 1, j), and 0 below.  Expand its
    determinant along the first row.  In the minor of entry (1, j), rows
    2..j meet columns 1..j-1 in a triangle with unit diagonal, later rows
    meet them in zeros, and rows and columns j+1..s are the matrix of
    c_{j+1}..c_s, so
    s_kappa = sum_j (-1)^{j-1} e_{c_1 + ... + c_j} s_{ribbon c_{j+1}..c_s}.
    Unrolled, s_kappa is the sum over the cuts of c_1..c_s into runs of
    consecutive columns of the product over the runs of
    (-1)^{len - 1} e_{height}, and e_h = 0 for h > n.  Columns are appended
    in order, so a prefix's cuts all end in one open run: appending height b
    closes it, times e_h for its height h, and opens a run of height b, or,
    when h + b <= n, joins it with sign -1.  A strip's value is its sum with
    the open run closed (`_close_run`).

    Merging.  The future of a prefix (the e2 it may still add, the class it
    ends in, and which runs it may join) depends only on (e2, d, h), with h
    the height of its open run (0 for the empty prefix alone, which has no
    run to join), and every step is linear in the carried sum.  So
    prefixes and cuts with equal states are merged by adding their values
    into one dict, and the states are processed in increasing e2, which
    every column raises: a state is complete before it is extended.  Each
    e2 <= e2_max, h <= n, and d <= e2 (by induction, b(2d+n-b) >= n - b),
    so the number of states is polynomial in qmax, while the number of
    strips is not.

    Monomial basis.  Setting x_1...x_n = 1, that is e_n = 1, is a ring
    homomorphism from the symmetric polynomials in n variables onto the
    W-invariant part of the group ring of the weight lattice.  It maps the
    monomial symmetric function m_nu (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2) to the sum over the Weyl orbit of the dominant
    weight (nu_1 - nu_2, ..., nu_{n-1} - nu_n), and m_nu = e_n^{nu_n}
    m_{nu - nu_n (1^n)}, so the m_nu with nu_n = 0 map onto that basis of
    orbit sums, one to one.  So every value is kept from the start as a
    dict from such a normalized nu to its coefficient of m_nu, each product
    with e_h is taken on the normalized representative by `_times_e`, and
    the sum at each grade is the image of the true one.  The coefficient of
    m_nu is the table's row at every weight of nu's orbit, so the values
    are the table's orbit rows, and no weight is expanded here."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    _check_table(n, k, qmax)
    base = k * (n - k)
    e2_max = base + 2 * n * qmax
    rows: dict[tuple[int, ...], list[int]] = {}  # normalized nu -> coefficients by grade
    layers = {0: {(0, 0): {(0,) * n: 1}}}  # e2 -> (d, h) -> value
    for e2 in range(e2_max + 1):
        layer = layers.pop(e2, None)
        if layer is None:
            continue
        rel, rem = divmod(e2 - base, 2 * n)
        for (d, h), value in layer.items():
            closed = _close_run(value, h)
            if -d % n == k:
                if rem or rel < 0:
                    common = gcd(e2 - base, 2 * n)
                    raise AssertionError(
                        f"a class-{k} strip with 2n*E = {e2} has non-integral "
                        f"grade {(e2 - base) // common}/{2 * n // common} over Delta_{k}"
                    )
                for nu, c in closed.items():
                    row = rows.get(nu)
                    if row is None:
                        row = rows[nu] = [0] * (qmax + 1)
                    row[rel] += c
            for b in range(1, n + 1 if d else n):
                grown = e2 + b * (2 * d + n - b)
                d_next = d + n - b
                need = (k + d_next) % n
                if grown + need * (2 * d_next + n - need) > e2_max:
                    continue
                states = layers.setdefault(grown, {})
                _add_into(states.setdefault((d_next, b), {}), closed, 1)
                if h and h + b <= n:
                    _add_into(states.setdefault((d_next, h + b), {}), value, -1)
    if layers:  # a state put on a layer already swept would be lost
        raise AssertionError(f"states left behind the sweep at 2n*E = {sorted(layers)}")
    return validate({exps_to_fw(nu): tuple(row) for nu, row in rows.items() if any(row)},
                    n, k)


@lru_cache(maxsize=None)
def _times_e(nu: tuple[int, ...], h: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m_nu e_h in n = len(nu) variables, as the pairs (mu, coefficient of
    m_mu), each mu normalized to mu_n = 0 by e_n = 1 (see
    `yangian_decomposition`).

    The coefficient of m_mu in a symmetric polynomial is that of the
    monomial x^mu, mu sorted.  In m_nu e_h, with e_h the sum of x^{1_S} over
    the h-subsets S of the variables, x^mu is x^alpha x^{1_S} for an
    arrangement alpha of nu with alpha + 1_S = mu, and S fixes alpha, so
    c(mu) = #{S : mu - 1_S is an arrangement of nu}.  The S taking j_i
    places of each run i of r_i parts v_i of nu, sum j_i = h, give the mu
    with v_i + 1 on the first j_i places of run i and v_i on the rest, which
    is sorted already (v_{i+1} + 1 <= v_i) and gives back each j_i, so
    distinct choices (j_i) give distinct mu.  The places of mu of value u
    hold the a raised parts of the run of value u - 1 and the b unraised
    parts of the run of value u (a or b is 0 where that run is missing).  An
    S with mu - 1_S an arrangement of nu takes a of these a + b places,
    since the count of each value in mu - 1_S, taken from the largest value
    down, fixes how many places of each value S takes; so c(mu) =
    prod_u C(a + b, a), one binomial wherever a run's raised parts meet the
    unraised parts of the run above.  Memoized: the result is an immutable
    tuple, and each (nu, h) is expanded once."""
    # (parts so far, boxes left, c(mu) so far, unraised parts of the last run)
    prefixes = [((), h, 1, 0)]
    above = None  # the value of the last run
    for v, run in groupby(nu):
        r = len(list(run))
        meets = above == v + 1
        prefixes = [(mu + (v + 1,) * j + (v,) * (r - j), left - j,
                     c * comb(j + kept, j) if meets else c, r - j)
                    for mu, left, c, kept in prefixes for j in range(min(r, left) + 1)
                    if left - j <= len(nu) - len(mu) - r]  # the later runs fit the rest
        above = v
    return tuple((tuple(p - mu[-1] for p in mu), c) for mu, _, c, _ in prefixes)


def _close_run(value: dict, h: int) -> dict:
    """`value` times e_h in the monomial basis (see `yangian_decomposition`);
    e_0 = 1 leaves the empty prefix's value as it is."""
    closed: dict = {}
    get = closed.get
    for nu, c in value.items():
        for mu, times in _times_e(nu, h):
            closed[mu] = get(mu, 0) + c * times
    return closed


def _add_into(acc: dict, value: dict, sign: int) -> None:
    """Add sign * `value` into `acc`; `value` is not changed."""
    get = acc.get
    for nu, c in value.items():
        acc[nu] = get(nu, 0) + sign * c


def sl2_yangian_decomposition(k: int, qmax: int) -> dict:
    """ch = sum_{N = k mod 2} sum_{l(lambda) <= N} q^{N^2/4 + |lambda|}
    prod_{i>=0} h_{m_i}, graded relative to Delta_k, with m_0 = N - l(lambda)
    and m_i the number of parts i, by one transfer matrix over part sizes
    (Stanley, EC1 4.7) shared by every N.

    Table.  V[p][s] is the sum of prod_{i>=1} h_{m_i(lambda)} over the
    partitions lambda with p parts and size s.  It is built part size by
    part size, i = 1, 2, ...: a block of m parts i adds m to p and i*m to s
    and multiplies by h_m, and the partitions that reach one (p, s) share
    their future, so their products share one value.  The step of part
    size i reads each (p, s) as it was before the step and adds into
    (p + m, s + i*m) for m >= 1; the sources are read in decreasing p, so
    every target has been read already and the table is updated in place.

    Pruning.  N spinons fill the grades (N^2 - k)/4 + s with s at most
    budget(N) = qmax - (N^2 - k)/4, which falls as N rises, and (p, s)
    serves the N >= p of class k, so it serves one exactly when s <= cap[p],
    the budget of the least such N.  That N does not fall as p rises, so
    cap does not rise, and no block lowers p or s: an extension (p', s') of
    a state with s > cap[p] has s' >= s > cap[p] >= cap[p'].  So a state
    past its cap serves no N, nor does any extension of it, and none is
    made; p stops at top, the largest N, and no part size past cap[1] fits.

    Close.  N takes V[p][s] h_{N - p} (the m_0 = N - p zeros) at grade
    (N^2 - k)/4 + s, for every p <= N and s <= budget(N) <= cap[p].

    Packing.  A value of p parts is a polynomial in the sl2 weights -p,
    -p + 2, ..., p, carried as one int whose slot j, `width` bits wide, holds
    the coefficient at weight -p + 2j.  h_m in two variables is then
    1 + y + ... + y^m at y = 2^width (`_packed_h`): a product adds weights,
    hence slot indices, and a sum adds slot by slot, while no slot reaches
    2^width.  Each grade's column is one int over the weights -top, ...,
    top, into which N's closed values go raised by (top - N)/2 slots.

    Width.  Every coefficient here is a sum of coefficients of products
    prod_i h_{m_i}, all non-negative, and such a coefficient is at most the
    product's dimension prod_i (m_i + 1) <= 2^{sum_i m_i} (as m + 1 <= 2^m),
    with sum_i m_i <= top.  A column's slot at grade (N^2 - k)/4 + s sums,
    over the N of class k, one product per partition of s with at most N
    parts, and a slot of V[p][s] one per partition of s with p parts; there
    s <= qmax and N, p <= top.  The partitions of s with at most l parts
    are at most those of qmax with at most top (add 1 to the largest part,
    or make a part 1, to go from s to s + 1; qmax = 0 when top = 0),
    counted by `partition_counts` without the identity under test.  So
    every slot of every term and partial sum is below 2^width for width the
    bit length of (number of N) * p(qmax, <= top) * 2^top.  A column with a
    bit above slot top raises AssertionError rather than being truncated.
    Each weight's row is read across the columns; `from_weights` folds the
    rows into orbits and checks that they are W-invariant."""
    grades = list(sl2_spinon_grades(k, qmax))
    _check_table(2, k, qmax)
    top = grades[-1][0]
    width = (len(grades) * partition_counts(top, qmax)[top][qmax] << top).bit_length()
    h = [_packed_h(m, width) for m in range(top + 1)]
    cap = [qmax - (least * least - k) // 4
           for p in range(top + 1) for least in (p + (p - k) % 2,)]
    values = [[0] * (budget + 1) for budget in cap]  # [parts][size] -> packed value
    values[0][0] = 1
    for part in range(1, cap[1] + 1 if top else 0):
        # the p whose cap[p + 1] admits this part size: a prefix, as cap does not rise
        for p in reversed(range(sum(most >= part for most in cap) - 1)):
            blocks = [*zip(values[p + 1:], cap[p + 1:], h[1:])]  # m = 1, 2, ...
            for s, value in enumerate(values[p][:cap[p + 1] - part + 1]):
                if value:
                    size = s
                    for row, most, times in blocks:
                        size += part
                        if size > most:
                            break
                        row[size] += value * times
    columns = [0] * (qmax + 1)
    for total, base in grades:
        shift = width * ((top - total) // 2)
        for p, row in enumerate(values[:total + 1]):
            times = h[total - p] << shift
            for s, value in enumerate(row[:qmax - base + 1], start=base):
                columns[s] += value * times
    mask, bits = (1 << width) - 1, width * (top + 1)
    for grade, column in enumerate(columns):
        if column >> bits:
            raise AssertionError(f"the column at q^{grade} overflows its {top + 1} "
                                 f"slots of {width} bits")
    rows = {(2 * j - top,): [column >> (width * j) & mask for column in columns]
            for j in range(top + 1)}
    return from_weights(2, k, qmax, rows)


def _packed_h(m: int, width: int) -> int:
    """h_m in two variables, whose monomials have the sl2 weights -m,
    -m + 2, ..., m, each with coefficient 1, packed as in
    `sl2_yangian_decomposition`: 1 + y + ... + y^m at y = 2^width."""
    return ((1 << width * (m + 1)) - 1) // ((1 << width) - 1)
