"""Exact integer combinatorics layer: partitions, interlacing chains, tableau
enumeration, dimension formulas, Kostka coefficients and Schur polynomials.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing nonnegative integers in
  canonical form, i.e. with trailing zeros trimmed.  The row-count context d
  is always supplied by callers; ``pad(lam, d)`` produces the padded view.
* The total order on partitions is descending lexicographic on the canonical
  form: (3,) comes before (2, 1), which comes before (1, 1, 1).  Index values
  produced by ``yy_index`` depend on this choice; only bijectivity is
  structural.
* A GZ pattern is a chain (q_1, ..., q_d) of canonical partitions with
  q_j of at most j rows, consecutive entries interlacing, q_d = lam.
* A YY path is a chain (p_1, ..., p_n) with p_1 = (1,), p_n = lam and each
  p_j obtained from p_{j+1} by removing one box (a standard tableau).

Everything here is pure and uses unbounded Python integers, so all dimension
formulas and index codecs are exact.  schur_polys gathers with numpy, but
holds any non-float input in object arrays, so it is exact on Fractions and
ints as well.  The weight numbers of GZ patterns (_gz_numbers) are small
integer arrays, kept per (shape, rank) for the life of the process;
numbering the weights of a size and length past the int64 range raises
OverflowError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, pairwise, product
from math import comb, factorial

import numpy as np


# ---------------------------------------------------------------------------
# partitions


def normalize(parts) -> tuple:
    """Canonical form: tuple with trailing zeros trimmed."""
    parts = tuple(int(x) for x in parts)
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(int(x) == x and x >= 0 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def pad(lam, d: int) -> tuple:
    """View of lam with exactly d rows (trailing zeros added)."""
    lam = normalize(lam)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} rows")
    return lam + (0,) * (d - len(lam))


def size(lam) -> int:
    return sum(lam)


def partitions_precede(a, b) -> bool:
    """True if a comes strictly before b in the package's total order
    (descending lexicographic on canonical forms)."""
    return normalize(a) > normalize(b)


def enumerate_partitions(d: int, n: int) -> list:
    """All partitions of n into at most d parts, descending lexicographic."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining, rows, maxpart):
        if remaining == 0:
            yield ()
            return
        # first part must leave a feasible remainder for the rows below it
        lo = -(-remaining // rows)  # ceil division
        for first in range(min(remaining, maxpart), lo - 1, -1):
            for rest in gen(remaining - first, rows - 1, first):
                yield (first,) + rest

    # every part is at least ceil(remaining / rows) >= 1, so each tuple is
    # already canonical, and gen(0, ...) yields ()
    return list(gen(n, d, n))


def count_partitions(d: int, n: int, stop: int | None = None) -> int:
    """len(enumerate_partitions(d, n)) without listing them (0 for n < 0):
    the partitions of n into parts of size at most d, their conjugates,
    counted by the recurrence p(n, <=k) = p(n, <=k-1) + p(n-k, <=k).

    Once the parts up to k are counted, the count is that of the partitions
    of n into at most k parts, which only grows with k; given stop, counting
    ends as soon as the count passes stop, so a result above stop is only a
    lower bound."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for part in range(1, min(d, n) + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
        if stop is not None and ways[n] > stop:
            break
    return ways[n]


def interlaces(mu, lam) -> bool:
    """lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (mu sits between consecutive
    rows of lam; equivalently lam/mu removes at most one box per column)."""
    mu = normalize(mu)
    lam = normalize(lam)
    rows = max(len(lam), len(mu) + 1)
    lam = lam + (0,) * (rows - len(lam))
    mu = mu + (0,) * (rows - 1 - len(mu))
    for i in range(rows - 1):
        if not (lam[i] >= mu[i] >= lam[i + 1]):
            return False
    return True


def interlacing_partitions(lam, rows: int) -> list:
    """All mu with at most ``rows`` rows interlacing lam, descending
    lexicographic.  ``rows`` is normally (number of rows of lam's context)-1."""
    lam = normalize(lam)
    if len(lam) > rows + 1:
        raise ValueError(f"partition {lam} has more than {rows + 1} rows")
    # mu is 0 below lam's rows and mu_i runs lam_i..lam_(i+1), so only mu's last entry can be 0
    below = lam[1:] + (0,)
    ranges = [range(lam[i], below[i] - 1, -1) for i in range(min(rows, len(lam)))]
    return [mu[:-1] if mu and not mu[-1] else mu for mu in product(*ranges)]


def _grown(lam, d: int) -> list:
    """(j, lam + e_j) for each row j = 1, 2, ... of the partition lam that
    can take a box within d rows: the first row, and each later row shorter
    than the row above it, up to the first empty row.  The one statement of
    the add-a-box branching rule: add_box, the CG build and the selection
    rules of the reduced Wigner coefficients all read it."""
    rows = len(normalize(lam))
    # past row rows + 1, lam + e_j is not a partition
    lam = pad(lam, min(d, rows + 1))
    return [
        (j + 1, normalize(lam[:j] + (lam[j] + 1,) + lam[j + 1 :]))
        for j in range(len(lam))
        if j == 0 or lam[j - 1] > lam[j]
    ]


def _shrunk(lam) -> list:
    """(j, lam - e_j) for each row j = 1, 2, ... of the partition lam that
    can lose a box: each row longer than the row below it, the last row
    always.  The remove-a-box rule that remove_box and that_matrix read."""
    lam = normalize(lam)
    below = lam[1:] + (0,)
    return [
        (j + 1, normalize(lam[:j] + (lam[j] - 1,) + lam[j + 1 :]))
        for j in range(len(lam))
        if lam[j] > below[j]
    ]


def add_box(lam, d: int) -> list:
    """All partitions of at most d rows obtained by adding one box to lam,
    ordered by the row index receiving the box (the shapes of _grown)."""
    return [lp for _, lp in _grown(lam, d)]


def remove_box(lam) -> list:
    """All partitions obtained by removing one box, ordered by row index
    (the shapes of _shrunk)."""
    return [lm for _, lm in _shrunk(lam)]


# ---------------------------------------------------------------------------
# dimension formulas


def _shifted(lam, d: int) -> tuple:
    """lam + (d-1, d-2, ..., 1, 0), the strictly decreasing shifted rows."""
    lam = pad(lam, d)
    return tuple(lam[i] + (d - 1 - i) for i in range(d))


@lru_cache(maxsize=None)
def dim_q(lam, d: int) -> int:
    """Dimension of the unitary-group irrep labeled lam at rank d
    (number of GZ patterns; Weyl product over shifted row differences).
    The empty rows j = len(lam)..d-1 below row i give prod (lam_i + j - i) /
    (j - i) = C(lam_i + d-1-i, lam_i) / C(lam_i + len(lam)-1-i, lam_i)."""
    lam = normalize(lam)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} rows")
    num = den = 1
    for i, part in enumerate(lam):
        for j in range(i + 1, len(lam)):
            num *= part - lam[j] + j - i
            den *= j - i
        num *= comb(part + d - 1 - i, part)
        den *= comb(part + len(lam) - 1 - i, part)
    q, r = divmod(num, den)
    assert r == 0
    return q


@lru_cache(maxsize=None)
def dim_p(lam) -> int:
    """Dimension of the symmetric-group irrep labeled lam
    (number of standard tableaux)."""
    lam = normalize(lam)
    d = len(lam)
    n = size(lam)
    lt = _shifted(lam, d)
    num = factorial(n)
    for i in range(d):
        for j in range(i + 1, d):
            num *= lt[i] - lt[j]
    den = 1
    for v in lt:
        den *= factorial(v)
    q, r = divmod(num, den)
    assert r == 0
    return q


def multinomial(n: int, weight) -> int:
    """n! / prod(weight_i!) by exact factored arithmetic."""
    if sum(weight) != n:
        raise ValueError("weight must sum to n")
    out = factorial(n)
    for w in weight:
        out //= factorial(w)
    return out


# ---------------------------------------------------------------------------
# GZ patterns and YY paths


@lru_cache(maxsize=None)
def enumerate_gz(lam, d: int) -> tuple:
    """All GZ patterns of shape lam at rank d, as chains (q_1, ..., q_d).

    Order: outermost by q_{d-1} descending lexicographic, then recursively;
    this is the order the Schur label codec uses.  A depth-first walk from
    q_d = lam down the interlacing shapes, so that nothing recurses however
    large d is.
    """
    lam = normalize(lam)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} rows")
    below = {}  # (mu, k) -> the shapes interlacing mu at rank k - 1
    out, chain, stack = [], [lam], [iter(interlacing_partitions(lam, d - 1))]
    # chain[i] is the shape at rank d - i, and stack[i] walks the shapes
    # interlacing it
    while stack:
        mu = next(stack[-1], None)
        if mu is None:
            stack.pop()
            chain.pop()
            continue
        k = d - len(chain)  # the rank of mu
        if k == 1 or not mu:
            # below an empty shape every shape is empty, down to rank 1
            out.append((mu,) * k + tuple(reversed(chain)))
        else:
            if (mu, k) not in below:
                below[mu, k] = interlacing_partitions(mu, k - 1)
            chain.append(mu)
            stack.append(iter(below[mu, k]))
    return tuple(out)


@lru_cache(maxsize=None)
def _weight_counts(d: int, n: int) -> np.ndarray:
    """counts[p, s] = C(s + p - 1, s), the number of weights of size s in p
    parts, for p = 1..d and s = 0..n (row 0 is unused), read-only;
    OverflowError when one passes int64."""
    counts = np.array(
        [[0] * (n + 1)] + [[comb(s + p - 1, s) for s in range(n + 1)] for p in range(1, d + 1)],
        dtype=np.int64,
    )
    counts.flags.writeable = False
    return counts


def _weight_numbers(weights: np.ndarray) -> np.ndarray:
    """The number of each row of weights (letter counts, one size s for all)
    among the weights of size s in as many parts: the sum over p of
    counts[p, e_p] - counts[p, e_(p-1)], for e_p the sum of the first p
    entries (_weight_counts), a bijection onto 0..counts[d, s] - 1."""
    weights = np.asarray(weights, dtype=np.intp)
    ends = np.cumsum(weights, axis=1)
    counts = _weight_counts(weights.shape[1], int(weights[0].sum()))
    p = np.arange(1, weights.shape[1] + 1)
    return (counts[p, ends] - counts[p, ends - weights]).sum(axis=1)


def _unkept_levels(lams, d: int, kept) -> list:
    """(r, {shape at rank r that kept lacks: the shapes interlacing it at
    rank r - 1}), bottom-up: the lams themselves at rank d, and below each
    shape lacking at rank r, in first-seen order, the shapes interlacing it.
    What a table kept per (shape, rank), each built from those at the rank
    below, must add for the lams at rank d, found without recursion.  The
    walk down stops at the first rank where nothing is lacking, so once the
    lams are kept it is the one empty level of rank d."""
    levels = [dict.fromkeys(lam for lam in lams if (lam, d) not in kept)]
    for r in range(d, 1, -1):
        if not levels[-1]:
            break
        below = {}
        for nu in levels[-1]:
            levels[-1][nu] = interlacing_partitions(nu, r - 1)
            below.update((mu, None) for mu in levels[-1][nu] if (mu, r - 1) not in kept)
        levels.append(below)
    # nothing lies below rank 1
    levels[-1] = dict.fromkeys(levels[-1], [])
    return list(zip(range(d, 0, -1), levels))[::-1]


# (lam, rank) -> _gz_numbers(lam, rank), for every pair reached; no walk reaches rank 0: seeded
_GZ_NUMBERS = {((), 0): np.zeros(1, dtype=np.int8)}
_GZ_NUMBERS[(), 0].flags.writeable = False


def _gz_numbers(lam, d: int) -> np.ndarray:
    """The number (_weight_numbers) of the gz_weight of each GZ pattern of
    lam at rank d, in enumerate_gz order, as a read-only array of the
    narrowest signed integer type that holds them; lam is canonical with at
    most d rows.

    The patterns of lam at rank r are those of each mu interlacing lam at
    rank r - 1 in turn, each with |lam| - |mu| appended, which adds
    C(|lam| + r - 1, r - 1) - C(|mu| + r - 1, r - 1) to its number.  So the
    arrays are built bottom-up over the ranks, each (shape, rank) once per
    process and kept for every later call."""
    for r, level in _unkept_levels([lam], d, _GZ_NUMBERS):
        for nu, mus in level.items():
            top = comb(size(nu) + r - 1, r - 1)
            if top > np.iinfo(np.int64).max:
                raise OverflowError(f"the weights of size {size(nu)} in {r} parts pass int64")
            # the numbers lie below top: the narrowest signed type holds them
            kind = np.min_scalar_type(-top)
            shifted = [
                np.add(_GZ_NUMBERS[mu, r - 1], top - comb(size(mu) + r - 1, r - 1), dtype=kind)
                for mu in mus
            ]
            _GZ_NUMBERS[nu, r] = np.concatenate(shifted or [np.zeros(1, dtype=kind)])
            _GZ_NUMBERS[nu, r].flags.writeable = False
    return _GZ_NUMBERS[lam, d]


def gz_weight(pattern) -> tuple:
    """Weight of a GZ pattern: entry j is |q_j| - |q_{j-1}|."""
    sizes = [0] + [sum(q) for q in pattern]
    return tuple(b - a for a, b in zip(sizes, sizes[1:]))


@lru_cache(maxsize=None)
def enumerate_yy(lam) -> tuple:
    """All YY paths of shape lam, as chains (p_1, ..., p_n).

    Ordered so that position in this list equals yy_index(path) - 1:
    grouped by p_{n-1} in descending lexicographic order, recursively.
    """
    lam = normalize(lam)
    n = size(lam)
    if n == 0:
        return ((),)
    out = []
    for mu in sorted(remove_box(lam), reverse=True):
        for sub in enumerate_yy(mu):
            out.append(sub + (lam,))
    return tuple(out)


def yy_index(path) -> int:
    """Rank of a YY path among all paths of its shape, in [1, dim_p].

    Ranking sums, for each level k from the top, the dimensions of the
    sibling shapes that precede p_{k-1} in the total order; the minimal
    path (always taking the earliest removable box) gets index 1.
    """
    path = tuple(normalize(p) for p in path)
    return 1 + sum(sibling_offset(path[k - 1], path[k]) for k in range(1, len(path)))


def sibling_offset(mu, lam) -> int:
    """How many YY paths of shape lam rank before those through mu, for mu
    in remove_box(lam): the dim_p of each sibling shape that precedes mu."""
    return sum(dim_p(nu) for nu in remove_box(lam) if partitions_precede(nu, mu))


def yy_unindex(lam, k: int):
    """Inverse of yy_index: the YY path of shape lam with rank k."""
    lam = normalize(lam)
    if not 1 <= k <= dim_p(lam):
        raise ValueError(f"index {k} out of range for shape {lam}")
    k -= 1
    chain = [lam]
    cur = lam
    while size(cur) > 1:
        for mu in sorted(remove_box(cur), reverse=True):
            dm = dim_p(mu)
            if k < dm:
                chain.append(mu)
                cur = mu
                break
            k -= dm
    return tuple(reversed(chain))


# ---------------------------------------------------------------------------
# weights, Kostka coefficients, Schur polynomials


def weights_of_size(d: int, n: int) -> list:
    """All length-d tuples of nonnegative integers summing to n, descending
    lexicographic: the gaps between d - 1 bars among n + d - 1 slots, whose
    ascending lexicographic order combinations gives in reverse."""
    if d < 1:
        raise ValueError("d must be >= 1")
    slots = n + d - 1
    out = [
        tuple(b - a - 1 for a, b in pairwise((-1, *bars, slots)))
        for bars in combinations(range(slots), d - 1)
    ]
    return out[::-1]


def kostka(lam, mu) -> int:
    """Number of GZ patterns of shape lam and weight mu (semistandard
    fillings of shape lam with content mu)."""
    lam = normalize(lam)
    mu = tuple(int(x) for x in mu)
    if size(lam) != sum(mu):
        raise ValueError("shape and weight must have the same size")
    if len(lam) > len(mu) or min(mu, default=0) < 0:
        return 0
    # not a bincount: the numbers of even one pattern, as that of (1^n) at
    # d = n, run up to C(n + d - 1, n), 4.5e10 at n = 20
    return int(np.count_nonzero(_gz_numbers(lam, len(mu)) == _weight_numbers([mu])[0]))


def _kostka_rows(lams, weights) -> list:
    """[kostka(lam, mu) for mu in weights] for each lam in lams, where
    weights are all the weights of one size in d parts, so numbered
    0..len(weights) - 1 (_weight_numbers): per shape one bincount of the
    numbers of its patterns, read at the numbers of the weights."""
    n, d = sum(weights[0]), len(weights[0])
    numbers, rows = _weight_numbers(weights), []
    for lam in map(normalize, lams):
        if size(lam) != n:
            raise ValueError("shape and weight must have the same size")
        # a shape of more than d rows has no pattern
        nums = _gz_numbers(lam, d) if len(lam) <= d else np.zeros(0, dtype=np.intp)
        rows.append(np.bincount(nums, minlength=len(weights))[numbers].tolist())
    return rows


def schur_poly(lam, r):
    """Schur polynomial sum over GZ-pattern weights: sum_mu K_{lam,mu} r^mu.
    Exact when r entries are Fractions; d is len(r)."""
    lam = normalize(lam)
    return schur_polys([lam], r)[lam]


def schur_polys(lams, r) -> dict:
    """lam -> schur_poly(lam, r) for each lam in lams (canonical keys, in
    first-seen order), by the branching rule

        s_lam(r_1..r_k) = sum over mu interlacing lam of
                          s_mu(r_1..r_{k-1}) * r_k ** (|lam| - |mu|),

    read from the cached _branching_plan of the shapes: per variable, one
    gather of the level below times the powers, then one left-to-right sum
    per shape over its interlacing mu.  Floats are therefore the same bits
    as the plain recursion gives; any non-float r (Fraction, int) is carried
    in an object array, so those results stay exact and ints never overflow.
    """
    r = tuple(r)
    if any(x < 0 for x in r):
        raise ValueError("r entries must be nonnegative")
    d = len(r)
    lams = [normalize(lam) for lam in lams]
    for lam in lams:
        if len(lam) > d:
            raise ValueError(f"partition {lam} has more than {d} rows")
    shapes = tuple(dict.fromkeys(lams))
    if not r:  # only the empty shape has no rows, and s_() of no variables is 1
        return dict.fromkeys(shapes, 1)
    sizes, steps = _branching_plan(shapes, d)
    dtype = float if all(isinstance(x, float) for x in r) else object
    vals = [r[0] ** m for m in sizes]
    for x, (idx, exps, top, bounds) in zip(r[1:], steps):
        pw = np.array([x**e for e in range(top)], dtype=dtype)
        terms = (np.array(vals, dtype=dtype)[idx] * pw[exps]).tolist()
        vals = [sum(terms[a:b]) for a, b in pairwise(bounds)]
    return dict(zip(shapes, vals))


@lru_cache(maxsize=None)
def _branching_plan(shapes: tuple, d: int) -> tuple:
    """The branching structure schur_polys evaluates, from the bottom up:
    the sizes of the one-row shapes reached at depth 1, then for each depth
    k = 2..d the index of every interlacing mu (interlacing_partitions
    order) among the shapes of depth k - 1, its exponent |lam| - |mu|, one
    more than the largest exponent, and the bounds of each shape's run."""
    levels, steps = [level for _, level in _unkept_levels(shapes, d, {})], []
    for below, level in pairwise(levels):
        index = {mu: i for i, mu in enumerate(below)}
        exps = [size(lam) - size(mu) for lam, run in level.items() for mu in run]
        idx = np.array([index[mu] for run in level.values() for mu in run], dtype=np.intp)
        top = max(exps, default=0) + 1
        exps = np.array(exps, dtype=np.intp)
        idx.flags.writeable = exps.flags.writeable = False
        bounds = tuple(accumulate(map(len, level.values()), initial=0))
        steps.append((idx, exps, top, bounds))
    return tuple(map(size, levels[0])), tuple(steps)


# ---------------------------------------------------------------------------
# serialization


def partition_str(lam) -> str:
    """Comma-joined rows; the empty partition prints as an empty string."""
    return ",".join(str(x) for x in normalize(lam))


def parse_partition(text: str) -> tuple:
    text = text.strip()
    lam = normalize(int(x) for x in text.split(",")) if text else ()
    if not is_partition(lam):
        raise ValueError(f"not a partition: {text!r}")
    return lam

