"""Reduced Wigner coefficients and the recursive rank-d Clebsch-Gordan
transform for coupling an irrep with the defining (one-box) irrep.

The coefficient relating the rank-d coupling to the rank-(d-1) coupling is a
closed-form square root of a ratio of integer products over shifted rows.
With mt_i = mu_i + d - i (i = 1..d, mu padded) and mpt_s = mu'_s + d - 1 - s
(s = 1..d-1, mu' padded), the coefficient for adding a box to row j of mu
given a box added to row j' of mu' is

    sqrt( |prod_{s != j'} (mt_j - mpt_s)| * |prod_{t != j} (mpt_{j'} - mt_t + 1)|
          / (|prod_{s != j} (mt_j - mt_s)| * |prod_{t != j'} (mpt_{j'} - mpt_t + 1)|) )

carrying the sign of prod_{t != j} (mpt_{j'} - mt_t + 1).  The j' = 0 case
(new box sits on the last level, mu'' = mu') drops the two primed-row
products and takes the positive root.  This convention makes every assembled
CG block exactly unitary and reproduces the standard two-level (singlet /
triplet) matrices; see tests for the independent spectral-projector oracle.
d enters only through the padding: each factor is a d-free difference of
shifted rows, and each rank past len(mu) + 2 adds one positive factor to
both sides of the ratio, so the coefficient depends on the two shapes alone
and its correctly rounded float is the same at rank min(d, len(mu) + 2).

The selection rules are the branching rule, stated once in combinatorics:
_grown(mu, d) lists the rows j that can take a box, _shrunk the rows that
can lose one, and a coefficient is nonzero only when mu' interlaces mu and
mu' + e_j' interlaces mu + e_j.  is_structural_zero, the build and
that_matrix all read these lists.

cg_triplets assembles the rank-d block from these coefficients and the
rank-(d-1) blocks; that_matrix is the d x d view of the coefficients for
fixed (mu, mu''), its rows from _grown(mu, d) and its columns from mu'' and
_shrunk(mu'').  A block is kept only as its coupling triplets: the (row,
column, value) of every nonzero entry, rows ascending, kept per (shape,
rank) for the life of the process, since no later coupling changes them.
Input patterns q = q' + (lam,) come in runs of equal q_{d-1} = mu.  Qudit
value d leaves q' alone (j' = 0, mu'' = mu); a value i < d couples q'
through the rank-(d-1) triplets of mu to outcomes (mu'' = mu + e_j', g'').
Each outcome goes to row (lam + e_j, g'' + (lam + e_j,)) scaled by the
coefficient of (lam, j | mu, j').  By the weight rule such a block couples
(q, i) only to patterns of weight weight(q) + e_i, so it holds a few
entries per column; cg_block is the dense view, formed on request.
"""

from __future__ import annotations

import math

import numpy as np

from .combinatorics import (
    _grown,
    _shifted,
    _shrunk,
    _unkept_levels,
    add_box,
    dim_q,
    enumerate_gz,
    interlaces,
    interlacing_partitions,
    is_partition,
    normalize,
    pad,
)
from .operators import DenseOperator, require_dense


def is_structural_zero(mu, j: int, mup, jp: int, d: int) -> bool:
    """True when the selection rules force the coefficient to vanish, so the
    product formula is never evaluated (avoids 0/0).

    Required: mu' interlaces mu, row j of mu and row j' of mu' (j' >= 1)
    can take a box, and mu' + e_{j'} interlaces mu + e_j.
    """
    lam = dict(_grown(mu, d)).get(j)
    # j' = 0 puts the box on the last level: mu'' = mu'
    mupp = dict([(0, normalize(mup))] + _grown(mup, d - 1)).get(jp)
    if lam is None or mupp is None:
        return True
    return not (interlaces(mup, mu) and interlaces(mupp, lam))


def reduced_wigner(mu, j: int, mup, jp: int, d: int) -> float:
    """Coefficient for (mu, add box at row j | mu', add box at row j'), with
    j in [1, d], j' in [0, d-1] and j' = 0 meaning the box on the last level.

    Returns 0.0 on structural zeros (selection-rule violations); raises
    ValueError on malformed queries.
    """
    if not is_partition(tuple(mu)) or not is_partition(tuple(mup)):
        raise ValueError(f"mu={tuple(mu)} and mu'={tuple(mup)} must be partitions")
    mu, mup = normalize(mu), normalize(mup)
    if d < 1 or not 1 <= j <= d or not 0 <= jp <= d - 1:
        raise ValueError(f"indices out of range: j={j}, j'={jp}, d={d}")
    if len(mu) > d or len(mup) > max(d - 1, 0):
        raise ValueError("partition has too many rows for this rank")
    if is_structural_zero(mu, j, mup, jp, d):
        return 0.0
    return _reduced_wigner(mu, j, mup, jp, d)


def _reduced_wigner(mu, j: int, mup, jp: int, d: int) -> float:
    """The product formula for canonical mu, mu'.  Callers pass only pairs
    that obey the selection rules (indices in range, mu' interlacing mu,
    mu + e_j and mu' + e_j' partitions, mu' + e_j' interlacing mu + e_j):
    nothing here checks them, and any other pair gives a wrong value or a
    ZeroDivisionError, not 0.0.  Evaluated at rank min(d, len(mu) + 2)."""
    d = min(d, len(mu) + 2)
    mt = _shifted(mu, d)
    mpt = _shifted(mup, d - 1)
    den = 1
    for s in range(d):
        if s != j - 1:
            den *= mt[j - 1] - mt[s]
    if jp == 0:
        num = 1
        for s in range(d - 1):
            num *= mt[j - 1] - mpt[s]
        return math.sqrt(abs(num) / abs(den))
    num = 1
    for s in range(d - 1):
        if s != jp - 1:
            num *= mt[j - 1] - mpt[s]
    sign_part = 1
    for t in range(d):
        if t != j - 1:
            sign_part *= mpt[jp - 1] - mt[t] + 1
    num *= sign_part
    for t in range(d - 1):
        if t != jp - 1:
            den *= mpt[jp - 1] - mpt[t] + 1
    value = math.sqrt(abs(num) / abs(den))
    return -value if sign_part < 0 else value


def that_matrix(mu, mupp, d: int) -> DenseOperator:
    """The d x d reduced-coefficient matrix for fixed (mu, mu''), rows
    labeled j = 1..d and columns j' = 0..d-1.

    Entries on structurally valid (j, j') pairs come from reduced_wigner;
    that sub-block is always square and orthogonal.  Forbidden rows and
    columns (always equal in number) are completed with a unit entry pairing
    the k-th forbidden row with the k-th forbidden column, so the full
    operator is unitary.
    """
    mu, mupp = normalize(mu), normalize(mupp)
    # row j: mu + e_j, if mu'' interlaces it; column j': mu' = mu'' - e_j'
    # (j' = 0: mu'' itself), if it interlaces mu
    rows = [j for j, lam in _grown(mu, d) if interlaces(mupp, lam)]
    cols = [(0, mupp)] + _shrunk(pad(mupp, d - 1))
    cols = [(jp, mup) for jp, mup in cols if interlaces(mup, mu)]
    if not cols:
        raise ValueError(f"no consistent branch for mu={mu}, mu''={mupp}")
    if len(rows) != len(cols):
        raise ValueError(f"inconsistent selection rules for mu={mu}, mu''={mupp}")
    m = np.zeros((d, d))
    for j in rows:
        for jp, mup in cols:
            m[j - 1, jp] = _reduced_wigner(mu, j, mup, jp, d)
    dead_rows = sorted(set(range(1, d + 1)) - set(rows))
    dead_cols = sorted(set(range(d)) - {jp for jp, _ in cols})
    for j, jp in zip(dead_rows, dead_cols):
        m[j - 1, jp] = 1.0
    return DenseOperator(m, row_labels=list(range(1, d + 1)), col_labels=list(range(d)))


def cg_block(lam, d: int) -> DenseOperator:
    """The unitary coupling GZ(lam) tensor C^d onto the direct sum of
    GZ(lam') over lam' in add_box(lam, d), each appearing exactly once.

    Column labels are (input GZ pattern, qudit value i in 1..d); row labels
    are (lam', output GZ pattern).  The empty partition gives the relabeling
    |i> -> (j = i, defining-irrep chain i).  A dense view of cg_triplets,
    formed by one scatter into zeros and not kept; raises ValueError over
    the dense cap.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lam = normalize(lam)
    dim = d * dim_q(lam, d)
    require_dense(dim, what="rows of the CG block at d = {}", of=(d,))
    rows, cols, vals = cg_triplets([lam], d)[lam]
    m = np.zeros((dim, dim))
    m[rows, cols] = vals
    col_labels = [(q, i) for q in enumerate_gz(lam, d) for i in range(1, d + 1)]
    row_labels = [(lp, g) for lp in add_box(lam, d) for g in enumerate_gz(lp, d)]
    return DenseOperator(m, row_labels=row_labels, col_labels=col_labels)


# (lam, rank) -> the read-only triplets of cg_block(lam, rank), for every
# pair some call has reached; they do not depend on any larger rank
_TRIPLETS = {}


def cg_triplets(lams, d: int) -> dict:
    """lam -> the nonzero entries of cg_block(lam, d) as read-only (rows,
    cols, values) arrays, rows ascending, for each partition lam in lams.
    Built rank by rank from the triplets of the shapes below, each (shape,
    rank) once per process: every pair reached is kept in _TRIPLETS, and a
    later call, at this d or any other, builds only the pairs it lacks."""
    if d < 1:
        raise ValueError("d must be >= 1")
    lams = {normalize(lam) for lam in lams}
    for r, level in _unkept_levels(lams, d, _TRIPLETS):
        for nu in level:
            _TRIPLETS[nu, r] = _cg_triplets(nu, r)
            for a in _TRIPLETS[nu, r]:
                a.flags.writeable = False
    return {lam: _TRIPLETS[lam, d] for lam in lams}


def _cg_triplets(lam, d: int) -> tuple:
    """cg_triplets([lam], d)[lam], given the kept triplets of every mu
    interlacing lam at rank d - 1."""
    grown = _grown(lam, d)
    # first row of each run of equal q_{d-1} = mu'' among the rows of lam + e_j
    run, start = {}, 0
    for _, lp in grown:
        for mupp in interlacing_partitions(lp, d - 1):
            run[lp, mupp] = start
            start += dim_q(mupp, d - 1)
    col, chunks = 0, []
    for mu in interlacing_partitions(lam, d - 1):
        k = dim_q(mu, d - 1)
        cols = col + np.arange(k * d).reshape(k, d)
        col += k * d
        # (mu'', j', rows within the run, columns, values) of each outcome;
        # the outcomes mu'' = mu + e_j' of mu's block follow in _grown order
        # (none at rank 1, where nothing is kept for rank 0)
        parts, lo = [(mu, 0, np.arange(k), cols[:, -1], np.ones(k))], 0
        for jp, mupp in _grown(mu, d - 1):
            rows, lower_cols, vals = _TRIPLETS[mu, d - 1]
            hi = lo + dim_q(mupp, d - 1)
            a, b = np.searchsorted(rows, (lo, hi))
            idx = cols[:, :-1].ravel()[lower_cols[a:b]]
            parts.append((mupp, jp, rows[a:b] - lo, idx, vals[a:b]))
            lo = hi
        for mupp, jp, r, c, v in parts:
            # mu interlaces lam and mu'' = mu + e_j', so every lam + e_j that
            # mu'' interlaces gives a pair that obeys the selection rules
            for j, lp in grown:
                r0 = run.get((lp, mupp))
                if r0 is not None:
                    chunks.append((r0 + r, c, _reduced_wigner(lam, j, mu, jp, d) * v))
    # a run holds the outcomes of several mu, each at its own columns, so
    # every entry is written once
    rows, cols, vals = (np.concatenate(a) for a in zip(*chunks))
    keep = np.flatnonzero(vals != 0.0)
    keep = keep[np.argsort(rows[keep], kind="stable")]
    return rows[keep], cols[keep], vals[keep]


def cg_output_blocks(lam, d: int) -> list:
    """(lam', row slice) pairs giving the block layout of cg_block rows."""
    out = []
    start = 0
    for lp in add_box(normalize(lam), d):
        k = dim_q(lp, d)
        out.append((lp, slice(start, start + k)))
        start += k
    return out
