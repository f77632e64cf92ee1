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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinatorics import (
    add_box,
    dim_q,
    enumerate_gz,
    interlaces,
    is_partition,
    normalize,
    pad,
)
from .operators import DenseOperator


def _shifted_rows(lam, rows: int, offset: int) -> tuple:
    lam = pad(lam, rows)
    return tuple(lam[i] + offset - i for i in range(rows))


def is_structural_zero(mu, j: int, mup, jp: int, d: int) -> bool:
    """True when the selection rules force the coefficient to vanish, so the
    product formula is never evaluated (avoids 0/0).

    Required: mu' interlaces mu, mu + e_j is a partition, mu' + e_{j'} is a
    partition (j' >= 1), and mu' + e_{j'} interlaces mu + e_j.
    """
    mu = pad(mu, d)
    mup = pad(mup, d - 1) if d > 1 else ()
    if not interlaces(mup, mu):
        return True
    new_mu = list(mu)
    new_mu[j - 1] += 1
    if not is_partition(new_mu):
        return True
    new_mup = list(mup)
    if jp >= 1:
        new_mup[jp - 1] += 1
        if not is_partition(new_mup):
            return True
    return not interlaces(tuple(new_mup), tuple(new_mu))


def reduced_wigner(mu, j: int, mup, jp: int, d: int) -> float:
    """Coefficient for (mu, add box at row j | mu', add box at row j'), with
    j in [1, d], j' in [0, d-1] and j' = 0 meaning the box on the last level.

    Returns 0.0 on structural zeros (selection-rule violations); raises
    ValueError on malformed queries.
    """
    if not is_partition(tuple(mu)) or not is_partition(tuple(mup)):
        raise ValueError(f"mu={tuple(mu)} and mu'={tuple(mup)} must be partitions")
    return _reduced_wigner(normalize(mu), j, normalize(mup), jp, d)


@lru_cache(maxsize=None)
def _reduced_wigner(mu, j: int, mup, jp: int, d: int) -> float:
    if d < 1 or not 1 <= j <= d or not 0 <= jp <= d - 1:
        raise ValueError(f"indices out of range: j={j}, j'={jp}, d={d}")
    if len(mu) > d or len(mup) > max(d - 1, 0):
        raise ValueError("partition has too many rows for this rank")
    if d == 1:
        return 1.0
    if is_structural_zero(mu, j, mup, jp, d):
        return 0.0
    mt = _shifted_rows(mu, d, d - 1)
    mpt = _shifted_rows(mup, d - 1, d - 2)
    den = 1
    for s in range(d):
        if s != j - 1:
            den *= mt[j - 1] - mt[s]
    if jp == 0:
        num = 1
        for s in range(d - 1):
            num *= mt[j - 1] - mpt[s]
        return math.sqrt(abs(Fraction(num, den)))
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
    value = math.sqrt(abs(Fraction(num, den)))
    return -value if sign_part < 0 else value


def _valid_rows(mu, mupp, d: int) -> list:
    out = []
    for j in range(1, d + 1):
        cand = list(pad(mu, d))
        cand[j - 1] += 1
        if is_partition(cand) and interlaces(mupp, normalize(cand)):
            out.append(j)
    return out


def _valid_cols(mu, mupp, d: int) -> list:
    """(j', mu') pairs consistent with second-level result mu''."""
    out = []
    mupp_p = pad(mupp, d - 1)
    for jp in range(0, d):
        if jp == 0:
            mup = normalize(mupp)
        else:
            cand = list(mupp_p)
            cand[jp - 1] -= 1
            if not is_partition(cand):
                continue
            mup = normalize(cand)
        if len(mup) <= d - 1 and interlaces(mup, mu):
            out.append((jp, mup))
    return out


def that_matrix(mu, mupp, d: int) -> DenseOperator:
    """The d x d reduced-coefficient matrix for fixed (mu, mu''), rows
    labeled j = 1..d and columns j' = 0..d-1.

    Entries on structurally valid (j, j') pairs come from reduced_wigner;
    that sub-block is always square and orthogonal.  Forbidden rows and
    columns (always equal in number) are completed with a unit entry pairing
    the k-th forbidden row with the k-th forbidden column, so the full
    operator is unitary.
    """
    mu = normalize(mu)
    mupp = normalize(mupp)
    rows = _valid_rows(mu, mupp, d)
    cols = _valid_cols(mu, mupp, d)
    if not cols:
        raise ValueError(f"no consistent branch for mu={mu}, mu''={mupp}")
    if len(rows) != len(cols):
        raise ValueError(f"inconsistent selection rules for mu={mu}, mu''={mupp}")
    m = np.zeros((d, d))
    for j in rows:
        for jp, mup in cols:
            m[j - 1, jp] = _reduced_wigner(mu, j, mup, jp, d)
    dead_rows = [j for j in range(1, d + 1) if j not in rows]
    dead_cols = [jp for jp in range(d) if jp not in {c[0] for c in cols}]
    for j, jp in zip(dead_rows, dead_cols):
        m[j - 1, jp] = 1.0
    return DenseOperator(m, row_labels=list(range(1, d + 1)), col_labels=list(range(d)))


@lru_cache(maxsize=None)
def _branches(pattern, i: int, d: int) -> tuple:
    """Decompose basis vector |pattern> tensor |e_i> of the rank-d problem.

    Returns ((new_top_partition, new_pattern, amplitude), ...) by recursing
    on the lower d-1 rows: qudit value i = d contributes the j' = 0 branch
    directly; i < d is resolved by the rank-(d-1) coupling, whose outcome
    row j' feeds the reduced coefficient at rank d.
    """
    lam = pattern[-1]
    if d == 1:
        new = normalize((pad(lam, 1)[0] + 1,))
        return (((new, (new,)), 1.0),)
    mup = pattern[-2]
    if i == d:
        lower = [((0, normalize(mup), pattern[:-1]), 1.0)]
    else:
        lower = []
        mup_p = pad(mup, d - 1)
        for (mupp, sub_pattern), amp in _branches(pattern[:-1], i, d - 1):
            mupp_p = pad(mupp, d - 1)
            jp = next(k + 1 for k in range(d - 1) if mupp_p[k] == mup_p[k] + 1)
            lower.append(((jp, normalize(mupp), sub_pattern), amp))
    out = {}
    lam_p = pad(lam, d)
    for (jp, mupp, sub_pattern), amp in lower:
        for j in range(1, d + 1):
            cand = list(lam_p)
            cand[j - 1] += 1
            if not is_partition(cand):
                continue
            new = normalize(cand)
            if not interlaces(mupp, new):
                continue
            coeff = _reduced_wigner(
                lam, j, mupp if jp == 0 else _drop_box(mupp, jp, d - 1), jp, d
            )
            if coeff == 0.0:
                continue
            key = (new, sub_pattern + (new,))
            out[key] = out.get(key, 0.0) + amp * coeff
    return tuple(out.items())


def _drop_box(mupp, jp: int, rows: int) -> tuple:
    cand = list(pad(mupp, rows))
    cand[jp - 1] -= 1
    return normalize(cand)


def cg_block(lam, d: int) -> DenseOperator:
    """The unitary coupling GZ(lam) tensor C^d onto the direct sum of
    GZ(lam') over lam' in add_box(lam, d), each appearing exactly once.

    Column labels are (input GZ pattern, qudit value i in 1..d); row labels
    are (lam', output GZ pattern).  The empty partition gives the relabeling
    |i> -> (j = i, defining-irrep chain i).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lam = normalize(lam)
    patterns = enumerate_gz(lam, d)
    col_labels = [(q, i) for q in patterns for i in range(1, d + 1)]
    row_labels = [(lp, g) for lp in add_box(lam, d) for g in enumerate_gz(lp, d)]
    row_pos = {lab: r for r, lab in enumerate(row_labels)}
    m = np.zeros((len(row_labels), len(col_labels)))
    for c, (q, i) in enumerate(col_labels):
        for (new, out_pattern), amp in _branches(q, i, d):
            m[row_pos[(new, out_pattern)], c] += amp
    return DenseOperator(m, row_labels=row_labels, col_labels=col_labels)


def cg_output_blocks(lam, d: int) -> list:
    """(lam', row slice) pairs giving the block layout of cg_block rows."""
    out = []
    start = 0
    for lp in add_box(normalize(lam), d):
        k = dim_q(lp, d)
        out.append((lp, slice(start, start + k)))
        start += k
    return out
