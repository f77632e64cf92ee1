"""Self-contained symmetric-group character and representation oracles.

These deliberately share no code with the Clebsch-Gordan / Schur-cascade
machinery so they can serve as an independent verification route:

* ``character`` evaluates irreducible characters by the Murnaghan-Nakayama
  rim-hook recursion (via beta numbers).
* ``young_orthogonal`` builds the real orthogonal irrep matrix on the YY
  (standard tableau) basis as a product of adjacent-transposition
  generators, one cached table per shape, read from the row word of each
  tableau (the row holding each entry).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .combinatorics import dim_p, enumerate_yy, normalize, size


@lru_cache(maxsize=None)
def character(lam, rho) -> int:
    """Irreducible character chi_lam at cycle type rho (both partitions of n).

    Rim hooks are removed through the beta-number encoding: with k rows,
    beta_i = lam_i + (k - i); removing a hook of length L replaces some
    beta by beta - L, with sign (-1)^(number of betas jumped over).
    """
    lam = normalize(lam)
    rho = tuple(sorted((x for x in rho if x), reverse=True))
    if size(lam) != sum(rho):
        raise ValueError("lam and rho must partition the same n")
    if not lam:
        return 1
    length = rho[0]
    rest = rho[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = normalize(new_beta[i] - (k - 1 - i) for i in range(k))
        total += (-1) ** jumped * character(new_lam, rest)
    return total


@lru_cache(maxsize=None)
def _generators(lam) -> tuple:
    """Read-only Young's orthogonal form of (k, k+1), k = 1..n-1, on
    enumerate_yy(lam): with r = content(k+1) - content(k), 1/r on the
    diagonal and sqrt(1 - 1/r^2) at the partner, the tableau whose row word
    (the row of each entry) has k and k+1 exchanged; it is standard exactly
    when |r| > 1."""
    paths = enumerate_yy(lam)
    # shapes[t, j, i]: length of row i once entries 1..j of tableau t are in
    # (one row at least, so that the empty shape has its empty row word)
    shapes = np.zeros((len(paths), size(lam) + 1, len(lam) or 1), dtype=int)
    for t, path in enumerate(paths):
        for j, p in enumerate(path, 1):
            shapes[t, j, : len(p)] = p
    rows = np.diff(shapes, axis=1).argmax(axis=2)  # the row words
    # content = column - row, the column read off the row's new length
    contents = np.take_along_axis(shapes[:, 1:], rows[..., None], axis=2)[..., 0] - 1 - rows
    index = {word: t for t, word in enumerate(map(tuple, rows.tolist()))}
    gens = []
    for k in range(1, size(lam)):
        r = contents[:, k] - contents[:, k - 1]
        m = np.zeros((len(paths), len(paths)))
        np.fill_diagonal(m, 1.0 / r)
        movable = np.flatnonzero(np.abs(r) > 1)
        swapped = rows[movable]
        swapped[:, [k - 1, k]] = swapped[:, [k, k - 1]]
        partners = [index[word] for word in map(tuple, swapped.tolist())]
        m[partners, movable] = np.sqrt(1.0 - 1.0 / r[movable] ** 2)
        m.flags.writeable = False
        gens.append(m)
    return tuple(gens)


def young_orthogonal(lam, s) -> np.ndarray:
    """Real orthogonal matrix of permutation s on the YY basis of shape lam,
    ordered as enumerate_yy; a homomorphism for composition s o t.  A fresh
    array: one product with a cached generator per adjacent swap of s."""
    lam = normalize(lam)
    n = size(lam)
    if len(s) != n:
        raise ValueError("permutation length must equal |lam|")
    word = list(s)
    swaps = []
    # sort the one-line word with adjacent position swaps; s equals the
    # product of the recorded transpositions in reverse order
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                swaps.append(i + 1)
                changed = True
    gens = _generators(lam)
    m = np.eye(dim_p(lam))
    for k in reversed(swaps):
        m = m @ gens[k - 1]
    return m

