"""Self-contained symmetric-group character and representation oracles.

These deliberately share no code with the Clebsch-Gordan / Schur-cascade
machinery so they can serve as an independent verification route:

* ``character`` evaluates irreducible characters by the Murnaghan-Nakayama
  rim-hook recursion (via beta numbers).
* ``young_orthogonal`` builds the real orthogonal irrep matrix on the YY
  (standard tableau) basis directly from tableau contents.
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


def _box_contents(path) -> list:
    """Content (column - row, zero-based) of the box added at each step."""
    contents = []
    prev = ()
    for p in path:
        p = normalize(p)
        prev_pad = prev + (0,) * (len(p) - len(prev))
        row = next(i for i in range(len(p)) if p[i] != prev_pad[i])
        contents.append((p[row] - 1) - row)
        prev = p
    return contents


def _swap_path(path, k: int):
    """Path with tableau entries k and k+1 exchanged, or None if invalid
    (the two boxes share a row or column)."""
    path = [normalize(p) for p in path]
    below = path[k - 2] if k >= 2 else ()
    above = path[k]
    # new intermediate shape: below + the box that step k+1 added
    bp = below + (0,) * (len(above) - len(below))
    mid = path[k - 1] + (0,) * (len(above) - len(path[k - 1]))
    row_hi = next(i for i in range(len(above)) if above[i] != mid[i])
    cand = list(bp)
    cand[row_hi] += 1
    if any(cand[i] > cand[i - 1] for i in range(1, len(cand))):
        return None
    new_mid = normalize(cand)
    if new_mid == path[k - 1]:
        return None
    out = list(path)
    out[k - 1] = new_mid
    return tuple(out)


@lru_cache(maxsize=None)
def _adjacent_matrix(lam, k: int) -> np.ndarray:
    """Young's orthogonal form of the adjacent transposition (k, k+1)."""
    lam = normalize(lam)
    paths = enumerate_yy(lam)
    index = {p: i for i, p in enumerate(paths)}
    m = np.zeros((len(paths), len(paths)))
    for i, path in enumerate(paths):
        contents = _box_contents(path)
        r = contents[k] - contents[k - 1]  # axial distance between k+1 and k
        m[i, i] = 1.0 / r
        swapped = _swap_path(path, k)
        if swapped is not None:
            j = index[tuple(normalize(p) for p in swapped)]
            m[j, i] = np.sqrt(1.0 - 1.0 / r**2)
    return m


def young_orthogonal(lam, s) -> np.ndarray:
    """Real orthogonal matrix of permutation s on the YY basis of shape lam,
    ordered as enumerate_yy; a homomorphism for composition s o t."""
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
    m = np.eye(dim_p(lam))
    for k in reversed(swaps):
        m = m @ _adjacent_matrix(lam, k)
    return m

