"""Symmetric-group elements in one-line notation.

A permutation s of [n] is a tuple (s(1), ..., s(n)) of the values 1..n.
``all_permutations(n)`` enumerates them in lexicographic one-line order;
that enumeration fixes the index <-> permutation bijection used by the
group-algebra register everywhere in the package.  Lexicographic order is
ascending base-n value of the word s(1) - 1, ..., s(n) - 1, so a
permutation's group-algebra index is its word's rank by base-n value.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def check_permutation(s, n: int) -> tuple:
    """s as a tuple of ints; ValueError unless it is a permutation of 1..n."""
    if len(s) != n or sorted(s) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(s)} is not a permutation of 1..{n}")
    return tuple(int(v) for v in s)


def compose(s, t) -> tuple:
    """(s o t)(i) = s(t(i))."""
    return tuple(s[t[i] - 1] for i in range(len(t)))


def inverse(s) -> tuple:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v - 1] = i + 1
    return tuple(out)


def sign(s) -> int:
    """(-1)^(n - number of cycles)."""
    return -1 if (len(s) - len(cycle_type(s))) % 2 else 1


def cycle_type(s) -> tuple:
    """Cycle lengths sorted decreasing (a partition of n)."""
    seen = [False] * len(s)
    lengths = []
    for i in range(len(s)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = s[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def transposition(n: int, k: int) -> tuple:
    """The adjacent transposition (k, k+1) in S_n, 1 <= k <= n-1."""
    s = list(range(1, n + 1))
    s[k - 1], s[k] = s[k], s[k - 1]
    return tuple(s)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(1, n + 1)))


def count_permutations(n: int, stop: int) -> int:
    """n! = len(all_permutations(n)), multiplied out only until it passes
    stop, so a result above stop is only a lower bound."""
    count, k = 1, 1
    while count <= stop and k < n:
        k += 1
        count *= k
    return count


def conjugacy_classes(n: int) -> dict:
    """Map cycle type -> class size: n! / (prod_k k^{m_k} m_k!) where m_k is
    the number of k-cycles; S_0 has one class, the empty cycle type."""
    from math import factorial

    from .combinatorics import enumerate_partitions

    out = {}
    for t in enumerate_partitions(max(n, 1), n):
        z = 1
        for k in set(t):
            m = t.count(k)
            z *= k**m * factorial(m)
        out[t] = factorial(n) // z
    return out
