"""Permutations, unshuffles and Koszul signs.

Conventions (fixed once for the whole kit):

* A permutation sigma of {1..n} is stored by its image tuple
  ``images = (sigma(1), ..., sigma(n))``.
* ``sym_sign(sigma, degrees)`` is the sign alpha(sigma, v) defined by
  ``v_{s(1)} . ... . v_{s(n)} = alpha * v_1 . ... . v_n`` in the free graded
  *commutative* algebra, where ``degrees[i-1] = |v_i|``.
* ``skew_sign(sigma, degrees)`` is chi(sigma, v) = signature(sigma) * alpha;
  it plays the same role for the graded *exterior* algebra.
* ``Sh(k_1, ..., k_l)`` is the set of permutations whose images are strictly
  increasing on each consecutive block of the domain.
* A generator tuple (a word of letters) is stored sorted.  ``_sort_word``
  sorts one with its Koszul sign and ``_vanishes`` marks the sorted tuples
  killed by the symmetry; every graded-symmetric table of the kit (words of
  the symmetric algebra, bracket tables) follows this one rule.
* The kit sums over one unshuffle enumeration, ``_unshuffle_splits``: blocks
  of positions with the sign alpha, and no ``Permutation`` made.

A worked S3 table for both signs ships in the README.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import KitError


class Permutation:
    """A bijection of {1..n}, stored by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise KitError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def size(self) -> int:
        return len(self.images)

    def signature(self) -> int:
        sgn = 1
        imgs = self.images
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                if imgs[i] > imgs[j]:
                    sgn = -sgn
        return sgn

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))


def sym_sign(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Koszul sign alpha(sigma, v) of reordering a graded symmetric word.

    degrees[i-1] is the degree of v_i in the *original* word; returns +-1.
    """
    if len(degrees) != sigma.size:
        raise KitError("degree vector size does not match permutation size")
    imgs = sigma.images
    exponent = 0
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            if imgs[i] > imgs[j]:
                exponent += degrees[imgs[i] - 1] * degrees[imgs[j] - 1]
    return -1 if exponent % 2 else 1


def skew_sign(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Koszul sign chi(sigma, v) for graded skew words: signature * alpha."""
    return sigma.signature() * sym_sign(sigma, degrees)


def _sort_word(
    letter_degrees: Sequence[int], letters: Sequence[int]
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sort letters into a word; returns (word, Koszul sign exponent).

    The exponent counts the pairs of odd letters that the sort moves past
    each other.  Returns None when an odd letter repeats: the word is zero.
    """
    exponent = 0
    n = len(letters)
    for p in range(n):
        x = letters[p]
        if letter_degrees[x] & 1:
            for q in range(p + 1, n):
                y = letters[q]
                if y == x:
                    return None
                if y < x and letter_degrees[y] & 1:
                    exponent += 1
    return tuple(sorted(letters)), exponent


def _vanishes(key: Sequence[int], degrees: Sequence[int], symmetric: bool) -> bool:
    """A sorted tuple repeating an odd generator (symmetric) or an even one (skew)."""
    killed = 1 if symmetric else 0
    return any(a == b and degrees[a] % 2 == killed for a, b in zip(key, key[1:]))


def _nonvanishing_keys(degrees: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """The sorted generator tuples of length n on which a graded-symmetric map
    can be nonzero, in lexicographic order."""
    return [
        key
        for key in combinations_with_replacement(range(len(degrees)), n)
        if not _vanishes(key, degrees, True)
    ]


# {(first, rest): summed sign} of the unshuffles of one generator tuple
SplitCounts = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]


def _unshuffle_splits(n: int, degrees: Sequence[int]) -> Callable[[Tuple[int, ...]], Tuple[SplitCounts, SplitCounts]]:
    """split(key) -> (every, canonical) on the generator tuples of length n,
    degrees[g] the degree of the generator g.

    Each sigma in Sh(i, n-i), i = 1..n, splits the positions of key into
    C = sigma(1..i) and the others R; first and rest are the generators of
    key at C and at R, and the sign of sigma is the Koszul sign of the
    reordering that puts C first,

        alpha(C) = (-1)^{sum |g_p||g_q|, p in R, q in C, p < q}.

    every sums the signs of all splits by (first, rest), so a key that
    repeats a generator gives each pair of blocks once; canonical sums those
    of the canonical splits, i < n and (i, C[0]) < (n - i, R[0]): one of the
    two unshuffles that split key into the same two blocks of positions.
    The splits are listed once, their signs once per set of odd positions.
    """
    splits = [
        (C, R, i < n and (i, C[0]) < (n - i, R[0]))
        for i in range(1, n + 1)
        for C in combinations(range(n), i)
        for R in [tuple(p for p in range(n) if p not in C)]
    ]
    alphas: Dict[int, List[int]] = {}

    def split(key: Tuple[int, ...]) -> Tuple[SplitCounts, SplitCounts]:
        odd = sum(1 << p for p, g in enumerate(key) if degrees[g] & 1)
        signs = alphas.get(odd)
        if signs is None:
            signs = alphas[odd] = [
                -1 if sum(odd >> p & odd >> q & 1 for p in R for q in C if p < q) & 1 else 1
                for C, R, _ in splits
            ]
        every: SplitCounts = {}
        canonical: SplitCounts = {}
        for (C, R, marked), alpha in zip(splits, signs):
            blocks = tuple(map(key.__getitem__, C)), tuple(map(key.__getitem__, R))
            every[blocks] = every.get(blocks, 0) + alpha
            if marked:
                canonical[blocks] = canonical.get(blocks, 0) + alpha
        return every, canonical

    return split


def enumerate_unshuffles(*block_sizes: int) -> list[Permutation]:
    """All (k_1, ..., k_l)-unshuffles of S_{k_1+...+k_l}.

    The images within each consecutive block of the domain increase; the
    result is sorted lexicographically by image tuples.
    """
    if not block_sizes:
        raise KitError("at least one block size required")
    for k in block_sizes:
        if k <= 0:
            raise KitError(f"block sizes must be positive, got {k}")
    n = sum(block_sizes)
    results: list[Permutation] = []

    def fill(block: int, remaining: tuple, acc: tuple):
        if block == len(block_sizes):
            results.append(Permutation(acc))
            return
        k = block_sizes[block]
        for chosen in combinations(remaining, k):
            rest = tuple(x for x in remaining if x not in chosen)
            fill(block + 1, rest, acc + chosen)

    fill(0, tuple(range(1, n + 1)), ())
    results.sort(key=lambda p: p.images)
    return results


def unshuffles_with_tail(n: int, i: int) -> list[Permutation]:
    """Sh(i, n-i), tolerating an empty second block (then only the identity)."""
    if i == n:
        return [Permutation.identity(n)]
    return enumerate_unshuffles(i, n - i)
