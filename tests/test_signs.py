"""Sign machinery against an independent transposition-decomposition oracle."""

from __future__ import annotations

import random
from itertools import permutations, product
from math import comb

import pytest

from algebroidkit.errors import KitError
from algebroidkit.linfty import canonicalize_key
from algebroidkit.scalars import sign_scalar
from algebroidkit.signs import (
    Permutation,
    _sort_word,
    enumerate_unshuffles,
    skew_sign,
    sym_sign,
)
from linfty_oracle import canonical_partitions


def bubble_sign(images, degrees, include_signature):
    """Oracle: decompose into adjacent transpositions, multiply per-swap factors."""
    word = list(images)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                factor = (-1) ** (degrees[word[k] - 1] * degrees[word[k + 1] - 1])
                if include_signature:
                    factor = -factor
                sign *= factor
                word[k], word[k + 1] = word[k + 1], word[k]
                changed = True
    return sign


def test_identity_is_plus_one():
    for n in range(1, 5):
        sigma = Permutation.identity(n)
        assert sym_sign(sigma, [1] * n) == 1
        assert skew_sign(sigma, [3] * n) == 1


def test_transposition_cases():
    swap = Permutation([2, 1])
    assert sym_sign(swap, [1, 1]) == -1
    assert sym_sign(swap, [0, 1]) == 1
    assert skew_sign(swap, [0, 0]) == -1
    assert skew_sign(swap, [1, 1]) == 1


def test_three_cycle_odd_degrees():
    # 1 -> 2 -> 3 -> 1, i.e. images (2, 3, 1)
    cyc = Permutation([2, 3, 1])
    assert sym_sign(cyc, [1, 1, 1]) == 1


def test_signs_match_bubble_oracle_exhaustive():
    rng = random.Random(12345)
    for n in range(1, 7):
        degree_vectors = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(20)]
        for images in permutations(range(1, n + 1)):
            sigma = Permutation(images)
            for degs in degree_vectors:
                assert sym_sign(sigma, degs) == bubble_sign(images, degs, False)
                assert skew_sign(sigma, degs) == bubble_sign(images, degs, True)


def test_sign_composition_law():
    rng = random.Random(99)
    for n in range(2, 6):
        for _ in range(40):
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            tau = Permutation(rng.sample(range(1, n + 1), n))
            degs = [rng.randint(-2, 4) for _ in range(n)]
            lhs = sym_sign(Permutation(tau.permute(sigma.images)), degs)
            rhs = sym_sign(tau, sigma.permute(degs)) * sym_sign(sigma, degs)
            assert lhs == rhs
            lhs = skew_sign(Permutation(tau.permute(sigma.images)), degs)
            rhs = skew_sign(tau, sigma.permute(degs)) * skew_sign(sigma, degs)
            assert lhs == rhs


def test_skew_equals_signature_times_sym():
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(30):
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            degs = [rng.randint(-2, 4) for _ in range(n)]
            assert skew_sign(sigma, degs) == sigma.signature() * sym_sign(sigma, degs)


def test_unshuffles_1_1():
    got = enumerate_unshuffles(1, 1)
    assert [p.images for p in got] == [(1, 2), (2, 1)]


def test_unshuffles_2_1():
    assert len(enumerate_unshuffles(2, 1)) == 3


def test_unshuffles_2_2_matches_bruteforce():
    got = {p.images for p in enumerate_unshuffles(2, 2)}
    brute = set()
    for images in permutations([1, 2, 3, 4]):
        if images[0] < images[1] and images[2] < images[3]:
            brute.add(images)
    assert got == brute
    assert len(got) == 6


def test_unshuffle_counts_binomial():
    for i in range(1, 7):
        for j in range(1, 7 - i):
            assert len(enumerate_unshuffles(i, j)) == comb(i + j, i)


def test_unshuffles_reject_nonpositive():
    with pytest.raises(KitError):
        enumerate_unshuffles(2, 0)
    with pytest.raises(KitError):
        enumerate_unshuffles(-1)


def test_sign_size_mismatch():
    with pytest.raises(KitError):
        sym_sign(Permutation([1, 2]), [1])


def test_canonical_partitions_counts():
    # Bell numbers 1, 2, 5, 15
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        parts = canonical_partitions(n)
        assert len(parts) == bell
        for blocks in parts:
            seen = sorted(x for b in blocks for x in b)
            assert seen == list(range(1, n + 1))
            sizes = [len(b) for b in blocks]
            assert sizes == sorted(sizes)


@pytest.mark.parametrize("degrees", [(0, 1, 2, 3), (1, 1, 0, -1)])
def test_word_rule_matches_the_sign_of_the_sorting_permutation(degrees):
    """_sort_word and canonicalize_key on every tuple of length <= 4: the
    sorted key, the sign of the stable sorting permutation (sym_sign, or
    skew_sign in the skew convention) and vanishing exactly on a repeated
    odd generator (symmetric) or a repeated even one (skew)."""
    seen = {True: 0, False: 0}
    for n in range(5):
        for key in product(range(len(degrees)), repeat=n):
            word = tuple(sorted(key))
            sigma = Permutation(sorted(range(1, n + 1), key=lambda p: key[p - 1]))
            degs = [degrees[k] for k in key]
            repeated = {k for k in key if key.count(k) > 1}
            odd_repeat = any(degrees[k] % 2 for k in repeated)
            even_repeat = any(degrees[k] % 2 == 0 for k in repeated)

            merged = _sort_word(degrees, key)
            if odd_repeat:
                assert merged is None, key
            else:
                assert merged[0] == word
                assert sign_scalar(merged[1]) == sign_scalar(sym_sign(sigma, degs) < 0), key

            for symmetric, vanishes, sign_of in (
                (True, odd_repeat, sym_sign),
                (False, even_repeat, skew_sign),
            ):
                ckey, sign, got = canonicalize_key(key, degrees, symmetric)
                assert (ckey, got) == (word, vanishes), (key, symmetric)
                if not vanishes:
                    assert sign == sign_scalar(sign_of(sigma, degs) < 0), (key, symmetric)
                    seen[symmetric] += sign_of(sigma, degs) < 0
    # both conventions meet both signs
    assert seen[True] and seen[False]
