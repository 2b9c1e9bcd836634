"""Acceptance suite: every criterion exact, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines as
the criteria complete.  All comparisons are exact equality of Gaussian
rationals; the stated wall-clock budgets are asserted.
"""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement, permutations
from math import comb

from algebroidkit.algebroid import (
    AlgebroidStructure,
    algebroid_jacobi_residual,
    anchor_morphism_residual,
    ce_differential,
    d0_derivation,
    extract_structure,
    leibniz_residual,
)
from algebroidkit.fixtures import (
    conjugation_oracle_structure,
    fixture_corpus,
    kodaira_base,
    mixed_module,
    nontrivial_dga,
    random_geometric_model,
    random_unipotent,
)
from algebroidkit.geometry import (
    GeometricModel,
    build_frakD,
    build_kapranov,
    duality_residual,
    retraction_residual,
    structure_from_geometry,
    transport_lemma_residual,
)
from algebroidkit.linfty import (
    BracketTable,
    decalage,
    decalage_inverse,
    same_tables,
)
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.signs import Permutation, enumerate_unshuffles, skew_sign, sym_sign
from algebroidkit.symtensor import (
    SymAlgebra,
    conjugate,
    mc_residual,
    square_components,
)
from builders import (
    Rng,
    cone_dgla,
    matrix_dgla,
    random_algebroid,
    random_ce_derivation,
    sample_bases,
)
from geometry_oracle import oracle_build_frakD, oracle_build_kapranov
from linfty_oracle import linfty_jacobi_residual


def announce(number, passed, description, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description} [{elapsed:.2f}s / budget {budget}s]")
    assert passed, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def bubble_oracle(images, degrees, include_signature):
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


def test_criterion_1_sign_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    ok = True
    for n in range(1, 7):
        vectors = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(100)]
        for images in permutations(range(1, n + 1)):
            sigma = Permutation(images)
            for degs in vectors:
                if sym_sign(sigma, degs) != bubble_oracle(images, degs, False):
                    ok = False
                if skew_sign(sigma, degs) != bubble_oracle(images, degs, True):
                    ok = False
    for i in range(1, 7):
        for j in range(1, 7 - i):
            if len(enumerate_unshuffles(i, j)) != comb(i + j, i):
                ok = False
    announce(1, ok, "Koszul signs match the transposition oracle on S_n (n <= 6); unshuffle counts binomial", time.perf_counter() - t0, 5)


def test_criterion_2_decalage():
    t0 = time.perf_counter()
    from algebroidkit.linfty import LInftyAlgebra, canonicalize_key

    rng = Rng(42)
    base = nontrivial_dga()
    ok = True
    for trial in range(50):
        rank = rng.randint(1, 3)
        degrees = [rng.randint(-2, 3) for _ in range(rank)]
        carrier = FreeModule(base, [(f"g{i}", degrees[i]) for i in range(rank)])
        L = LInftyAlgebra(carrier, arity_cap=4)
        for n in range(2, 5):
            for key in combinations_with_replacement(range(rank), n):
                _, _, vanishes = canonicalize_key(key, carrier.degrees, False)
                if vanishes:
                    continue
                want = sum(carrier.degrees[i] for i in key) + 2 - n
                val = rng.module_element(carrier, degree=want, zero_chance=0.5)
                if not val.is_zero():
                    L.set_bracket(n, key, val)
        back = decalage_inverse(decalage(L))
        for n in range(2, 5):
            v1 = L.tables.get(n, {})
            v2 = back.tables.get(n, {})
            if set(v1) != set(v2):
                ok = False
                continue
            for key in v1:
                if v1[key].items() != v2[key].items():
                    ok = False
    for L in (matrix_dgla(), cone_dgla()):
        for n in range(1, 5):
            if linfty_jacobi_residual(L, n) != {}:
                ok = False
            if linfty_jacobi_residual(decalage(L), n) != {}:
                ok = False
            if linfty_jacobi_residual(decalage_inverse(decalage(L)), n) != {}:
                ok = False
    announce(2, ok, "degree-shift dictionary: 50 random round trips exact; Jacobi preserved both ways on matrix DGLAs", time.perf_counter() - t0, 5)


def nonzero_tables(tables):
    return {n: t for n, t in tables.items() if t}


def structures_equal(S1, S2):
    """Same nonzero tables: an empty table counts as a missing one."""
    for t1, t2 in [(S1.brackets, S2.brackets), (S1.anchors, S2.anchors)]:
        t1, t2 = nonzero_tables(t1), nonzero_tables(t2)
        if set(t1) != set(t2):
            return False
        for n in t1:
            if t1[n].keys() != t2[n].keys():
                return False
            for key in t1[n]:
                if t1[n][key].items() != t2[n][key].items():
                    return False
    return True


def derivations_equal(D1, D2):
    return D1 == D2


def all_residuals_empty(S):
    return (
        not any(algebroid_jacobi_residual(S, range(1, 5)).values())
        and all(leibniz_residual(S, m) == {} for m in range(1, 5))
        and all(anchor_morphism_residual(S, [m])[m] == {} for m in range(1, 4))
    )


def copy_structure(S, with_anchors=True):
    out = AlgebroidStructure(S.base, S.carrier, S.bracket_cap)
    out.brackets = {n: dict(t) for n, t in S.brackets.items()}
    if with_anchors:
        out.anchors = {n: dict(t) for n, t in S.anchors.items()}
    return out


def bracket_tables(S):
    tables = {}
    for n, table in S.brackets.items():
        tables[n] = BracketTable(S.carrier.degrees)
        tables[n].update(table)
    return tables


def test_structure_equality_agrees_with_oracle():
    """__eq__ of AlgebroidStructure and BracketTable (through same_tables)
    matches structures_equal, on equal pairs and on pairs that differ in one
    place; an extra empty table changes nothing."""
    S = structure_from_geometry(fixture_corpus()["rank2.geometric"])
    n, key = min((n, k) for n, t in S.brackets.items() for k in t)
    m, akey = min((m, k) for m, t in S.anchors.items() for k in t)

    equal = copy_structure(S)
    bracket_bumped = copy_structure(S)
    bracket_bumped.brackets[n][key] = S.brackets[n][key] + S.carrier.generator(0)
    anchor_bumped = copy_structure(S)
    anchor_bumped.anchors[m][akey] = S.anchors[m][akey] + S.base.one()
    extra_arity = copy_structure(S)
    extra_arity.brackets[max(S.brackets) + 1] = {(0,) * (max(S.brackets) + 1): S.carrier.generator(0)}
    empty_arity = copy_structure(S)
    empty_arity.brackets[max(S.brackets) + 1] = {}
    empty_arity.anchors[max(S.anchors) + 1] = {}

    cases = [
        (equal, True),
        (bracket_bumped, False),
        (anchor_bumped, False),
        (extra_arity, False),
        (empty_arity, True),
    ]
    for S2, same in cases:
        assert structures_equal(S, S2) is same
        assert (S == S2) is same and (S2 == S) is same
        assert (S != S2) is not same
        same_brackets = structures_equal(copy_structure(S, False), copy_structure(S2, False))
        assert same_tables(bracket_tables(S), bracket_tables(S2)) is same_brackets
    assert bracket_tables(S) == bracket_tables(anchor_bumped)


def test_criterion_3_ce_duality():
    t0 = time.perf_counter()
    ok = True
    rng = Rng(333)
    bases = sample_bases()
    # 25 random structures: extract(ce(S)) == S
    for trial in range(25):
        base = bases[trial % 3]
        rank = rng.randint(1, 3)
        degrees = [rng.randint(-1, 2) for _ in range(rank)]
        carrier = mixed_module(base, degrees, seed=500 + trial)
        S = random_algebroid(rng, base, carrier, derivation_anchors=False)
        D = ce_differential(S, weight_cap=4)
        if not structures_equal(S, extract_structure(D, carrier, 4)):
            ok = False
    # 25 random derivations: ce(extract(D)) == D
    for trial in range(25):
        base = bases[trial % 3]
        rank = rng.randint(1, 2)
        degrees = [rng.randint(-1, 2) for _ in range(rank)]
        carrier = mixed_module(base, degrees, seed=600 + trial)
        D = random_ce_derivation(rng, base, carrier, cap=4)
        S = extract_structure(D, carrier, bracket_cap=4)
        D2 = ce_differential(S, weight_cap=4)
        if not derivations_equal(D, D2):
            ok = False
    # equivalence both ways with single-entry perturbations
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, -1], seed=11)
    S, D, _ = conjugation_oracle_structure(Rng(35), carrier, cap=4)
    if square_components(ce_differential(S, weight_cap=4)) != {} or not all_residuals_empty(S):
        ok = False
    broke = 0
    tried = 0
    from algebroidkit.linfty import canonicalize_key

    for n in range(2, 5):
        for key in combinations_with_replacement(range(carrier.rank), n):
            _, _, vanishes = canonicalize_key(key, carrier.degrees, True)
            if vanishes or tried >= 16:
                continue
            want = sum(carrier.degrees[i] for i in key) + 1
            for g in range(carrier.rank):
                for b in range(base.dim):
                    if base.degrees[b] + carrier.degrees[g] != want or tried >= 16:
                        continue
                    bump = ModuleElement(carrier, {g: base.basis_element(b)})
                    old = S.brackets.get(n, {}).get(key, carrier.zero())
                    S.set_bracket(n, key, old + bump)
                    sq_empty = square_components(ce_differential(S, weight_cap=4)) == {}
                    res_empty = all_residuals_empty(S)
                    S.set_bracket(n, key, old)
                    tried += 1
                    if sq_empty != res_empty:
                        ok = False
                    if not sq_empty:
                        broke += 1
    if broke == 0:
        ok = False
    announce(3, ok, "dual-derivation round trips exact on 50 random inputs; square-zero <=> residuals incl. perturbations", time.perf_counter() - t0, 30)


def test_criterion_4_conjugation_oracle():
    t0 = time.perf_counter()
    ok = True
    rng = Rng(444)
    count = 0
    for base in sample_bases():
        carrier = mixed_module(base, [0, 1] if base.dim > 2 else [0, -1], seed=7)
        alg = SymAlgebra.over_module(carrier, cap=4)
        D0 = d0_derivation(alg, carrier)
        per_base = 9 if base.dim > 2 else 7
        for _ in range(per_base):
            count += 1
            Phi = random_unipotent(rng, alg)
            D = conjugate(Phi, D0)
            if square_components(D) != {}:
                ok = False
            if mc_residual(D0, D) != {}:
                ok = False
            S = extract_structure(D, carrier, bracket_cap=4)
            if not all_residuals_empty(S):
                ok = False
    announce(4, ok and count >= 25, f"{count} random filtered automorphisms over 3 base dgas: conjugates square to zero, extracted structures pass all residuals, Maurer-Cartan residual vanishes", time.perf_counter() - t0, 30)


def geometry_fixture_zoo():
    zoo = [obj for obj in fixture_corpus().values() if isinstance(obj, GeometricModel)]
    rng = Rng(555)
    bases = sample_bases()
    profiles = [([0], [0]), ([0, 1], [0, -1]), ([1], [0, 2]), ([0, -1], [1]), ([0], [0, 1])]
    for k in range(10):
        base = bases[k % 3]
        td, nd = profiles[k % len(profiles)]
        zoo.append(
            random_geometric_model(rng, base, td, nd, cap=4, seed_modules=700 + k)
        )
    return zoo


def test_criterion_5_unconditional_identities():
    t0 = time.perf_counter()
    ok = True
    for g in geometry_fixture_zoo():
        if retraction_residual(g) != []:
            ok = False
        if transport_lemma_residual(g) != []:
            ok = False
        if build_frakD(g).weight_component(0) != g.normal_d0():
            ok = False
    announce(5, ok, "retraction, transport iterate (s <= 4) and weight-graded part on every shipped fixture + 10 random models", time.perf_counter() - t0, 30)


def test_criterion_6_central_duality():
    t0 = time.perf_counter()
    ok = True
    for g in geometry_fixture_zoo():
        if duality_residual(g) != {}:
            ok = False
    announce(6, ok, "dual derivation of the emitted structure equals the assembled differential on every fixture (integrable or not)", time.perf_counter() - t0, 30)


def test_criterion_7_specializations():
    t0 = time.perf_counter()
    ok = True
    corpus = fixture_corpus()
    trivial = corpus["trivial.geometric"]
    if build_frakD(trivial) != trivial.normal_d0():
        ok = False
    diagonal = corpus["diagonal.geometric"]
    if any(not v.is_zero() for v in diagonal.beta.values()):
        ok = False
    S_diag = structure_from_geometry(diagonal)
    if S_diag.anchors != {}:
        ok = False
    kapranov = oracle_build_kapranov(diagonal)
    for D in (build_frakD(diagonal), build_kapranov(diagonal)):
        if ({b: v.data for b, v in D.on_algebra.items()}, {j: v.data for j, v in D.on_letters.items()}) != kapranov:
            ok = False
    nilpotent = corpus["rank1_curved.geometric"]
    if square_components(build_frakD(nilpotent)) != {}:
        ok = False
    # both sides reproduced term by term by explicit substitution
    g = corpus["rank2.geometric"]
    Dg = build_frakD(g)
    if (Dg.on_algebra, Dg.on_letters) != oracle_build_frakD(g):
        ok = False
    announce(7, ok, "zero tensors give the bare differential; diagonal regime has no anchors and matches Kapranov's construction; nilpotent fixture squares to zero; base and letter actions reproduced term by term", time.perf_counter() - t0, 10)


def test_criterion_8_negative_controls():
    t0 = time.perf_counter()
    rng = Rng(888)
    bases = [nontrivial_dga(), kodaira_base()]
    nonempty = 0
    localized = True
    total = 100
    for k in range(total):
        base = bases[k % 2]
        g = random_geometric_model(
            rng, base, [0, 1], [0, -1], cap=4, density=0.7, seed_modules=900 + k
        )
        report = square_components(build_frakD(g))
        if report:
            nonempty += 1
            lowest = min(report)
            if any(weight < lowest for weight in report):
                localized = False
            if all(v.is_zero() for v in report[lowest].values()):
                localized = False
    ok = nonempty >= 95 and localized
    announce(8, ok, f"{nonempty}/100 generic random models have a nonzero square, localized at the lowest violating weight", time.perf_counter() - t0, 60)
