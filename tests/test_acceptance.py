"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole gate is exhaustive at the stated bounds and needs a few
minutes (the 8-vertex tree sweep and the full tree-map pair sweep dominate).
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from duoidal_kit.center import (
    constant_weights,
    duoid_on_center,
    equalizer_center,
    mult0_variants,
    totalize,
)
from duoidal_kit.colored_trees import check_contraction_operad_map
from duoidal_kit.duoidal import Duoid, check_duoid_axioms
from duoidal_kit.fincat import CatFunctor, identity_functor, natural_transformations
from duoidal_kit.finset import CartMap, CartesianFinSet, atom_letter, word_size
from duoidal_kit.instances import (
    additive_instance,
    bool_lattice_instance,
    bz2_cat,
    cat_one,
    composable_pair_cat,
    functor_pair_corpus,
    parallel_pair_cat,
)
from duoidal_kit.kcat import CartesianSelfEnriched, k_monoid_from_monoid
from duoidal_kit.monoids import cyclic, monoid_corpus
from duoidal_kit.operads import (
    algebra_to_monoid,
    certify_cosimplicial_generic,
    check_fass_algebra_diagrams,
    coface,
    codegeneracy,
    cosimplicial_from_multiplicative,
    hochschild_oracle_coface,
    hochschild_oracle_codegeneracy,
    multiplicative_from_k_monoid,
)
from duoidal_kit.spans import Globe, identity_globe
from duoidal_kit.tamarkin import (
    EnrichedGraphCategory,
    cat_valued_functor,
    factorization_from_monoid,
    monoid_from_factorization,
    object_functor_of,
    tamarkin_fiber,
)
from duoidal_kit.trees import TreePool
from duoidal_kit.two_operads import ass2, check_two_operad, end2, is_pruned, truncate

D = CartesianFinSet()
K = CartesianSelfEnriched(D)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def monoid_value(level0_element):
    return level0_element[0][0][1][0]


def span_monoid(base_name="parallel"):
    bz2 = bz2_cat()
    if base_name == "one":
        return monoid_from_factorization(cat_valued_functor(cat_one(), {"*": bz2}, {}, name="pt"))
    base = parallel_pair_cat()
    F = cat_valued_functor(
        base,
        {"0": bz2, "1": bz2},
        {"u": identity_functor(bz2), "w": identity_functor(bz2)},
        name="pp",
    )
    return monoid_from_factorization(F)


def test_criterion_01_classical_center_oracle():
    corpus = monoid_corpus()
    assert len(corpus) >= 20
    assert any(m.name == "t2" for m in corpus)
    for order in (1, 2, 3, 4, 5, 6):
        assert any(len(m.elements) == order and m.is_commutative() for m in corpus)
    for m in corpus:
        cen = equalizer_center(multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=3))
        got = sorted((monoid_value(z) for z in cen.fibers[None]), key=repr)
        want = sorted(m.center(), key=repr)
        assert got == want, m.name
    verdict(1, True, f"centers of {len(corpus)} monoids match the brute-force oracle exactly")


def test_criterion_02_constant_weights_equalizer_form():
    checked = 0
    for m in monoid_corpus():
        A = multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=4)
        X = cosimplicial_from_multiplicative(A, 2)
        tot = totalize(D, X, constant_weights(), N=2)
        assert tot.stabilized_from == 1, m.name
        cen = equalizer_center(A)
        assert sorted((f[0][0] for f in tot.families[None]), key=repr) == sorted(
            cen.fibers[None], key=repr
        ), m.name
        checked += 1
    # a span-instance multiplicative operad, fiberwise
    M = span_monoid("parallel")
    A = multiplicative_from_k_monoid(M, bound=3)
    J = M.K
    X = cosimplicial_from_multiplicative(A, 2)
    tot = totalize(J.D, X, constant_weights(), N=2)
    assert tot.stabilized_from == 1
    cen = equalizer_center(A)
    for key in cen.fibers:
        prefix = sorted((f[0][0] for f in tot.families.get(key, ())), key=repr)
        assert prefix == sorted(cen.fibers[key], key=repr)
    checked += 1
    verdict(2, True, f"constant-weight totalization stabilizes from level 1 and equals the equalizer ({checked} operads)")


def test_criterion_03_cosimplicial_identities_and_oracle():
    rep = certify_cosimplicial_generic(4)
    assert rep.all_passed, rep.render()
    confirmed = []
    for m in monoid_corpus():
        M = k_monoid_from_monoid(m, K)
        A = multiplicative_from_k_monoid(M, bound=5)
        for n in range(0, 5):
            if (word_size(A.base.component(n)) or 10**9) > 5000:
                continue
            for i in range(n + 2):
                assert D.maps_equal(
                    coface(A, n, i), hochschild_oracle_coface(m, K, n, i, carrier=M.carrier)
                ), (m.name, n, i)
            if n >= 1:
                for i in range(n):
                    assert D.maps_equal(
                        codegeneracy(A, n - 1, i),
                        hochschild_oracle_codegeneracy(m, K, n - 1, i, carrier=M.carrier),
                    ), (m.name, n, i)
        confirmed.append(m.name)
    verdict(
        3,
        True,
        "identities to level 4 certified exactly for every monoid via the generic word probe; "
        f"oracle agreement confirmed extensionally on {len(confirmed)} monoids",
    )


def test_criterion_04_duoid_theorem():
    count = 0
    for m in monoid_corpus():
        A = multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=4)
        duoid, cen = duoid_on_center(A, name=f"Z({m.name})")
        assert check_duoid_axioms(D, duoid).all_passed, m.name
        variants = mult0_variants(A, cen)
        base = variants[(0, 0)]
        assert all(D.maps_equal(base, v) for v in variants.values()), m.name
        count += 1
    for base_name in ("one", "parallel"):
        M = span_monoid(base_name)
        A = multiplicative_from_k_monoid(M, bound=3)
        duoid, cen = duoid_on_center(A, name=f"Z[{base_name}]")
        assert check_duoid_axioms(M.K.D, duoid).all_passed
        variants = mult0_variants(A, cen)
        base = variants[(0, 0)]
        assert all(M.K.D.maps_equal(base, v) for v in variants.values())
        count += 1
    verdict(4, True, f"the center duoid passes every axiom with coface independence on {count} operads (2 globe-indexed)")


def test_criterion_05_tamarkin_naturality_oracle():
    par = parallel_pair_cat()
    pairs = functor_pair_corpus()
    assert len(pairs) >= 10
    for F0, G0 in pairs:
        FV = cat_valued_functor(par, {"0": F0.src, "1": F0.tgt}, {"u": F0, "w": G0}, name="p")
        globe = Globe("0", "1", "u", "w")
        fams, tot = tamarkin_fiber(FV, globe, N=2, bound=3)
        nat = natural_transformations(F0, G0)
        decoded = set()
        for fam in fams:
            alpha = []
            for (a1, a2), graph in fam[0][0]:
                if a1 == a2 and graph:
                    ((_, out),) = graph
                    alpha.append((a1, out[1][0]))
            decoded.add(tuple(sorted(alpha)))
        assert decoded == set(nat), (F0.name, G0.name)
        from duoidal_kit.center import ordinal_weights

        fams_u, _ = tamarkin_fiber(FV, globe, weights=ordinal_weights(), N=2, bound=3)
        expected = 1
        for a in F0.src.objects:
            expected *= len(F0.tgt.hom(F0.on_obj(a), G0.on_obj(a)))
        assert len(fams_u) == expected, (F0.name, G0.name)
    verdict(5, True, f"{len(pairs)} functor pairs: constant weights give Nat(f,g), ordinal weights the full products, exactly")


def test_criterion_06_all_v_algebra_correspondence():
    count = 0
    for m in monoid_corpus():
        M = k_monoid_from_monoid(m, K)
        rep = check_fass_algebra_diagrams(M)
        assert rep.all_passed, (m.name, rep.render())
        A = multiplicative_from_k_monoid(M, bound=3)
        M2 = algebra_to_monoid(A, K, M.carrier, name=m.name)
        assert D.maps_equal(M2.nu_bar, M.nu_bar), m.name
        assert D.maps_equal(M2.mu_bar, M.mu_bar), m.name
        assert D.maps_equal(M2.u, M.u), m.name
        A2 = multiplicative_from_k_monoid(M2, bound=3)
        for n in range(4):
            assert D.maps_equal(A2.m[n], A.m[n]), (m.name, n)
        count += 1
    verdict(6, True, f"monoid/algebra round trips are identities with (d1)-(d5) verified on {count} monoids")


def test_criterion_07_endomorphism_two_operad():
    lattice = bool_lattice_instance()
    assert len(lattice.objects()) <= 3
    A1 = end2(lattice, "1")
    rep1 = check_two_operad(A1, max_leaves=3, tuple_cap=16)
    assert rep1.all_passed, rep1.render()
    additive = additive_instance(cyclic(2))
    assert len(additive.objects()) <= 3
    A2 = end2(additive, "*", name="end2_additive")
    rep2 = check_two_operad(A2, max_leaves=3, tuple_cap=16)
    assert rep2.all_passed, rep2.render()
    # the level-<=1 truncation is the endomorphism operad of the monoid v
    for inst, A in ((lattice, A1), (additive, A2)):
        P = TreePool()
        tr1 = truncate(A, 1).over(P)
        for n in range(4):
            assert sorted(tr1.component(P.one_tree(n))) == sorted(
                inst.hom(inst.tensor(0, [inst.v] * n), inst.v)
            )
        for a in range(3):
            for b in range(3):
                for f in P.enumerate_one_maps(P.one_tree(a), P.one_tree(b)):
                    fibs = P.fiber_trees[f]
                    for elems in itertools.product(*[tr1.component(t) for t in fibs]):
                        for outer in tr1.component(P.target[f]):
                            got = tr1.m(f, list(elems), outer)
                            want = inst.compose(inst.tensor_map(0, list(elems)), outer)
                            assert inst.maps_equal(got, want)
    scope = rep2.items[-1].scope
    assert scope == rep1.items[-1].scope == (
        "49792/101144 composable pairs aligned within bound; element tuples capped at 16"
    )
    verdict(7, True, f"endomorphism tree operads pass all axioms over two small instances ({scope})")


def test_criterion_08_tree_algebras_are_interchange_monoids():
    from duoidal_kit.two_operads import algebra_to_duoid, check_algebra_map, duoid_to_algebra

    total_duoids = 0
    for size in (2, 3):
        elems = list(range(size))
        carrier = (atom_letter(f"c{size}", elems),)
        sq = carrier + carrier
        monoids = []
        for vals in itertools.product(elems, repeat=size * size):
            table = dict(zip(itertools.product(elems, repeat=2), vals))
            unit = next(
                (u for u in elems if all(table[(u, a)] == a and table[(a, u)] == a for a in elems)),
                None,
            )
            if unit is None:
                continue
            if all(
                table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
                for a in elems
                for b in elems
                for c in elems
            ):
                monoids.append((table, unit))
        for t0, u0 in monoids:
            m0 = CartMap(sq, carrier, table={(a, b): (t0[(a, b)],) for a in elems for b in elems})
            e0 = CartMap((), carrier, table={(): (u0,)})
            for t1, u1 in monoids:
                m1 = CartMap(sq, carrier, table={(a, b): (t1[(a, b)],) for a in elems for b in elems})
                e1 = CartMap((), carrier, table={(): (u1,)})
                d = Duoid(carrier, m0, e0, m1, e1)
                is_duoid = check_duoid_axioms(D, d).all_passed
                should = t0 == t1 and all(t0[(a, b)] == t0[(b, a)] for a in elems for b in elems)
                assert is_duoid == should
                if is_duoid:
                    total_duoids += 1
                    P = TreePool()
                    ev = duoid_to_algebra(D, d, P, bound=3)
                    assert check_algebra_map(D, d, P, ev, max_leaves=2).all_passed
                    d2 = algebra_to_duoid(D, P, ev, carrier)
                    for attr in ("mult0", "unit0", "mult1", "unit1"):
                        assert D.maps_equal(getattr(d2, attr), getattr(d, attr))
    assert is_pruned(ass2())
    verdict(
        8,
        True,
        f"duoids over carriers of size <= 3 are exactly the equal commutative pairs; {total_duoids} round trips are identities",
    )


def test_criterion_09_contraction_operad_map():
    checked, failures = check_contraction_operad_map(8)
    assert failures == [], failures[:3]
    # the closed form of test_operad_map_counts_every_triple at bound 8: the
    # sum of L[vt] B[vs] over vt + vs <= 8, so no triple goes unchecked
    assert checked == 34_992_361
    verdict(9, True, f"contraction commutes with grafting on all {checked} pairs with <= 8 combined vertices")


def test_criterion_10_factorization_correspondences():
    corpus = []
    bz2 = bz2_cat()
    one = cat_one()
    par = parallel_pair_cat()
    arrow = composable_pair_cat()
    collapse = CatFunctor("collapse", bz2, bz2, {"*": "*"}, {"id_*": "id_*", "s": "id_*"})
    corpus.append(cat_valued_functor(one, {"*": bz2}, {}, name="pt_bz2"))
    corpus.append(
        cat_valued_functor(par, {"0": bz2, "1": bz2}, {"u": identity_functor(bz2), "w": collapse}, name="idc")
    )
    corpus.append(
        cat_valued_functor(par, {"0": bz2, "1": bz2}, {"u": collapse, "w": collapse}, name="cc")
    )
    corpus.append(cat_valued_functor(one, {"*": arrow}, {}, name="pt_chain"))
    from duoidal_kit.instances import arrow_cat

    arr = arrow_cat()
    emb01 = CatFunctor("emb01", arr, arrow, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "f01"})
    emb12 = CatFunctor("emb12", arr, arrow, {"0": "1", "1": "2"}, {"id_0": "id_1", "id_1": "id_2", "a": "f12"})
    corpus.append(cat_valued_functor(par, {"0": arr, "1": arrow}, {"u": emb01, "w": emb12}, name="embs"))
    assert len(corpus) >= 5
    assert all(any(len(F.value(a).arrows) > len(F.value(a).objects) for a in F.base.objects) for F in corpus)
    for F in corpus:
        M = monoid_from_factorization(F)
        F2 = factorization_from_monoid(M, name=F.name)
        for a in F.base.objects:
            assert F2.value(a).objects == F.value(a).objects
            assert set(F2.value(a).arrows) == set(F.value(a).arrows)
            assert F2.value(a)._compose == F.value(a)._compose
            assert F2.value(a).identities == F.value(a).identities
        for f in F.base.arrows:
            assert F2.functor(f).obj_map == F.functor(f).obj_map
            assert F2.functor(f).arr_map == F.functor(f).arr_map
        # the hom families themselves round trip as objects
        from duoidal_kit.tamarkin import hom_family_of

        assert hom_family_of(F2) == hom_family_of(F)
        from duoidal_kit.tamarkin import categories_from_und_monoid

        cats = categories_from_und_monoid(M.carrier, M.mu_bar, M.nu_bar, M.K)
        for a in F.base.objects:
            assert cats[a]._compose == F.value(a)._compose
    verdict(10, True, f"object/monoid/functor correspondences round trip on {len(corpus)} object functors")


def run_cli(*argv):
    # the checkout's src/ goes first on the child's path, so it imports the code under test, installed or not
    path = os.pathsep.join(filter(None, (str(CORPUS_DIR.parent / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "duoidal_kit.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_11_cli_determinism():
    invocations = [
        ("center", "--monoid", str(CORPUS_DIR / "s3.json")),
        ("check-duoidal", "--builtin", "bool_lattice"),
        ("check-duoid", "--builtin", "additive_z3"),
        ("delta-center", "--monoid", str(CORPUS_DIR / "z3.json"), "--delta", "colax"),
        ("trees", "enumerate", "--leaves", "3"),
        ("btree", "contract", "--term", "w(b(l,l),w(l,l))"),
        ("--format", "json", "cosimplicial-verify", "--monoid", str(CORPUS_DIR / "z2.json"), "--levels", "2"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout and first.stderr == second.stderr, argv
        assert first.returncode == second.returncode
    verdict(11, True, f"{len(invocations)} CLI invocations are byte-identical across reruns")
