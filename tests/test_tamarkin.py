import dataclasses
import re
from pathlib import Path

import pytest

from duoidal_kit.center import constant_weights, ordinal_weights
from duoidal_kit.fincat import CatFunctor, ValidationError, identity_functor, natural_transformations
from duoidal_kit.instances import (
    arrow_cat,
    bz2_cat,
    cat_one,
    composable_pair_cat,
    functor_pair_corpus,
    parallel_pair_cat,
)
from duoidal_kit.finset import CartesianFinSet, atom_letter
from duoidal_kit.jsonio import cat_valued_functor_from_doc, load_document
from duoidal_kit.kcat import CartesianSelfEnriched, check_k_category, hom_tensor, sigma, und_compose
from duoidal_kit.report import skey
from duoidal_kit.spans import Globe, arrow_globe, identity_globe
from duoidal_kit.tamarkin import (
    CatValuedFunctor,
    EnrichedGraphCategory,
    cat_valued_functor,
    categories_from_und_monoid,
    check_transformation,
    factorization_from_monoid,
    graph_family,
    hom_family_of,
    monoid_from_factorization,
    object_functor,
    object_functor_of,
    pullback_family,
    tamarkin_fiber,
)


def pair_functor(f, g, name="pair"):
    par = parallel_pair_cat()
    return cat_valued_functor(par, {"0": f.src, "1": f.tgt}, {"u": f, "w": g}, name=name)


@pytest.fixture(scope="module")
def id_bz2_pair():
    bz2 = bz2_cat()
    return pair_functor(identity_functor(bz2), identity_functor(bz2), name="id_bz2")


def test_object_functor_validation():
    arr = arrow_cat()
    with pytest.raises(ValidationError):
        object_functor(arr, {"0": ["a"], "1": ["b"]}, {"a": {"a": "MISSING"}, "id_0": {"a": "a"}, "id_1": {"b": "b"}})


CH3_SETS = {"0": ["a", "b"], "1": ["c"], "2": ["e", "f"]}
CH3_MAPS = {
    "id_0": {"a": "a", "b": "b"},
    "id_1": {"c": "c"},
    "id_2": {"e": "e", "f": "f"},
    "f01": {"a": "c", "b": "c"},
    "f12": {"c": "e"},
    "f02": {"a": "e", "b": "e"},
}


@pytest.mark.parametrize(
    "patch, fault",
    [
        ({"id_0": {"a": "b", "b": "a"}}, "object functor: identities not preserved at 0"),
        ({"f02": {"a": "f", "b": "f"}}, "object functor: composition not preserved at (f01, f12)"),
    ],
)
def test_object_functor_rejects_a_broken_functor_law(patch, fault):
    ch3 = composable_pair_cat()
    assert object_functor(ch3, CH3_SETS, CH3_MAPS).map_of("f02") == {"a": "e", "b": "e"}
    with pytest.raises(ValidationError, match=re.escape(fault)):
        object_functor(ch3, CH3_SETS, {**CH3_MAPS, **patch})


@pytest.mark.parametrize(
    "patch, fault",
    [
        ({"id_1": "s"}, "functor F: identities not preserved at 1"),
        ({"f02": "s"}, "functor F: composition not preserved at (f01, f12)"),
    ],
)
def test_cat_functor_rejects_a_broken_functor_law(patch, fault):
    ch3, bz2 = composable_pair_cat(), bz2_cat()
    objects = {x: "*" for x in ch3.objects}
    good = {"id_0": "id_*", "id_1": "id_*", "id_2": "id_*", "f01": "s", "f12": "s", "f02": "id_*"}
    assert CatFunctor("F", ch3, bz2, objects, good).on_arr("f02") == "id_*"
    with pytest.raises(ValidationError, match=re.escape(fault)):
        CatFunctor("F", ch3, bz2, objects, {**good, **patch})


@pytest.mark.parametrize(
    "objects, arrows, fault",
    [
        ({"0": None}, {}, "no image for object 0"),
        ({"0": "3"}, {}, "no image for object 0"),
        ({}, {"f12": None}, "no image for arrow f12"),
        ({}, {"f02": "f2"}, "no image for arrow f02"),
        ({}, {"f01": "f12"}, "ill-typed image of f01"),
        ({"2": "1"}, {"id_2": "id_1"}, "ill-typed image of f12"),
    ],
)
def test_cat_functor_rejects_a_missing_or_ill_typed_image(objects, arrows, fault):
    """The identity functor of the composable pair 0 -> 1 -> 2 with its
    tables patched; a patch to None drops the entry."""
    ch3 = composable_pair_cat()

    def patched(table, patch):
        return {k: v for k, v in ({k: k for k in table} | patch).items() if v is not None}

    with pytest.raises(ValidationError) as err:
        CatFunctor("F", ch3, ch3, patched(ch3.objects, objects), patched(ch3.arrows, arrows))
    assert str(err.value) == f"functor F: {fault}"


def test_natural_transformations_need_a_parallel_pair():
    F, G = identity_functor(composable_pair_cat()), identity_functor(bz2_cat())
    with pytest.raises(ValidationError) as err:
        natural_transformations(F, G)
    assert str(err.value) == "natural transformations need a parallel functor pair"


def test_cat_valued_functor_checks_both_functor_laws():
    bz2, ch3 = bz2_cat(), composable_pair_cat()
    collapse = CatFunctor("collapse", bz2, bz2, {"*": "*"}, {"id_*": "id_*", "s": "id_*"})
    # an idempotent endofunctor is not the identity functor
    with pytest.raises(ValidationError, match=re.escape("pt: identities not preserved at *")):
        cat_valued_functor(cat_one(), {"*": bz2}, {"id_*": collapse}, name="pt")
    values = {x: bz2 for x in ch3.objects}
    ident = identity_functor(bz2)
    cat_valued_functor(ch3, values, {"f01": collapse, "f12": ident, "f02": collapse}, name="ch")
    with pytest.raises(ValidationError, match=re.escape("ch: composition not preserved at (f01, f12)")):
        cat_valued_functor(ch3, values, {"f01": ident, "f12": ident, "f02": collapse}, name="ch")


def test_hom_fiber_is_the_function_family_product(id_bz2_pair):
    J = EnrichedGraphCategory(object_functor_of(id_bz2_pair))
    M = (hom_family_of(id_bz2_pair),)
    h = J.hom_obj(M, M)
    g = Globe("0", "1", "u", "w")
    # one object pair, homs of size 2: 2^2 = 4 function families
    assert len(J.D.fiber(h, g)) == 4
    # the unit family has singleton diagonal fibers, so hom from it counts targets
    h0 = J.hom_obj((), M)
    assert len(J.D.fiber(h0, g)) == 2


def test_eta_unit_law_and_word_fibers(id_bz2_pair):
    J = EnrichedGraphCategory(object_functor_of(id_bz2_pair))
    M = (hom_family_of(id_bz2_pair),)
    assert J.odot(J.eta, M) == M == J.odot(M, J.eta)
    # matrix product over the one-object value category: sizes multiply
    fib = J.word_fiber(J.odot(M, M), "0", "*", "*")
    assert len(fib) == 4
    # boolean-style count: fibers of a 2x2 family square
    arr = arrow_cat()
    O = object_functor(
        arr,
        {"0": ["a", "b"], "1": ["a", "b"]},
        {"a": {"a": "a", "b": "b"}, "id_0": {"a": "a", "b": "b"}, "id_1": {"a": "a", "b": "b"}},
    )
    J2 = EnrichedGraphCategory(O)
    E = (graph_family("E", {"0": {("a", "a"): ("x",), ("a", "b"): ("y",)}, "1": {}}),)
    F = (graph_family("F", {"0": {("a", "b"): ("z",), ("b", "b"): ("w",)}, "1": {}}),)
    fib = J2.word_fiber(J2.odot(E, F), "0", "a", "b")
    # matrix count: E(a,a)F(a,b) + E(a,b)F(b,b)
    assert len(fib) == 2


def test_hom_objects_know_their_ends(id_bz2_pair):
    J = EnrichedGraphCategory(object_functor_of(id_bz2_pair))
    K = CartesianSelfEnriched(CartesianFinSet())
    for C, x in ((J, (hom_family_of(id_bz2_pair),)), (K, (atom_letter("x", ["p", "q"]),))):
        xx = C.odot(x, x)
        for a, b in ((x, x), (C.eta, x), (x, C.eta), (C.eta, C.eta), (xx, x), (list(x), list(xx))):
            assert C.ends(C.hom_obj(a, b)) == (tuple(a), tuple(b))
        # so underlying maps compose and tensor with no objects named
        unit = C.unit_map(x)
        assert C.D.cod(und_compose(C, unit, unit)) == C.hom_obj(x, x)
        assert C.D.cod(hom_tensor(C, unit, C.unit_map(C.eta))) == C.hom_obj(x, x)
        assert C.D.cod(hom_tensor(C, unit, unit)) == C.hom_obj(xx, xx)


def test_monoid_from_factorization_passes_axioms(id_bz2_pair):
    M = monoid_from_factorization(id_bz2_pair)
    rep = check_k_category(sigma(M))
    assert rep.all_passed, rep.render()


def test_factorization_round_trip(id_bz2_pair):
    corpus = [id_bz2_pair]
    bz2 = bz2_cat()
    collapse = CatFunctor("collapse", bz2, bz2, {"*": "*"}, {"id_*": "id_*", "s": "id_*"})
    corpus.append(pair_functor(identity_functor(bz2), collapse, name="idc"))
    one = cat_one()
    corpus.append(cat_valued_functor(one, {"*": bz2}, {}, name="point"))
    ch3 = composable_pair_cat()
    arr = arrow_cat()
    emb01 = CatFunctor("emb01", arr, ch3, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "f01"})
    emb12 = CatFunctor("emb12", arr, ch3, {"0": "1", "1": "2"}, {"id_0": "id_1", "id_1": "id_2", "a": "f12"})
    corpus.append(pair_functor(emb01, emb12, name="embs"))
    corpus.append(cat_valued_functor(one, {"*": ch3}, {}, name="chain_pt"))
    assert len(corpus) >= 5
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
        # level-two data (no u) rebuilds the categories alone
        cats = categories_from_und_monoid(M.carrier, M.mu_bar, M.nu_bar, M.K)
        for a in F.base.objects:
            assert cats[a].identities == F.value(a).identities


def test_pullback_functoriality():
    arr = arrow_cat()
    O2 = object_functor(
        arr,
        {"0": ["a", "b"], "1": ["a", "b"]},
        {"a": {"a": "a", "b": "b"}, "id_0": {"a": "a", "b": "b"}, "id_1": {"a": "a", "b": "b"}},
    )
    O1 = object_functor(
        arr,
        {"0": ["s"], "1": ["s"]},
        {"a": {"s": "s"}, "id_0": {"s": "s"}, "id_1": {"s": "s"}},
    )
    phi = check_transformation(O1, O2, {"0": {"s": "a"}, "1": {"s": "a"}})
    E = graph_family("E", {"0": {("a", "a"): ("x",), ("a", "b"): ("y",), ("b", "b"): ("z",)}, "1": {}})
    back = pullback_family(phi, O1, E)
    assert back.fiber("0", "s", "s") == ("x",)
    # identity transformation pulls back to the identity
    ident = check_transformation(O2, O2, {"0": {"a": "a", "b": "b"}, "1": {"a": "a", "b": "b"}})
    assert pullback_family(ident, O2, E).fibers == E.fibers
    # contravariant composition order
    psi = check_transformation(O1, O1, {"0": {"s": "s"}, "1": {"s": "s"}})
    comp = {a: {x: phi[a][psi[a][x]] for x in ["s"]} for a in ("0", "1")}
    lhs = pullback_family(psi, O1, pullback_family(phi, O1, E))
    rhs = pullback_family(comp, O1, E)
    assert lhs.fibers == rhs.fibers
    with pytest.raises(ValidationError):
        check_transformation(O1, O2, {"0": {"s": "a"}, "1": {"s": "b"}})


def pullback_hom_element(phi, O1, globe, elem):
    """Reindex one hom-family element along the transformation."""
    table = dict(elem)
    out = []
    for b1 in O1.set_of(globe.a):
        for b2 in O1.set_of(globe.a):
            src_graph = dict(table[(phi[globe.a][b1], phi[globe.a][b2])])
            out.append(((b1, b2), tuple(sorted(src_graph.items(), key=lambda p: skey(p[0])))))
    return tuple(out)


def test_pullback_reindexes_hom_elements():
    arr = arrow_cat()
    O2 = object_functor(
        arr,
        {"0": ["a", "b"], "1": ["a", "b"]},
        {"a": {"a": "a", "b": "b"}, "id_0": {"a": "a", "b": "b"}, "id_1": {"a": "a", "b": "b"}},
    )
    O1 = object_functor(
        arr,
        {"0": ["s"], "1": ["s"]},
        {"a": {"s": "s"}, "id_0": {"s": "s"}, "id_1": {"s": "s"}},
    )
    phi = check_transformation(O1, O2, {"0": {"s": "b"}, "1": {"s": "b"}})
    globe = arrow_globe(arr, "a")
    elem = tuple(
        ((x, y), ((f"in_{x}{y}", f"out_{x}{y}"),)) for x in ("a", "b") for y in ("a", "b")
    )
    out = pullback_hom_element(phi, O1, globe, elem)
    assert out == ((("s", "s"), (("in_bb", "out_bb"),)),)


def test_tamarkin_fiber_matches_natural_transformations():
    par = parallel_pair_cat()
    hits = 0
    for F0, G0 in functor_pair_corpus():
        FV = cat_valued_functor(par, {"0": F0.src, "1": F0.tgt}, {"u": F0, "w": G0}, name="p")
        globe = Globe("0", "1", "u", "w")
        fams, tot = tamarkin_fiber(FV, globe, N=2, bound=3)
        nat = natural_transformations(F0, G0)
        assert len(fams) == len(nat)
        assert tot.stabilized_from == 1
        fams_u, _ = tamarkin_fiber(FV, globe, weights=ordinal_weights(), N=2, bound=3)
        expected = 1
        for a in F0.src.objects:
            expected *= len(F0.tgt.hom(F0.on_obj(a), G0.on_obj(a)))
        assert len(fams_u) == expected
        hits += 1
    assert hits >= 10


def test_tamarkin_fiber_computes_at_the_level_asked_for(id_bz2_pair):
    globe = Globe("0", "1", "u", "w")
    fams, tot = tamarkin_fiber(id_bz2_pair, globe, weights=ordinal_weights(5), N=5, bound=6)
    assert tot.N == 5 and tot.stabilized_from == 1
    assert len(fams) == len(tamarkin_fiber(id_bz2_pair, globe, weights=ordinal_weights(), N=2, bound=3)[0])
    with pytest.raises(ValueError, match="exceeds operad bound"):
        tamarkin_fiber(id_bz2_pair, globe, weights=ordinal_weights(5), N=5, bound=3)
    assert tamarkin_fiber(id_bz2_pair, globe, N=7, bound=8)[1].N == 7  # the default weights reach level 7


def _load_pair_bz2():
    path = Path(__file__).resolve().parent.parent / "corpus" / "pair_bz2_functor.json"
    return cat_valued_functor_from_doc(load_document(path))


def _fields(tot):
    return tot.weights, tot.N, tot.families, tot.by_level, tot.stabilized, tot.stabilized_from


def test_tamarkin_fiber_builds_one_complex_per_functor():
    """Both weight systems on one functor share its (J, X); a repeated call
    applies no map again, a call that raises leaves nothing behind, and the
    results equal those on fresh functors."""
    F, globe = _load_pair_bz2(), Globe("0", "1", "u", "w")
    assert not F.complexes
    const = tamarkin_fiber(F, globe, N=2, bound=3)
    ordinal = tamarkin_fiber(F, globe, weights=ordinal_weights(), N=2, bound=3)
    assert list(F.complexes) == [(2, 3)]
    J, X = F.complexes[2, 3]
    sizes = len(X.coface_images), len(X.codegeneracy_images)
    again = tamarkin_fiber(F, globe, N=2, bound=3)
    assert (len(X.coface_images), len(X.codegeneracy_images)) == sizes and F.complexes[2, 3][1] is X
    assert _fields(again[1]) == _fields(const[1])
    with pytest.raises(ValueError, match="exceeds operad bound"):
        tamarkin_fiber(F, globe, weights=ordinal_weights(5), N=5, bound=3)
    assert list(F.complexes) == [(2, 3)]
    assert tamarkin_fiber(F, globe, weights=ordinal_weights(5), N=5, bound=6)[1].stabilized_from == 1
    fresh_const = tamarkin_fiber(_load_pair_bz2(), globe, N=2, bound=3)
    fresh_ordinal = tamarkin_fiber(_load_pair_bz2(), globe, weights=ordinal_weights(), N=2, bound=3)
    assert const[0] == fresh_const[0] and _fields(const[1]) == _fields(fresh_const[1])
    assert ordinal[0] == fresh_ordinal[0] and _fields(ordinal[1]) == _fields(fresh_ordinal[1])
    # the memo takes no part in equality or hashing
    assert F == dataclasses.replace(F) and hash(F) == hash(dataclasses.replace(F))


def test_tamarkin_point_base_is_the_center(id_bz2_pair):
    # cat = 1 picking one category: the fiber over the identity globe is the
    # monoid of natural endotransformations of the identity functor
    one = cat_one()
    bz2 = bz2_cat()
    F = cat_valued_functor(one, {"*": bz2}, {}, name="idC")
    globe = identity_globe(one, "*")
    fams, tot = tamarkin_fiber(F, globe, N=2, bound=3)
    assert len(fams) == 2  # the center of the sign group has both elements
    arrow_pt = cat_valued_functor(one, {"*": arrow_cat()}, {}, name="arrow_pt")
    fams2, _ = tamarkin_fiber(arrow_pt, identity_globe(one, "*"), N=2, bound=3)
    assert len(fams2) == 1  # only the identity transformation on a poset


def test_four_centers_agree_elementwise():
    # the monoid center computed four ways: equalizer of the endomorphism
    # complex, totalization, tamarkin fiber over the point base, brute force
    from duoidal_kit.center import equalizer_center, totalize
    from duoidal_kit.finset import CartesianFinSet
    from duoidal_kit.kcat import CartesianSelfEnriched, k_monoid_from_monoid
    from duoidal_kit.monoids import cyclic
    from duoidal_kit.operads import cosimplicial_from_multiplicative, multiplicative_from_k_monoid

    m = cyclic(2)
    D = CartesianFinSet()
    K = CartesianSelfEnriched(D)
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=3)
    cen = equalizer_center(A)
    vals_eq = sorted(z[0][0][1][0] for z in cen.fibers[None])
    X = cosimplicial_from_multiplicative(A, 2)
    tot = totalize(D, X, constant_weights(), N=2)
    vals_tot = sorted(f[0][0][0][0][1][0] for f in tot.families[None])
    one = cat_one()
    sig = cat_valued_functor(one, {"*": __class_to_category(m)}, {}, name="sigma")
    fams, _ = tamarkin_fiber(sig, identity_globe(one, "*"), N=2, bound=3)
    vals_fib = sorted(_family_value(f) for f in fams)
    assert vals_eq == vals_tot == vals_fib == sorted(m.center())


def __class_to_category(m):
    from duoidal_kit.instances import finite_category

    compose = {}
    non_unit = [x for x in m.elements if x != m.unit]
    for a in non_unit:
        for b in non_unit:
            prod = m.mult(a, b)
            compose[(f"g{a}", f"g{b}")] = f"g{prod}" if prod != m.unit else "id_*"
    return finite_category(f"B({m.name})", ("*",), [(f"g{a}", "*", "*") for a in non_unit], compose)


def _family_value(fam):
    elem = fam[0][0]
    for (a1, a2), graph in elem:
        if a1 == a2 and graph:
            ((_, out),) = graph
            name = out[1][0]
            return 0 if name.startswith("id") else int(name[1:])
    raise AssertionError("no diagonal component")
