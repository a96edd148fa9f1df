import itertools

import pytest

from duoidal_kit.duoidal import chain
from duoidal_kit.finset import CartesianFinSet, CartMap, fn_eval, word_elements, word_enumerable
from duoidal_kit.instances import additive_instance, bool_lattice_instance
from duoidal_kit.kcat import (
    CartesianSelfEnriched,
    KMonoid,
    check_k_category,
    fn_elt_of,
    k_monoid_from_monoid,
    monoid_from_one_object,
    sigma,
)
from duoidal_kit.monoids import FreeWordMonoid, cyclic, full_transformation2, monoid_corpus, monoid_from_fn
from duoidal_kit.report import skey
from duoidal_kit.operads import (
    MultOperad,
    OneOperad,
    algebra_to_monoid,
    certify_cosimplicial_generic,
    check_cosimplicial_identities,
    check_eass_algebra,
    check_fass_algebra_diagrams,
    check_multiplicative,
    check_one_operad,
    coface,
    codegeneracy,
    cosimplicial_from_multiplicative,
    eass,
    end_operad,
    fass,
    hochschild_oracle_coface,
    hochschild_oracle_codegeneracy,
    multiplicative_from_k_monoid,
    und_monoid_to_eass_algebra,
)

D = CartesianFinSet()
K = CartesianSelfEnriched(D)


@pytest.fixture(scope="module")
def z2_monoid():
    return k_monoid_from_monoid(cyclic(2), K)


def test_k_monoid_axioms_for_corpus_sample():
    for m in (cyclic(2), cyclic(3), full_transformation2()):
        rep = check_k_category(sigma(k_monoid_from_monoid(m, K)))
        assert rep.all_passed, rep.render()
        assert {item.name: item.scope for item in rep.items} == {
            "composition associative": "1^4 tuples",
            "unit laws": "1^2 pairs",
            "u components are monoid morphisms": "1^2 pairs",
            "(***) compatibility per triple": "1^3 triples",
        }


def test_k_category_rejects_a_non_associative_multiplication():
    z2 = k_monoid_from_monoid(cyclic(2), K)
    squared = z2.carrier + z2.carrier
    nand = fn_elt_of(squared, lambda t: (1 - (t[0] & t[1]),))
    mu_bar = CartMap((), K.hom_obj(squared, z2.carrier), table={(): (nand,)})
    bad = KMonoid(K, z2.carrier, z2.nu_bar, mu_bar, z2.u, name="nand")
    rep = check_k_category(sigma(bad))
    failed = {item.name for item in rep.failures()}
    assert {"composition associative", "unit laws"} <= failed, rep.render()


def _t2_and_opposite():
    """t2 and its opposite monoid as K-monoids on the same carrier letter."""
    t2 = full_transformation2()
    op = monoid_from_fn("t2op", t2.elements, t2.unit, lambda a, b: t2.mult(b, a))
    M = k_monoid_from_monoid(t2, K)
    return M, k_monoid_from_monoid(op, K, letter=M.carrier[0])


def test_multiplicative_check_rejects_the_opposite_multiplication():
    M, M_op = _t2_and_opposite()
    A = multiplicative_from_k_monoid(M, bound=3)
    A_op = multiplicative_from_k_monoid(M_op, bound=3)
    assert check_multiplicative(A_op, bound=3).all_passed
    bad = MultOperad(A.base, {**A.m, 2: A_op.m[2]}, name="t2 with m(2) of t2op")
    rep = check_multiplicative(bad, bound=3)
    row = {i.name: i for i in rep.items}["operad morphism from the all-v operad"]
    assert rep.title == "multiplicative structure: t2 with m(2) of t2op (bound 3)"
    assert not row.passed and row.witness.startswith("(n=") and row.scope == "shapes within 3"
    assert rep.items[0].name == "unit compatibility" and rep.items[0].passed


def test_eass_algebra_check_rejects_the_opposite_multiplication():
    M, M_op = _t2_and_opposite()
    x = M.carrier
    kappa = und_monoid_to_eass_algebra(K, x, M.nu_bar, M.mu_bar, bound=3)
    kappa_op = und_monoid_to_eass_algebra(K, x, M_op.nu_bar, M_op.mu_bar, bound=3)
    rep = check_eass_algebra(K, x, {**kappa, 2: kappa_op[2]}, bound=3)
    assert rep.title == "all-e algebra structure"
    assert [i.name for i in rep.items] == ["unit component", "operad morphism property"]
    row = rep.items[1]
    assert not row.passed and row.witness.startswith("(n=") and row.scope == "shapes within 3"


def test_sigma_round_trip():
    M = k_monoid_from_monoid(cyclic(3), K)
    C = sigma(M)
    assert check_k_category(C).all_passed
    M2 = monoid_from_one_object(C)
    assert M2.carrier == M.carrier
    assert D.maps_equal(M2.mu_bar, M.mu_bar)
    assert D.maps_equal(M2.nu_bar, M.nu_bar)


def test_underlying_hom_sizes():
    # one-point homs for the unit object; the function count in general
    assert len(D.hom(D.e, K.hom_obj((), ()))) == 1
    M = k_monoid_from_monoid(cyclic(2), K).carrier
    assert len(D.hom(D.e, K.hom_obj(M, M))) == 4


@pytest.mark.parametrize("make", [fass, eass], ids=["fass", "eass"])
def test_named_operads_pass_axioms(make):
    for inst in (D, bool_lattice_instance(), additive_instance(cyclic(2))):
        A = make(inst, bound=3)
        rep = check_one_operad(A, bound=3, max_assoc_total=3)
        assert rep.all_passed, (getattr(inst, "name", "cartesian"), rep.render())


def test_end_operad_axioms_and_substitution(z2_monoid):
    A = end_operad(K, z2_monoid.carrier, bound=3)
    rep = check_one_operad(A, bound=2, max_assoc_total=2)
    assert rep.all_passed, rep.render()
    # gamma is literally function substitution
    g = A.gamma(2, (1, 1))
    f_el = (((0,), (1,)), ((1,), (0,)))
    id_el = (((0,), (0,)), ((1,), (1,)))
    mul = tuple(((a, b), ((a + b) % 2,)) for a in (0, 1) for b in (0, 1))
    out = g.apply((f_el, id_el, mul))[0]
    want = tuple(((a, b), ((a + 1 + b) % 2,)) for a in (0, 1) for b in (0, 1))
    assert out == want


def test_corrupted_gamma_is_reported():
    inst = additive_instance(cyclic(2))
    good = fass(inst, bound=3)

    def bad_gamma(n, ks):
        if (n, ks) == (2, (1, 1)):
            return "a1"
        return good.gamma(n, ks)

    from duoidal_kit.operads import OneOperad

    bad = OneOperad(inst, "fass_bad", lambda n: "*", bad_gamma, inst.iota(), has_zero=True, bound=3)
    rep = check_one_operad(bad, bound=3, max_assoc_total=3)
    row = {i.name: i for i in rep.items}["associativity"]
    assert not row.passed and row.witness


def test_multiplicative_structure(z2_monoid):
    A = multiplicative_from_k_monoid(z2_monoid, bound=4)
    assert check_multiplicative(A, bound=3).all_passed


def test_algebra_diagrams_d1_to_d5():
    for m in (cyclic(2), full_transformation2()):
        rep = check_fass_algebra_diagrams(k_monoid_from_monoid(m, K))
        assert rep.all_passed, rep.render()
        assert [i.name for i in rep.items] == ["(d1)", "(d2)", "(d3)", "(d4)", "(d5)"]


def test_monoid_algebra_round_trip():
    for m in (cyclic(3), full_transformation2()):
        M = k_monoid_from_monoid(m, K)
        A = multiplicative_from_k_monoid(M, bound=3)
        M2 = algebra_to_monoid(A, K, M.carrier, name=m.name)
        assert D.maps_equal(M2.nu_bar, M.nu_bar)
        assert D.maps_equal(M2.mu_bar, M.mu_bar)
        assert D.maps_equal(M2.u, M.u)
        # and back: the induced multiplicative structures agree levelwise
        A2 = multiplicative_from_k_monoid(M2, bound=3)
        for n in range(4):
            assert D.maps_equal(A2.m[n], A.m[n])


def test_cofaces_match_oracle_extensionally_small():
    m = cyclic(2)
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=4)
    for n in range(0, 3):
        for i in range(n + 2):
            assert D.maps_equal(coface(A, n, i), hochschild_oracle_coface(m, K, n, i, carrier=M.carrier))
        if n >= 1:
            for i in range(n):
                assert D.maps_equal(
                    codegeneracy(A, n - 1, i),
                    hochschild_oracle_codegeneracy(m, K, n - 1, i, carrier=M.carrier),
                )


def test_a_substituting_coface_computes_its_constant_inner_tensor_once():
    m = cyclic(3)
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=3)
    d = coface(A, 1, 1)
    # the feed of gamma is the tensor of m(2) in the inner slot with A(1)'s identity
    feed, _ = d.parts[1:]
    inner, ident = feed.parts[2]
    assert feed.parts[0] == "tensor" and ident.parts == ("id",) and not inner.dom
    oracle = hochschild_oracle_coface(m, K, 1, 1, carrier=M.carrier)
    points = word_elements(d.dom)[:2]
    for point in points:
        assert d.apply(point) == oracle.apply(point)
    assert d.apply(points[0]) != d.apply(points[1])
    assert list(inner._memo) == [()]


def test_commutative_monoid_has_equal_outer_cofaces():
    M = k_monoid_from_monoid(cyclic(3), K)
    A = multiplicative_from_k_monoid(M, bound=3)
    assert D.maps_equal(coface(A, 0, 0), coface(A, 0, 1))


def test_noncommutative_monoid_distinguishes_outer_cofaces():
    M = k_monoid_from_monoid(full_transformation2(), K)
    A = multiplicative_from_k_monoid(M, bound=3)
    assert not D.maps_equal(coface(A, 0, 0), coface(A, 0, 1))


def test_cosimplicial_identities_small_monoids():
    # extensional spot checks; the generic certificate covers deeper levels
    for m, levels in ((cyclic(2), 2), (cyclic(3), 1)):
        A = multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=4)
        X = cosimplicial_from_multiplicative(A, levels)
        rep = check_cosimplicial_identities(X)
        assert rep.all_passed, (m.name, rep.render())


def test_generic_certificate_all_levels():
    rep = certify_cosimplicial_generic(4)
    assert rep.all_passed, rep.render()


def test_generic_certificate_detects_corruption():
    # swapping a codegeneracy for a coface must break the mixed identities
    from duoidal_kit.finset import FnElt
    from duoidal_kit.operads import _probe_function, _probe_point

    M = k_monoid_from_monoid(FreeWordMonoid(), K)
    A = multiplicative_from_k_monoid(M, bound=4)

    def value(map_, n_in, n_out):
        out = map_.apply((_probe_function(n_in),))[0]
        return fn_eval(out)(_probe_point(n_out))

    lhs = chain(D, coface(A, 0, 0), codegeneracy(A, 0, 0))
    rhs = chain(D, coface(A, 0, 1), codegeneracy(A, 0, 0))
    assert value(lhs, 0, 0) == value(rhs, 0, 0)  # both are the identity
    assert value(coface(A, 0, 0), 0, 1) != value(coface(A, 0, 1), 0, 1)


def test_fass_cosimplicial_is_trivial():
    inst = additive_instance(cyclic(2))
    A = MultOperad(fass(inst, bound=4), {n: inst.identity(inst.v) for n in range(5)}, name="fass")
    assert check_multiplicative(A, bound=3).all_passed
    X = cosimplicial_from_multiplicative(A, 2)
    assert check_cosimplicial_identities(X).all_passed
    for n in range(2):
        for i in range(n + 2):
            assert X.d(n, i) == "a0"  # every structure map is the unit arrow


def _canonical(graph):
    return tuple(sorted(graph, key=lambda pair: skey(pair[0])))


def test_graphs_are_built_in_canonical_order():
    # the graphs A(0..2) lists, and those its structure maps build, equal
    # their skey-sorted forms for every corpus monoid
    for m in monoid_corpus():
        A = multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=2)
        built = [A.m[n].apply(())[0] for n in range(3)]
        built.append(A.base.gamma(2, (1, 1)).apply((built[1], built[1], built[2]))[0])
        for n in range(3):
            (letter,) = A.base.component(n)
            if letter.size() <= 20000:
                built.extend(letter.elements())
        for graph in built:
            assert graph == _canonical(graph), m.name


def test_memoized_gamma_agrees_with_a_fresh_one(z2_monoid, monkeypatch):
    shapes = ((2, (1, 1)), (1, (2,)))
    A = end_operad(K, z2_monoid.carrier, bound=2)
    memos = [A.gamma(n, ks) for n, ks in shapes]
    monkeypatch.setattr(type(K.D), "memoize", lambda self, f: f)  # the same gammas, storing nothing
    B = end_operad(K, z2_monoid.carrier, bound=2)
    for memo, (n, ks) in zip(memos, shapes):
        fresh = B.gamma(n, ks)
        assert fresh._memo is None
        points = word_elements(memo.dom)
        for x in points:
            assert memo.apply(x) == fresh.apply(x)
            assert memo.apply(x) == fresh.apply(x)  # now from the stored table
        assert len(memo._memo) == len(points)


def test_gammas_over_non_enumerable_domains_store_nothing(monkeypatch):
    # the generic certificate feeds FnElts, which hash by identity, to gamma
    built = []
    gamma = OneOperad.gamma

    def recording(self, n, ks):
        out = gamma(self, n, ks)
        built.append(out)
        return out

    monkeypatch.setattr(OneOperad, "gamma", recording)
    assert certify_cosimplicial_generic(2).all_passed
    lazy = [g for g in built if not word_enumerable(g.dom)]
    assert lazy and all(g._memo is None for g in lazy)


def test_check_one_operad_bound_zero_means_arity_zero(z2_monoid):
    rep = check_one_operad(end_operad(K, z2_monoid.carrier, bound=2), bound=0)
    assert rep.title.endswith("(arity bound 0)") and rep.all_passed
    rows = {i.name: i for i in rep.items}
    assert rows["unit law (inner)"].scope == "k <= 0"
    assert rows["associativity"].scope == "0 shapes within bound 0"


def test_check_multiplicative_bound_zero_means_zero(z2_monoid):
    A = multiplicative_from_k_monoid(z2_monoid, bound=2)
    rep = check_multiplicative(A, bound=0)
    assert rep.title.endswith("(bound 0)") and rep.all_passed
    assert check_multiplicative(A).title.endswith("(bound 2)")


def test_max_assoc_total_zero_means_inner_total_zero(z2_monoid):
    A = end_operad(K, z2_monoid.carrier, bound=2)
    for limit, shapes in ((0, 9), (None, 35)):
        row = {i.name: i for i in check_one_operad(A, bound=2, max_assoc_total=limit).items}["associativity"]
        assert row.passed and row.scope == f"{shapes} shapes within bound 2", row.scope
