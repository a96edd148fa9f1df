"""Operads valued in the globe-indexed instance, against direct oracles."""

import itertools

import pytest

from duoidal_kit.fincat import identity_functor
from duoidal_kit.finset import CartesianFinSet
from duoidal_kit.instances import bz2_cat, parallel_pair_cat
from duoidal_kit.kcat import CartesianSelfEnriched, k_monoid_from_monoid
from duoidal_kit.monoids import cyclic, full_transformation2
from duoidal_kit.operads import (
    algebra_hom_elements,
    check_eass_algebra,
    check_one_operad,
    end_operad,
    fass,
    multiplicative_from_k_monoid,
    und_monoid_to_eass_algebra,
)
from duoidal_kit.spans import Globe, SpanDuoidal, vcompose, hcompose
from duoidal_kit.tamarkin import (
    EnrichedGraphCategory,
    cat_valued_functor,
    hom_family_of,
    monoid_from_factorization,
    object_functor_of,
)


@pytest.fixture(scope="module")
def jarka():
    par = parallel_pair_cat()
    bz2 = bz2_cat()
    F = cat_valued_functor(par, {"0": bz2, "1": bz2}, {"u": identity_functor(bz2), "w": identity_functor(bz2)}, name="j")
    J = EnrichedGraphCategory(object_functor_of(F))
    M = monoid_from_factorization(F, J)
    return F, J, M


def test_fass_over_the_span_instance(jarka):
    _, J, _ = jarka
    A = fass(J.D, bound=2)
    rep = check_one_operad(A, bound=2, max_assoc_total=2)
    assert rep.all_passed, rep.render()


def test_span_end_operad_passes_small():
    # the one-object base keeps the fibers small while driving the same
    # span-valued composition path
    from duoidal_kit.instances import cat_one

    one = cat_one()
    bz2 = bz2_cat()
    F = cat_valued_functor(one, {"*": bz2}, {}, name="pt")
    J = EnrichedGraphCategory(object_functor_of(F))
    M = monoid_from_factorization(F, J)
    A = end_operad(J, M.carrier, bound=2)
    rep = check_one_operad(A, bound=2, max_assoc_total=2)
    assert rep.all_passed, rep.render()


def test_span_gamma_satisfies_source_target_conditions(jarka):
    _, J, M = jarka
    D = J.D
    A = end_operad(J, M.carrier, bound=3)
    g = A.gamma(2, (1, 1))
    h1 = J.hom_obj(M.carrier, M.carrier)
    checked = 0
    for globe in D.support(g.dom):
        for el in D.fiber(g.dom, globe):
            (chain0, comps0) = el
            g_stack, g_out = chain0
            (inner_chain, _) = comps0[0]
            g1, g2 = inner_chain
            # vertical composability inside the stack, horizontal with the outer
            assert g1.g == g2.f and (g1.a, g1.b) == (g2.a, g2.b)
            assert g_stack.b == g_out.a  # T(G_i) = S(G)
            assert vcompose(g1, g2) == g_stack
            out = g.apply(globe, el)
            assert out in D.fiber(g.cod, globe)
            assert hcompose(D.cat, g_stack, g_out) == globe
            checked += 1
    assert checked > 0


def test_span_gamma_matches_family_substitution_oracle(jarka):
    F, J, M = jarka
    D = J.D
    O = J.O
    A = end_operad(J, M.carrier, bound=3)
    g = A.gamma(2, (1, 1))
    m2 = J.odot(M.carrier, M.carrier)
    for globe in D.support(g.dom):
        for el in D.fiber(g.dom, globe):
            (chain0, comps0) = el
            g_stack, g_out = chain0
            (inner_chain, inner_comps) = comps0[0]
            g1, g2 = inner_chain
            fam1 = {pair: dict(rows) for pair, rows in inner_comps[0]}
            fam2 = {pair: dict(rows) for pair, rows in inner_comps[1]}
            psi = {pair: dict(rows) for pair, rows in comps0[1]}
            f1 = O.map_of(g1.f)
            q1 = O.map_of(g1.g)
            q2 = O.map_of(g2.g)
            expected = []
            for a1 in O.set_of(globe.a):
                for a2 in O.set_of(globe.a):
                    rows = []
                    for path, comps in J.word_fiber(m2, globe.a, a1, a2):
                        mid = path[1]
                        left = fam1[(a1, mid)][((a1, mid), (comps[0],))]
                        right = fam2[(mid, a2)][((mid, a2), (comps[1],))]
                        shifted = (
                            (f1[a1], q1[mid], q2[a2]),
                            (left[1][0], right[1][0]),
                        )
                        rows.append(((path, comps), psi[(f1[a1], q2[a2])][shifted]))
                    expected.append(((a1, a2), tuple(rows)))
            assert g.apply(globe, el) == tuple(expected)


def test_eass_algebra_round_trip():
    D = CartesianFinSet()
    K = CartesianSelfEnriched(D)
    for m in (cyclic(2), cyclic(3), full_transformation2()):
        M = k_monoid_from_monoid(m, K)
        kappa = und_monoid_to_eass_algebra(K, M.carrier, M.nu_bar, M.mu_bar, bound=3)
        rep = check_eass_algebra(K, M.carrier, kappa, bound=3)
        assert rep.all_passed, (m.name, rep.render())
        nu, mu = kappa[0], kappa[2]
        assert D.maps_equal(nu, M.nu_bar) and D.maps_equal(mu, M.mu_bar)
        rebuilt = und_monoid_to_eass_algebra(K, M.carrier, nu, mu, bound=3)
        for n in range(4):
            assert D.maps_equal(rebuilt[n], kappa[n])


def test_algebra_hom_set_is_the_monoid_morphism_set():
    D = CartesianFinSet()
    K = CartesianSelfEnriched(D)
    m = cyclic(2)
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=3)
    homs = algebra_hom_elements(K, M.carrier, M.carrier, A.m, A.m, bound=3)
    values = set()
    for phi in homs:
        el = phi.apply(())[0]
        values.add(tuple(out[0] for _, out in el))
    # brute force: unital multiplicative self-maps of the two-element group
    brute = set()
    for outs in itertools.product(m.elements, repeat=2):
        table = dict(zip(m.elements, outs))
        if table[m.unit] != m.unit:
            continue
        if all(table[m.mult(a, b)] == m.mult(table[a], table[b]) for a in m.elements for b in m.elements):
            brute.add(outs)
    assert values == brute
