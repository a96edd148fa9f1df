import itertools

import pytest

from duoidal_kit import center
from duoidal_kit.center import (
    InternalConsistencyError,
    center_of_monoid,
    constant_weights,
    duoid_on_center,
    equalizer_center,
    mult0_variants,
    ordinal_weights,
    reversed_ordinal_weights,
    totalize,
)
from duoidal_kit.duoidal import check_duoid_axioms
from duoidal_kit.finset import CartesianFinSet, atom_letter
from duoidal_kit.kcat import CartesianSelfEnriched, k_monoid_from_monoid
from duoidal_kit.monoids import cyclic, full_transformation2, left_zero_plus_unit, monoid_corpus
from duoidal_kit.operads import (
    CosimplicialObject,
    cosimplicial_from_multiplicative,
    multiplicative_from_k_monoid,
)
from duoidal_kit.report import SizeError

D = CartesianFinSet()
K = CartesianSelfEnriched(D)


def monoid_value(level0_element):
    return level0_element[0][0][1][0]


def center_values(cen):
    return sorted((monoid_value(z) for z in cen.fibers[None]), key=repr)


def test_center_matches_brute_force_everywhere():
    for m in monoid_corpus():
        cen, tot = center_of_monoid(k_monoid_from_monoid(m, K), N=1)
        assert center_values(cen) == sorted(m.center(), key=repr), m.name


def test_center_of_transformation_monoid_is_trivial():
    cen, _ = center_of_monoid(k_monoid_from_monoid(full_transformation2(), K))
    assert center_values(cen) == ["id"]


def test_center_of_unit_monoid_is_the_unit_hom():
    # the unit object is a monoid; its center is the full endomorphism hom
    from duoidal_kit.kcat import KMonoid

    unit_monoid = KMonoid(K, (), K.unit_map(()), K.unit_map(()), K.unit_map(()), name="eta")
    cen = equalizer_center(multiplicative_from_k_monoid(unit_monoid, bound=3))
    assert len(cen.fibers[None]) == 1


def test_totalize_constant_weights_is_the_equalizer_and_stabilizes():
    for m in (cyclic(4), full_transformation2()):
        M = k_monoid_from_monoid(m, K)
        A = multiplicative_from_k_monoid(M, bound=4)
        X = cosimplicial_from_multiplicative(A, 2)
        tot = totalize(D, X, constant_weights(), N=2)
        assert tot.stabilized and tot.stabilized_from == 1
        cen = equalizer_center(A)
        assert sorted((f[0][0] for f in tot.families[None]), key=repr) == sorted(
            cen.fibers[None], key=repr
        )


def test_totalize_constant_on_a_constant_object_gives_level_zero():
    # constant cosimplicial object: every level the same, all maps identities
    X0 = (atom_letter("c", ["x", "y", "z"]),)
    ident = D.identity(X0)
    X = CosimplicialObject(
        D,
        {n: X0 for n in range(4)},
        {(n, i): ident for n in range(3) for i in range(n + 2)},
        {(n, i): ident for n in range(3) for i in range(n + 1)},
        2,
    )
    tot = totalize(D, X, constant_weights(), N=2)
    assert len(tot.families[None]) == 3 and tot.stabilized


def test_restrictions_injective_once_stabilized():
    M = k_monoid_from_monoid(cyclic(3), K)
    A = multiplicative_from_k_monoid(M, bound=4)
    X = cosimplicial_from_multiplicative(A, 3)
    tot = totalize(D, X, constant_weights(), N=3)
    assert tot.stabilized
    for k in range(tot.stabilized_from, 3):
        later = tot.by_level[None][k + 1]
        prefixes = [fam[: k + 1] for fam in later]
        assert len(set(prefixes)) == len(later)


def test_duoid_on_center_passes_and_is_coface_independent():
    for m in (cyclic(3), full_transformation2(), left_zero_plus_unit(2, "lz3")):
        M = k_monoid_from_monoid(m, K)
        A = multiplicative_from_k_monoid(M, bound=4)
        duoid, cen = duoid_on_center(A, name=f"Z({m.name})")
        assert check_duoid_axioms(D, duoid).all_passed
        variants = mult0_variants(A, cen)
        base = variants[(0, 0)]
        assert all(D.maps_equal(base, v) for v in variants.values())


def test_duoid_on_center_collapses_to_the_multiplication_when_commutative():
    m = cyclic(3)
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=4)
    duoid, cen = duoid_on_center(A)
    # both multiplications restrict the monoid multiplication to Z(M) = M
    for z1 in cen.fibers[None]:
        for z2 in cen.fibers[None]:
            a, b = monoid_value(z1), monoid_value(z2)
            out0 = duoid.mult0.apply((z1, z2))
            out1 = duoid.mult1.apply((z1, z2))
            assert monoid_value(out0[0]) == m.mult(a, b)
            assert monoid_value(out1[0]) == m.mult(a, b)


def test_lax_and_colax_weights():
    lax = ordinal_weights()
    colax = reversed_ordinal_weights()
    assert len(lax.level(0)) == 1  # singleton-based weight at the bottom

    def families(m, weights):
        M = k_monoid_from_monoid(m, K)
        A = multiplicative_from_k_monoid(M, bound=4)
        X = cosimplicial_from_multiplicative(A, 2)
        return totalize(D, X, weights, N=2)

    # noncommutative: the two orientations produce different family sets
    noncomm = left_zero_plus_unit(2, "lz3")
    t_lax = families(noncomm, lax)
    t_colax = families(noncomm, colax)
    assert set(t_lax.families[None]) != set(t_colax.families[None])
    # commutative: both agree with each other and with the classical center
    comm = cyclic(3)
    t_lax = families(comm, lax)
    t_colax = families(comm, colax)
    assert set(t_lax.families[None]) == set(t_colax.families[None])
    proj = sorted((monoid_value(f[0][0]) for f in t_lax.families[None]), key=repr)
    assert proj == sorted(comm.center(), key=repr)


def test_ordinal_weights_give_unconstrained_families():
    m = full_transformation2()
    M = k_monoid_from_monoid(m, K)
    A = multiplicative_from_k_monoid(M, bound=4)
    X = cosimplicial_from_multiplicative(A, 2)
    tot = totalize(D, X, ordinal_weights(), N=2)
    assert len(tot.families[None]) == len(m.elements)


def test_totalize_rejects_level_zero():
    M = k_monoid_from_monoid(cyclic(2), K)
    A = multiplicative_from_k_monoid(M, bound=3)
    X = cosimplicial_from_multiplicative(A, 2)
    with pytest.raises(ValueError):
        totalize(D, X, constant_weights(), N=0)
    X3 = cosimplicial_from_multiplicative(multiplicative_from_k_monoid(M, bound=4), 3)
    with pytest.raises(ValueError, match="weights only defined to level 3"):
        totalize(D, X3, constant_weights(N=2), N=3)


def _edge_weights(N=1):
    """The cosimplicial set of monotone maps [1] -> [n], as pairs a <= b:
    the edge (0, 1) of level 1 is hit by no coface, so it is a free slot."""

    def level(n):
        return tuple((a, b) for a in range(n + 1) for b in range(a, n + 1))

    def along(f, points):
        return {p: tuple(map(f, p)) for p in points}

    return CosimplicialObject(
        None,
        {n: level(n) for n in range(N + 2)},
        {(n, i): along(lambda k, i=i: k + (k >= i), level(n)) for n in range(N + 1) for i in range(n + 2)},
        {(n, i): along(lambda k, i=i: k - (k > i), level(n + 1)) for n in range(N + 1) for i in range(n + 1)},
        N,
        "edges",
    )


def _z2_hochschild():
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(cyclic(2), K), bound=3)
    return cosimplicial_from_multiplicative(A, 1)


def test_free_weight_slots_are_filled_as_brute_force_finds():
    delta, X = _edge_weights(), _z2_hochschild()
    pts0, pts1 = delta.level(0), delta.level(1)
    hit = {delta.d(0, i)[u] for i in range(2) for u in pts0}
    assert [w for w in pts1 if w not in hit] == [(0, 1)]

    def compatible(x0, x1):
        at0, at1 = dict(zip(pts0, x0)), dict(zip(pts1, x1))
        cofaces = all(X.d(0, i).apply(at0[u]) == at1[delta.d(0, i)[u]] for i in range(2) for u in pts0)
        return cofaces and all(X.s(0, 0).apply(at1[w]) == at0[delta.s(0, 0)[w]] for w in pts1)

    level0, level1 = D.fiber(X.level(0), None), D.fiber(X.level(1), None)
    brute = {
        (x0, x1)
        for x0 in itertools.product(level0, repeat=len(pts0))
        for x1 in itertools.product(level1, repeat=len(pts1))
        if compatible(x0, x1)
    }
    snapshots = center._families_at(D, X, delta, 1, None)
    assert set(snapshots[1]) == brute and len(snapshots[1]) == len(brute) > 0
    # the free slot takes more than one value, so it is enumerated, not forced
    assert len({x1[pts1.index((0, 1))] for _, x1 in brute}) > 1


def test_free_weight_slots_respect_the_enumeration_cap(monkeypatch):
    delta, X = _edge_weights(), _z2_hochschild()
    choices = len(D.fiber(X.level(1), None))  # the pool of the one free slot
    monkeypatch.setattr(center, "_FREE_CAP", choices)
    assert center._families_at(D, X, delta, 1, None)[1]
    monkeypatch.setattr(center, "_FREE_CAP", choices - 1)
    with pytest.raises(SizeError, match="free weight slots"):
        center._families_at(D, X, delta, 1, None)


class _CountingFinSet(CartesianFinSet):
    """Cartesian finite sets that record every `apply_at` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def apply_at(self, f, key, elt):
        self.calls.append((id(f), key, elt))
        return super().apply_at(f, key, elt)


@pytest.mark.parametrize("weights", [constant_weights, ordinal_weights, reversed_ordinal_weights])
def test_totalize_applies_each_coface_and_codegeneracy_once_per_point(weights):
    """Every (map, point) pair reaches `apply_at` once: the families share the
    images of their points."""
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(cyclic(6), K), bound=4)
    X = cosimplicial_from_multiplicative(A, 3)
    counting = _CountingFinSet()
    tot = totalize(counting, X, weights(), N=3)
    assert tot.families == totalize(D, X, weights(), N=3).families
    assert len(counting.calls) == len(set(counting.calls)) > 0


def test_each_multiplication_stores_its_one_value():
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(cyclic(3), K), bound=4)
    totalize(D, cosimplicial_from_multiplicative(A, 3), ordinal_weights(), N=3)
    # the cofaces and codegeneracies use m(0), m(1) and m(2), each at v's one point
    assert [len(A.m[n]._memo) for n in range(5)] == [1, 1, 1, 0, 0]
    assert all(A.m[n].apply(()) is A.m[n].apply(()) for n in range(5))


def test_cofaces_and_codegeneracies_are_built_on_first_use_within_the_truncation():
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(cyclic(3), K), bound=4)
    X = cosimplicial_from_multiplicative(A, 3)
    assert not X.cofaces and not X.codegeneracies
    totalize(D, X, ordinal_weights(), N=X.N)
    # the truncation at N reads only the maps out of the levels below N
    built = set(X.cofaces) | set(X.codegeneracies)
    assert built and max(n for n, _ in built) == X.N - 1
    assert X.d(X.N, X.N + 1).dom == X.level(X.N) and X.s(X.N, X.N).cod == X.level(X.N)
    d = X.d(0, 1)
    assert X.d(0, 1) is d
    for n, i in [(X.N + 1, 0), (-1, 0), (0, 2), (0, -1), (X.N, X.N + 2)]:
        with pytest.raises(KeyError):
            X.d(n, i)
    for n, i in [(X.N + 1, 0), (-1, 0), (0, 1), (0, -1), (X.N, X.N + 1)]:
        with pytest.raises(KeyError):
            X.s(n, i)
    assert max(n for n, _ in X.cofaces) == max(n for n, _ in X.codegeneracies) == X.N
