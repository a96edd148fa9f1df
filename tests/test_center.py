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
from duoidal_kit.instances import functor_pair_corpus, parallel_pair_cat
from duoidal_kit.operads import (
    CosimplicialObject,
    cosimplicial_from_multiplicative,
    intern,
    multiplicative_from_k_monoid,
)
from duoidal_kit.report import Memo, SizeError
from duoidal_kit.spans import Globe
from duoidal_kit.tamarkin import cat_valued_functor, tamarkin_fiber

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


def test_totalize_rejects_a_level_beyond_the_object():
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(cyclic(2), K), bound=4)
    X = cosimplicial_from_multiplicative(A, 2)
    with pytest.raises(ValueError, match="cosimplicial object only defined to level 3"):
        totalize(D, X, constant_weights(), N=3)


def test_totalize_rejects_a_level_of_lazy_function_elements():
    """Past the enumeration cap the cofaces return `FnElt`s, which compare by
    identity: s3^7 has 279,936 points, so level 7 is where the points stop
    being values."""
    s3 = next(m for m in monoid_corpus() if m.name == "s3")
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(s3, K), bound=8)
    X = cosimplicial_from_multiplicative(A, 7)
    assert len(totalize(D, X, constant_weights(7), N=6).families[None]) == 1
    with pytest.raises(SizeError, match=r"^level 7 of end\(s3\) holds lazy function elements"):
        totalize(D, X, constant_weights(7), N=7)


def _edge_weights(N=1, dim=1):
    """The cosimplicial set of monotone maps [dim] -> [n], as tuples a <= b
    <= ...: for dim = 1 the edge (0, 1) of level 1 is hit by no coface, so it
    is a free slot; for dim = 2 levels 1 and 2 have free slots."""

    def level(n):
        return tuple(itertools.combinations_with_replacement(range(n + 1), dim + 1))

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
    snapshots = totalize(D, X, delta, N=1).by_level[None]
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


_WEIGHTS = (constant_weights, ordinal_weights, reversed_ordinal_weights)


def _level3_object(m, D=D):
    """The cosimplicial object of a monoid to level 4, over the instance D."""
    A = multiplicative_from_k_monoid(k_monoid_from_monoid(m, CartesianSelfEnriched(D)), bound=4)
    return cosimplicial_from_multiplicative(A, 3)


@pytest.mark.parametrize("weights", _WEIGHTS)
def test_totalize_applies_each_coface_and_codegeneracy_once_per_point(weights):
    """Every (map, point) pair reaches `apply_at` once: the families share the
    images of their points."""
    counting = _CountingFinSet()
    tot = totalize(counting, _level3_object(cyclic(6), counting), weights(), N=3)
    assert tot.families == totalize(D, _level3_object(cyclic(6)), weights(), N=3).families
    assert len(counting.calls) == len(set(counting.calls)) > 0


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_totalizations_sharing_an_object_match_those_of_fresh_objects(order):
    for m in monoid_corpus():
        X = _level3_object(m)
        for weights in _WEIGHTS[::order]:
            shared = totalize(D, X, weights(), N=3)
            fresh = totalize(D, _level3_object(m), weights(), N=3)
            assert vars(shared) == vars(fresh), (m.name, weights.__name__)


def test_each_object_applies_each_map_once_per_point_across_weights():
    """The 20 corpus monoids at N = 3 under the three weight systems: 1,350
    applications, where images kept per totalization would make 3,594."""
    counting = _CountingFinSet()
    objects = [_level3_object(m, counting) for m in monoid_corpus()]
    for _ in range(2):  # the second pass finds every image kept
        for X in objects:
            for weights in _WEIGHTS:
                totalize(counting, X, weights(), N=3)
        assert len(counting.calls) == len(set(counting.calls)) == 1350


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


def _value_families_at(D, X, delta, N, key):
    """The family loop on values, as `center._families_at` ran before it
    worked on point ids: each family level is a dict from delta's points to
    X's points, and the images are keyed by value."""
    cofaces = Memo(lambda k: D.apply_at(X.d(k[0], k[1]), key, k[2]))
    codegeneracies = Memo(lambda k: D.apply_at(X.s(k[0], k[1]), key, k[2]))
    fams = [(choice,) for choice in itertools.product(D.fiber(X.level(0), key), repeat=len(delta.level(0)))]
    snapshots = [tuple(fams)]
    for n in range(N):
        next_fams = []
        pts, next_pts = delta.level(n), delta.level(n + 1)
        for fam in fams:
            xn = dict(zip(pts, fam[n]))
            forced = {}
            dead = False
            for i in range(n + 2):
                for u in pts:
                    w, val = delta.d(n, i)[u], cofaces[n, i, xn[u]]
                    dead = dead or (w in forced and forced[w] != val)
                    forced[w] = val
            if dead:
                continue
            free = [w for w in next_pts if w not in forced]
            pool = list(D.fiber(X.level(n + 1), key)) if free else []
            for extra in itertools.product(pool, repeat=len(free)):
                xn1 = dict(forced)
                xn1.update(zip(free, extra))
                if all(
                    codegeneracies[n, i, xn1[w]] == xn[delta.s(n, i)[w]] for i in range(n + 1) for w in next_pts
                ):
                    next_fams.append(fam + (tuple(xn1[w] for w in next_pts),))
        fams = next_fams
        snapshots.append(tuple(fams))
    return snapshots


def _value_totalize(D, X, delta, N, keys):
    """(families, by_level, stabilized, stabilized_from) of the value loop,
    the restrictions compared on values."""
    by_level = {key: _value_families_at(D, X, delta, N, key) for key in keys}
    bij = [
        all(
            len({f[: k + 1] for f in by_level[key][k + 1]}) == len(by_level[key][k + 1])
            and {f[: k + 1] for f in by_level[key][k + 1]} == set(by_level[key][k])
            for key in keys
        )
        for k in range(N)
    ]
    start = next((s for s in range(1, N + 1) if all(bij[s:])), None)
    stabilized_from = None if start == N and not bij[-1] else start
    return {key: by_level[key][N] for key in keys}, by_level, bij[-1], stabilized_from


def _as_values(tot):
    return tot.families, tot.by_level, tot.stabilized, tot.stabilized_from


def test_totalize_on_point_ids_agrees_with_the_value_loop():
    """The id loop gives the value loop's families, snapshots and flags on
    every corpus monoid under the three weight systems and on every functor
    pair of the Tamarkin corpus under constant and ordinal weights, the two
    totalizations of one functor sharing its cosimplicial object.  The
    monoids of order 2 also take the weights of monotone maps out of [2],
    whose free slots at levels 1 and 2 make a restriction fail to be
    injective or surjective."""
    for m in monoid_corpus():
        X = cosimplicial_from_multiplicative(multiplicative_from_k_monoid(k_monoid_from_monoid(m, K), bound=4), 3)
        systems = [constant_weights(3), ordinal_weights(3), reversed_ordinal_weights(3)]
        for weights in systems + [_edge_weights(3, dim=2)] * (len(m.elements) == 2):
            assert _as_values(totalize(D, X, weights, N=3)) == _value_totalize(D, X, weights, 3, (None,)), m.name
    par, globe = parallel_pair_cat(), Globe("0", "1", "u", "w")
    for F0, G0 in functor_pair_corpus():
        F = cat_valued_functor(par, {"0": F0.src, "1": F0.tgt}, {"u": F0, "w": G0}, name="p")
        for weights in (constant_weights(2), ordinal_weights(2)):
            _, tot = tamarkin_fiber(F, globe, weights=weights, N=2, bound=3)
            J, X = F.complexes[2, 3]
            assert _as_values(tot) == _value_totalize(J.D, X, weights, 2, (globe,))


def test_equal_images_are_one_stored_point():
    """Hash-consing: the (map, point) pairs (d^0, x) and (d^1, x) of a
    commutative monoid have equal images, which get one id and are stored
    once in the pool of level 1."""
    X = _z2_hochschild()
    level0 = D.fiber(X.level(0), None)
    xs = [intern(X.pools[0, None], x) for x in level0]
    ids = {(i, x): X.coface_images[0, i, None, x] for i in (0, 1) for x in xs}
    values, pool_ids = X.pools[1, None]
    assert all(ids[0, x] == ids[1, x] for x in xs) and sorted(set(ids.values())) == [0, 1]
    assert values == [D.apply_at(X.d(0, 0), None, x) for x in level0]
    assert pool_ids == {y: i for i, y in enumerate(values)}
    assert intern(X.pools[1, None], D.apply_at(X.d(0, 1), None, level0[1])) == ids[0, xs[1]] == 1
    assert len(values) == 2
