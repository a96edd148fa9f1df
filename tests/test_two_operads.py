import dataclasses
import itertools
from math import prod

import pytest

from duoidal_kit import two_operads
from duoidal_kit.duoidal import Duoid, check_duoid_axioms, iterated_mu_v, v_as_duoid
from duoidal_kit.finset import CartMap, CartesianFinSet, atom_letter
from duoidal_kit.instances import additive_instance, bool_lattice_instance
from duoidal_kit.monoids import cyclic
from duoidal_kit.report import SizeError
from duoidal_kit.trees import MAP2, TREE2, U2, Z2U0, ZU1, TreeError, TreePool
from duoidal_kit.two_operads import (
    TwoOperad,
    algebra_to_duoid,
    ass2,
    check_algebra_map,
    check_two_operad,
    duoid_to_algebra,
    end2,
    is_one_terminal,
    is_pruned,
    suspension_interchange,
    tensor_power,
    truncate,
)

D = CartesianFinSet()
X = (atom_letter("x", ["p", "q"]),)


def test_tensor_powers():
    P = TreePool()
    assert tensor_power(D, X, P, U2) == X
    assert tensor_power(D, X, P, P.two_tree(2, 1, [1, 1])) == X + X
    assert tensor_power(D, X, P, P.two_tree(2, 2, [1, 2])) == X + X
    assert tensor_power(D, X, P, ZU1) == D.v
    assert tensor_power(D, X, P, Z2U0) == D.e
    assert tensor_power(D, X, P, P.one_tree(3)) == D.tensor(0, [D.v] * 3)


def test_suspension_interchange_single_step():
    # (2->2, id) onto the 2-suspension: exactly the binary interchange
    P = TreePool()
    T = P.two_tree(2, 2, [1, 2])
    sigma = P.two_map(T, P.suspension(2), (1, 1), (1, 2))
    got = suspension_interchange(D, X, P, sigma)
    want = D.interchange(X, D.e, D.e, X)
    # over the cartesian instance both are the identity on X box0 X
    assert D.maps_equal(got, D.identity(X + X))
    lattice = bool_lattice_instance()
    got_l = suspension_interchange(lattice, "1", P, sigma)
    assert lattice.maps_equal(got_l, lattice.interchange("1", lattice.v, lattice.v, "1"))


def test_suspension_interchange_requires_suspension_target():
    P = TreePool()
    T = P.two_tree(2, 2, [1, 2])
    sigma = P.two_map(T, T, (1, 2), (1, 2))
    with pytest.raises(TreeError):
        suspension_interchange(D, X, P, sigma)


def test_degenerate_fibers_insert_units():
    # T = (0 -> 1) onto the 1-suspension: the single fiber has no leaves
    P = TreePool()
    sigma = P.two_map(ZU1, P.suspension(1), (1,), ())
    got = suspension_interchange(bool_lattice_instance(), "1", P, sigma)
    lattice = bool_lattice_instance()
    assert got in lattice.base.arrows


def test_ass2_passes_and_truncates():
    A = ass2()
    rep = check_two_operad(A, max_leaves=2, tuple_cap=8)
    assert rep.all_passed, rep.render()
    assert is_pruned(A)
    P = TreePool()
    tr1 = truncate(A, 1).over(P)
    assert tr1.component(P.one_tree(2)) == ["*"]
    with pytest.raises(ValueError):
        tr1.component(U2)


def test_end2_over_lattice_una_terminal_but_pruned_condition():
    lattice = bool_lattice_instance()
    A = end2(lattice, "1")
    rep = check_two_operad(A, max_leaves=2, tuple_cap=8)
    assert rep.all_passed, rep.render()
    assert is_one_terminal(A)
    assert is_pruned(A)


def test_end2_z2_additive_small():
    inst = additive_instance(cyclic(2))
    A = end2(inst, "*")
    rep = check_two_operad(A, max_leaves=2, tuple_cap=64)
    assert rep.all_passed, rep.render()
    assert not is_one_terminal(A)
    assert not is_pruned(A)


@pytest.mark.parametrize("unpruned, pruned", [(("*", "#"), ("*",)), (("*", "*"), ("*", "#"))])
def test_a_two_element_unpruned_component_is_not_pruned(unpruned, pruned):
    """ass2 with 2-element components on the 2-trees that are not pruned
    stays 1-terminal, but its pruning comparison, here each element's own
    value, is not bijective: two distinct elements map into a point, or two
    equal ones meet in a 2-element component."""

    def component(P, tree):
        if P.kind[tree] != TREE2:
            return ["*"]
        return list(pruned if P.prune(tree)[0] == tree else unpruned)

    A = dataclasses.replace(ass2(), component_fn=component, m_fn=lambda P: lambda sigma, fib, outer: outer)
    assert is_one_terminal(A)
    assert not is_pruned(A)


def _criterion_7_operads():
    return end2(bool_lattice_instance(), "1"), end2(additive_instance(cyclic(2)), "*", name="end2_additive")


def test_criterion_7_operads_keep_their_reports_at_leaf_bound_2():
    for A in _criterion_7_operads():
        assert check_two_operad(A, max_leaves=2, tuple_cap=16).render().splitlines() == [
            f"== 2-operad axioms: {A.name} (leaf bound 2) ==",
            "PASS  (**) identities act trivially  [trees <= 2 leaves]",
            "PASS  (***) units absorb  [trees <= 2 leaves]",
            "PASS  (*) associativity  [968/1149 composable pairs aligned within bound; element tuples capped at 16]",
            "-- ALL PASS (3 checks)",
        ]


def test_a_tuple_cap_of_one_evaluates_one_tuple_per_aligned_pair(monkeypatch):
    # every evaluated element tuple makes one equality test inside the
    # associativity row; the identity and unit rows make the same number of
    # them whatever the cap
    A = end2(D, X)  # components of functions on {p, q}: many tuples per pair
    in_assoc = []
    assoc_holds = two_operads._assoc_holds

    def counted_assoc_holds(*args):
        in_assoc.append(None)
        try:
            return assoc_holds(*args)
        finally:
            in_assoc.pop()

    monkeypatch.setattr(two_operads, "_assoc_holds", counted_assoc_holds)
    tested = {}
    for cap in (1, 16):
        calls = {"assoc": 0, "other": 0}

        def eq(x, y):
            calls["assoc" if in_assoc else "other"] += 1
            return A.equal_fn(x, y)

        counted = TwoOperad(A.name, A.component_fn, A.unit_fn, A.m_fn, eq)
        assert check_two_operad(counted, max_leaves=2, tuple_cap=cap).all_passed
        tested[cap] = calls
    assert tested[1]["assoc"] == 968
    assert tested[16]["assoc"] > 968  # so a cap of 1 does bind
    assert tested[1]["other"] == tested[16]["other"] > 0
    with pytest.raises(ValueError, match="at least 1"):
        check_two_operad(A, max_leaves=2, tuple_cap=0)


def test_associativity_evaluates_exactly_the_first_capped_tuples_of_each_pair(monkeypatch):
    # each aligned pair evaluates min(cap, |a-tuples| * |b-tuples| * |C|)
    # element tuples, one equality test each
    A = end2(additive_instance(cyclic(2)), "*")
    in_assoc = []
    assoc_holds = two_operads._assoc_holds

    def counted_assoc_holds(B, sigma, omega, tuple_cap, outer):
        P = B.pool
        sizes = [len(B.component(t)) for t in (*P.fiber_trees[sigma], *P.fiber_trees[omega], P.target[omega])]
        in_assoc.append(None)
        try:
            return assoc_holds(B, sigma, omega, tuple_cap, outer)
        finally:
            in_assoc.pop()
            expected.append(min(tuple_cap, prod(sizes)))

    monkeypatch.setattr(two_operads, "_assoc_holds", counted_assoc_holds)
    tested = {}
    for cap in (1, 16, 10_000):
        calls, expected = [0], []

        def eq(x, y):
            calls[0] += bool(in_assoc)
            return A.equal_fn(x, y)

        counted = TwoOperad(A.name, A.component_fn, A.unit_fn, A.m_fn, eq)
        assert check_two_operad(counted, max_leaves=2, tuple_cap=cap).all_passed
        assert len(expected) == 968
        assert calls[0] == sum(expected)
        tested[cap] = calls[0]
    assert tested[1] == 968 < tested[16] < tested[10_000]  # both smaller caps bind


def test_substitution_memo_is_keyed_by_arrow_names_only(monkeypatch):
    # a table instance's maps are names, so an equal second call is a lookup;
    # a CartMap hashes by identity, so the cartesian instance computes again
    P = TreePool()
    t = P.two_tree(2, 2, [1, 2])
    for inst, x, computes_again in ((additive_instance(cyclic(2)), "*", False), (D, X, True)):
        calls = []

        def counted_compose(f, g, compose=inst.compose):
            calls.append(None)
            return compose(f, g)

        monkeypatch.setattr(inst, "compose", counted_compose)
        B = end2(inst, x).over(P)
        a, sigma, outer = B.component(t)[0], P.terminal_map(t), B.unit(2)
        first = B.m(sigma, [a], outer)
        made = len(calls)
        assert made > 0
        assert inst.maps_equal(B.m(sigma, [a], outer), first)
        assert (len(calls) > made) is computes_again


def test_truncation_is_the_endomorphism_operad_of_v():
    lattice = bool_lattice_instance()
    A = end2(lattice, "1")
    P = TreePool()
    tr1 = truncate(A, 1).over(P)
    for n in range(4):
        assert sorted(tr1.component(P.one_tree(n))) == sorted(
            lattice.hom(lattice.tensor(0, [lattice.v] * n), lattice.v)
        )
    for a in range(3):
        for b in range(3):
            for f in P.enumerate_one_maps(P.one_tree(a), P.one_tree(b)):
                fibs = P.fiber_trees[f]
                for elems in itertools.product(*[tr1.component(t) for t in fibs]):
                    for outer in tr1.component(P.target[f]):
                        got = tr1.m(f, list(elems), outer)
                        want = lattice.compose(lattice.tensor_map(0, list(elems)), outer)
                        assert lattice.maps_equal(got, want)


def test_corrupted_unit_fails_identity_axiom():
    inst = additive_instance(cyclic(2))
    base = end2(inst, "*")
    bad = TwoOperad(
        "end2_bad_unit",
        base.component_fn,
        lambda level: "a1" if level == 2 else base.unit_fn(level),
        base.m_fn,
        equal_fn=inst.maps_equal,
    )
    rep = check_two_operad(bad, max_leaves=2, tuple_cap=4)
    rows = {i.name: i.passed for i in rep.items}
    assert not (rows["(**) identities act trivially"] and rows["(***) units absorb"])


def _corrupt_inner_substitutions(base):
    """base with m_sigma moved to the next element of its component for every
    2-tree map sigma that is neither an identity nor a terminal map, so the
    identity and unit rows cannot see the corruption."""

    def m_fn(P):
        m = base.m_fn(P)

        def corrupted(sigma, fib, outer):
            out = m(sigma, fib, outer)
            T = P.source[sigma]
            if P.kind[sigma] != MAP2 or sigma in (P.two_identity(T), P.terminal_map(T)):
                return out
            comp = base.component_fn(P, T)
            return comp[(comp.index(out) + 1) % len(comp)]

        return corrupted

    return TwoOperad(f"{base.name}_corrupt", base.component_fn, base.unit_fn, m_fn, base.equal_fn)


def test_corrupted_substitution_fails_associativity_with_a_composable_witness():
    rep = check_two_operad(_corrupt_inner_substitutions(end2(additive_instance(cyclic(2)), "*")), max_leaves=2)
    rows = {i.name: i for i in rep.items}
    assert rows["(**) identities act trivially"].passed and rows["(***) units absorb"].passed
    assoc = rows["(*) associativity"]
    assert not assoc.passed
    assert assoc.scope.endswith("element tuples capped at 16")  # the default cap, as on the command line
    # the witness is a pair sigma: T => S ; omega: S => R of rendered 2-tree maps
    sigma, omega = assoc.witness.split(" ; ")
    assert sigma.split(" => ")[1].split(" [")[0] == omega.split(" => ")[0]


def test_associativity_counts_the_pairs_too_large_to_compare(monkeypatch):
    assoc_holds = two_operads._assoc_holds
    calls = []

    def every_other_pair_too_large(*args):
        calls.append(None)
        if len(calls) % 2:
            raise SizeError("element tuples too large")
        return assoc_holds(*args)

    monkeypatch.setattr(two_operads, "_assoc_holds", every_other_pair_too_large)
    assoc = check_two_operad(ass2(), max_leaves=2).items[-1]
    assert assoc.passed
    assert assoc.scope == "968/1149 composable pairs aligned within bound; element tuples capped at 16; 484 skipped"


def test_duoid_algebra_round_trip_small():
    lattice = bool_lattice_instance()
    d = v_as_duoid(lattice)
    P = TreePool()
    ev = duoid_to_algebra(lattice, d, P, bound=3)
    rep = check_algebra_map(lattice, d, P, ev, max_leaves=2)
    assert rep.all_passed, rep.render()
    d2 = algebra_to_duoid(lattice, P, ev, d.carrier)
    for attr in ("mult0", "unit0", "mult1", "unit1"):
        assert lattice.maps_equal(getattr(d2, attr), getattr(d, attr))


def _monoid_structures(elems):
    out = []
    for vals in itertools.product(elems, repeat=len(elems) ** 2):
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
            out.append((table, unit))
    return out


@pytest.mark.parametrize("size", [2, 3])
def test_eckmann_hilton_enumeration(size):
    elems = list(range(size))
    carrier = (atom_letter(f"c{size}", elems),)
    sq = carrier + carrier
    monoids = _monoid_structures(elems)
    duoid_count = expected = 0
    for t0, u0 in monoids:
        m0 = CartMap(sq, carrier, table={(a, b): (t0[(a, b)],) for a in elems for b in elems})
        e0 = CartMap((), carrier, table={(): (u0,)})
        for t1, u1 in monoids:
            m1 = CartMap(sq, carrier, table={(a, b): (t1[(a, b)],) for a in elems for b in elems})
            e1 = CartMap((), carrier, table={(): (u1,)})
            is_duoid = check_duoid_axioms(D, Duoid(carrier, m0, e0, m1, e1)).all_passed
            should = t0 == t1 and all(t0[(a, b)] == t0[(b, a)] for a in elems for b in elems)
            assert is_duoid == should
            duoid_count += is_duoid
            expected += should
    assert duoid_count == expected > 0


def test_duoid_round_trip_for_every_commutative_monoid_on_two_points():
    elems = [0, 1]
    carrier = (atom_letter("c2", elems),)
    sq = carrier + carrier
    for t, u in _monoid_structures(elems):
        if any(t[(a, b)] != t[(b, a)] for a in elems for b in elems):
            continue
        mult = CartMap(sq, carrier, table={(a, b): (t[(a, b)],) for a in elems for b in elems})
        unit = CartMap((), carrier, table={(): (u,)})
        d = Duoid(carrier, mult, unit, mult, unit)
        P = TreePool()
        ev = duoid_to_algebra(D, d, P, bound=3)
        d2 = algebra_to_duoid(D, P, ev, carrier)
        for attr in ("mult0", "unit0", "mult1", "unit1"):
            assert D.maps_equal(getattr(d2, attr), getattr(d, attr))
        # symmetric instance: every 4-leaf tree shape evaluates the same way
        ev4 = duoid_to_algebra(D, d, P, bound=4)
        shapes = [
            P.two_tree(4, 2, [1, 1, 2, 2]),
            P.two_tree(4, 1, [1, 1, 1, 1]),
            P.two_tree(4, 4, [1, 2, 3, 4]),
        ]
        for t_other in shapes[1:]:
            assert D.maps_equal(ev4[shapes[0]], ev4[t_other])
