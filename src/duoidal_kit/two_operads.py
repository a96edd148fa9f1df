"""Operads indexed by trees of height <= 2, in finite sets.

Components are finite sets A(T) for T a 0-, 1- or 2-tree within a leaf
bound; each tree map sigma: T -> S gives a substitution
m_sigma: A(T_1) x ... x A(T_k) x A(S) -> A(T) over the fibers of sigma.
The endomorphism example has A(T) = D(X^T, X^{U_i}) over a duoidal
instance, with X^T the tree-shaped tensor power of X.

Associativity is checked for composable pairs (sigma, omega) that are
*aligned*: every height-1 leaf of every fiber restriction sits over a
height-1 leaf of the middle tree.  For such pairs the concatenated fiber
lists of the restrictions reproduce the fibers of sigma, which is what the
substitution identity needs to be well typed; non-aligned pairs are counted
and reported.  (With the identity map into a tree whose codomain is hit by
a non-injective map downstairs, a restriction acquires a height-1 leaf over
a non-leaf, so the naive identification of fiber lists genuinely fails.)
Whether a pair is aligned depends on omega alone (`TreePool.aligned`).

Trees and maps are ids of a `trees.TreePool`.  A `TwoOperad` describes the
operad; `A.over(P)` gives it on the trees and maps of pool P, and every
check builds one pool and one such view, which live as long as the check.
Over a table instance the endomorphism example's substitution is a `Memo`
of that view, keyed by the map id and the arrow names of its arguments, so
each distinct substitution of a check is computed once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .duoidal import Duoid, chain, iterated_mu_v, matrix_interchange
from .fincat import TableDuoidal
from .report import CheckReport, Memo, evaluate
from .trees import MAP0, MAP1, TREE0, TREE1, U0, U1, Z2U0, ZERO_ID, TreeError, TreePool


def tensor_power(D, x, P, tree):
    """The tree-shaped tensor power of an object.

    Height-2 leaves are decorated by the object, empty height-1 positions by
    v; fibers multiply with box1, levels with box0.  The 0-tree and the
    leafless 2-tree give e, the 1-tree (n) gives the box0-power of v.
    """
    kind = P.kind[tree]
    if kind == TREE0 or tree == Z2U0:
        return D.e
    if kind == TREE1:
        return D.tensor(0, [D.v] * P.n[tree])
    return D.tensor(0, [D.tensor(1, [x] * len(p)) for p in P.pre[tree]])


def suspension_interchange(D, x, P, sigma):
    """The canonical map X^T -> X^{T_1} box1 ... box1 X^{T_k} for a map onto
    a suspension (k -> 1); built from the binary interchange grid."""
    T, S = P.source[sigma], P.target[sigma]
    if P.m[S] != 1:
        raise TreeError("the target of the interchange morphism must be a suspension")
    k = P.n[S]
    if k == 0:
        return iterated_mu_v(D, P.m[T])
    s2 = P.images2[sigma]
    grid = [
        [D.tensor(1, [x] * sum(1 for q in p if s2[q - 1] == i)) for p in P.pre[T]]
        for i in range(1, k + 1)
    ]
    return matrix_interchange(D, grid)


@dataclass
class TwoOperad:
    """Components per tree, units per level, substitution per tree map."""

    name: str
    component_fn: object  # (pool, tree) -> list of elements
    unit_fn: object  # level (0|1|2) -> element of the component of U_level
    m_fn: object  # pool -> substitution (sigma, fiber elements, outer) -> element
    equal_fn: object = None  # element equality within a component

    def over(self, P: TreePool) -> PoolOperad:
        """The operad on the trees and maps of pool P."""
        return PoolOperad(self, P)


class PoolOperad:
    """A `TwoOperad` on one pool: components are listed once per tree id, and
    `m` may keep per-map plans, for as long as the pool lives."""

    def __init__(self, A: TwoOperad, P: TreePool):
        self.pool = P
        self._components = Memo(lambda tree: list(A.component_fn(P, tree)))  # tree id -> list of elements
        self.unit = A.unit_fn
        self.m = A.m_fn(P)
        self.eq = A.equal_fn or operator.eq

    def component(self, tree):
        return self._components[tree]


def ass2() -> TwoOperad:
    """The terminal example: every component is a point."""
    return TwoOperad(
        "ass2",
        lambda P, tree: ["*"],
        lambda level: "*",
        lambda P: lambda sigma, fib, outer: "*",
    )


def end2(D, x, name=None) -> TwoOperad:
    """The endomorphism example: A(T) = hom(X^T, X^{U_level})."""

    def component(P, tree):
        kind = P.kind[tree]
        if kind == TREE0:
            return list(D.hom(D.e, D.e))
        return list(D.hom(tensor_power(D, x, P, tree), D.v if kind == TREE1 else x))

    def unit(level):
        return (D.identity(D.e), D.identity(D.v), D.identity(x))[level]

    def substitution(P):
        compose, tensor_map = D.compose, D.tensor_map

        def compile_plan(sigma):
            rows, pos = [], 0
            for _, p_tree, block in P.block_decompose(sigma):
                count = len(P.fibers[block])
                shuffle = None if P.n[p_tree] == 0 else suspension_interchange(D, x, P, block)
                rows.append((pos, pos + count, shuffle))
                pos += count
            return rows, pos

        plans = Memo(compile_plan)  # per map id of P: (rows (start, stop, shuffle or None), fiber count)

        def substitute(sigma, fib, outer):
            kind = P.kind[sigma]
            if kind == MAP0:
                (f,) = fib
                return compose(f, outer)
            if kind == MAP1:
                if P.n[P.target[sigma]] == 0:
                    return outer  # the map (0) -> (0)
                return compose(tensor_map(0, fib), outer)
            if P.target[sigma] == Z2U0:
                return outer  # the identity of the leafless tree has no fibers
            rows, expected = plans[sigma]
            if expected != len(fib):
                raise ValueError("fiber element count does not match the map")
            block_maps = []
            for start, stop, shuffle in rows:
                block_maps.append(fib[start] if shuffle is None else compose(shuffle, tensor_map(1, fib[start:stop])))
            return compose(tensor_map(0, block_maps), outer)

        if not isinstance(D, TableDuoidal):
            return substitute  # maps that hash by identity are never keys
        values = Memo(lambda key: substitute(*key))  # (sigma, fiber arrow names, outer arrow name) -> m_sigma

        def m(sigma, fib, outer):
            return values[sigma, tuple(fib), outer]

        return m

    return TwoOperad(name or "end2", component, unit, substitution, equal_fn=D.maps_equal)


# ---------------------------------------------------------------------------
# axiom checking

_ORDINAL_BOUND = 3  # the largest ordinal of the level-1 checks


def check_two_operad(A: TwoOperad, max_leaves=3, tuple_cap=16) -> CheckReport:
    if tuple_cap < 1:
        raise ValueError(f"the element tuple cap must be at least 1, got {tuple_cap}")
    rep = CheckReport(f"2-operad axioms: {A.name} (leaf bound {max_leaves})")
    P = TreePool()
    B = A.over(P)
    trees2 = P.enumerate_two_trees(max_leaves)
    trees1 = [P.one_tree(n) for n in range(_ORDINAL_BOUND + 1)]

    def where(t):
        return "U0" if t == U0 else P.render(t)

    scope = f"trees <= {max_leaves} leaves"

    # (**) identity axiom on every level
    def identities():
        for t in trees2:
            ident = P.two_identity(t)
            units = [B.unit(f.height) for f in P.fibers[ident]]
            for a in B.component(t):
                yield t, B.m(ident, units, a), a
        for t in trees1:
            ident, units = P.one_identity(t), [B.unit(1)] * P.n[t]
            for a in B.component(t):
                yield t, B.m(ident, units, a), a
        for a in B.component(U0):
            yield U0, B.m(ZERO_ID, [B.unit(0)], a), a

    rep.add_law("(**) identities act trivially", identities(), B.eq, scope, where)

    # (***) the terminal maps absorb units
    def absorption():
        for t in trees2:
            term = P.terminal_map(t)
            for a in B.component(t):
                yield t, B.m(term, [a], B.unit(2)), a
        for t in trees1:
            term = P.one_map(t, U1, (1,) * P.n[t])
            for a in B.component(t):
                yield t, B.m(term, [a], B.unit(1)), a
        for a in B.component(U0):
            yield U0, B.m(ZERO_ID, [a], B.unit(0)), a

    rep.add_law("(***) units absorb", absorption(), B.eq, scope, where)

    # (*) associativity over aligned composable pairs: of 2-tree maps, then of
    # 1-tree maps (classical operad associativity, always aligned)
    pairs = 0

    def aligned_pairs():
        nonlocal pairs
        for level_trees, maps in (
            (trees2, P.enumerate_two_tree_maps),
            (trees1, P.enumerate_one_maps),
        ):
            table = [[maps(T, S) for S in level_trees] for T in level_trees]
            maps_out = [list(itertools.chain.from_iterable(row)) for row in table]
            for row in table:
                for b, sigmas in enumerate(row):
                    for sigma in sigmas:
                        for omega in maps_out[b]:
                            pairs += 1
                            if P.aligned[omega] is not None:
                                yield (sigma, omega), sigma, omega

    def outer_substitution(key):
        omega, b_index, c_index = key
        b_elems = tuple(B.component(t)[i] for t, i in zip(P.fiber_trees[omega], b_index))
        return B.m(omega, b_elems, B.component(P.target[omega])[c_index])

    outer = Memo(outer_substitution)  # (omega, positions of the b's, position of c) -> m_omega(b's; c)
    failing, evaluated, skipped = evaluate(
        aligned_pairs(), lambda sigma, omega: _assoc_holds(B, sigma, omega, tuple_cap, outer)
    )
    scope = f"{evaluated + skipped}/{pairs} composable pairs aligned within bound; element tuples capped at {tuple_cap}"
    if skipped:
        scope += f"; {skipped} skipped"
    rep.add("(*) associativity", failing is None, scope, "" if failing is None else " ; ".join(map(P.render, failing)))
    return rep


def _tuples(B, trees):
    return itertools.product(*[B.component(t) for t in trees])


def _assoc_holds(B: PoolOperad, sigma, omega, tuple_cap, outer):
    """m_{omega sigma}(restrictions of sigma fed by the a's, b's; c) equals
    m_sigma(a's; m_omega(b's; c)) on the first tuple_cap element tuples
    (a's, b's, c), in `itertools.product` order.

    The inner list m_restr(a's; b) is built once per (a's, b's), for all the
    c's after it.  m_omega(b's; c) depends on neither sigma nor the a's, so it
    is read from `outer`, keyed by omega and the positions of the b's and of
    c in their components."""
    P, m = B.pool, B.m
    positions = P.aligned[omega]
    comp = P.compose(sigma, omega)
    restrictions = P.restrictions(sigma, omega)
    b_trees = P.fiber_trees[omega]
    b_tuples = zip(itertools.product(*[range(len(B.component(t))) for t in b_trees]), _tuples(B, b_trees))
    cs = list(enumerate(B.component(P.target[omega])))
    left = tuple_cap if cs else 0  # tuples still to evaluate
    for a_elems, (b_index, b_elems) in itertools.product(_tuples(B, P.fiber_trees[sigma]), b_tuples):
        if left <= 0:
            return True
        inner = [
            m(restr, [a_elems[p] for p in inputs], b)
            for restr, inputs, b in zip(restrictions, positions, b_elems)
        ]
        for c_index, c in cs[:left]:
            if not B.eq(m(comp, inner, c), m(sigma, a_elems, outer[omega, b_index, c_index])):
                return False
        left -= len(cs)
    return True


def truncate(A: TwoOperad, k: int) -> TwoOperad:
    """Restrict to trees of level <= k."""

    def component(P, tree):
        if P.kind[tree] > k:  # a tree's kind is its level
            raise ValueError("tree outside the truncation")
        return A.component_fn(P, tree)

    return TwoOperad(f"tr{k}({A.name})", component, A.unit_fn, A.m_fn, A.equal_fn)


def is_one_terminal(A: TwoOperad) -> bool:
    P = TreePool()
    B = A.over(P)
    if len(B.component(U0)) != 1:
        return False
    return all(len(B.component(P.one_tree(n))) == 1 for n in range(_ORDINAL_BOUND + 1))


def pruned_map_values(B: PoolOperad, tree):
    """The canonical map A(T) -> A(T^p) inserting units along the pruning
    inclusion, as its values in the order of A(T); needs a 1-terminal operad
    so the height-1 fibers have canonical elements."""
    pruned_tree, incl = B.pool.prune(tree)
    inputs = []
    for f in B.pool.fibers[incl]:
        if f.height == 2:
            inputs.append(B.unit(2))
        else:
            comp = B.component(f.tree)
            if len(comp) != 1:
                raise ValueError("pruned comparison needs a 1-terminal operad")
            inputs.append(comp[0])
    return tuple(B.m(incl, inputs, a) for a in B.component(tree)), pruned_tree


def is_pruned(A: TwoOperad) -> bool:
    """1-terminal and the pruning comparison bijective on every tree with at
    most 3 leaves."""
    if not is_one_terminal(A):
        return False
    P = TreePool()
    B = A.over(P)
    for tree in P.enumerate_two_trees(3):
        images, pruned_tree = pruned_map_values(B, tree)
        target = B.component(pruned_tree)
        # injective with image exhausting the target
        for i, x in enumerate(images):
            for y in images[i + 1 :]:
                if B.eq(x, y):
                    return False
        if len(images) != len(target):
            return False
    return True


# ---------------------------------------------------------------------------
# duoids as algebras


def duoid_evaluation(D, d, P, tree):
    """The tree-shaped iterated multiplication X^T -> X of a duoid, for a 2-tree T."""
    x = d.carrier
    if tree == Z2U0:
        return d.unit0

    def block_map(k):
        if k == 0:
            return d.unit1
        out = D.identity(x)
        for _ in range(k - 1):
            out = chain(D, D.box1_map(D.identity(x), out), d.mult1)
        return out

    assembled = D.tensor_map(0, [block_map(len(p)) for p in P.pre[tree]])
    fold = D.identity(x)
    for _ in range(P.m[tree] - 1):
        fold = chain(D, D.box0_map(D.identity(x), fold), d.mult0)
    return chain(D, assembled, fold)


def duoid_to_algebra(D, d, P, bound=3):
    """The algebra structure of a duoid: the point of each component goes to
    the tree-shaped multiplication; the level-1 part is the canonical map.
    Keyed by the tree ids of P."""
    return {tree: duoid_evaluation(D, d, P, tree) for tree in P.enumerate_two_trees(bound)}


def algebra_to_duoid(D, P, evaluations, x):
    return Duoid(
        x,
        mult0=evaluations[P.two_tree(2, 2, [1, 2])],
        unit0=evaluations[Z2U0],
        mult1=evaluations[P.two_tree(2, 1, [1, 1])],
        unit1=evaluations[P.two_tree(0, 1, [])],
        name="duoid",
    )


def check_algebra_map(D, d, P, evaluations, max_leaves=3) -> CheckReport:
    """Is tree -> evaluation a morphism of tree operads onto the
    endomorphism example, with the canonical level-1 part?"""
    rep = CheckReport(f"duoid algebra structure: {d.name}")
    E = end2(D, d.carrier).over(P)

    # the level-1 part: substitution for ordinal maps with the v-operad maps
    def level1():
        for a in range(_ORDINAL_BOUND + 1):
            for b in range(_ORDINAL_BOUND + 1):
                for f in P.enumerate_one_maps(P.one_tree(a), P.one_tree(b)):
                    fib = [iterated_mu_v(D, P.n[t]) for t in P.fiber_trees[f]]
                    yield f, E.m(f, fib, iterated_mu_v(D, b)), iterated_mu_v(D, a)

    scope = f"ordinals <= {_ORDINAL_BOUND}"
    rep.add_law("level-1 part is the canonical v-operad map", level1(), D.maps_equal, scope, P.render)

    def substitutions():
        trees2 = P.enumerate_two_trees(max_leaves)
        for T in trees2:
            for S in trees2:
                for sigma in P.enumerate_two_tree_maps(T, S):
                    fib = [
                        evaluations[f.tree] if f.height == 2 else iterated_mu_v(D, P.n[f.tree])
                        for f in P.fibers[sigma]
                    ]
                    yield sigma, E.m(sigma, fib, evaluations[S]), evaluations[T]

    scope = f"trees <= {max_leaves} leaves"
    rep.add_law("evaluations respect substitution", substitutions(), D.maps_equal, scope, P.render)
    return rep
