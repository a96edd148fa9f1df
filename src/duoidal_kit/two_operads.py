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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .duoidal import chain, iterated_mu_v, matrix_interchange
from .report import CheckReport
from .trees import (
    Fiber,
    OneTree,
    OneTreeMap,
    TreeError,
    TwoTree,
    TwoTreeMap,
    U0,
    U1,
    U2,
    Z2U0,
    ZeroTree,
    block_decompose,
    compose_one_maps,
    compose_tree_maps,
    composite_restrictions,
    enumerate_one_maps,
    enumerate_two_tree_maps,
    enumerate_two_trees,
    fibers,
    is_suspension,
    one_identity,
    one_map_fibers,
    prune,
    terminal_map,
    two_identity,
)

ZERO_ID = "zero-id"  # the unique map of the 0-tree


def tensor_power(D, x, tree):
    """The tree-shaped tensor power of an object.

    Height-2 leaves are decorated by the object, empty height-1 positions by
    v; fibers multiply with box1, levels with box0.  The 0-tree and the
    leafless 2-tree give e, the 1-tree (n) gives the box0-power of v.
    """
    if isinstance(tree, ZeroTree):
        return D.e
    if isinstance(tree, OneTree):
        return D.box0_many([D.v] * tree.n)
    if tree == Z2U0:
        return D.e
    blocks = [D.box1_many([x] * len(tree.t.preimage(j))) for j in range(1, tree.m + 1)]
    return D.box0_many(blocks)


def suspension_interchange(D, x, sigma: TwoTreeMap):
    """The canonical map X^T -> X^{T_1} box1 ... box1 X^{T_k} for a map onto
    a suspension (k -> 1); built from the binary interchange grid."""
    S = sigma.target
    if not is_suspension(S):
        raise TreeError("the target of the interchange morphism must be a suspension")
    T = sigma.source
    k = S.n
    if k == 0:
        return iterated_mu_v(D, T.m)
    grid = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, T.m + 1):
            n_ij = sum(1 for q in T.t.preimage(j) if sigma.s2(q) == i)
            row.append(D.box1_many([x] * n_ij))
        grid.append(row)
    return matrix_interchange(D, grid)


@dataclass
class TwoOperad:
    """Components per tree, units per level, substitution per tree map."""

    name: str
    component_fn: object  # tree -> list of elements
    unit_fn: object  # level (0|1|2) -> element of the component of U_level
    m_fn: object  # sigma -> function (fiber elements tuple, outer element) -> element
    equal_fn: object = None  # element equality within a component
    bound: int = 3

    def __post_init__(self):
        self._components = {}

    def component(self, tree):
        if tree not in self._components:
            self._components[tree] = list(self.component_fn(tree))
        return self._components[tree]

    def unit(self, level):
        return self.unit_fn(level)

    def m(self, sigma, fiber_elements, outer):
        return self.m_fn(sigma, tuple(fiber_elements), outer)

    def eq(self, a, b):
        return self.equal_fn(a, b) if self.equal_fn else a == b


def ass2(bound=3) -> TwoOperad:
    """The terminal example: every component is a point."""
    return TwoOperad(
        "ass2",
        lambda tree: ["*"],
        lambda level: "*",
        lambda sigma, fib, outer: "*",
        bound=bound,
    )


def end2(D, x, bound=3, name=None) -> TwoOperad:
    """The endomorphism example: A(T) = hom(X^T, X^{U_level})."""

    def component(tree):
        if isinstance(tree, ZeroTree):
            return list(D.hom(D.e, D.e))
        if isinstance(tree, OneTree):
            return list(D.hom(tensor_power(D, x, tree), D.v))
        return list(D.hom(tensor_power(D, x, tree), x))

    def unit(level):
        return (D.identity(D.e), D.identity(D.v), D.identity(x))[level]

    # per-map compiled block structure: (start, count, shuffle-or-None) rows
    plans = {}

    def plan_for(sigma):
        plan = plans.get(sigma)
        if plan is None:
            plan = []
            pos = 0
            for q_tree, p_tree, restr in block_decompose(sigma):
                n_fibers = len(fibers(restr))
                shuffle = None if p_tree.n == 0 else suspension_interchange(D, x, restr)
                plan.append((pos, n_fibers, shuffle))
                pos += n_fibers
            plans[sigma] = (plan, pos)
        return plans[sigma]

    def m(sigma, fib, outer):
        if sigma == ZERO_ID:
            (f,) = fib
            return chain(D, f, outer)
        if isinstance(sigma, OneTreeMap):
            if sigma.domain.n == 0 and sigma.codomain.n == 0:
                return outer
            return chain(D, D.box0_map_many(list(fib)), outer)
        if sigma.target == Z2U0:
            return outer  # the identity of the leafless tree has no fibers
        plan, expected = plan_for(sigma)
        if expected != len(fib):
            raise ValueError("fiber element count does not match the map")
        block_maps = []
        for pos, n_fibers, shuffle in plan:
            part = fib[pos : pos + n_fibers]
            if shuffle is None:
                block_maps.append(part[0])
            else:
                block_maps.append(chain(D, shuffle, D.box1_map_many(list(part))))
        return chain(D, D.box0_map_many(block_maps), outer)

    return TwoOperad(
        name or "end2",
        component,
        unit,
        m,
        equal_fn=D.maps_equal,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# axiom checking


def _fiber_trees(sigma):
    if sigma == ZERO_ID:
        return [U0]
    if isinstance(sigma, OneTreeMap):
        return one_map_fibers(sigma)
    return [f.tree for f in fibers(sigma)]


@lru_cache(maxsize=None)
def _aligned(sigma: TwoTreeMap, omega: TwoTreeMap):
    """Leaf correspondence between the restriction fibers and sigma's fibers.

    Returns, per fiber of omega, the list of positions into fibers(sigma)
    supplying the inputs of the restriction — provided the induced positions
    biject onto the fibers of sigma, which is what the substitution identity
    needs to be well typed.  Shared middle levels can break the bijection
    (a height-1 leaf of a restriction over a non-leaf middle, or one leaf
    appearing under several branches); such pairs return None and are only
    counted."""
    S = sigma.target
    leaf_pos = {leaf: pos for pos, leaf in enumerate(S.leaf_order())}
    out = []
    used = []
    for fc, fo, restr in composite_restrictions(sigma, omega):
        if fo.height == 2:
            positions = []
            S_i = fo.tree
            mid = omega.s1_preimage(omega.target.t(fo.leaf))
            lev2 = omega.s2_preimage(fo.leaf)
            for kind, leaf in S_i.leaf_order():
                if kind == "h2":
                    positions.append(leaf_pos[("h2", lev2[leaf - 1])])
                else:
                    j = mid[leaf - 1]
                    if ("h1", j) not in leaf_pos:
                        return None
                    positions.append(leaf_pos[("h1", j)])
            out.append((restr, positions))
            used.extend(positions)
        else:
            mid = omega.s1_preimage(fo.leaf)
            positions = []
            for j in mid:
                if ("h1", j) not in leaf_pos:
                    return None
                positions.append(leaf_pos[("h1", j)])
            out.append((restr, positions))
            used.extend(positions)
    if sorted(used) != list(range(len(leaf_pos))):
        return None
    return out


def check_two_operad(A: TwoOperad, max_leaves=3, ordinal_bound=3, tuple_cap=64) -> CheckReport:
    rep = CheckReport(f"2-operad axioms: {A.name} (leaf bound {max_leaves})")
    trees2 = enumerate_two_trees(max_leaves)
    trees1 = [OneTree(n) for n in range(ordinal_bound + 1)]

    # (**) identity axiom on every level
    witness = ""
    for t in trees2:
        ident = two_identity(t)
        units = [A.unit(f.height) for f in fibers(ident)]
        for a in A.component(t):
            if not A.eq(A.m(ident, units, a), a):
                witness = t.render()
    for t in trees1:
        ident = one_identity(t)
        units = [A.unit(1)] * t.n
        for a in A.component(t):
            if not A.eq(A.m(ident, units, a), a):
                witness = t.render()
    for a in A.component(U0):
        if not A.eq(A.m(ZERO_ID, [A.unit(0)], a), a):
            witness = "U0"
    rep.add("(**) identities act trivially", not witness, f"trees <= {max_leaves} leaves", witness)

    # (***) the terminal maps absorb units
    witness = ""
    for t in trees2:
        term = terminal_map(t)
        for a in A.component(t):
            if not A.eq(A.m(term, [a], A.unit(2)), a):
                witness = t.render()
    for t in trees1:
        term = OneTreeMap(t, U1, (1,) * t.n)
        for a in A.component(t):
            if not A.eq(A.m(term, [a], A.unit(1)), a):
                witness = t.render()
    for a in A.component(U0):
        if not A.eq(A.m(ZERO_ID, [a], A.unit(0)), a):
            witness = "U0"
    rep.add("(***) units absorb", not witness, f"trees <= {max_leaves} leaves", witness)

    # (*) associativity over aligned composable pairs
    witness = ""
    pairs = aligned = 0
    map_table = {
        (T, S): enumerate_two_tree_maps(T, S) for T in trees2 for S in trees2
    }
    for T in trees2:
        for S in trees2:
            for sigma in map_table[(T, S)]:
                for R in trees2:
                    for omega in map_table[(S, R)]:
                        pairs += 1
                        plan = _aligned(sigma, omega)
                        if plan is None:
                            continue
                        aligned += 1
                        if not _assoc_holds(A, sigma, omega, plan, tuple_cap):
                            witness = f"{sigma.render()} ; {omega.render()}"
    # the 1-tree level: classical operad associativity (always aligned)
    for a in range(ordinal_bound + 1):
        for b in range(ordinal_bound + 1):
            for f in enumerate_one_maps(OneTree(a), OneTree(b)):
                for c in range(ordinal_bound + 1):
                    for g in enumerate_one_maps(OneTree(b), OneTree(c)):
                        pairs += 1
                        aligned += 1
                        if not _assoc_one_level(A, f, g, tuple_cap):
                            witness = f"{f.render()} ; {g.render()}"
    rep.add(
        "(*) associativity",
        not witness,
        f"{aligned}/{pairs} composable pairs aligned within bound; element tuples capped at {tuple_cap}",
        witness,
    )
    return rep


def _tuples(A, trees):
    pools = [A.component(t) for t in trees]
    return itertools.product(*pools)


def _assoc_holds(A: TwoOperad, sigma, omega, plan, tuple_cap=64):
    comp = compose_tree_maps(sigma, omega)
    sigma_fibers = _fiber_trees(sigma)
    omega_fibers = _fiber_trees(omega)
    combos = itertools.product(
        _tuples(A, sigma_fibers), _tuples(A, omega_fibers), A.component(omega.target)
    )
    for a_elems, b_elems, c in itertools.islice(combos, tuple_cap):
        inner = []
        for (restr, positions), b in zip(plan, b_elems):
            induced = [a_elems[p] for p in positions]
            inner.append(A.m(restr, induced, b))
        lhs = A.m(comp, inner, c)
        rhs = A.m(sigma, a_elems, A.m(omega, b_elems, c))
        if not A.eq(lhs, rhs):
            return False
    return True


def _assoc_one_level(A: TwoOperad, f: OneTreeMap, g: OneTreeMap, tuple_cap=64):
    comp = compose_one_maps(f, g)
    f_fibers = one_map_fibers(f)
    g_fibers = one_map_fibers(g)
    subs = []
    for j in range(1, g.codomain.n + 1):
        pre = g.preimage(j)
        subs.append(
            (
                pre,
                OneTreeMap(
                    OneTree(sum(f_fibers[q - 1].n for q in pre)),
                    OneTree(len(pre)),
                    tuple(k + 1 for k, q in enumerate(pre) for _ in range(f_fibers[q - 1].n)),
                ),
            )
        )
    combos = itertools.product(
        _tuples(A, f_fibers), _tuples(A, g_fibers), A.component(g.codomain)
    )
    for a_elems, b_elems, c in itertools.islice(combos, tuple_cap):
        inner = []
        for j, (pre, sub) in enumerate(subs):
            block = [a_elems[q - 1] for q in pre]
            inner.append(A.m(sub, block, b_elems[j]))
        lhs = A.m(comp, inner, c)
        rhs = A.m(f, a_elems, A.m(g, b_elems, c))
        if not A.eq(lhs, rhs):
            return False
    return True


def truncate(A: TwoOperad, k: int) -> TwoOperad:
    """Restrict to trees of level <= k."""

    def component(tree):
        if k == 0 and not isinstance(tree, ZeroTree):
            raise ValueError("tree outside the truncation")
        if k == 1 and isinstance(tree, TwoTree):
            raise ValueError("tree outside the truncation")
        return A.component(tree)

    return TwoOperad(f"tr{k}({A.name})", component, A.unit_fn, A.m_fn, A.equal_fn, A.bound)


def is_one_terminal(A: TwoOperad, ordinal_bound=3) -> bool:
    if len(A.component(U0)) != 1:
        return False
    return all(len(A.component(OneTree(n))) == 1 for n in range(ordinal_bound + 1))


def pruned_map_values(A: TwoOperad, tree: TwoTree):
    """The canonical map A(T) -> A(T^p) inserting units along the pruning
    inclusion, as its values in the order of A(T); needs a 1-terminal operad
    so the height-1 fibers have canonical elements."""
    pruned_tree, incl = prune(tree)
    fib = fibers(incl)
    inputs = []
    for f in fib:
        if f.height == 2:
            inputs.append(A.unit(2))
        else:
            comp = A.component(f.tree)
            if len(comp) != 1:
                raise ValueError("pruned comparison needs a 1-terminal operad")
            inputs.append(comp[0])
    return tuple(A.m(incl, inputs, a) for a in A.component(tree)), pruned_tree


def is_pruned(A: TwoOperad, max_leaves=3) -> bool:
    """1-terminal and the pruning comparison bijective on every tree."""
    if not is_one_terminal(A):
        return False
    for tree in enumerate_two_trees(max_leaves):
        images, pruned_tree = pruned_map_values(A, tree)
        target = A.component(pruned_tree)
        # injective with image exhausting the target
        for i, x in enumerate(images):
            for y in images[i + 1 :]:
                if A.eq(x, y):
                    return False
        if len(images) != len(target):
            return False
    return True


# ---------------------------------------------------------------------------
# duoids as algebras


def duoid_evaluation(D, d, tree):
    """The tree-shaped iterated multiplication X^T -> X of a duoid."""
    x = d.carrier
    if isinstance(tree, ZeroTree):
        return D.identity(D.e)
    if isinstance(tree, OneTree):
        return iterated_mu_v(D, tree.n)
    if tree == Z2U0:
        return d.unit0

    def block_map(k):
        if k == 0:
            return d.unit1
        out = D.identity(x)
        for _ in range(k - 1):
            out = chain(D, D.box1_map(D.identity(x), out), d.mult1)
        return out

    blocks = [block_map(len(tree.t.preimage(j))) for j in range(1, tree.m + 1)]
    assembled = D.box0_map_many(blocks)
    fold = D.identity(x)
    for _ in range(tree.m - 1):
        fold = chain(D, D.box0_map(D.identity(x), fold), d.mult0)
    return chain(D, assembled, fold)


def duoid_to_algebra(D, d, bound=3):
    """The algebra structure of a duoid: the point of each component goes to
    the tree-shaped multiplication; the level-1 part is the canonical map."""
    evaluations = {}
    for tree in enumerate_two_trees(bound):
        evaluations[tree] = duoid_evaluation(D, d, tree)
    return evaluations


def algebra_to_duoid(D, evaluations, x, name="duoid"):
    from .duoidal import Duoid
    from .trees import two_tree

    return Duoid(
        x,
        mult0=evaluations[two_tree(2, 2, [1, 2])],
        unit0=evaluations[Z2U0],
        mult1=evaluations[two_tree(2, 1, [1, 1])],
        unit1=evaluations[two_tree(0, 1, [])],
        name=name,
    )


def check_algebra_map(D, d, evaluations, max_leaves=3, ordinal_bound=3) -> CheckReport:
    """Is tree -> evaluation a morphism of tree operads onto the
    endomorphism example, with the canonical level-1 part?"""
    rep = CheckReport(f"duoid algebra structure: {d.name}")
    E = end2(D, d.carrier, bound=max_leaves)

    # the level-1 part: substitution for ordinal maps with the v-operad maps
    witness = ""
    for a in range(ordinal_bound + 1):
        for b in range(ordinal_bound + 1):
            for f in enumerate_one_maps(OneTree(a), OneTree(b)):
                fib = [iterated_mu_v(D, t.n) for t in one_map_fibers(f)]
                lhs = E.m(f, fib, iterated_mu_v(D, b))
                if not D.maps_equal(lhs, iterated_mu_v(D, a)):
                    witness = f.render()
    rep.add("level-1 part is the canonical v-operad map", not witness, f"ordinals <= {ordinal_bound}", witness)

    witness = ""
    trees2 = enumerate_two_trees(max_leaves)
    for T in trees2:
        for S in trees2:
            for sigma in enumerate_two_tree_maps(T, S):
                fib = [
                    evaluations[f.tree] if f.height == 2 else iterated_mu_v(D, f.tree.n)
                    for f in fibers(sigma)
                ]
                lhs = E.m(sigma, fib, evaluations[S])
                if not D.maps_equal(lhs, evaluations[T]):
                    witness = sigma.render()
    rep.add("evaluations respect substitution", not witness, f"trees <= {max_leaves} leaves", witness)
    return rep
