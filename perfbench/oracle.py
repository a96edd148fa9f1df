"""Results computed apart from duoidal_kit, to check the workloads against.

Nothing here imports the program.  Every function works from a definition
in the paper's terms (trees as nested tuples, maps as tuples of images,
functions as dicts), so an error shared with the program's data structures
cannot hide in both.
"""

from __future__ import annotations

import itertools

LEAF = "l"
COLORS = ("w", "b")


# ---------------------------------------------------------------------------
# bicolored binary trees and the contraction map


def binary_tree_counts(max_vertices):
    """(B, L): B[v] counts bicolored binary trees with v vertices, L[v] is the
    total number of leaves over those trees.

    A vertex is nullary or binary and white or black; the edgeless tree is the
    one tree with no vertex and one leaf.
    """
    B = [1] + [0] * max_vertices
    L = [1] + [0] * max_vertices
    for v in range(1, max_vertices + 1):
        b = 2 if v == 1 else 0  # the two nullary vertices
        leaves = 0
        for a in range(v):
            c = v - 1 - a
            b += 2 * B[a] * B[c]
            leaves += 2 * (L[a] * B[c] + B[a] * L[c])
        B[v] = b
        L[v] = leaves
    return B, L


def contraction_triples(max_vertices):
    """The number of (t, s, i) with |t| + |s| <= max_vertices and i a leaf of t."""
    B, L = binary_tree_counts(max_vertices)
    return sum(L[vt] * B[vs] for vt in range(max_vertices + 1) for vs in range(max_vertices + 1 - vt))


def random_binary_tree(rng, vertices, counts):
    """A uniformly random bicolored binary tree with exactly `vertices` vertices."""
    if vertices == 0:
        return LEAF
    B = counts
    pick = rng.randrange(B[vertices])
    if vertices == 1 and pick < 2:
        return (COLORS[pick], ())
    if vertices == 1:
        pick -= 2
    color = COLORS[pick % 2]
    pick //= 2
    for a in range(vertices):
        c = vertices - 1 - a
        block = B[a] * B[c]
        if pick < block:
            return (
                color,
                (random_binary_tree(rng, a, counts), random_binary_tree(rng, c, counts)),
            )
        pick -= block
    raise AssertionError("pick outside the tree count")


def leaf_count(t):
    if t == LEAF:
        return 1
    return sum(leaf_count(c) for c in t[1])


def graft(t, s, i):
    """Put s in place of the i-th leaf of t, counting leaves left to right from 1."""
    out, rest = _graft(t, s, i)
    if rest != 0:
        raise ValueError(f"tree has no leaf {i}")
    return out


def _graft(t, s, i):
    if t == LEAF:
        return (s, 0) if i == 1 else (t, i - 1)
    kids = []
    for c in t[1]:
        if i > 0:
            c, i = _graft(c, s, i)
        kids.append(c)
    return (t[0], tuple(kids)), i


def normal_form(t):
    """Contract every edge between equal colors and delete every unary vertex,
    until neither is left.  On a binary tree this is the contraction map; on
    a graft of alternating trees it is alternating grafting."""
    changed = True
    while changed:
        t, changed = _rewrite(t)
    return t


def _rewrite(t):
    if t == LEAF:
        return t, False
    color, kids = t
    changed = False
    out = []
    for c in kids:
        c, moved = _rewrite(c)
        changed |= moved
        if c != LEAF and c[0] == color:
            out.extend(c[1])
            changed = True
        else:
            out.append(c)
    if len(out) == 1:
        return out[0], True
    return (color, tuple(out)), changed


def render(t):
    """The program's term syntax: l, w(...), b(...)."""
    if t == LEAF:
        return LEAF
    return f"{t[0]}({','.join(render(c) for c in t[1])})"


# ---------------------------------------------------------------------------
# level trees of height <= 2 and their maps


def _monotone(seq):
    return all(a <= b for a, b in zip(seq, seq[1:]))


def two_trees(max_leaves):
    """2-trees t: (n) -> (m), monotone, with n + #(empty fibers) <= max_leaves."""
    out = []
    for n in range(max_leaves + 1):
        for m in range(max_leaves + 1):
            for t in itertools.product(range(1, m + 1), repeat=n):
                if _monotone(t) and n + sum(1 for j in range(1, m + 1) if j not in t) <= max_leaves:
                    out.append((n, m, t))
    return out


def two_tree_map_count(T, S):
    """Maps T -> S straight from the definition: sigma1 monotone, sigma2
    commuting with the structure maps and monotone on each fiber of T."""
    nT, mT, tT = T
    nS, mS, tS = S
    count = 0
    for s1 in itertools.product(range(1, mS + 1), repeat=mT):
        if not _monotone(s1):
            continue
        for s2 in itertools.product(range(1, nS + 1), repeat=nT):
            if any(tS[s2[i] - 1] != s1[tT[i] - 1] for i in range(nT)):
                continue
            if all(_monotone([s2[i] for i in range(nT) if tT[i] == j]) for j in range(1, mT + 1)):
                count += 1
    return count


def composable_pairs(max_leaves, ordinal_bound):
    """Composable pairs of 2-tree maps within the leaf bound, plus composable
    pairs of monotone maps between ordinals of size <= ordinal_bound."""
    trees = two_trees(max_leaves)
    maps = {(T, S): two_tree_map_count(T, S) for T in trees for S in trees}
    two_level = sum(maps[(T, S)] * maps[(S, R)] for T in trees for S in trees for R in trees)
    sizes = range(ordinal_bound + 1)
    ords = {
        (a, b): sum(1 for f in itertools.product(range(1, b + 1), repeat=a) if _monotone(f))
        for a in sizes
        for b in sizes
    }
    one_level = sum(ords[(a, b)] * ords[(b, c)] for a in sizes for b in sizes for c in sizes)
    return two_level + one_level


# ---------------------------------------------------------------------------
# arity-indexed operads


def associativity_shapes(bound, max_total):
    """Two-level shapes (n; k_1..k_n; l_11..l_nk_n) of an operad with arity-0
    components: n >= 1, every arity in 0..bound, sum(k) <= bound and
    sum(l) <= max_total."""
    arities = range(bound + 1)
    count = 0
    for n in range(1, bound + 1):
        for ks in itertools.product(arities, repeat=n):
            if sum(ks) > bound:
                continue
            for lss in itertools.product(*[list(itertools.product(arities, repeat=k)) for k in ks]):
                if sum(map(sum, lss)) <= max_total:
                    count += 1
    return count


def substitute(outer, inners):
    """Function substitution: (a_1..a_n) |-> outer(inner_1(a_1), ..., inner_n(a_n)),
    for unary inner functions given as dicts."""
    out = {}
    for args in itertools.product(*[sorted(f) for f in inners]):
        out[args] = outer[tuple(f[a] for f, a in zip(inners, args))]
    return out


# ---------------------------------------------------------------------------
# centers and natural transformations


def monoid_center(elements, mult):
    return {z for z in elements if all(mult(z, a) == mult(a, z) for a in elements)}


def natural_transformations(objects, arrows, hom, compose, F_obj, F_arr, G_obj, G_arr):
    """All families alpha_a in hom(F a, G a) with F(f) ; alpha_b == alpha_a ; G(f)
    for every arrow f: a -> b.  `arrows` maps a name to (source, target) and
    `compose(f, g)` is f then g."""
    choices = [hom(F_obj[a], G_obj[a]) for a in objects]
    out = set()
    for combo in itertools.product(*choices):
        alpha = dict(zip(objects, combo))
        if all(
            compose(F_arr[f], alpha[b]) == compose(alpha[a], G_arr[f]) for f, (a, b) in arrows.items()
        ):
            out.add(tuple(sorted(alpha.items())))
    return out
