"""Level trees of height <= 2 and their morphisms.

A 1-tree is a finite ordinal (n) = {1,...,n}.  A 2-tree is a monotone map
t: (n) -> (m) of ordinals; elements of (n) are its height-2 leaves and the
elements of (m) with empty preimage are its height-1 leaves.  Morphisms of
2-trees are commuting squares (sigma2, sigma1) with sigma1 monotone and
sigma2 monotone on each t-fiber.  Ordinals are 1-based throughout; the empty
ordinal is n = 0.

The linear order on the leaves of a 2-tree (n -> m) is: for j = 1..m, the
height-2 leaves of t^{-1}(j) in increasing order, then the height-1 leaf j
itself when t^{-1}(j) is empty.  This realizes the clockwise reading of the
planar tree for this encoding.

The fiber of sigma: T -> S over a height-2 leaf l of S is the 2-tree
sigma2^{-1}(l) -> sigma1^{-1}(s(l)) (restricting t, both sides renumbered in
order); over a height-1 leaf j it is the 1-tree sigma1^{-1}(j).  A 1-tree map
f: (a) -> (b) has one fiber f^{-1}(j) per j = 1..b.

Trees and maps are interned into a `TreePool` as integers, so two ids are
equal exactly when their trees or maps are.  The pool computes what the
operad checks read of an id (preimages, leaf order, fibers, aligned inputs)
once, when the id is first made, and keeps prunings and block
decompositions once asked for.  Composites and restrictions are interned
like every map but not stored per pair: a check asks for each pair once,
and there are millions of pairs at leaf bound 4.  A pool lives for one
check; nothing in this module is process-global.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .report import Memo

# the kind of an id: trees of height 0, 1 and 2, then maps between them
TREE0, TREE1, TREE2, MAP0, MAP1, MAP2 = range(6)
# ids every pool makes first: the 0-tree and its unique map, the 1-tree (1),
# the 2-trees (1 -> 1), (0 -> 1) and the leafless (0 -> 0)
U0, ZERO_ID, U1, U2, ZU1, Z2U0 = range(6)


class TreeError(ValueError):
    pass


class Fiber(NamedTuple):
    """A fiber of a 2-tree map, positioned in the target's leaf order.

    `height` is the height of the target leaf; the fiber over a height-2 leaf
    is a 2-tree, the fiber over a height-1 leaf is a 1-tree (both pool ids).
    """

    height: int
    tree: int
    position: int
    leaf: int


def _monotone(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _check_ordinal_map(images, n, m):
    if len(images) != n:
        raise TreeError("image list must have one entry per domain element")
    for k in images:
        if not 1 <= k <= m:
            raise TreeError(f"image {k} outside 1..{m}")
    if not _monotone(images):
        raise TreeError("ordinal map must be weakly monotone")


def _preimages(images, size):
    """The preimage of each j = 1..size, in increasing order."""
    out = [[] for _ in range(size)]
    for i, j in enumerate(images, 1):
        out[j - 1].append(i)
    return tuple(map(tuple, out))


def _shift(values, block):
    """Renumber values lying in the contiguous block as 1, 2, ..."""
    return tuple(v - block[0] + 1 for v in values)


class TreePool:
    """Interned trees and tree maps with per-id tables.

    The tables are lists indexed by id, None where they do not apply:
    - kind: TREE0 .. MAP2;
    - n: the size of a 1-tree, the height-2 leaf count of a 2-tree;
    - m: the codomain size of a 2-tree;
    - images: the structure map of a 2-tree, the images of a 1-tree map, the
      sigma1 of a 2-tree map; pre: its preimages, one per codomain element;
    - images2, pre2: the sigma2 of a 2-tree map and its preimages;
    - rank2: per height-2 leaf of a 2-tree map's source, its position in its
      sigma2-preimage;
    - source, target: of a map;
    - leaves: the leaf order of a 2-tree, as (height, leaf) pairs;
    - fibers: the fibers of a 2-tree map, in its target's leaf order;
    - fiber_trees: the fiber trees of every map (the 0-tree map has U0);
    - aligned: per fiber of a map omega: S -> R, the positions into the
      fibers of any sigma: T -> S that feed the restriction of sigma over it
      (see `two_operads`), or None when they do not biject onto them.
    """

    def __init__(self):
        self._ids = {}  # structural key -> id
        self.kind, self.n, self.m = [], [], []
        self.images, self.pre, self.images2, self.pre2, self.rank2 = [], [], [], [], []
        self.source, self.target = [], []
        self.leaves, self.fibers, self.fiber_trees, self.aligned = [], [], [], []
        self._tables = (
            self.kind, self.n, self.m, self.images, self.pre, self.images2, self.pre2, self.rank2,
            self.source, self.target, self.leaves, self.fibers, self.fiber_trees, self.aligned,
        )
        self._pruned = Memo(self._prune)  # tree -> (pruned tree, inclusion)
        self._blocks = Memo(self._block_decompose)  # 2-tree map -> block decomposition
        self._new((TREE0,))
        zero = self._new((MAP0,))
        self.source[zero] = self.target[zero] = U0
        self.fiber_trees[zero] = (U0,)
        self.one_tree(1)
        self.two_tree(1, 1, [1])
        self.two_tree(0, 1, [])
        self.two_tree(0, 0, [])

    def _new(self, key) -> int:
        x = len(self.kind)
        self._ids[key] = x
        for table in self._tables:
            table.append(None)
        self.kind[x] = key[0]
        return x

    def _expect(self, x, kind):
        if not (isinstance(x, int) and 0 <= x < len(self.kind) and self.kind[x] == kind):
            raise TreeError(f"{x!r} is not a {('0-tree', '1-tree', '2-tree')[kind]} of this pool")

    # -- construction --------------------------------------------------------

    def one_tree(self, n: int) -> int:
        if n < 0:
            raise TreeError("ordinal size must be >= 0")
        x = self._ids.get((TREE1, n))
        if x is None:
            x = self._new((TREE1, n))
            self.n[x] = n
        return x

    def two_tree(self, n: int, m: int, images) -> int:
        """The 2-tree (n) -> (m) with the given structure map."""
        images = tuple(images)
        if n < 0 or m < 0:
            raise TreeError("ordinal size must be >= 0")
        _check_ordinal_map(images, n, m)
        return self._two_tree(n, m, images)

    def _two_tree(self, n, m, images) -> int:
        key = (TREE2, n, m, images)
        x = self._ids.get(key)
        if x is None:
            x = self._new(key)
            self.n[x], self.m[x], self.images[x] = n, m, images
            pre = self.pre[x] = _preimages(images, m)
            self.leaves[x] = tuple(
                leaf for j, p in enumerate(pre, 1) for leaf in ([(2, i) for i in p] if p else [(1, j)])
            )
        return x

    def one_map(self, a: int, b: int, images) -> int:
        """The monotone map (a) -> (b) of 1-trees with the given images."""
        images = tuple(images)
        self._expect(a, TREE1)
        self._expect(b, TREE1)
        _check_ordinal_map(images, self.n[a], self.n[b])
        return self._one_map(a, b, images)

    def _one_map(self, a, b, images) -> int:
        key = (MAP1, a, b, images)
        x = self._ids.get(key)
        if x is None:
            x = self._new(key)
            self.source[x], self.target[x], self.images[x] = a, b, images
            pre = self.pre[x] = _preimages(images, self.n[b])
            self.fiber_trees[x] = tuple(self.one_tree(len(p)) for p in pre)
            self.aligned[x] = tuple(tuple(q - 1 for q in p) for p in pre)
        return x

    def two_map(self, T: int, S: int, sigma1, sigma2) -> int:
        """The map T -> S of 2-trees with components (sigma2, sigma1)."""
        sigma1, sigma2 = tuple(sigma1), tuple(sigma2)
        self._expect(T, TREE2)
        self._expect(S, TREE2)
        if len(sigma1) != self.m[T] or len(sigma2) != self.n[T]:
            raise TreeError("component length mismatch")
        if not all(1 <= k <= self.m[S] for k in sigma1):
            raise TreeError("sigma1 out of range")
        if not all(1 <= k <= self.n[S] for k in sigma2):
            raise TreeError("sigma2 out of range")
        if not _monotone(sigma1):
            raise TreeError("sigma1 must be order preserving")
        t, s = self.images[T], self.images[S]
        if any(s[k - 1] != sigma1[j - 1] for k, j in zip(sigma2, t)):
            raise TreeError("square does not commute")
        if not all(_monotone([sigma2[i - 1] for i in p]) for p in self.pre[T]):
            raise TreeError("sigma2 must be order preserving on each fiber")
        return self._two_map(T, S, sigma1, sigma2)

    def _two_map(self, T, S, sigma1, sigma2) -> int:
        key = (MAP2, T, S, sigma1, sigma2)
        x = self._ids.get(key)
        if x is not None:
            return x
        x = self._new(key)
        self.source[x], self.target[x] = T, S
        self.images[x], self.images2[x] = sigma1, sigma2
        pre = self.pre[x] = _preimages(sigma1, self.m[S])
        pre2 = self.pre2[x] = _preimages(sigma2, self.n[S])
        rank = [0] * self.n[T]
        for p in pre2:
            for r, i in enumerate(p, 1):
                rank[i - 1] = r
        self.rank2[x] = tuple(rank)
        t, s = self.images[T], self.images[S]
        fibers = []
        for position, (height, leaf) in enumerate(self.leaves[S]):
            if height == 2:
                dom, cod = pre2[leaf - 1], pre[s[leaf - 1] - 1]
                tree = self._two_tree(len(dom), len(cod), _shift([t[i - 1] for i in dom], cod))
            else:
                tree = self.one_tree(len(pre[leaf - 1]))
            fibers.append(Fiber(height, tree, position, leaf))
        self.fibers[x] = tuple(fibers)
        self.fiber_trees[x] = tuple(f.tree for f in fibers)
        self.aligned[x] = self._aligned(x)
        return x

    def _aligned(self, omega):
        S, r = self.source[omega], self.images[self.target[omega]]
        pos = {leaf: p for p, leaf in enumerate(self.leaves[S])}
        out, used = [], []
        for f in self.fibers[omega]:
            if f.height == 2:
                lev2, mid = self.pre2[omega][f.leaf - 1], self.pre[omega][r[f.leaf - 1] - 1]
                inputs = [
                    pos[(2, lev2[leaf - 1])] if height == 2 else pos.get((1, mid[leaf - 1]))
                    for height, leaf in self.leaves[f.tree]
                ]
            else:
                inputs = [pos.get((1, j)) for j in self.pre[omega][f.leaf - 1]]
            if None in inputs:
                return None
            out.append(tuple(inputs))
            used.extend(inputs)
        if sorted(used) != list(range(len(pos))):
            return None
        return tuple(out)

    def one_identity(self, a: int) -> int:
        return self._one_map(a, a, tuple(range(1, self.n[a] + 1)))

    def two_identity(self, T: int) -> int:
        return self._two_map(T, T, tuple(range(1, self.m[T] + 1)), tuple(range(1, self.n[T] + 1)))

    def terminal_map(self, T: int) -> int:
        """The unique map T -> U2."""
        return self._two_map(T, U2, (1,) * self.m[T], (1,) * self.n[T])

    def suspension(self, k: int) -> int:
        return self._two_tree(k, 1, (1,) * k)

    def ordinal_sum(self, T: int, S: int) -> int:
        """Glue two 2-trees at the root (fiberwise ordinal sum)."""
        images = self.images[T] + tuple(k + self.m[T] for k in self.images[S])
        return self._two_tree(self.n[T] + self.n[S], self.m[T] + self.m[S], images)

    def ordinal_sum_many(self, trees) -> int:
        out = Z2U0
        for t in trees:
            out = self.ordinal_sum(out, t)
        return out

    # -- derived maps ----------------------------------------------------------

    def compose(self, f: int, g: int) -> int:
        """f then g (diagrammatic order), both 1-tree maps or both 2-tree maps."""
        kind = self.kind[f]
        if kind not in (MAP1, MAP2) or self.kind[g] != kind or self.target[f] != self.source[g]:
            raise TreeError("composition domain mismatch")
        g1 = self.images[g]
        sigma1 = tuple(g1[j - 1] for j in self.images[f])
        if kind == MAP1:
            return self._one_map(self.source[f], self.target[g], sigma1)
        g2 = self.images2[g]
        return self._two_map(self.source[f], self.target[g], sigma1, tuple(g2[i - 1] for i in self.images2[f]))

    def restrictions(self, sigma: int, omega: int):
        """Per-leaf restrictions of sigma along the fibers of omega.

        For T --sigma--> S --omega--> R, one map per fiber of omega, in leaf
        order: the restriction of sigma from the fiber of omega*sigma to the
        fiber of omega there, a 2-tree map over a height-2 leaf and a 1-tree
        map over a height-1 leaf.  For 1-tree maps, one 1-tree map per
        element of the last ordinal.
        """
        comp = self.compose(sigma, omega)
        s1, pre_c, pre_o = self.images[sigma], self.pre[comp], self.pre[omega]
        if self.kind[sigma] == MAP1:
            return tuple(
                self._one_map(fc, fo, _shift([s1[j - 1] for j in t_mid], s_mid))
                for fc, fo, t_mid, s_mid in zip(self.fiber_trees[comp], self.fiber_trees[omega], pre_c, pre_o)
            )
        s2, rank2, r = self.images2[sigma], self.rank2[omega], self.images[self.target[omega]]
        out = []
        for fc, fo in zip(self.fiber_trees[comp], self.fibers[omega]):
            leaf = fo.leaf
            if fo.height == 2:
                t_mid, s_mid = pre_c[r[leaf - 1] - 1], pre_o[r[leaf - 1] - 1]
                restricted2 = tuple(rank2[s2[i - 1] - 1] for i in self.pre2[comp][leaf - 1])
                out.append(self._two_map(fc, fo.tree, _shift([s1[j - 1] for j in t_mid], s_mid), restricted2))
            else:
                t_mid, s_mid = pre_c[leaf - 1], pre_o[leaf - 1]
                out.append(self._one_map(fc, fo.tree, _shift([s1[j - 1] for j in t_mid], s_mid)))
        return tuple(out)

    def prune(self, T: int):
        """Maximal pruned subtree and its inclusion into T.

        The inclusion's fibers are U2 over the height-2 leaves of T and the
        empty 1-tree over its height-1 leaves (the fiber over a height-1 leaf
        is an ordinal by definition, so the leafless 2-tree never appears here).
        """
        return self._pruned[T]

    def _prune(self, T):
        image = sorted(set(self.images[T]))
        rank = {j: k for k, j in enumerate(image, 1)}
        pruned = self._two_tree(self.n[T], len(image), tuple(rank[j] for j in self.images[T]))
        return pruned, self._two_map(pruned, T, tuple(image), tuple(range(1, self.n[T] + 1)))

    def suspension_decompose(self, S: int):
        """Split a 2-tree into the suspensions over its codomain elements."""
        if S == Z2U0:
            raise TreeError("the leafless tree has no suspension decomposition")
        return tuple(self.suspension(len(p)) for p in self.pre[S])

    def block_decompose(self, sigma: int):
        """Split sigma: T -> S into blocks over the suspension summands of S.

        Returns one (Q_i, P_i, sigma_i) per codomain element of S, where
        P_i is the i-th suspension summand, T = Q_1 + ... + Q_l and
        sigma = sigma_1 + ... + sigma_l.
        """
        return self._blocks[sigma]

    def _block_decompose(self, sigma):
        T, S = self.source[sigma], self.target[sigma]
        if S == Z2U0:
            raise TreeError("no block decomposition over the leafless tree")
        t, s2 = self.images[T], self.images2[sigma]
        blocks = []
        for mid, s_dom in zip(self.pre[sigma], self.pre[S]):
            dom = [k for j in mid for k in self.pre[T][j - 1]]
            Q = self._two_tree(len(dom), len(mid), _shift([t[k - 1] for k in dom], mid))
            P = self.suspension(len(s_dom))
            blocks.append((Q, P, self._two_map(Q, P, (1,) * len(mid), _shift([s2[k - 1] for k in dom], s_dom))))
        return tuple(blocks)

    # -- enumeration -------------------------------------------------------------

    def enumerate_one_maps(self, a: int, b: int):
        """All monotone maps (a) -> (b)."""
        return [
            self._one_map(a, b, images)
            for images in itertools.combinations_with_replacement(range(1, self.n[b] + 1), self.n[a])
        ]

    def enumerate_two_trees(self, max_leaves: int):
        """All 2-trees with at most `max_leaves` leaves, deterministically ordered."""
        out = []
        for m in range(0, max_leaves + 1):
            for n in range(0, max_leaves + 1):
                for images in itertools.combinations_with_replacement(range(1, m + 1), n):
                    T = self._two_tree(n, m, images)
                    if len(self.leaves[T]) <= max_leaves:
                        out.append(T)
        return out

    def enumerate_two_tree_maps(self, T: int, S: int):
        """All 2-tree maps T -> S by fiberwise search (no duplicates)."""
        s_pre = self.pre[S]
        out = []
        for sigma1 in itertools.combinations_with_replacement(range(1, self.m[S] + 1), self.m[T]):
            # sigma2 picks, per fiber of T in order, a monotone map into the
            # fiber of S below; the fibers of T are consecutive, so sigma2 is
            # their concatenation
            per_fiber = [
                itertools.combinations_with_replacement(s_pre[j - 1], len(p))
                for p, j in zip(self.pre[T], sigma1)
            ]
            for combo in itertools.product(*per_fiber):
                out.append(self._two_map(T, S, sigma1, tuple(itertools.chain.from_iterable(combo))))
        return out

    # -- text ----------------------------------------------------------------------

    def render(self, x: int) -> str:
        kind = self.kind[x]
        if kind == TREE0:
            return "U0"
        if kind == TREE1:
            return f"({self.n[x]})"
        if kind == TREE2:
            return f"({self.n[x]}->{self.m[x]}; t={list(self.images[x])})"
        if kind == MAP0:
            return "U0 => U0"
        if kind == MAP1:
            return f"({self.n[self.source[x]]}->{self.n[self.target[x]]}; {list(self.images[x])})"
        return (
            f"{self.render(self.source[x])} => {self.render(self.target[x])} "
            f"[s1={list(self.images[x])}, s2={list(self.images2[x])}]"
        )
