"""Bicolored binary planar trees, alternating trees, and the contraction map.

Binary trees have vertices of valence three (two ordered children) or one
(no children), colored white or black; the edgeless tree is a single leaf.
Alternating trees have vertices of valence one or at least three with no
edge joining equal colors; grafting onto a leaf whose vertex has the root's
color contracts the new edge, and a resulting unary vertex is the identity
operation and disappears.  Contraction collapses every maximal monocolored
subtree to a corolla; it is the operad comparison map between the two.

Trees are interned into integer-indexed pools so that the exhaustive
contraction/grafting checks over millions of trees stay cheap: structural
equality is integer equality and contractions are computed once, bottom-up.
"""

from __future__ import annotations

LEAF = 0  # the id of the edgeless tree in every pool
WHITE, BLACK = "w", "b"
COLORS = (WHITE, BLACK)


class TreePool:
    """An interned forest: node ids with (color, children-ids) payloads."""

    def __init__(self):
        self.color = [None]  # id -> color (None for the leaf)
        self.kids = [()]  # id -> tuple of child ids
        self.leaves = [1]  # id -> number of leaves
        self.verts = [0]  # id -> number of vertices
        self._intern = {}

    def intern(self, color, children) -> int:
        key = (color, children)
        found = self._intern.get(key)
        if found is not None:
            return found
        idx = len(self.color)
        self.color.append(color)
        self.kids.append(children)
        self.leaves.append(sum(self.leaves[c] for c in children) if children else (1 if color is None else 0))
        self.verts.append(1 + sum(self.verts[c] for c in children))
        self._intern[key] = idx
        return idx

    def render(self, t) -> str:
        if t == LEAF:
            return "l"
        return f"{self.color[t]}({','.join(self.render(c) for c in self.kids[t])})"


class BinaryForest(TreePool):
    """Bicolored binary trees: every vertex has zero or two children."""

    def node(self, color, children) -> int:
        if color not in COLORS or len(children) not in (0, 2):
            raise ValueError("binary trees need white/black vertices of valence 1 or 3")
        return self.intern(color, tuple(children))

    def graft(self, t, s, leaf_index) -> int:
        """Substitute s into the leaf_index-th leaf of t (1-based)."""
        if not 1 <= leaf_index <= self.leaves[t]:
            raise ValueError(f"leaf index {leaf_index} out of range")
        if t == LEAF:
            return s
        a, b = self.kids[t]
        if leaf_index <= self.leaves[a]:
            return self.intern(self.color[t], (self.graft(a, s, leaf_index), b))
        return self.intern(self.color[t], (a, self.graft(b, s, leaf_index - self.leaves[a])))

    def by_vertices(self, max_vertices):
        """All trees grouped by vertex count, in a deterministic order."""
        levels = [[LEAF]]
        for v in range(1, max_vertices + 1):
            out = []
            for color in COLORS:
                if v == 1:
                    out.append(self.node(color, ()))
                for va in range(0, v):
                    vb = v - 1 - va
                    for a in levels[va]:
                        for b in levels[vb]:
                            out.append(self.node(color, (a, b)))
            levels.append(out)
        return levels

    def enumerate_exact(self, n_leaves, max_vertices):
        """Trees with exactly n_leaves leaves within a vertex bound."""
        out = []
        for level in self.by_vertices(max_vertices):
            out.extend(t for t in level if self.leaves[t] == n_leaves)
        return out


class AlternatingForest(TreePool):
    """Alternating trees in normal form.

    The smart constructor splices same-colored children (edge contraction)
    and removes unary vertices (identity operations), so every stored node
    has valence one or at least three and no equal-colored edge.
    """

    def node(self, color, children) -> int:
        if color not in COLORS:
            raise ValueError("alternating trees need white/black vertices")
        spliced = []
        for c in children:
            if c != LEAF and self.color[c] == color:
                spliced.extend(self.kids[c])
            else:
                spliced.append(c)
        if len(spliced) == 1:
            return spliced[0]
        return self.intern(color, tuple(spliced))

    def raw_node(self, color, children) -> int:
        """Intern an already-normal node (enumeration helper)."""
        if len(children) == 1:
            raise ValueError("alternating trees have no unary vertices")
        for c in children:
            if c != LEAF and self.color[c] == color:
                raise ValueError("equal colors across an edge")
        return self.intern(color, tuple(children))

    def graft(self, t, s, leaf_index) -> int:
        if not 1 <= leaf_index <= self.leaves[t]:
            raise ValueError(f"leaf index {leaf_index} out of range")
        if t == LEAF:
            return s
        color = self.color[t]
        kids = self.kids[t]
        acc = 0
        for pos, c in enumerate(kids):
            if leaf_index <= acc + self.leaves[c]:
                new_child = self.graft(c, s, leaf_index - acc)
                return self.node(color, kids[:pos] + (new_child,) + kids[pos + 1 :])
            acc += self.leaves[c]
        raise AssertionError("unreachable")

    def enumerate_exact(self, n_leaves, max_vertices):
        """Normal-form trees with exactly n_leaves leaves and a vertex bound.

        The leaf budget is essential: a single corolla already has arbitrary
        arity, so vertices alone do not bound the enumeration.
        """
        out = []
        for v in range(0, max_vertices + 1):
            out.extend(self._trees_lv(n_leaves, v, None))
        return out

    def _trees_lv(self, leaves, vertices, exclude_color):
        key = ("lv", leaves, vertices, exclude_color)
        cached = getattr(self, "_enum_cache", None)
        if cached is None:
            cached = self._enum_cache = {}
        if key in cached:
            return cached[key]
        out = []
        if vertices == 0:
            if leaves == 1:
                out.append(LEAF)
        else:
            for color in COLORS:
                if color == exclude_color:
                    continue
                if leaves == 0 and vertices == 1:
                    out.append(self.raw_node(color, ()))
                for kids in self._seqs(leaves, vertices - 1, color):
                    if len(kids) >= 2:
                        out.append(self.raw_node(color, kids))
        cached[key] = out
        return out

    def _seqs(self, leaves, vertices, color):
        """All child tuples with exact totals; every child consumes budget."""
        if leaves == 0 and vertices == 0:
            return [()]
        out = []
        for l1 in range(0, leaves + 1):
            for v1 in range(0, vertices + 1):
                if (l1, v1) == (0, 0):
                    continue
                for child in self._trees_lv(l1, v1, color):
                    for rest in self._seqs(leaves - l1, vertices - v1, color):
                        out.append((child,) + rest)
        return out


class ContractionMap:
    """The operadic comparison: collapse maximal monocolored subtrees."""

    def __init__(self, btrees: BinaryForest, atrees: AlternatingForest):
        self.btrees = btrees
        self.atrees = atrees
        self._table = {LEAF: LEAF}

    def contract(self, t) -> int:
        found = self._table.get(t)
        if found is not None:
            return found
        color = self.btrees.color[t]
        out = self.atrees.node(color, tuple(self.contract(c) for c in self.btrees.kids[t]))
        self._table[t] = out
        return out

    def fiber_classes(self, trees):
        """Group binary trees by their contraction image."""
        out = {}
        for t in trees:
            out.setdefault(self.contract(t), []).append(t)
        return out


# ---------------------------------------------------------------------------
# term syntax (CLI-facing): l, w(...), b(...), nullary as w() / b()


def parse_term(pool: TreePool, text: str) -> int:
    text = text.replace(" ", "")
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(text):
            raise ValueError("unexpected end of term")
        ch = text[pos]
        if ch == "l":
            pos += 1
            return LEAF
        if ch not in COLORS:
            raise ValueError(f"unexpected character {ch!r} at {pos}")
        color = ch
        pos += 1
        if pos >= len(text) or text[pos] != "(":
            raise ValueError(f"expected '(' at {pos}")
        pos += 1
        children = []
        if pos < len(text) and text[pos] == ")":
            pos += 1
            return pool.node(color, ())
        while True:
            children.append(parse())
            if pos >= len(text):
                raise ValueError("unterminated term")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise ValueError(f"unexpected character {text[pos]!r} at {pos}")
        return pool.node(color, tuple(children))

    out = parse()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return out


def check_contraction_operad_map(max_total_vertices=8):
    """contract(graft(T, S, i)) == graft(contract T, contract S, i) for all
    pairs with a combined vertex bound, every leaf of T.  Returns
    (checked_pairs, failures)."""
    btrees = BinaryForest()
    atrees = AlternatingForest()
    cmap = ContractionMap(btrees, atrees)
    levels = btrees.by_vertices(max_total_vertices)
    checked = 0
    failures = []
    contract = cmap.contract
    bgraft = btrees.graft
    agraft = atrees.graft
    leaves = btrees.leaves
    # many binary trees share a contraction, so the alternating-side graft
    # results repeat; cache them by (contracted pair, leaf index)
    rhs_cache = {}
    contractions = [[contract(t) for t in level] for level in levels]
    for vt in range(0, max_total_vertices + 1):
        for t, ct in zip(levels[vt], contractions[vt]):
            n_leaves = leaves[t]
            for vs in range(0, max_total_vertices - vt + 1):
                for s, cs in zip(levels[vs], contractions[vs]):
                    for i in range(1, n_leaves + 1):
                        checked += 1
                        lhs = contract(bgraft(t, s, i))
                        key = (ct, cs, i)
                        rhs = rhs_cache.get(key)
                        if rhs is None:
                            rhs = agraft(ct, cs, i)
                            rhs_cache[key] = rhs
                        if lhs != rhs:
                            failures.append((btrees.render(t), btrees.render(s), i))
                            if len(failures) > 5:
                                return checked, failures
    return checked, failures
