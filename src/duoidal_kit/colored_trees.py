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
equality is integer equality.  Contractions (a list filled in id order), the
enumeration tables and the graft rows of the last graftee (`report.Memo`s) are
tables of the objects that use them, so each is computed once, bottom-up, and
dropped with its pool (the graft rows already when the graftee changes).  An
alternating graft splices only the new child into a node in normal form.
"""

from __future__ import annotations

import itertools

from .report import Memo

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
        self._graftee = self._grafts = None  # the last graftee s and its graft table

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

    def graft(self, t, s, leaf_index) -> int:
        """Substitute s into the leaf_index-th leaf of t (1-based): an entry
        of `grafts(t, s)`, or s itself when t is the leaf."""
        if not 1 <= leaf_index <= self.leaves[t]:
            raise ValueError(f"leaf index {leaf_index} out of range")
        if t == LEAF:
            return s
        return self.grafts(t, s)[leaf_index - 1]

    def grafts(self, t, s) -> tuple:
        """The tuple of graft(t, s, i) over every leaf i of t, read from a
        `Memo` of each tree's row for the graftee s, filled bottom-up by
        `_grafts_of`: (s,) at the leaf and, for u = c(k1..kn), c(k1..x..kn)
        for each j in turn and each x in kj's row.  So a shared subtree is
        grafted once per graftee; the table is dropped when s changes."""
        if s != self._graftee:
            self._graftee, self._grafts = s, Memo(self._grafts_of)
            self._grafts[LEAF] = (s,)
        return self._grafts[t]

    def _grafts_of(self, u):
        kids, c, table = self.kids[u], self.color[u], self._grafts
        return tuple(self.node(c, kids[:j] + (x,) + kids[j + 1 :]) for j, k in enumerate(kids) for x in table[k])

    def render(self, t) -> str:
        """The term of a tree, written from an explicit stack of trees and
        the separators still to write, so depth costs no recursion."""
        out, stack = [], [t]
        while stack:
            u = stack.pop()
            if isinstance(u, str):
                out.append(u)
            elif u == LEAF:
                out.append("l")
            else:
                out.append(self.color[u] + "(")
                stack.append(")")
                for i, c in enumerate(reversed(self.kids[u])):
                    stack.extend((",", c) if i else (c,))
        return "".join(out)


class BinaryForest(TreePool):
    """Bicolored binary trees: every vertex has zero or two children."""

    def node(self, color, children) -> int:
        if color not in COLORS or len(children) not in (0, 2):
            raise ValueError("binary trees need white/black vertices of valence 1 or 3")
        return self.intern(color, tuple(children))

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

    def __init__(self):
        super().__init__()
        self._trees_lv = Memo(self._list_trees)  # (leaves, vertices, excluded root color) -> trees

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

    def _grafts_of(self, u):
        """u is normal, so only the new child x can share u's color c: x's
        children are spliced in when it does, and a vertex left with one
        child (x a nullary c-vertex, u binary) is that child."""
        kids, c, table, color, intern = self.kids[u], self.color[u], self._grafts, self.color, self.intern
        out = []
        for j, k in enumerate(kids):
            before, after = kids[:j], kids[j + 1 :]
            for x in table[k]:
                if x == k:  # kj unchanged, as when s is the leaf: u itself
                    out.append(u)
                    continue
                children = before + self.kids[x] + after if x != LEAF and color[x] == c else before + (x,) + after
                out.append(children[0] if len(children) == 1 else intern(c, children))
        return tuple(out)

    def raw_node(self, color, children) -> int:
        """Intern an already-normal node (enumeration helper)."""
        if len(children) == 1:
            raise ValueError("alternating trees have no unary vertices")
        for c in children:
            if c != LEAF and self.color[c] == color:
                raise ValueError("equal colors across an edge")
        return self.intern(color, tuple(children))

    def enumerate_exact(self, n_leaves, max_vertices):
        """Normal-form trees with exactly n_leaves leaves and a vertex bound.

        The leaf budget is essential: a single corolla already has arbitrary
        arity, so vertices alone do not bound the enumeration.
        """
        out = []
        for v in range(0, max_vertices + 1):
            out.extend(self._trees_lv[n_leaves, v, None])
        return out

    def _list_trees(self, key):
        leaves, vertices, exclude_color = key
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
                for child in self._trees_lv[l1, v1, color]:
                    for rest in self._seqs(leaves - l1, vertices - v1, color):
                        out.append((child,) + rest)
        return out


class ContractionMap:
    """The operadic comparison: collapse maximal monocolored subtrees."""

    def __init__(self, btrees: BinaryForest, atrees: AlternatingForest):
        self.btrees = btrees
        self.atrees = atrees
        self._table = {LEAF: LEAF}  # tree id -> contraction

    def contract(self, t) -> int:
        """The contraction of t, from an explicit stack of the block roots
        still to contract, so depth costs no recursion.  A root's corolla
        takes the contraction of each contracted child, which `node` splices
        when it has the root's color, and walks the children of a same-colored
        child not contracted yet in its place.  So only the final corolla of
        a maximal monocolored block is interned, and a chain of k vertices
        stores k + 1 child ids, not about k^2 / 2."""
        table, color, kids, node = self._table, self.btrees.color, self.btrees.kids, self.atrees.node
        stack = [t]
        while stack:
            u = stack[-1]
            if u in table:
                stack.pop()
                continue
            children, missing, walk = [], [], list(reversed(kids[u]))
            while walk:
                c = walk.pop()
                if c in table:
                    children.append(table[c])
                elif color[c] == color[u]:
                    walk.extend(reversed(kids[c]))
                else:
                    missing.append(c)
            if missing:
                stack.extend(missing)
            else:
                table[u] = node(color[u], tuple(children))
        return table[t]


# ---------------------------------------------------------------------------
# term syntax (CLI-facing): l, w(...), b(...), nullary as w() / b()


def parse_term(pool: TreePool, text: str) -> int:
    """The tree of a term, parsed with an explicit stack of the open vertices
    (color, children so far), so depth costs no recursion."""
    text = text.replace(" ", "")
    pos = 0
    stack = []
    while True:
        if pos >= len(text):
            raise ValueError("unexpected end of term")
        ch = text[pos]
        pos += 1
        if ch == "l":
            tree = LEAF
        elif ch not in COLORS:
            raise ValueError(f"unexpected character {ch!r} at {pos - 1}")
        elif pos >= len(text) or text[pos] != "(":
            raise ValueError(f"expected '(' at {pos}")
        elif pos + 1 < len(text) and text[pos + 1] == ")":
            pos += 2
            tree = pool.node(ch, ())
        else:
            pos += 1
            stack.append((ch, []))
            continue
        while stack:  # a finished tree: close each vertex that it ends
            color, children = stack[-1]
            children.append(tree)
            if pos >= len(text):
                raise ValueError("unterminated term")
            if text[pos] == ",":
                pos += 1
                break
            if text[pos] != ")":
                raise ValueError(f"unexpected character {text[pos]!r} at {pos}")
            pos += 1
            stack.pop()
            tree = pool.node(color, tuple(children))
        else:
            if pos != len(text):
                raise ValueError(f"trailing input at {pos}")
            return tree


def check_contraction_operad_map(max_total_vertices=8):
    """contract(graft(T, S, i)) == graft(contract T, contract S, i) for all
    pairs with a combined vertex bound, every leaf of T.  Returns
    (checked_triples, failures), stopping at the sixth failing triple.

    The left side is evaluated without building graft(T, S, i), and depends
    on S only through cs = contract S.  For each graftee contraction cs, one
    sweep fills a table G over the trees T, bottom-up, holding the tuple of
    contract(graft(T, S, i)) over the leaves i of T: G[leaf] = (cs,),
    G[nullary] = (), and for T = c(A, B)

        G[T] = (node(c, (x, contract B)) for x in G[A])
             + (node(c, (contract A, y)) for y in G[B]),

    with node = AlternatingForest.node, memoized per (c, x, y) since it does
    not depend on S.  This is ContractionMap.contract's own bottom-up
    definition applied to graft(T, S, i): it neither assumes the statement
    under test nor interns a grafted tree.  Each row G[T] is compared at once
    with (graft(contract T, cs, i) for every leaf i), one read of the pool's
    graft table for cs (`TreePool.grafts`), so a subtree shared by many
    contracted targets is grafted once per cs.  The graftees with one cs
    share the sweep's rows, and its failing rows are replayed for each below
    its own bound, in (cs, S, T, i) order.  A tree with exactly the bound's
    vertices meets only the leaf, as graftee or as target, so that level is
    streamed from its (c, A, B) and never interned.
    """
    btrees = BinaryForest()
    atrees = AlternatingForest()
    contract = ContractionMap(btrees, atrees).contract
    agraft, agrafts = atrees.graft, atrees.grafts
    V = max_total_vertices
    kept = V - 1 if V > 1 else V  # the top level is streamed unless it holds nullaries
    levels = btrees.by_vertices(kept)
    # a fresh pool interns the trees in level order, so the trees with at
    # most k vertices are the ids below ends[k]
    ends = list(itertools.accumulate(len(level) for level in levels))
    kids, color, leaves, verts, render = btrees.kids, btrees.color, btrees.leaves, btrees.verts, btrees.render
    leaf_sums = [sum(leaves[:end]) for end in ends]
    cont = [contract(t) for t in range(ends[-1])]
    node = {c: Memo(lambda pair, c=c: atrees.node(c, pair)) for c in COLORS}
    G = [None] * ends[-1]
    failures = []
    checked = 0

    def failed(got, want, t_text, s_text):
        """Record the failing leaves of one pair; True once six are known."""
        for i, x in enumerate(got, 1):
            if i > len(want) or x != want[i - 1]:
                failures.append((t_text, s_text, i))
                if len(failures) > 5:
                    return True
        return False

    def sweep(cs, end):
        """Fill G for the graftee contraction cs over the trees below end;
        return the failing rows as (t, got, want)."""
        G[LEAF] = got = (cs,)
        want = agrafts(LEAF, cs)
        rows = [] if got == want else [(LEAF, got, want)]
        for t in range(1, end):
            pair = kids[t]
            if pair:
                a, b = pair
                m, ca, cb = node[color[t]], cont[a], cont[b]
                G[t] = got = tuple([m[x, cb] for x in G[a]] + [m[ca, y] for y in G[b]])
            else:
                G[t] = got = ()
            want = agrafts(cont[t], cs)
            if got != want:
                rows.append((t, got, want))
        return rows

    def stream():
        """With G the leaf's table, check every tree c(a, b) with V vertices
        as a target of the leaf and as a graftee of the leaf."""
        nonlocal checked
        for c in COLORS:
            m = node[c]
            for va in range(V):
                for a in levels[va]:
                    ca, ga = cont[a], G[a]
                    for b in levels[V - 1 - va]:
                        cb = cont[b]
                        ct = m[ca, cb]
                        got = tuple([m[x, cb] for x in ga] + [m[ca, y] for y in G[b]])
                        checked += len(got) + 1
                        want = agrafts(ct, LEAF)
                        if got != want and failed(got, want, f"{c}({render(a)},{render(b)})", "l"):
                            return True
                        want = (agraft(LEAF, ct, 1),)
                        if (ct,) != want and failed((ct,), want, "l", f"{c}({render(a)},{render(b)})"):
                            return True
        return False

    # the graftees with one contraction cs in a row, in id order, so the first
    # has the fewest vertices and the largest end: its sweep serves the group
    for cs, group in itertools.groupby(sorted(range(ends[-1]), key=cont.__getitem__), cont.__getitem__):
        rows = None
        for s in group:
            k = min(V - verts[s], kept)
            checked += leaf_sums[k]
            rows = sweep(cs, ends[k]) if rows is None else rows
            failing = (failed(got, want, render(t), render(s)) for t, got, want in rows if t < ends[k])
            if any(failing) or (s == LEAF and kept < V and stream()):
                return checked, failures
    return checked, failures
