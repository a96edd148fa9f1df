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
alternating graft splices only the new child into a node in normal form.  The
contraction check compares each graftee contraction with each distinct key
(color, contract A, contract B, contract T) of a target once, not once per
target, and goes tree by tree only where a key fails.
"""

from __future__ import annotations

import itertools
from collections import Counter

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


def _row(m, ca, cb, ra, rb):
    """The row of c(A, B) from the rows ra of A and rb of B, with ca, cb their
    contractions and m the memo of AlternatingForest.node for the color c:
    node(c, (x, cb)) for x in ra, then node(c, (ca, y)) for y in rb."""
    return tuple([m[x, cb] for x in ra] + [m[ca, y] for y in rb])


def check_contraction_operad_map(max_total_vertices=8):
    """contract(graft(T, S, i)) == graft(contract T, contract S, i) for all
    pairs with a combined vertex bound, every leaf of T.  Returns
    (checked_triples, failures), stopping at the sixth failing triple.

    The left side is evaluated without building graft(T, S, i), and depends
    on S only through cs = contract S.  For a graftee contraction cs, a table
    G over the trees T, bottom-up, holds the tuple of contract(graft(T, S, i))
    over the leaves i of T: G[leaf] = (cs,), G[nullary] = (), and for
    T = c(A, B)

        G[T] = (node(c, (x, contract B)) for x in G[A])
             + (node(c, (contract A, y)) for y in G[B]),

    with node = AlternatingForest.node, memoized per (c, x, y) since it does
    not depend on S (`_row`).  This is ContractionMap.contract's own bottom-up
    definition applied to graft(T, S, i): it neither assumes the statement
    under test nor interns a grafted tree.  Each row G[T] is compared with
    (graft(contract T, cs, i) for every leaf i), one read of the pool's graft
    table for cs (`TreePool.grafts`).

    Each comparison is made once per key (c, contract A, contract B,
    contract T) of a tree T = c(A, B); a leaf's or nullary's key is its color
    and contraction.  This is exact.  Suppose the row of every smaller tree
    passed: then G[A] and G[B] equal the right sides graft(contract A, cs, -)
    and graft(contract B, cs, -), so G[T] is a function of (c, contract A,
    contract B), and the right side of T is a function of contract T.  So
    all trees with one key make the same comparison, and by induction over
    the ids every tree passes if the first tree of every key passes with its
    children's rows read from the right side.  contract T is in the key
    because a wrong `contract` need not be a function of the other three.

    The graftees with one cs, in a row and in id order, share one pass over
    the first trees of the keys below the group's largest end (its first
    graftee's, which has the fewest vertices).  Only when a key fails is G
    filled tree by tree, and the failing rows are replayed for each graftee
    below its own bound, so the failures, their (cs, S, T, i) order and the
    stop at the sixth are those of a tree-by-tree check.

    A tree with exactly the bound's vertices meets only the leaf, as graftee
    or as target, so that level is streamed from its (c, A, B) and never
    interned.  By the same argument, once the leaf's rows have all passed,
    the trees of each level are counted by contraction and each (c, |A|,
    contract A, contract B) is compared once, for n_A * n_B trees.  Nothing
    is counted until every key has passed; if one fails, or the leaf's rows
    did not all pass, G is filled for the leaf and the level is streamed
    tree by tree.
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
    # the keys (c, contract A, contract B, contract T), or (c, contract T) for
    # the leaf and the nullaries, in the id order of their first trees, and
    # n_keys[k] of them met below ends[k]
    keys, n_keys = {}, []
    for level in levels:
        for t in level:
            pair = kids[t]
            keys[(color[t], cont[pair[0]], cont[pair[1]], cont[t]) if pair else (color[t], cont[t])] = None
        n_keys.append(len(keys))
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

    def keys_pass(cs, k):
        """True when the first tree of every key below ends[k] passes for
        the graftee contraction cs, its children's rows read from the right
        side."""
        for key in itertools.islice(keys, n_keys[k]):
            if len(key) == 4:
                c, ca, cb, ct = key
                got = _row(node[c], ca, cb, agrafts(ca, cs), agrafts(cb, cs))
            else:
                c, ct = key
                got = () if c else (cs,)
            if got != agrafts(ct, cs):
                return False
        return True

    def sweep(cs, end):
        """Fill G for cs over the trees below end, tree by tree; return the
        failing rows as (t, got, want)."""
        rows = []
        for t in range(end):
            pair = kids[t]
            if pair:
                a, b = pair
                G[t] = got = _row(node[color[t]], cont[a], cont[b], G[a], G[b])
            else:
                G[t] = got = () if t else (cs,)
            want = agrafts(cont[t], cs)
            if got != want:
                rows.append((t, got, want))
        return rows

    def keyed_stream(cs):
        """The triples of the streamed level, compared once per (c, |A|,
        contract A, contract B) with the children's rows read from the right
        side for cs, the leaf's contraction; None if a comparison fails."""
        by_cont = [Counter(map(cont.__getitem__, level)) for level in levels]
        by_cont = [[(x, n, agrafts(x, cs)) for x, n in level.items()] for level in by_cont]
        total = 0
        for c in COLORS:
            m = node[c]
            for va in range(V):
                for ca, na, ra in by_cont[va]:
                    for cb, nb, rb in by_cont[V - 1 - va]:
                        ct = m[ca, cb]
                        got = _row(m, ca, cb, ra, rb)
                        if got != agrafts(ct, LEAF) or agraft(LEAF, ct, 1) != ct:
                            return None
                        total += na * nb * (len(got) + 1)
        return total

    def stream(cs, filled):
        """Check every tree c(a, b) with V vertices as a target and as a
        graftee of the leaf: by key unless G was filled tree by tree for the
        leaf, else, or once a key fails and G is filled, tree by tree."""
        nonlocal checked
        if not filled:
            total = keyed_stream(cs)
            if total is not None:
                checked += total
                return False
            sweep(cs, ends[kept])
        for c in COLORS:
            m = node[c]
            for va in range(V):
                for a in levels[va]:
                    ca, ga = cont[a], G[a]
                    for b in levels[V - 1 - va]:
                        cb = cont[b]
                        ct = m[ca, cb]
                        got = _row(m, ca, cb, ga, G[b])
                        checked += len(got) + 1
                        want = agrafts(ct, LEAF)
                        if got != want and failed(got, want, f"{c}({render(a)},{render(b)})", "l"):
                            return True
                        want = (agraft(LEAF, ct, 1),)
                        if (ct,) != want and failed((ct,), want, "l", f"{c}({render(a)},{render(b)})"):
                            return True
        return False

    # the graftees with one contraction cs in a row, in id order, so the first
    # has the fewest vertices and the largest end: its keys serve the group
    for cs, group in itertools.groupby(sorted(range(ends[-1]), key=cont.__getitem__), cont.__getitem__):
        rows = None
        for s in group:
            k = min(V - verts[s], kept)
            checked += leaf_sums[k]
            if rows is None:
                rows = [] if keys_pass(cs, k) else sweep(cs, ends[k])
            failing = rows and any(failed(got, want, render(t), render(s)) for t, got, want in rows if t < ends[k])
            if failing or (s == LEAF and kept < V and stream(cs, bool(rows))):
                return checked, failures
    return checked, failures
