import pytest

from duoidal_kit import colored_trees
from duoidal_kit.colored_trees import (
    LEAF,
    AlternatingForest,
    BinaryForest,
    ContractionMap,
    check_contraction_operad_map,
    parse_term,
)


@pytest.fixture()
def pools():
    bp = BinaryForest()
    ap = AlternatingForest()
    return bp, ap, ContractionMap(bp, ap)


def test_contract_base_cases(pools):
    bp, ap, cm = pools
    assert cm.contract(LEAF) == LEAF
    single = bp.node("w", (LEAF, LEAF))
    assert ap.render(cm.contract(single)) == "w(l,l)"
    stacked = bp.node("w", (bp.node("w", (LEAF, LEAF)), LEAF))
    assert ap.render(cm.contract(stacked)) == "w(l,l,l)"
    mixed = parse_term(bp, "w(b(l,l),l)")
    assert ap.render(cm.contract(mixed)) == "w(b(l,l),l)"


def test_contract_collapses_unary_vertices(pools):
    bp, ap, cm = pools
    # white binary over white nullary: the multiplication against the unit
    t = bp.node("w", (bp.node("w", ()), LEAF))
    assert cm.contract(t) == LEAF
    t2 = bp.node("w", (bp.node("w", ()), bp.node("b", (LEAF, LEAF))))
    assert ap.render(cm.contract(t2)) == "b(l,l)"


def test_contract_idempotent_on_alternating_image(pools):
    bp, ap, cm = pools
    for level in bp.by_vertices(4):
        for t in level:
            image = cm.contract(t)
            # re-reading the normal form through the smart constructor fixes it
            rebuilt = _rebuild(ap, image)
            assert rebuilt == image


@pytest.mark.parametrize("depth", [200, 400])
def test_contract_deep_terms_without_recursion(pools, depth):
    bp, ap, cm = pools
    t = LEAF
    for _ in range(depth):
        t = bp.node("w", (LEAF, t))
    assert cm.contract(t) == ap.node("w", (LEAF,) * (depth + 1))


@pytest.mark.parametrize("depth", [1000, 5000])
def test_contract_interns_one_corolla_per_monocolored_block(depth):
    """A chain of depth white vertices is one block: its contraction interns a
    single corolla of depth + 1 leaves, so the pool stores depth + 1 child
    ids, not one partial corolla per vertex."""
    bp, ap = BinaryForest(), AlternatingForest()
    t = LEAF
    for _ in range(depth):
        t = bp.node("w", (LEAF, t))
    assert ap.render(ContractionMap(bp, ap).contract(t)) == "w(" + ",".join(["l"] * (depth + 1)) + ")"
    assert len(ap.kids) == 2
    assert sum(map(len, ap.kids)) == depth + 1


def test_contract_of_one_tree_agrees_with_contracting_every_id_in_order():
    """Contracting a tree first walks its same-colored children's blocks;
    contracting the ids in order meets every child contracted already."""
    bp = BinaryForest()
    trees = [t for level in bp.by_vertices(5) for t in level]
    ap = AlternatingForest()
    in_order = ContractionMap(bp, ap)
    for t in trees:
        alone = AlternatingForest()
        assert alone.render(ContractionMap(bp, alone).contract(t)) == ap.render(in_order.contract(t))


def _rebuild(ap, t):
    if t == LEAF:
        return LEAF
    return ap.node(ap.color[t], tuple(_rebuild(ap, c) for c in ap.kids[t]))


def test_graft_unit_laws(pools):
    bp, ap, _ = pools
    t = parse_term(bp, "w(b(l,l),l)")
    for i in range(1, bp.leaves[t] + 1):
        assert bp.graft(t, LEAF, i) == t
    s = bp.node("b", (LEAF, LEAF))
    assert bp.graft(LEAF, s, 1) == s
    with pytest.raises(ValueError):
        bp.graft(t, s, 5)


def test_bgraft_associativity(pools):
    bp, _, _ = pools
    t = parse_term(bp, "w(l,l)")
    s = parse_term(bp, "b(l,l)")
    r = parse_term(bp, "w(l,l)")
    # grafting at disjoint leaves commutes
    lhs = bp.graft(bp.graft(t, s, 1), r, 3)
    rhs0 = bp.graft(t, r, 2)
    rhs = bp.graft(rhs0, s, 1)
    assert lhs == rhs


def test_atree_graft_merges_or_grafts_by_color(pools):
    _, ap, _ = pools
    white = ap.node("w", (LEAF, LEAF))
    black = ap.node("b", (LEAF, LEAF))
    assert ap.render(ap.graft(white, white, 1)) == "w(l,l,l)"
    assert ap.render(ap.graft(white, black, 1)) == "w(b(l,l),l)"
    assert ap.render(ap.graft(black, white, 2)) == "b(l,w(l,l))"
    # b() grafted into b(l, w(l,l)) leaves b(w(l,l)), which is w(l,l), whose
    # color is the root's, so it is spliced into the root in its turn
    t, s = parse_term(ap, "w(l,b(l,w(l,l)))"), parse_term(ap, "b()")
    assert ap.render(ap.graft(t, s, 2)) == "w(l,l,l)"
    assert ap.graft(t, s, 2) == _path_graft(ap, t, s, 2)


def test_enumeration_counts(pools):
    bp, ap, _ = pools
    assert [bp.render(t) for t in bp.enumerate_exact(2, 1)] == ["w(l,l)", "b(l,l)"]
    assert [len(level) for level in bp.by_vertices(4)] == [1, 4, 16, 96, 640]
    assert [ap.render(t) for t in ap.enumerate_exact(1, 1)] == ["l"]
    assert sorted(ap.render(t) for t in ap.enumerate_exact(0, 1)) == ["b()", "w()"]
    # no duplicates
    trees = ap.enumerate_exact(3, 3)
    assert len(trees) == len(set(trees))


def test_zero_leaf_enumeration_excludes_the_leaf(pools):
    bp, ap, _ = pools
    zero = bp.enumerate_exact(0, 2)
    assert LEAF not in zero
    assert all(bp.leaves[t] == 0 for t in zero)


def test_parse_rejects_malformed(pools):
    bp, _, _ = pools
    for bad in ("w(l", "x(l,l)", "w(l,l))", "w"):
        with pytest.raises(ValueError):
            parse_term(bp, bad)


def test_fiber_classes_cover_small_targets(pools):
    bp, ap, cm = pools
    all_b = [t for level in bp.by_vertices(3) for t in level]
    classes = {cm.contract(t) for t in all_b}
    for n_leaves in range(0, 3):
        for target in ap.enumerate_exact(n_leaves, 2):
            assert target in classes


def test_operad_map_exhaustive_small():
    checked, failures = check_contraction_operad_map(5)
    assert failures == []
    assert checked == 47337


def _graft_then_contract(max_total_vertices):
    """(triples, failing triples) of the contraction check, evaluated by
    grafting every triple in the binary forest and contracting the result."""
    bp, ap = BinaryForest(), AlternatingForest()
    cm = ContractionMap(bp, ap)
    levels = bp.by_vertices(max_total_vertices)
    checked, failures = 0, []
    for vt, targets in enumerate(levels):
        for t in targets:
            for s in (s for level in levels[: max_total_vertices - vt + 1] for s in level):
                for i in range(1, bp.leaves[t] + 1):
                    checked += 1
                    if cm.contract(bp.graft(t, s, i)) != ap.graft(cm.contract(t), cm.contract(s), i):
                        failures.append((bp.render(t), bp.render(s), i))
    return checked, failures


def _mirrored(monkeypatch, only=None):
    """Make ContractionMap.contract reverse the children of every node it
    builds, or only of the contraction of the tree with the term `only`."""
    real = ContractionMap.contract

    def mirrored(self, t):
        out = real(self, t)
        kids = self.atrees.kids[out]
        if len(kids) < 2 or only is not None and self.btrees.render(t) != only:
            return out
        return self.atrees.intern(self.atrees.color[out], kids[::-1])

    monkeypatch.setattr(ContractionMap, "contract", mirrored)


@pytest.mark.parametrize("bound", range(6))
def test_operad_map_sweep_agrees_with_graft_then_contract(bound):
    assert check_contraction_operad_map(bound) == _graft_then_contract(bound)


def _corrupt_right_side(monkeypatch, wrong):
    """Make the outermost AlternatingForest.graft or grafts call give w() at
    the first leaf of every (t, s) where wrong(pool, t, s) holds.  The sweep
    reads whole rows from grafts and the streamed graftees of the leaf from
    graft; the oracle reads graft, which reads grafts."""
    running = []  # the outermost call is the one to corrupt

    def outermost(real, corrupt):
        def call(self, t, s, *i):
            outer = not running
            running.append(None)
            try:
                got = real(self, t, s, *i)
            finally:
                running.pop()
            return corrupt(self, got, *i) if outer and wrong(self, t, s) else got

        return call

    def graft(ap, x, i):
        return ap.node("w", ()) if i == 1 else x

    def grafts(ap, row):
        return (ap.node("w", ()),) + row[1:] if row else row

    monkeypatch.setattr(AlternatingForest, "graft", outermost(AlternatingForest.graft, graft))
    monkeypatch.setattr(AlternatingForest, "grafts", outermost(AlternatingForest.grafts, grafts))


@pytest.mark.parametrize(
    "bound, wrong",
    [
        (4, lambda ap, t, s: t != LEAF and s != LEAF),  # only graftees other than the leaf
        (4, lambda ap, t, s: s == LEAF and ap.verts[t] == 4),  # only the streamed targets
        (4, lambda ap, t, s: t == LEAF and ap.verts[s] == 4),  # only the streamed graftees
        (1, lambda ap, t, s: t == LEAF and s != LEAF),  # nothing streamed: the tables' leaf rows
    ],
)
def test_operad_map_sweep_reports_what_graft_then_contract_finds(bound, wrong, monkeypatch):
    # a right side wrong on the triples that one part of the sweep meets:
    # the sweep fails, and every failure it reports is one the oracle finds
    _corrupt_right_side(monkeypatch, wrong)
    _, failures = check_contraction_operad_map(bound)
    assert 0 < len(failures) <= 6
    assert set(failures) <= set(_graft_then_contract(bound)[1])


@pytest.mark.parametrize(
    "bound, target, checked",
    [
        (4, "b(l,l)", 5353),
        # the graftees of w(l,l,l) with four vertices end below w(l,b(l,l))
        (5, "w(l,b(l,l))", 47337),
    ],
)
def test_operad_map_replays_a_shared_sweep_for_every_graftee(bound, target, checked, monkeypatch):
    # w(l,w(l,l)) and w(w(l,l),l) both contract to w(l,l,l), so they share one
    # sweep; the failing row is found once and reported for each graftee
    # whose bound reaches it
    _corrupt_right_side(monkeypatch, lambda ap, t, s: ap.render(t) == target and ap.render(s) == "w(l,l,l)")
    assert check_contraction_operad_map(bound) == (
        checked,
        [(target, "w(l,w(l,l))", 1), (target, "w(w(l,l),l)", 1)],
    )


def test_operad_map_sweeps_once_per_graftee_contraction(monkeypatch):
    # one comparison per (key, graftee contraction): the graftees with one
    # contraction compare the first tree of each binary key (c, contract A,
    # contract B, contract T) below their largest bound once, and the streamed
    # level each (c, |A|, contract A, contract B) once.  Each of those
    # comparisons builds one row (`_row`), and the right sides read are three
    # per binary key, one per leaf or nullary key, one per streamed key and
    # one per contraction of each level
    rows, reads = [], []
    real_row, real_grafts = colored_trees._row, AlternatingForest.grafts
    monkeypatch.setattr(colored_trees, "_row", lambda *args: rows.append(None) or real_row(*args))
    monkeypatch.setattr(AlternatingForest, "grafts", lambda self, t, s: reads.append(t) or real_grafts(self, t, s))
    assert check_contraction_operad_map(5) == (47337, [])
    bp = BinaryForest()
    contract = ContractionMap(bp, AlternatingForest()).contract
    levels = bp.by_vertices(4)
    reach = {}  # graftee contraction -> the most vertices of a target it meets
    for s in (s for level in levels for s in level):
        reach[contract(s)] = max(reach.get(contract(s), 0), min(5 - bp.verts[s], 4))
    keys, within = set(), []  # within[k]: the binary keys of the trees with at most k vertices
    for level in levels:
        keys |= {(bp.color[t], *map(contract, bp.kids[t]), contract(t)) for t in level if bp.kids[t]}
        within.append(len(keys))
    splits = [(va, a, b) for va in range(5) for a in levels[va] for b in levels[4 - va]]
    streamed = {(c, va, contract(a), contract(b)) for c in "wb" for va, a, b in splits}
    assert len(rows) == sum(within[k] for k in reach.values()) + len(streamed) == 4138 + 1806
    assert len(reads) == 15248


def test_operad_map_keys_a_target_by_its_own_contraction(monkeypatch):
    # b(w(l,w(l,l)),l) comes first and shares (c, contract A, contract B) with
    # x; contract is mirrored on x only, so x's rows are compared, and fail,
    # only because contract T is in the key.  The check reports what the
    # tree-by-tree check did.
    # The oracle fails too, but on other triples: it contracts graft(x, l, i)
    # = x with the same wrong contract, where the check builds that side
    # from x's children
    x = "b(w(w(l,l),l),l)"
    _mirrored(monkeypatch, only=x)
    assert check_contraction_operad_map(4) == (
        691,
        [(x, "l", 1), (x, "l", 2), (x, "l", 3), (x, "l", 4), (f"w(l,{x})", "l", 2), (f"w(l,{x})", "l", 3)],
    )
    assert _graft_then_contract(4)[1]


@pytest.mark.parametrize("bound", range(7))
def test_operad_map_counts_every_triple(bound):
    # B[v] trees with v vertices, L[v] leaves over them: a vertex is white or
    # black, nullary or binary, and the edgeless tree is one leaf
    B, L = [1], [1]
    for v in range(1, bound + 1):
        splits = [(a, v - 1 - a) for a in range(v)]
        B.append((2 if v == 1 else 0) + sum(2 * B[a] * B[b] for a, b in splits))
        L.append(sum(2 * (L[a] * B[b] + B[a] * L[b]) for a, b in splits))
    want = sum(L[vt] * B[vs] for vt in range(bound + 1) for vs in range(bound + 1 - vt))
    assert check_contraction_operad_map(bound) == (want, [])


@pytest.mark.parametrize("bound", range(3, 7))
def test_operad_map_sweep_catches_a_mirrored_contraction(bound, monkeypatch):
    # the sweep builds the grafted path with AlternatingForest.node, so a
    # corrupted contract shows only through contract T, contract S and the
    # siblings along the path; from three vertices on that suffices
    _mirrored(monkeypatch)
    _, failures = check_contraction_operad_map(bound)
    assert 0 < len(failures) <= 6
    if bound < 6:
        assert _graft_then_contract(bound)[1]


def _path_graft(pool, t, s, i):
    """graft(t, s, i) by rebuilding the path to the i-th leaf through node."""
    if t == LEAF:
        return s
    kids = pool.kids[t]
    for pos, c in enumerate(kids):
        if i <= pool.leaves[c]:
            return pool.node(pool.color[t], kids[:pos] + (_path_graft(pool, c, s, i),) + kids[pos + 1 :])
        i -= pool.leaves[c]
    raise AssertionError("leaf index out of range")


@pytest.mark.parametrize("forest", ["binary", "alternating"])
def test_graft_table_agrees_with_path_rebuilding(forest, pools):
    bp, ap, _ = pools
    if forest == "binary":
        pool, trees = bp, [t for level in bp.by_vertices(4) for t in level]
    else:  # a corolla has any arity, so the leaves are bounded too
        pool, trees = ap, [t for n in range(5) for t in ap.enumerate_exact(n, 4)]
    triples = [
        (t, s, i)
        for t in trees
        for i in range(1, pool.leaves[t] + 1)
        for s in trees
        if pool.verts[t] + pool.verts[s] <= 4
    ]
    want = {key: _path_graft(pool, *key) for key in triples}
    # graftee by graftee, then with the graftee changing at every call
    for t, s, i in sorted(triples, key=lambda key: key[1]) + triples:
        assert pool.graft(t, s, i) == want[t, s, i]
    # whole rows, the same two ways: grafts(t, s) is graft(t, s, i) at every leaf
    pairs = [(t, s) for t in trees for s in trees if pool.verts[t] + pool.verts[s] <= 4]
    for t, s in sorted(pairs, key=lambda pair: pair[1]) + pairs:
        assert pool.grafts(t, s) == tuple(want[t, s, i] for i in range(1, pool.leaves[t] + 1))
    # out-of-range leaves raise, for the graftee of the table and for another
    t = max(trees, key=pool.leaves.__getitem__)
    pool.graft(t, trees[-1], 1)
    for target in (LEAF, t):
        for s in (trees[-1], trees[-2]):
            for bad in (0, pool.leaves[target] + 1):
                with pytest.raises(ValueError):
                    pool.graft(target, s, bad)


def test_graft_table_calls_node_once_per_subtree_leaf(pools, monkeypatch):
    # every contraction within 4 vertices, one graftee: the table builds one
    # row for each distinct non-leaf subtree, with one entry per leaf of it
    bp, ap, cm = pools
    targets = sorted({cm.contract(t) for level in bp.by_vertices(4) for t in level})
    subtrees, stack = set(), list(targets)
    while stack:
        u = stack.pop()
        if u != LEAF and u not in subtrees:
            subtrees.add(u)
            stack.extend(ap.kids[u])
    rows = []
    real = AlternatingForest._grafts_of
    monkeypatch.setattr(AlternatingForest, "_grafts_of", lambda self, u: rows.append(u) or real(self, u))
    for t in targets:
        assert len(ap.grafts(t, targets[3])) == ap.leaves[t]
    assert sorted(rows) == sorted(subtrees)
    assert sum(len(ap.grafts(u, targets[3])) for u in rows) == sum(ap.leaves[u] for u in subtrees) == 882
