import itertools

import pytest

from duoidal_kit import trees, two_operads
from duoidal_kit.trees import MAP1, U1, U2, Z2U0, ZU1, TreeError, TreePool


def test_one_tree_map_must_be_monotone():
    P = TreePool()
    with pytest.raises(TreeError):
        P.one_map(P.one_tree(2), P.one_tree(2), (2, 1))


def test_two_tree_map_invariants():
    P = TreePool()
    T = P.two_tree(2, 2, [1, 2])
    with pytest.raises(TreeError):
        P.two_map(T, T, (2, 1), (1, 2))  # sigma1 not monotone
    with pytest.raises(TreeError):
        P.two_map(T, T, (1, 2), (2, 1))  # square breaks


def test_compose_identity_and_terminal():
    P = TreePool()
    T = P.two_tree(3, 2, [1, 1, 2])
    ident = P.two_identity(T)
    assert P.compose(ident, ident) == ident
    term = P.terminal_map(T)
    assert P.compose(ident, term) == term


def test_composite_of_specific_maps_is_terminal():
    # (3->2) -> (2->1) -> (1->1), componentwise, lands at the unique map to U2
    P = TreePool()
    T = P.two_tree(3, 2, [1, 1, 2])
    S = P.two_tree(2, 1, [1, 1])
    sigma = P.two_map(T, S, (1, 1), (1, 1, 2))
    omega = P.two_map(S, U2, (1,), (1, 1))
    assert P.compose(sigma, omega) == P.terminal_map(T)


def test_fibers_of_terminal_map():
    P = TreePool()
    T = P.two_tree(3, 2, [1, 1, 2])
    fib = P.fibers[P.terminal_map(T)]
    assert len(fib) == 1 and fib[0].height == 2 and fib[0].tree == T


def test_fibers_of_identity_are_units():
    P = TreePool()
    T = P.two_tree(2, 2, [1, 2])
    fib = P.fibers[P.two_identity(T)]
    assert [f.tree for f in fib] == [U2, U2]


def test_fibers_of_pruning_inclusion():
    P = TreePool()
    T = P.two_tree(2, 3, [1, 3])
    pruned, incl = P.prune(T)
    assert pruned == P.two_tree(2, 2, [1, 2])
    fib = P.fibers[incl]
    # U2 over the height-2 leaves; the empty 1-tree over the height-1 leaf
    assert [f.tree for f in fib] == [U2, P.one_tree(0), U2]
    assert [f.height for f in fib] == [2, 1, 2]


def test_prune_idempotent_and_detects_pruned():
    P = TreePool()
    for T in P.enumerate_two_trees(4):
        p1, _ = P.prune(T)
        p2, incl2 = P.prune(p1)
        assert p1 == p2
        assert all(P.pre[T]) == (p1 == T)  # pruned: no height-1 leaves
    assert P.prune(P.two_tree(0, 1, []))[0] == Z2U0


def test_ordinal_sum_monoid():
    P = TreePool()
    assert P.ordinal_sum(Z2U0, U2) == U2 == P.ordinal_sum(U2, Z2U0)
    assert P.ordinal_sum(U2, U2) == P.two_tree(2, 2, [1, 2])
    assert P.ordinal_sum(P.two_tree(0, 1, []), P.two_tree(1, 1, [1])) == P.two_tree(1, 2, [2])
    a, b, c = P.two_tree(1, 1, [1]), P.two_tree(0, 1, []), P.two_tree(2, 1, [1, 1])
    assert P.ordinal_sum(P.ordinal_sum(a, b), c) == P.ordinal_sum(a, P.ordinal_sum(b, c))


def test_suspension_decompose_and_fold():
    P = TreePool()
    assert P.suspension_decompose(P.two_tree(3, 1, [1, 1, 1])) == (P.two_tree(3, 1, [1, 1, 1]),)
    assert P.suspension_decompose(P.two_tree(2, 2, [1, 2])) == (U2, U2)
    assert P.suspension_decompose(P.two_tree(3, 2, [1, 1, 2])) == (P.two_tree(2, 1, [1, 1]), U2)
    with pytest.raises(TreeError):
        P.suspension_decompose(Z2U0)
    for S in P.enumerate_two_trees(4):
        if S == Z2U0:
            continue
        assert P.ordinal_sum_many(P.suspension_decompose(S)) == S


def test_enumerate_maps_to_terminal_and_units():
    P = TreePool()
    for T in P.enumerate_two_trees(3):
        maps = P.enumerate_two_tree_maps(T, U2)
        assert len(maps) == 1
    assert P.enumerate_two_tree_maps(Z2U0, Z2U0) == [P.two_identity(Z2U0)]
    assert P.enumerate_two_tree_maps(U2, U2) == [P.two_identity(U2)]


def test_enumerate_matches_invariant_filter():
    # brute check on a couple of pairs: every enumerated map is valid and
    # validity implies membership
    P = TreePool()
    T = P.two_tree(2, 2, [1, 2])
    S = P.two_tree(2, 3, [1, 3])
    maps = P.enumerate_two_tree_maps(T, S)
    assert len(maps) == len({(P.images[m], P.images2[m]) for m in maps})
    for m in maps:
        assert P.two_map(T, S, P.images[m], P.images2[m]) == m


def test_fiber_lists_concatenate_along_composites():
    # the multiset of fibers of a composite's restrictions, concatenated in
    # target leaf order, consists of the fibers of sigma (with shared middle
    # levels possibly duplicating height-1 fibers)
    P = TreePool()
    level2 = P.enumerate_two_trees(3)
    for T in level2:
        for S in level2:
            for sigma in P.enumerate_two_tree_maps(T, S):
                for R in level2:
                    for omega in P.enumerate_two_tree_maps(S, R):
                        parts = P.restrictions(sigma, omega)
                        comp = P.compose(sigma, omega)
                        assert [P.source[r] for r in parts] == [f.tree for f in P.fibers[comp]]
                        collected = []
                        for restr in parts:
                            if P.kind[restr] != MAP1:
                                collected.extend(f.tree for f in P.fibers[restr])
                            else:
                                collected.extend(P.one_tree(len(p)) for p in P.pre[restr])
                        sigma_fibers = [f.tree for f in P.fibers[sigma]]
                        for tree in sigma_fibers:
                            assert tree in collected


def test_constructors_reject_ids_of_the_wrong_kind():
    P = TreePool()
    with pytest.raises(TreeError):
        P.two_map(U1, U2, (1,), (1,))  # U1 is a 1-tree
    with pytest.raises(TreeError):
        P.one_map(U2, U1, (1,))
    with pytest.raises(TreeError):
        P.two_map(U2, 10**6, (1,), (1,))  # not an id of this pool
    assert P.render(ZU1) == "(0->1; t=[])"


# ---------------------------------------------------------------------------
# the pool against the definitions of the module docstring, on plain tuples:
# a 2-tree is (n, m, t), a 2-tree map (T, S, sigma1, sigma2), a 1-tree map
# (a, b, images), all 1-based


def _plain(P, x):
    kind = P.kind[x]
    if kind == trees.TREE1:
        return P.n[x]
    if kind == trees.TREE2:
        return (P.n[x], P.m[x], P.images[x])
    if kind == MAP1:
        return (P.n[P.source[x]], P.n[P.target[x]], P.images[x])
    return (_plain(P, P.source[x]), _plain(P, P.target[x]), P.images[x], P.images2[x])


def _preimage(values, j):
    return tuple(i for i, v in enumerate(values, 1) if v == j)


def _renumber(values, within):
    return tuple(within.index(v) + 1 for v in values)


def _leaf_order(T):
    n, m, t = T
    out = []
    for j in range(1, m + 1):
        pre = _preimage(t, j)
        out.extend([("h2", i) for i in pre] or [("h1", j)])
    return out


def _direct_fibers(sigma):
    (n, m, t), (n_s, m_s, s), sigma1, sigma2 = sigma
    out = []
    for kind, leaf in _leaf_order((n_s, m_s, s)):
        if kind == "h2":
            dom, cod = _preimage(sigma2, leaf), _preimage(sigma1, s[leaf - 1])
            out.append((len(dom), len(cod), _renumber([t[i - 1] for i in dom], cod)))
        else:
            out.append(len(_preimage(sigma1, leaf)))
    return out


def _direct_compose(sigma, omega):
    T, _, a1, a2 = sigma
    _, R, b1, b2 = omega
    return (T, R, tuple(b1[j - 1] for j in a1), tuple(b2[i - 1] for i in a2))


def _direct_restrictions(sigma, omega):
    comp = _direct_compose(sigma, omega)
    _, (_, _, r), c1, c2 = comp
    _, _, o1, o2 = omega
    _, _, s1, s2 = sigma
    out = []
    for (kind, leaf), fc, fo in zip(_leaf_order(omega[1]), _direct_fibers(comp), _direct_fibers(omega)):
        if kind == "h2":
            t_mid, s_mid = _preimage(c1, r[leaf - 1]), _preimage(o1, r[leaf - 1])
            t_dom, s_dom = _preimage(c2, leaf), _preimage(o2, leaf)
            restricted1 = _renumber([s1[j - 1] for j in t_mid], s_mid)
            out.append((fc, fo, restricted1, _renumber([s2[i - 1] for i in t_dom], s_dom)))
        else:
            t_mid, s_mid = _preimage(c1, leaf), _preimage(o1, leaf)
            out.append((fc, fo, _renumber([s1[j - 1] for j in t_mid], s_mid)))
    return out


def _direct_aligned(omega):
    """Per fiber of omega, the leaf positions of its source feeding the
    restriction's inputs, or None unless they biject onto the leaves."""
    S, R, o1, o2 = omega
    leaf_pos = {leaf: p for p, leaf in enumerate(_leaf_order(S))}
    out, used = [], []
    for (kind, leaf), fo in zip(_leaf_order(R), _direct_fibers(omega)):
        if kind == "h2":
            mid, lev2 = _preimage(o1, R[2][leaf - 1]), _preimage(o2, leaf)
            want = [("h2", lev2[k - 1]) if h == "h2" else ("h1", mid[k - 1]) for h, k in _leaf_order(fo)]
        else:
            want = [("h1", j) for j in _preimage(o1, leaf)]
        if any(w not in leaf_pos for w in want):
            return None
        out.append(tuple(leaf_pos[w] for w in want))
        used.extend(out[-1])
    return tuple(out) if sorted(used) == list(range(len(leaf_pos))) else None


def _is_map(T, S, sigma1, sigma2):
    (n, m, t), (n_s, m_s, s) = T, S
    return (
        all(a <= b for a, b in zip(sigma1, sigma1[1:]))
        and all(s[sigma2[i] - 1] == sigma1[t[i] - 1] for i in range(n))
        and all(sigma2[i] <= sigma2[k] for i in range(n) for k in range(i + 1, n) if t[i] == t[k])
    )


def _brute_force_maps(T, S):
    """Every monotone sigma1 with every sigma2 that commutes and is monotone
    on the fibers, by trying all functions."""
    (n, m, _), (n_s, m_s, _) = T, S
    return [
        (sigma1, sigma2)
        for sigma1 in itertools.product(range(1, m_s + 1), repeat=m)
        for sigma2 in itertools.product(range(1, n_s + 1), repeat=n)
        if _is_map(T, S, sigma1, sigma2)
    ]


def test_pool_tables_match_the_definitions_at_leaf_bound_2():
    P = TreePool()
    level2 = P.enumerate_two_trees(2)
    maps = {(T, S): P.enumerate_two_tree_maps(T, S) for T in level2 for S in level2}
    for (T, S), found in maps.items():
        want = _brute_force_maps(_plain(P, T), _plain(P, S))
        assert [(P.images[x], P.images2[x]) for x in found] == sorted(want)
    pairs = 0
    for (T, S), sigmas in maps.items():
        for sigma in sigmas:
            plain_sigma = _plain(P, sigma)
            assert [_plain(P, f.tree) for f in P.fibers[sigma]] == _direct_fibers(plain_sigma)
            assert [(f.height, f.leaf) for f in P.fibers[sigma]] == [
                (2 if kind == "h2" else 1, leaf) for kind, leaf in _leaf_order(_plain(P, S))
            ]
            assert P.aligned[sigma] == _direct_aligned(plain_sigma)
            for R in level2:
                for omega in maps[(S, R)]:
                    pairs += 1
                    plain_omega = _plain(P, omega)
                    assert _plain(P, P.compose(sigma, omega)) == _direct_compose(plain_sigma, plain_omega)
                    got = [
                        (_plain(P, P.source[r]), _plain(P, P.target[r])) + _plain(P, r)[2:]
                        for r in P.restrictions(sigma, omega)
                    ]
                    assert got == _direct_restrictions(plain_sigma, plain_omega)
    one_level = 0
    ordinals = [P.one_tree(n) for n in range(4)]
    for a in ordinals:
        for b in ordinals:
            for f in P.enumerate_one_maps(a, b):
                for c in ordinals:
                    for g in P.enumerate_one_maps(b, c):
                        one_level += 1
                        comp = P.compose(f, g)
                        assert P.images[comp] == tuple(P.images[g][j - 1] for j in P.images[f])
                        for j, r in enumerate(P.restrictions(f, g), 1):
                            pre = _preimage(P.images[g], j)
                            assert P.n[P.target[r]] == len(pre)
                            # the k-th element of the fiber over q in pre goes to q's position
                            assert P.images[r] == tuple(
                                k for k, q in enumerate(pre, 1) for _ in _preimage(P.images[f], q)
                            )
    # the brute-force count of the benchmark's oracle: composable pairs per operad
    assert pairs + one_level == 1149
    assert pairs == 721


def test_block_decompositions_and_prunings_are_valid_maps():
    # blocks and inclusions are built without validation; the public
    # constructor must accept each of them and return the same id
    P = TreePool()
    level2 = P.enumerate_two_trees(3)
    for T in level2:
        pruned, incl = P.prune(T)
        assert P.two_map(pruned, T, P.images[incl], P.images2[incl]) == incl
        for S in level2:
            if S == Z2U0:
                continue
            for sigma in P.enumerate_two_tree_maps(T, S):
                blocks = P.block_decompose(sigma)
                assert P.ordinal_sum_many(q for q, _, _ in blocks) == T
                assert P.ordinal_sum_many(p for _, p, _ in blocks) == S
                # sigma = sigma_1 + ... + sigma_l
                sigma1, sigma2, offset = [], [], 0
                for i, (q, p, block) in enumerate(blocks, 1):
                    assert P.two_map(q, p, P.images[block], P.images2[block]) == block
                    sigma1.extend(i for _ in P.images[block])
                    sigma2.extend(k + offset for k in P.images2[block])
                    offset += P.n[p]
                assert (tuple(sigma1), tuple(sigma2)) == (P.images[sigma], P.images2[sigma])


def test_no_process_global_state():
    for module in (trees, two_operads):
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name} is an lru_cache"
            assert not isinstance(value, (dict, list, set)), f"{module.__name__}.{name} is module-level state"
    # two pools make the same ids in the same order
    assert TreePool().enumerate_two_trees(3) == TreePool().enumerate_two_trees(3)
