import itertools
import random

import pytest

from duoidal_kit.finset import (
    DEFAULT_CAP,
    CartMap,
    CartesianFinSet,
    FnElt,
    SizeError,
    atom_letter,
    fn_eval,
    fn_letter,
    virtual_letter,
    word_elements,
    word_enumerable,
    word_size,
)
from duoidal_kit.kcat import CartesianSelfEnriched, fn_elt_of

D = CartesianFinSet()
X = (atom_letter("x", ["p", "q"]),)
Y = (atom_letter("y", [0, 1, 2]),)


def test_words_are_strictly_associative_and_unital():
    assert D.box0(D.box0(X, Y), X) == D.box0(X, D.box0(Y, X))
    assert D.box0(X, D.e) == X == D.box0(D.e, X)
    assert D.box1 == D.box1  # both tensors coincide here
    assert word_size(X + Y) == 6
    assert len(word_elements(X + Y)) == 6


def test_function_letters_enumerate_lazily():
    f = fn_letter(X, Y)
    assert f.size() == 3**2
    assert len(f.elements()) == 9
    v = fn_letter((virtual_letter("free"),), Y)
    assert v.size() is None
    with pytest.raises(SizeError):
        v.elements()


def test_letter_equality_is_structural():
    assert fn_letter(X, Y) == fn_letter(X, Y)
    assert atom_letter("x", ["p", "q"]) == atom_letter("x", ["q", "p"])
    assert atom_letter("x", ["p"]) != atom_letter("x2", ["p"])


def test_interchange_is_the_block_shuffle():
    z = D.interchange(X, Y, Y, X)
    assert z.apply(("p", 0, 1, "q")) == ("p", 1, 0, "q")


def test_compose_is_diagrammatic():
    f = CartMap(X, Y, table={("p",): (0,), ("q",): (2,)})
    g = CartMap(Y, X, table={(0,): ("q",), (1,): ("q",), (2,): ("p",)})
    assert D.compose(f, g).apply(("p",)) == ("q",)
    with pytest.raises(ValueError):
        D.compose(f, f)


def test_hom_enumeration_guarded():
    assert len(D.hom(X, Y)) == 9
    big = (atom_letter("b", range(9)),)
    with pytest.raises(SizeError):
        D.hom(big + big, big + big, cap=1000)


def test_subobject_and_corestriction():
    sub, incl = D.subobject_from_fibers(Y, {None: [(0,), (2,)]}, "even")
    assert D.fiber(sub, None) == (((0,),), ((2,),))
    assert incl.apply(((0,),)) == (0,)
    f = CartMap(X, Y, table={("p",): (0,), ("q",): (2,)})
    cor = D.corestrict_map(f, sub, {None: [(0,), (2,)]})
    assert cor.apply(("p",)) == ((0,),)
    g = CartMap(X, Y, table={("p",): (1,), ("q",): (2,)})
    with pytest.raises(ValueError, match="not in the subobject"):
        D.corestrict_map(g, sub, {None: [(0,), (2,)]})


def test_no_module_level_cache():
    from duoidal_kit import finset

    held = {name: type(v).__name__ for name, v in vars(finset).items() if isinstance(v, (dict, list, set))}
    assert not {name for name in held if not name.startswith("__")}, held


def test_memoize_only_enumerable_domains():
    f = CartMap(X, Y, fn=lambda t: (len(t[0]),))
    memo = D.memoize(f)
    assert memo.apply(("p",)) == (1,) and memo._memo == {("p",): (1,)}
    lazy = CartMap((virtual_letter("free"),), Y, fn=lambda t: (0,))
    assert D.memoize(lazy) is lazy


def test_word_enumerable_agrees_with_word_elements():
    ten = atom_letter("ten", range(10))
    one = atom_letter("one", [0])
    wide = fn_letter((ten,) * 6, (one,))  # one element, but its domain is past the cap
    huge = fn_letter((ten, ten), (ten,))
    words = [(), X, X + Y, (fn_letter(X, Y),), (ten,) * 6, (virtual_letter("free"),), (wide,), (atom_letter("none", []), huge)]
    for word in words:
        try:
            word_elements(word)
            listed = True
        except SizeError:
            listed = False
        assert word_enumerable(word) is listed, word
        el = fn_elt_of(word, lambda t: (0,))
        assert isinstance(el, tuple) is listed, word


# -- maps_equal compares image tables built from a map's parts ---------------

A2 = atom_letter("a2", [0, 1])
B3 = atom_letter("b3", ["r", "s", "t"])
EMPTY = atom_letter("empty", [])


def _pointwise(f, g):
    return all(f.apply(x) == g.apply(x) for x in word_elements(f.dom))


def _tabled(f, flip_last=False):
    """f as a plain table map; with flip_last, its image at the last point changed."""
    table = {x: f.apply(x) for x in word_elements(f.dom)}
    if flip_last:
        last = word_elements(f.dom)[-1]
        table[last] = next(y for y in word_elements(f.cod) if y != table[last])
    return CartMap(f.dom, f.cod, table=table)


def _random_word(rng, max_len=2):
    return tuple(rng.choice((A2, B3)) for _ in range(rng.randint(0, max_len)))


def _random_map(rng, dom, cod, depth):
    """A random map dom -> cod: a table, an identity, a composite or a tensor."""
    choice = rng.randrange(4) if depth else 0
    if choice == 1 and dom == cod:
        return D.identity(dom)
    if choice == 2:
        mid = _random_word(rng)
        f, g = _random_map(rng, dom, mid, depth - 1), _random_map(rng, mid, cod, depth - 1)
        fg = D.compose(f, g)
        # whatever normal form compose builds, it is g after f at every point
        assert _pointwise(fg, CartMap(dom, cod, fn=lambda t: g.apply(f.apply(t))))
        return fg
    if choice == 3:
        # cut both words into the same number of (possibly zero-letter) pieces
        k = rng.randint(1, 3)
        cuts = [sorted(rng.randint(0, len(w)) for _ in range(k - 1)) for w in (dom, cod)]
        pieces = [[w[a:b] for a, b in zip([0] + c, c + [len(w)])] for w, c in zip((dom, cod), cuts)]
        return D.tensor_map(1, [_random_map(rng, x, y, depth - 1) for x, y in zip(*pieces)])
    outs = word_elements(cod)
    return CartMap(dom, cod, table={x: rng.choice(outs) for x in word_elements(dom)})


def test_maps_equal_agrees_with_the_pointwise_comparison():
    rng = random.Random(7)
    kinds = set()
    for _ in range(400):
        dom, cod = _random_word(rng, 3), _random_word(rng, 3)
        f = _random_map(rng, dom, cod, depth=3)
        kinds.add(f.parts[0] if f.parts else None)
        pairs = [(f, _tabled(f)), (_tabled(f), f), (f, _random_map(rng, dom, cod, depth=3))]
        if word_size(cod) > 1:
            pairs += [(f, _tabled(f, flip_last=True)), (_tabled(f, flip_last=True), f)]
            assert not D.maps_equal(f, _tabled(f, flip_last=True))
        for lhs, rhs in pairs:
            assert D.maps_equal(lhs, rhs) is _pointwise(lhs, rhs)
        assert D.maps_equal(f, _tabled(f))
    assert kinds == {None, "id", "then", "tensor"}


def test_compose_builds_the_normal_form():
    f = CartMap(X, Y, table={("p",): (0,), ("q",): (2,)})
    g = CartMap(Y, X, table={(0,): ("q",), (1,): ("q",), (2,): ("p",)})
    h = CartMap(X, X, table={("p",): ("q",), ("q",): ("q",)})
    # (a) an identity on either side gives the other map
    assert D.compose(D.identity(X), f) is f and D.compose(f, D.identity(Y)) is f
    # (b) a composite's second part is never a composite
    fgh = D.compose(f, D.compose(g, h))
    assert fgh.parts[0] == "then" and fgh.parts[2] is h and fgh.parts[1].parts[1:] == (f, g)
    # (c) tensors whose factors meet one to one compose factorwise
    fused = D.compose(D.tensor_map(0, [f, g]), D.tensor_map(1, [g, f]))
    assert fused.parts[0] == "tensor" and [p.parts[1:] for p in fused.parts[2]] == [(f, g), (g, f)]
    assert _pointwise(fused, CartMap(X + Y, X + Y, fn=lambda t: (g.apply(f.apply(t[:1])) + f.apply(g.apply(t[1:])))))
    # (d) a composite on the empty word stores its one value
    point = CartMap((), X, fn=lambda t: ("p",))
    const = D.compose(point, f)
    assert const._memo is not None and const.apply(()) == (0,) and const._memo == {(): (0,)}
    # (d) also at each step of (b) and on each factor composite of (c)
    assert D.compose(point, D.compose(f, g))._memo is not None
    fused = D.compose(D.tensor_map(0, [point, f]), D.tensor_map(0, [f, g]))
    assert fused.parts[0] == "tensor" and fused.parts[2][0]._memo is not None and fused.parts[2][1]._memo is None


def test_compose_fuses_only_tensors_whose_factors_meet():
    f1 = CartMap((A2,), (A2, B3), fn=lambda t: (t[0], "r"))
    f2 = CartMap((B3,), (A2,), fn=lambda t: (1,))
    g1 = CartMap((A2,), (A2,), fn=lambda t: (1 - t[0],))
    g2 = CartMap((B3, A2), (B3,), fn=lambda t: t[:1])
    h1 = CartMap((A2, B3), (A2,), fn=lambda t: t[:1])
    h2 = CartMap((A2,), (B3,), fn=lambda t: ("s",))
    h3 = CartMap((), (B3,), fn=lambda t: ("t",))
    cases = [
        # the first two factors meet, but g has a third
        (D.tensor_map(0, [f1, f2]), D.tensor_map(1, [h1, h2, h3])),
        # as many factors, but f1's codomain is not g1's domain
        (D.tensor_map(0, [f1, f2]), D.tensor_map(1, [g1, g2])),
    ]
    for f, g in cases:
        fg = D.compose(f, g)
        assert fg.parts == ("then", f, g)
        assert _pointwise(fg, CartMap(f.dom, g.cod, fn=lambda t: g.apply(f.apply(t))))
        assert D.maps_equal(fg, _tabled(fg))


def test_compose_with_a_tensor_of_no_maps_compares_equal_to_the_map():
    # the tensor of no maps is a map () -> () whose one image is (), read at
    # every image of f though it has no factor to read from
    f = CartMap((A2, B3), (), fn=lambda t: ())
    fe = D.compose(f, D.tensor_map(0, []))
    assert fe.parts[0] == "then" and D.maps_equal(fe, f) and D.maps_equal(f, fe)


def test_compose_checks_the_middle_objects_before_any_rule():
    f = CartMap(X, Y, table={("p",): (0,), ("q",): (2,)})
    g = CartMap(Y, X, table={(0,): ("q",), (1,): ("q",), (2,): ("p",)})
    for lhs, rhs in [
        (D.identity(X), D.identity(Y)),  # (a) would return either side
        (f, D.compose(f, g)),  # (b) would reassociate
        (D.tensor_map(0, [f, f]), D.tensor_map(0, [f, f])),  # (c) would fuse factorwise
        (CartMap((), X, fn=lambda t: ("p",)), D.identity(Y)),  # (d) would memoize
    ]:
        with pytest.raises(ValueError, match="middle objects differ"):
            D.compose(lhs, rhs)


def test_maps_equal_finds_a_change_at_the_last_point_inside_a_tensor():
    f = CartMap((B3,), (A2,), table={(b,): (0,) for b in "rst"})
    left = D.tensor_map(0, [D.identity((A2,)), D.identity(()), f])
    right = D.tensor_map(0, [D.identity((A2,)), D.identity(()), _tabled(f, flip_last=True)])
    assert not D.maps_equal(left, right) and not _pointwise(left, right)
    assert not D.maps_equal(D.compose(left, D.identity(left.cod)), right)
    assert D.maps_equal(left, D.tensor_map(1, [D.identity((A2,)), f]))


def test_an_empty_domain_compares_vacuously_and_a_large_one_raises():
    def never(t):
        raise AssertionError("a map on an empty domain was applied")

    big = (atom_letter("ten", range(10)),) * 3  # 1000 elements, past the cap of 100
    empty_last = D.tensor_map(0, [CartMap(big, X, fn=never), CartMap((EMPTY,), Y, fn=never)])
    other = CartMap(empty_last.dom, empty_last.cod, fn=never)
    assert D.maps_equal(empty_last, other, cap=100)
    with pytest.raises(SizeError):
        D.maps_equal(D.identity(big), CartMap(big, big, fn=never), cap=100)
    # an empty word whose other letter has more elements than the cap still raises
    huge = fn_letter((atom_letter("ten", range(10)),) * 2, (atom_letter("ten", range(10)),))
    with pytest.raises(SizeError):
        D.maps_equal(D.identity((EMPTY, huge)), CartMap((EMPTY, huge), (EMPTY, huge), fn=never))


def test_maps_equal_tabulates_each_tensor_factor_once_over_its_own_domain():
    calls = {"x": 0, "y": 0}

    def counting(name):
        def fn(t):
            calls[name] += 1
            return t

        return fn

    both = D.tensor_map(0, [CartMap(X, X, fn=counting("x")), CartMap(Y, Y, fn=counting("y"))])
    assert D.maps_equal(both, D.identity(X + Y))
    assert calls == {"x": 2, "y": 3}


def test_a_corrupted_end_operad_composition_fails_associativity():
    from duoidal_kit.kcat import CartesianSelfEnriched, k_monoid_from_monoid
    from duoidal_kit.monoids import cyclic
    from duoidal_kit.operads import OneOperad, check_one_operad, end_operad

    K = CartesianSelfEnriched(D)
    good = end_operad(K, k_monoid_from_monoid(cyclic(2), K).carrier, bound=2)
    const0, const1 = ((((0,), (0,)), ((1,), (0,))), (((0,), (1,)), ((1,), (1,))))
    first = tuple(((a, b), (a,)) for a in (0, 1) for b in (0, 1))
    point = (const0, const1, first)  # swapping the inner arguments here changes the value

    def gamma(n, ks):
        g = good.gamma(n, ks)
        if (n, ks) != (2, (1, 1)):
            return g
        return CartMap(g.dom, g.cod, fn=lambda t: g.apply((t[1], t[0], t[2]) if t == point else t))

    assert good.gamma(2, (1, 1)).apply(point) != gamma(2, (1, 1)).apply(point)
    bad = OneOperad(D, "end_corrupt", good.component, gamma, good.unit, bound=2)
    rows = {item.name: item for item in check_one_operad(bad).items}
    assert check_one_operad(good).all_passed
    assert not rows["associativity"].passed, rows["associativity"].scope


# -- odot_hom_map builds a tensor's graph as the product of its factors' graphs


def _random_graph(rng, dom, cod):
    outs = word_elements(cod)
    return fn_elt_of(dom, lambda a: rng.choice(outs))


def test_odot_hom_map_is_the_pointwise_tensor_graph():
    K = CartesianSelfEnriched(D)
    rng = random.Random(11)
    letters = (A2, B3, EMPTY, fn_letter((A2,), (A2,)))
    words = [()] + [w for n in (1, 2, 3) for w in itertools.product(letters, repeat=n)]
    for word in words:
        for cut in range(len(word) + 1):
            x, z = word[:cut], word[cut:]
            y, w = _random_word(rng), _random_word(rng)
            f_el, g_el = _random_graph(rng, x, y), _random_graph(rng, z, w)
            f, g = fn_eval(f_el), fn_eval(g_el)
            pointwise = fn_elt_of(word, lambda a: f(a[:cut]) + g(a[cut:]))
            (product,) = K.odot_hom_map(x, y, z, w).apply((f_el, g_el))
            assert isinstance(product, tuple) and product == pointwise, (x, z)
    # an empty letter beside a factor past the cap: the word is enumerable, its graph empty
    big = (atom_letter("big", range(DEFAULT_CAP + 1)),)
    f_el, g_el = _random_graph(rng, big, Y), _random_graph(rng, (EMPTY,), X)
    assert isinstance(f_el, FnElt)
    assert K.odot_hom_map(big, Y, (EMPTY,), X).apply((f_el, g_el)) == ((),)


def test_odot_hom_map_over_a_word_past_the_cap_stays_lazy():
    K = CartesianSelfEnriched(D)
    rng = random.Random(5)
    wide = (atom_letter("wide", range(600)),)  # 600 * 600 points, past DEFAULT_CAP
    f_el, g_el = _random_graph(rng, wide, Y), _random_graph(rng, wide, X)
    (product,) = K.odot_hom_map(wide, Y, wide, X).apply((f_el, g_el))
    assert isinstance(product, FnElt)
    f, g = fn_eval(f_el), fn_eval(g_el)
    for _ in range(50):
        a, b = (rng.randrange(600),), (rng.randrange(600),)
        assert product.call(a + b) == f(a) + g(b)
