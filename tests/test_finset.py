import pytest

from duoidal_kit.finset import (
    CartMap,
    CartesianFinSet,
    SizeError,
    atom_letter,
    fn_letter,
    virtual_letter,
    word_elements,
    word_enumerable,
    word_size,
)
from duoidal_kit.kcat import fn_elt_of

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
