"""A strict cartesian duoidal instance over finite sets.

Objects are words (tuples) of letters; a letter carries a finite set of
elements, and the elements of a word are flat tuples with one slot per
letter.  Both tensors are word concatenation, so associativity and unitality
hold on the nose with the empty word as both units.  Function-set letters
resolve their elements lazily, which keeps endomorphism components such as
Set(M^n, M) representable without ever enumerating them.

`compose` builds every composite in a normal form by four identities of
maps, so no value changes: (a) identities drop out; (b) composites nest to
the left, by associativity; (c) tensors whose factors meet compose
factorwise, since the product is a bifunctor; (d) a map out of the empty
word, which has one point, stores its one value.  A map is applied point by
point; `maps_equal` instead compares two maps' images over the whole domain,
each computed from how the map was made, so that a tensor of maps evaluates
each factor once per point of its own domain.
"""

from __future__ import annotations

import itertools
import operator

from .duoidal import Tensors
from .report import Memo, SizeError, skey

DEFAULT_CAP = 250_000


class Letter:
    __slots__ = ("key", "_elems", "dom_word", "cod_word", "name")

    def __init__(self, key, elems=None, dom_word=None, cod_word=None, name=""):
        self.key = key
        self._elems = elems
        self.dom_word = dom_word
        self.cod_word = cod_word
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Letter) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Letter({self.name or self.key[0]})"

    def size(self):
        if self._elems is not None:
            return len(self._elems)
        if self.key[0] == "fn":
            d = word_size(self.dom_word)
            c = word_size(self.cod_word)
            if d is None or c is None:
                return None
            return c**d
        return None

    def elements(self, cap=DEFAULT_CAP):
        if self._elems is not None:
            return self._elems
        if self.key[0] == "fn":
            n = self.size()
            if n is None or n > cap:
                raise SizeError(f"letter {self!r} has {n if n is not None else 'unbounded'} elements (cap {cap})")
            ins = word_elements(self.dom_word, cap)
            outs = word_elements(self.cod_word, cap)
            elems = tuple(tuple(zip(ins, choice)) for choice in itertools.product(outs, repeat=len(ins)))
            self._elems = elems
            return elems
        raise SizeError(f"letter {self!r} has no enumerable element set")


def atom_letter(name, elems) -> Letter:
    elems = tuple(sorted(elems, key=skey))
    return Letter(("atom", name, elems), elems=elems, name=name)


def virtual_letter(name) -> Letter:
    """A letter with a known identity but no enumerable element set."""
    return Letter(("virtual", name), name=name)


def fn_letter(dom_word, cod_word) -> Letter:
    return Letter(
        ("fn", word_key(dom_word), word_key(cod_word)),
        dom_word=dom_word,
        cod_word=cod_word,
        name="fnset",
    )


def word_key(word):
    return tuple(letter.key for letter in word)


def word_size(word):
    total = 1
    for letter in word:
        n = letter.size()
        if n is None:
            return None
        total *= n
    return total


def word_elements(word, cap=DEFAULT_CAP):
    """The elements of a word, in lexicographic order of its letters' elements.

    This order is also `skey` order: every letter lists its elements
    `skey`-sorted (atoms are sorted when built, and a function letter lists
    its graphs in lexicographic order of their values, which is `skey` order
    since all of them share the same arguments), all elements of one word
    are tuples of the same length, `skey` compares such tuples slot by slot,
    and a product of sorted lists is sorted lexicographically.  A function
    element over an enumerable word, the tuple of its (argument, value)
    pairs in this order, is therefore already its canonical graph.
    """
    return tuple(itertools.product(*_letter_elements(word, cap)))


def _letter_elements(word, cap):
    """The elements of each letter of a word whose size is within the cap."""
    n = word_size(word)
    if n is None or n > cap:
        raise SizeError(f"word of size {n if n is not None else 'unbounded'} exceeds cap {cap}")
    return [letter.elements(cap) for letter in word]


def word_enumerable(word):
    """Whether `word_elements(word)` lists the word rather than raising.

    The elements of such a word are plain values, compared and hashed by
    value: a function element over an enumerable word is a graph, never an
    `FnElt`.  This one predicate decides both which function elements are
    graphs (`kcat.fn_elt_of`) and which maps may store their values
    (`CartesianFinSet.memoize`).
    """
    n = word_size(word)
    return (
        n is not None
        and n <= DEFAULT_CAP
        and all(
            letter._elems is not None
            or (
                letter.size() <= DEFAULT_CAP
                and word_enumerable(letter.dom_word)
                and word_enumerable(letter.cod_word)
            )
            for letter in word
        )
    )


class FnElt:
    """A function element evaluated lazily; used over non-enumerable letters."""

    __slots__ = ("call", "label")

    def __init__(self, call, label="fn"):
        self.call = call
        self.label = label

    def __repr__(self):
        return f"FnElt({self.label})"


def fn_eval(el):
    """The function of a function element, as a callable on its arguments.

    A graph is turned into a lookup table, so a caller that evaluates one
    element at many points calls this once and keeps the result.
    """
    if isinstance(el, FnElt):
        return el.call
    return dict(el).__getitem__


class CartMap:
    """A map of words; `apply` is its function, `fn` or the lookup in `table`.

    `_memo` holds the values the map stores: its `table`, which for a
    memoized map (see `CartesianFinSet.memoize`) fills in at each point the
    map is applied to.  `parts` records how an identity ("id",), a composite
    ("then", f, g) or a tensor ("tensor", f1, ..., fn) was built, so that
    `_table` lists its images from its parts' images; it is None otherwise.
    """

    __slots__ = ("dom", "cod", "apply", "_memo", "parts")

    def __init__(self, dom, cod, fn=None, table=None, parts=None):
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self._memo = table
        self.apply = fn if table is None else table.__getitem__
        self.parts = parts

    def __repr__(self):
        return f"CartMap({len(self.dom)} letters -> {len(self.cod)} letters)"


def _images(f, xs):
    """An iterable of f's images at the points xs, in order, each computed as
    it is read."""
    kind, *fs = f.parts or (None,)
    if kind == "id":
        return xs
    if kind == "then":
        return _images(fs[1], _images(fs[0], xs))
    if kind != "tensor":
        return map(f.apply, xs)
    xs, a = list(xs), 0
    out = [()] * len(xs)
    for g in fs:
        b = a + len(g.dom)
        out, a = map(tuple.__add__, out, _images(g, map(operator.itemgetter(slice(a, b)), xs))), b
    return out


def _table(f, cap):
    """`_images(f, word_elements(f.dom, cap))`, a tensor's as the product of its
    factors' tables, each listed once over its own domain: the elements of a
    word are the lexicographic product of its letters' elements.
    """
    kind, *fs = f.parts or (None,)
    if kind == "then":
        return _images(fs[1], _table(fs[0], cap))
    if kind != "tensor":
        return _images(f, word_elements(f.dom, cap))
    out = [()]
    for g in fs:
        out = itertools.starmap(tuple.__add__, itertools.product(out, _table(g, cap)))
    return out


class CartesianFinSet(Tensors):
    """The cartesian duoidal instance: both tensors are the product."""

    def __init__(self, name="cartesian"):
        self.name = name

    # -- objects -------------------------------------------------------
    def objects(self):
        return None  # virtual: unboundedly many words

    # -- morphisms -----------------------------------------------------
    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def identity(self, x):
        return CartMap(x, x, fn=tuple, parts=("id",))  # tuple(t) is t for a point t

    def compose(self, f, g):
        """f then g (diagrammatic order), in normal form once the middle
        objects are checked: (a) id;g = g and f;id = f; (b) f;(g1;g2) =
        (f;g1);g2; (c) (f1 x .. x fk);(g1 x .. x gk) = (f1;g1) x .. x (fk;gk)
        when each fi ends where gi starts, for either t, both tensors being
        the product; (d) a result on the empty word other than an identity
        goes through `memoize`, so its one point stores its one value."""
        if f.cod != g.dom:
            raise ValueError("compose: middle objects differ")
        (kf, *fs), (kg, *gs) = f.parts or (None,), g.parts or (None,)
        if kf == "id":
            out = g
        elif kg == "id":
            out = f
        elif kg == "then":
            return self.compose(self.compose(f, gs[0]), gs[1])
        elif kf == kg == "tensor" and len(fs) == len(gs) and all(a.cod == b.dom for a, b in zip(fs, gs)):
            out = self.tensor_map(0, map(self.compose, fs, gs))
        else:
            out = CartMap(f.dom, g.cod, fn=lambda t, f=f.apply, g=g.apply: g(f(t)), parts=("then", f, g))
        return out if out.dom or out.parts == ("id",) else self.memoize(out)

    def memoize(self, f):
        """f, storing its value at each point it is applied to.

        Only a map whose domain is enumerable is memoized: its points are
        plain values, so the stored table is keyed by value and holds at most
        one entry per element of the domain.  Any other map is returned as
        it is, since its points may hold `FnElt`s, which hash by identity,
        and so is a map that stores its values already.
        """
        if f._memo is not None or not word_enumerable(f.dom):
            return f
        return CartMap(f.dom, f.cod, table=Memo(f.apply))

    def hom(self, x, y, cap=DEFAULT_CAP):
        ins = word_elements(x, cap)
        outs = word_elements(y, cap)
        if len(outs) ** len(ins) > cap:
            raise SizeError("hom set exceeds cap")
        maps = []
        for choice in itertools.product(outs, repeat=len(ins)):
            maps.append(CartMap(x, y, table=dict(zip(ins, choice))))
        return maps

    def maps_equal(self, f, g, cap=DEFAULT_CAP):
        """Whether f and g agree at every element of their domain, as their
        image tables (`_table`); a domain with an empty letter builds none."""
        if f.dom != g.dom or f.cod != g.cod:
            return False
        return not all(_letter_elements(f.dom, cap)) or all(map(operator.eq, _table(f, cap), _table(g, cap)))

    # -- tensors -------------------------------------------------------
    def tensor(self, t, xs):
        """Word concatenation, for either tensor."""
        out = ()
        for x in xs:
            out += tuple(x)
        return out

    def tensor_map(self, t, fs):
        """The product of maps, applied slot range by slot range."""
        fs = tuple(fs)
        dom = self.tensor(t, (f.dom for f in fs))
        cod = self.tensor(t, (f.cod for f in fs))
        bounds = list(itertools.pairwise(itertools.accumulate((len(f.dom) for f in fs), initial=0)))

        def act(x, fs=fs, bounds=bounds):
            out = ()
            for f, (a, b) in zip(fs, bounds):
                out += f.apply(x[a:b])
            return out

        return CartMap(dom, cod, fn=act, parts=("tensor", *fs))

    # -- duoidal structure ----------------------------------------------
    def interchange(self, a, b, c, d):
        la, lb, lc, ld = len(a), len(b), len(c), len(d)
        dom = tuple(a) + tuple(b) + tuple(c) + tuple(d)
        cod = tuple(a) + tuple(c) + tuple(b) + tuple(d)

        def act(t):
            ea = t[:la]
            eb = t[la : la + lb]
            ec = t[la + lb : la + lb + lc]
            ed = t[la + lb + lc :]
            return ea + ec + eb + ed

        return CartMap(dom, cod, fn=act)

    def delta_e(self):
        return self.identity(())

    def mu_v(self):
        return self.identity(())

    def iota(self):
        return self.identity(())

    # -- fiberwise protocol (single trivial fiber) ----------------------
    def support(self, obj):
        return (None,)

    def fiber(self, obj, key):
        return word_elements(obj)

    def apply_at(self, f, key, elt):
        return f.apply(elt)

    def subobject_from_fibers(self, x, fibers, name):
        sub = (atom_letter(name, tuple(fibers[None])),)
        return sub, CartMap(sub, x, fn=lambda t: t[0])

    def corestrict_map(self, f, sub, fibers):
        """Factor f through a subobject, checking the image pointwise."""
        allowed = set(fibers[None])
        table = {}
        for x in word_elements(f.dom):
            y = f.apply(x)
            if y not in allowed:
                raise ValueError(f"image {y!r} is not in the subobject")
            table[x] = (y,)
        return CartMap(f.dom, sub, table=table)
