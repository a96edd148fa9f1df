"""Monoidal categories enriched in a duoidal instance, and their monoids.

A D-monoidal category K has hom-objects in a duoidal instance D, a strictly
associative tensor on objects, composition/unit structure maps in D, lax
tensoring of homs along box1, and the extra unitary map v -> K(eta, eta).
The underlying category has hom-sets D(e, K(X, Y)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .duoidal import chain
from .finset import (
    CartMap,
    FnElt,
    atom_letter,
    fn_eval,
    fn_letter,
    virtual_letter,
    word_elements,
    word_enumerable,
)
from .monoids import Monoid
from .report import CheckReport


def fn_elt_of(dom_word, call):
    """A function element: a graph when the domain is enumerable, else lazy.

    The graph lists its (argument, value) pairs in `word_elements` order,
    which is already the canonical order (see `word_elements`).  That order
    is the lexicographic product of the letters' elements, so the graph over
    a word x + z is also the lexicographic product of graphs over x and z,
    which is how `CartesianSelfEnriched.odot_hom_map` builds it.
    """
    if word_enumerable(dom_word):
        return tuple((x, call(x)) for x in word_elements(dom_word))
    return FnElt(call)


def compose_fn_elts(f_el, g_el):
    """Elementwise composition f then g of function elements.

    A graph keeps its argument order, so the composite is canonical too.
    """
    g = fn_eval(g_el)
    if isinstance(f_el, tuple):
        return tuple((x, g(y)) for x, y in f_el)
    return FnElt(lambda x: g(f_el.call(x)))


class WordTensor:
    """The tensor of a D-monoidal category whose objects are words: it is
    concatenation, so it is strictly associative and strictly unital with
    the empty word as its unit."""

    @property
    def eta(self):
        return ()

    def odot(self, x, y):
        return tuple(x) + tuple(y)

    def odot_power(self, x, n):
        return tuple(x) * n


class CartesianSelfEnriched(WordTensor):
    """Finite sets enriched in themselves: hom-objects are function sets."""

    def __init__(self, D):
        self.D = D
        self.name = "finset_self_enriched"

    def hom_obj(self, x, y):
        return (fn_letter(tuple(x), tuple(y)),)

    def ends(self, hom):
        """The objects (x, y) of a hom object K(x, y)."""
        (letter,) = hom
        return letter.dom_word, letter.cod_word

    def comp_map(self, x, y, z):
        dom = self.hom_obj(x, y) + self.hom_obj(y, z)

        def act(t):
            f_el, g_el = t
            return (compose_fn_elts(f_el, g_el),)

        return CartMap(dom, self.hom_obj(x, z), fn=act)

    def unit_map(self, x):
        target = self.hom_obj(x, x)
        ident = fn_elt_of(tuple(x), lambda t: t)
        return CartMap((), target, table={(): (ident,)})

    def odot_hom_map(self, x, y, z, w):
        """(f, g) -> f tensor g, the lax tensoring of K(x, y) and K(z, w).

        Over an enumerable word x + z the graph of f tensor g is the
        lexicographic product of the graphs of f and g, which is its
        canonical graph (see `fn_elt_of`).  Otherwise it is built point by
        point: lazily over a word that is not enumerable, and as the empty
        graph where an empty letter sits beside a factor past the cap.
        """
        dom = self.hom_obj(x, y) + self.hom_obj(z, w)
        xz = self.odot(x, z)
        cut = len(x)

        if word_enumerable(x) and word_enumerable(z) and word_enumerable(xz):

            def act(t):
                f_el, g_el = t
                return (tuple((a + b, fa + gb) for a, fa in f_el for b, gb in g_el),)

        else:

            def act(t):
                f, g = (fn_eval(el) for el in t)
                return (fn_elt_of(xz, lambda arg: f(arg[:cut]) + g(arg[cut:])),)

        return CartMap(dom, self.hom_obj(xz, self.odot(y, w)), fn=act)

    def v_action_map(self):
        return self.unit_map(())


def odot_hom_many(K, pairs):
    """Iterated lax tensoring: box1_i K(A_i, B_i) -> K(odot A_i, odot B_i).

    Needs at least one factor; callers handle the empty case themselves.
    """
    maps = [K.D.identity(K.hom_obj(a, b)) for a, b in pairs]
    if not maps:
        raise ValueError("odot_hom_many needs at least one hom factor")
    out = maps.pop()
    for f in reversed(maps):
        out = hom_tensor(K, f, out)
    return out


# ---------------------------------------------------------------------------
# the underlying category: its maps phi: e -> K(x, y) name their objects
# through `K.ends` of their codomains


def und_compose(K, phi, psi):
    """Composition in the underlying category (phi: x->y then psi: y->z)."""
    D = K.D
    (x, y), (_, z) = K.ends(D.cod(phi)), K.ends(D.cod(psi))
    return chain(D, D.box0_map(phi, psi), K.comp_map(x, y, z))


def hom_tensor(K, phi, psi):
    """box1 of maps into K(x, y) and K(z, w), then lax tensoring into K(x odot z, y odot w)."""
    D = K.D
    return chain(D, D.box1_map(phi, psi), K.odot_hom_map(*K.ends(D.cod(phi)), *K.ends(D.cod(psi))))


def und_odot(K, phi, psi):
    """The tensor of underlying maps, via the comonoid structure of e."""
    return chain(K.D, K.D.delta_e(), hom_tensor(K, phi, psi))


# ---------------------------------------------------------------------------
# monoids in K


@dataclass
class KMonoid:
    K: object
    carrier: object
    nu_bar: object  # e -> K(eta, M)
    mu_bar: object  # e -> K(M odot M, M)
    u: object  # v -> K(M, M)
    name: str = "monoid"


def k_monoid_from_monoid(m: Monoid, K, letter=None) -> KMonoid:
    """The one-carrier monoid in cartesian FinSet induced by a plain monoid."""
    if letter is None:
        if m.elements is None:
            letter = virtual_letter(m.name)
        else:
            letter = atom_letter(m.name, m.elements)
    carrier = (letter,)
    squared = carrier + carrier
    nu_el = (((), (m.unit,)),)
    nu_bar = CartMap((), K.hom_obj((), carrier), table={(): (nu_el,)})
    mu_el = fn_elt_of(squared, lambda t: (m.mult(t[0], t[1]),))
    mu_bar = CartMap((), K.hom_obj(squared, carrier), table={(): (mu_el,)})
    u_el = fn_elt_of(carrier, lambda t: t)
    u = CartMap((), K.hom_obj(carrier, carrier), table={(): (u_el,)})
    return KMonoid(K, carrier, nu_bar, mu_bar, u, name=m.name)


# ---------------------------------------------------------------------------
# K-enriched categories


@dataclass
class KCategory:
    K: object
    objects: tuple
    hom: dict  # (x, y) -> K-object
    units: dict = field(default_factory=dict)  # x -> e -> K(eta, hom[x,x])
    comps: dict = field(default_factory=dict)  # (x, y, z) -> e -> K(hom[x,y] odot hom[y,z], hom[x,z])
    u: dict = field(default_factory=dict)  # (x, y) -> v -> K(hom[x,y], hom[x,y])
    name: str = "kcat"


def check_k_category(C: KCategory) -> CheckReport:
    K = C.K
    D = K.D
    rep = CheckReport(f"K-category axioms: {C.name}")
    objs = C.objects

    def associativity():
        for x, y, z, w in itertools.product(objs, repeat=4):
            lhs = und_compose(K, und_odot(K, C.comps[(x, y, z)], K.unit_map(C.hom[(z, w)])), C.comps[(x, z, w)])
            rhs = und_compose(K, und_odot(K, K.unit_map(C.hom[(x, y)]), C.comps[(y, z, w)]), C.comps[(x, y, w)])
            yield (x, y, z, w), lhs, rhs

    rep.add_law("composition associative", associativity(), D.maps_equal, f"{len(objs)}^4 tuples")

    def unit_laws():
        for x, y in itertools.product(objs, repeat=2):
            unit = K.unit_map(C.hom[(x, y)])
            yield (x, y), und_compose(K, und_odot(K, C.units[x], unit), C.comps[(x, x, y)]), unit
            yield (x, y), und_compose(K, und_odot(K, unit, C.units[y]), C.comps[(x, y, y)]), unit

    rep.add_law("unit laws", unit_laws(), D.maps_equal, f"{len(objs)}^2 pairs")

    def u_morphisms():
        for x, y in itertools.product(objs, repeat=2):
            um = C.u[(x, y)]
            yield (x, y), und_compose(K, um, um), chain(D, D.mu_v(), um)
            yield (x, y), chain(D, D.iota(), um), K.unit_map(C.hom[(x, y)])

    rep.add_law("u components are monoid morphisms", u_morphisms(), D.maps_equal, f"{len(objs)}^2 pairs")

    def compatibility():
        for x, y, z in itertools.product(objs, repeat=3):
            hxy, hyz, comp = C.hom[(x, y)], C.hom[(y, z)], C.comps[(x, y, z)]
            lhs = und_compose(K, comp, C.u[(x, z)])
            tensored = und_compose(K, K.odot_hom_map(hxy, hxy, hyz, hyz), comp)
            yield (x, y, z), lhs, chain(D, D.box1_map(C.u[(x, y)], C.u[(y, z)]), tensored)

    rep.add_law("(***) compatibility per triple", compatibility(), D.maps_equal, f"{len(objs)}^3 triples")
    return rep


def sigma(M: KMonoid) -> KCategory:
    """A monoid as a one-object K-category."""
    star = "*"
    return KCategory(
        M.K,
        (star,),
        {(star, star): M.carrier},
        units={star: M.nu_bar},
        comps={(star, star, star): M.mu_bar},
        u={(star, star): M.u},
        name=f"sigma({M.name})",
    )


def monoid_from_one_object(C: KCategory) -> KMonoid:
    if len(C.objects) != 1:
        raise ValueError("expected a K-category with exactly one object")
    x = C.objects[0]
    return KMonoid(C.K, C.hom[(x, x)], C.units[x], C.comps[(x, x, x)], C.u[(x, x)], name=C.name)
