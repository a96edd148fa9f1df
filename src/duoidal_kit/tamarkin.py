"""Hom families of enriched graphs over a set-valued functor, and the
Tamarkin complex of a category-valued functor.

For an object functor O on a finite base category, the objects here are
words of graph families E = {E_A(a', a'')} (finite sets indexed by pairs in
O(A)); a word denotes the matrix tensor product of its letters, whose fiber
at (A, a', a'') consists of path-tagged tuples ((a_0..a_n), (x_1..x_n)) with
a_0 = a', a_n = a''.  Words make the tensor strictly associative and
strictly unital with the empty word as the unit family.

The hom family between words over a globe (A, B, f, g) is the product over
O(A)^2 of the function sets fiber(E)(a', a'') -> fiber(F)(f(a'), g(a'')),
one indexed function family per globe.  This is a monoidal category
enriched in the globe-indexed duoidal instance.  A functor into finite
categories factorizing O yields a distinguished monoid whose endomorphism
complex totalizes, fiberwise over globes, to the (un)natural transformation
sets of the induced functors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .fincat import Arrow, CatFunctor, FiniteCategory, ValidationError, identity_functor
from .kcat import KMonoid, WordTensor
from .report import Memo, skey, sorted_elements
from .spans import Globe, SpanAtom, SpanDuoidal, arrow_globe, identity_globe


@dataclass(frozen=True)
class ObjectFunctor:
    cat: FiniteCategory = field(compare=False)
    key: str
    sets: tuple  # sorted tuple of (object, tuple of elements)
    maps: tuple  # sorted tuple of (arrow, tuple of (element, image))

    def set_of(self, a):
        return dict(self.sets)[a]

    def map_of(self, f):
        return dict(dict(self.maps)[f])


def then(p: dict, q: dict) -> dict:
    """The map p then q, on the keys of p."""
    return {x: q[y] for x, y in p.items()}


def object_functor(cat: FiniteCategory, sets: dict, maps: dict) -> ObjectFunctor:
    sets = {a: tuple(sorted_elements(v)) for a, v in sets.items()}
    for a in cat.objects:
        if a not in sets:
            raise ValidationError(f"object functor: no set for {a}")
    norm_maps = {}
    for f, arrow in cat.arrows.items():
        if f not in maps:
            raise ValidationError(f"object functor: no map for arrow {f}")
        table = dict(maps[f])
        if any(table.get(x) not in sets[arrow.tgt] for x in sets[arrow.src]):
            raise ValidationError(f"object functor: map for {f} not into O({arrow.tgt})")
        norm_maps[f] = {x: table[x] for x in sets[arrow.src]}
    fault = cat.functor_fault(norm_maps, lambda a: {x: x for x in sets[a]}, then)
    if fault:
        raise ValidationError(f"object functor: {fault}")
    maps = tuple(sorted((f, tuple(table.items())) for f, table in norm_maps.items()))
    return ObjectFunctor(cat, cat.name, tuple(sorted(sets.items())), maps)


@dataclass(frozen=True)
class GraphFamily:
    """A family of finite sets indexed by O(A) x O(A), per base object."""

    name: str = field(compare=False)
    fibers: tuple = ()  # sorted tuple of (A, tuple of ((a', a''), elements))

    def at(self, a):
        return {pair: elems for pair, elems in dict(self.fibers).get(a, ())}

    def fiber(self, a, a1, a2):
        return self.at(a).get((a1, a2), ())


def graph_family(name, data: dict) -> GraphFamily:
    out = []
    for a, pairs in sorted(data.items()):
        row = tuple(
            (pair, tuple(sorted_elements(elems)))
            for pair, elems in sorted(pairs.items(), key=lambda p: skey(p[0]))
            if elems
        )
        out.append((a, row))
    return GraphFamily(name, tuple(out))


class EnrichedGraphCategory(WordTensor):
    """The monoidal span category of graph-family words over an object functor."""

    def __init__(self, O: ObjectFunctor):
        self.O = O
        self.cat = O.cat
        self.D = SpanDuoidal(O.cat)
        self._homs = Memo(self._hom_atom)  # (word, word) -> hom family

    def word_fiber(self, word, a, a1, a2):
        """Path-tagged elements of a word's fiber at (A, a', a'')."""
        word = tuple(word)
        if not word:
            return (((a1,), ()),) if a1 == a2 else ()
        out = []

        def build(path, comps, rest):
            if not rest:
                if path[-1] == a2:
                    out.append((tuple(path), tuple(comps)))
                return
            head, tail = rest[0], rest[1:]
            for nxt in self.O.set_of(a) if tail else (a2,):
                for x in head.fiber(a, path[-1], nxt):
                    build(path + [nxt], comps + [x], tail)

        build([a1], [], list(word))
        return tuple(out)

    def hom_obj(self, w1, w2):
        """The hom family of two words: one atom per pair of words, whose
        fibers are computed per globe."""
        return self._homs[tuple(w1), tuple(w2)]

    def ends(self, hom):
        """The words (w1, w2) of a hom family."""
        _, w1, w2 = hom.key
        return w1, w2

    def _hom_atom(self, key):
        w1, w2 = key

        def fiber_fn(g):
            fmap = self.O.map_of(g.f)
            gmap = self.O.map_of(g.g)
            pairs = [(a1, a2) for a1 in self.O.set_of(g.a) for a2 in self.O.set_of(g.a)]
            per_pair = []
            for a1, a2 in pairs:
                dom = self.word_fiber(w1, g.a, a1, a2)
                cod = self.word_fiber(w2, g.b, fmap[a1], gmap[a2])
                per_pair.append(
                    [tuple(zip(dom, choice)) for choice in itertools.product(cod, repeat=len(dom))]
                )
            return tuple(tuple(zip(pairs, combo)) for combo in itertools.product(*per_pair))

        return SpanAtom(f"hom({len(w1)},{len(w2)})", ("hom", w1, w2), fiber_fn)

    @staticmethod
    def _family_dict(elem):
        return {pair: dict(graph) for pair, graph in elem}

    def family(self, a, graph):
        """A hom-family element over the base object a: the graph
        `graph(a1, a2)` at each pair (a1, a2) of O(a)."""
        objs = self.O.set_of(a)
        return tuple(((a1, a2), graph(a1, a2)) for a1 in objs for a2 in objs)

    def comp_map(self, w1, w2, w3):
        """Composition of hom families along a horizontal globe pairing."""

        def act(globe, elt):
            (g1, _), (phi, psi) = elt
            phi, psi = self._family_dict(phi), self._family_dict(psi)
            f1map = self.O.map_of(g1.f)
            g1map = self.O.map_of(g1.g)

            def graph(a1, a2):
                return tuple((x, psi[(f1map[a1], g1map[a2])][y]) for x, y in phi.get((a1, a2), {}).items())

            return self.family(globe.a, graph)

        dom = self.D.tensor(0, (self.hom_obj(w1, w2), self.hom_obj(w2, w3)))
        return self.D.value_map(dom, self.hom_obj(w1, w3), act)

    def unit_map(self, w):
        target = self.hom_obj(w, w)

        def act(globe, _elt):
            return self.family(globe.a, lambda a1, a2: tuple((x, x) for x in self.word_fiber(w, globe.a, a1, a2)))

        return self.D.value_map(self.D.e, target, act)

    def odot_hom_map(self, e1, f1, e2, f2):
        k1 = len(e1)
        e12 = self.odot(e1, e2)

        def act(globe, elt):
            _, (phi, psi) = elt
            phi, psi = self._family_dict(phi), self._family_dict(psi)

            def graph(a1, a2):
                table = []
                for path, comps in self.word_fiber(e12, globe.a, a1, a2):
                    mid = path[k1]
                    out_left = phi[(a1, mid)][(path[: k1 + 1], comps[:k1])]
                    out_right = psi[(mid, a2)][(path[k1:], comps[k1:])]
                    table.append(((path, comps), (out_left[0] + out_right[0][1:], out_left[1] + out_right[1])))
                return tuple(table)

            return self.family(globe.a, graph)

        dom = self.D.tensor(1, (self.hom_obj(e1, f1), self.hom_obj(e2, f2)))
        return self.D.value_map(dom, self.hom_obj(e12, self.odot(f1, f2)), act)

    def v_action_map(self):
        target = self.hom_obj((), ())

        def act(globe, _elt):
            fmap = self.O.map_of(globe.f)
            return self.family(
                globe.a, lambda a1, a2: tuple((x, ((fmap[a1],), ())) for x in self.word_fiber((), globe.a, a1, a2))
            )

        return self.D.value_map(self.D.v, target, act)


# ---------------------------------------------------------------------------
# category-valued functors and the factorization correspondences


@dataclass(frozen=True)
class CatValuedFunctor:
    base: FiniteCategory = field(compare=False)
    values: tuple = ()  # sorted tuple of (object, FiniteCategory)
    functors: tuple = ()  # sorted tuple of (arrow, CatFunctor)
    name: str = "F"
    # (N, bound) -> (J, X) of `tamarkin_fiber`, built on first use
    complexes: Memo = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "complexes", Memo(functools.partial(_hom_complex, self)))

    def value(self, a) -> FiniteCategory:
        return dict(self.values)[a]

    def functor(self, f) -> CatFunctor:
        return dict(self.functors)[f]


def cat_valued_functor(base: FiniteCategory, values: dict, functors: dict, name="F") -> CatValuedFunctor:
    for a in base.objects:
        if a not in values:
            raise ValidationError(f"{name}: no value category at {a}")
    table = {base.identities[a]: identity_functor(values[a]) for a in base.objects} | dict(functors)
    for f, arrow in base.arrows.items():
        F = table.get(f)
        if F is None or F.src is not values[arrow.src] or F.tgt is not values[arrow.tgt]:
            raise ValidationError(f"{name}: bad functor at arrow {f}")
    fault = base.functor_fault(
        {f: (table[f].obj_map, table[f].arr_map) for f in base.arrows},
        lambda a: ({x: x for x in values[a].objects}, {f: f for f in values[a].arrows}),
        lambda p, q: tuple(map(then, p, q)),
    )
    if fault:
        raise ValidationError(f"{name}: {fault}")
    return CatValuedFunctor(base, tuple(sorted(values.items())), tuple(sorted(table.items())), name)


def object_functor_of(F: CatValuedFunctor) -> ObjectFunctor:
    sets = {a: F.value(a).objects for a in F.base.objects}
    maps = {f: {x: F.functor(f).on_obj(x) for x in sets[F.base.src(f)]} for f in F.base.arrows}
    return object_functor(F.base, sets, maps)


def hom_family_of(F: CatValuedFunctor) -> GraphFamily:
    data = {}
    for a in F.base.objects:
        C = F.value(a)
        data[a] = {(x, y): C.hom(x, y) for x in C.objects for y in C.objects if C.hom(x, y)}
    return graph_family(f"M({F.name})", data)


def monoid_from_factorization(F: CatValuedFunctor, J: EnrichedGraphCategory = None) -> KMonoid:
    """The distinguished monoid of a category-valued factorization."""
    if J is None:
        J = EnrichedGraphCategory(object_functor_of(F))
    D = J.D
    M = (hom_family_of(F),)
    m2 = J.odot(M, M)

    def mu_act(globe, _elt):
        a = globe.a
        C = F.value(a)
        return J.family(
            a,
            lambda a1, a2: tuple(
                ((path, comps), ((path[0], path[2]), (C.compose(comps[0], comps[1]),)))
                for path, comps in J.word_fiber(m2, a, a1, a2)
            ),
        )

    mu_bar = D.value_map(D.e, J.hom_obj(m2, M), mu_act)

    def nu_act(globe, _elt):
        C = F.value(globe.a)
        return J.family(
            globe.a, lambda a1, a2: ((((a1,), ()), ((a1, a1), (C.identities[a1],))),) if a1 == a2 else ()
        )

    nu_bar = D.value_map(D.e, J.hom_obj((), M), nu_act)

    def u_act(globe, _elt):
        f = globe.f  # an arrow globe on the support of the second unit
        Ff = F.functor(f)
        fmap = J.O.map_of(f)
        return J.family(
            globe.a,
            lambda a1, a2: tuple(
                (el, ((fmap[a1], fmap[a2]), (Ff.on_arr(el[1][0]),))) for el in J.word_fiber(M, globe.a, a1, a2)
            ),
        )

    u = D.value_map(D.v, J.hom_obj(M, M), u_act)
    return KMonoid(J, M, nu_bar, mu_bar, u, name=f"M({F.name})")


def factorization_from_monoid(M: KMonoid, name="F") -> CatValuedFunctor:
    """Rebuild the category-valued factorization from a monoid's data."""
    J = M.K
    base = J.cat
    values = categories_from_und_monoid(M.carrier, M.mu_bar, M.nu_bar, J, name=name)
    functors = {}
    for f, arrow in base.arrows.items():
        gl = arrow_globe(base, f)
        u_fam = dict(M.u.apply(gl, ()))
        omap = J.O.map_of(f)
        amap = {}
        for pair, table in u_fam.items():
            for el, out in dict(table).items():
                amap[el[1][0]] = out[1][0]
        functors[f] = CatFunctor(f"{name}({f})", values[arrow.src], values[arrow.tgt], omap, amap)
    return cat_valued_functor(base, values, functors, name=name)


def categories_from_und_monoid(carrier, mu_bar, nu_bar, J, name="fact2"):
    """Rebuild the per-object categories from level-two data; the category
    at a is named name@a."""
    base = J.cat
    E = carrier[0]
    out = {}
    for a in base.objects:
        gl = identity_globe(base, a)
        nu_fam = dict(nu_bar.apply(gl, ()))
        mu_fam = dict(mu_bar.apply(gl, ()))
        objs = J.O.set_of(a)
        identities = {}
        for a1 in objs:
            ((_, outv),) = nu_fam[(a1, a1)]
            identities[a1] = outv[1][0]
        arrows = [(x, a1, a2) for a1 in objs for a2 in objs for x in E.fiber(a, a1, a2)]
        compose_table = {}
        for pair, table in mu_fam.items():
            for (path, comps), outv in dict(table).items():
                compose_table[(comps[0], comps[1])] = outv[1][0]
        out[a] = FiniteCategory(
            f"{name}@{a}", objs, [Arrow(x, s, t) for x, s, t in arrows], compose_table, identities
        )
    return out


# ---------------------------------------------------------------------------
# pullback along a transformation of object functors


def check_transformation(O1: ObjectFunctor, O2: ObjectFunctor, components: dict):
    if O1.cat is not O2.cat:
        raise ValidationError("transformations need a common base")
    for a in O1.cat.objects:
        comp = components.get(a)
        if comp is None:
            raise ValidationError(f"no component at {a}")
        for x in O1.set_of(a):
            if comp.get(x) not in O2.set_of(a):
                raise ValidationError(f"component at {a} not into the target")
    for f, arrow in O1.cat.arrows.items():
        for x in O1.set_of(arrow.src):
            lhs = O2.map_of(f)[components[arrow.src][x]]
            rhs = components[arrow.tgt][O1.map_of(f)[x]]
            if lhs != rhs:
                raise ValidationError(f"naturality fails at arrow {f}, element {x!r}")
    return {a: dict(components[a]) for a in O1.cat.objects}


def pullback_family(phi: dict, O1: ObjectFunctor, E: GraphFamily) -> GraphFamily:
    data = {}
    for a in O1.cat.objects:
        row = {}
        for b1 in O1.set_of(a):
            for b2 in O1.set_of(a):
                elems = E.fiber(a, phi[a][b1], phi[a][b2])
                if elems:
                    row[(b1, b2)] = elems
        data[a] = row
    return graph_family(f"{E.name}*", data)


# ---------------------------------------------------------------------------
# the Tamarkin fiber


def tamarkin_fiber(F: CatValuedFunctor, globe: Globe, weights=None, N: int = 2, bound: int = 3):
    """The totalization of the endomorphism hom complex, at one globe.

    With constant weights and a parallel-pair base this computes the natural
    transformations between the induced functors; with the ordinal weights
    it computes the unnatural families.  The complex (J, X) is built once
    per (N, bound) and kept on F, so every totalization of it, under any
    weights, shares X's point pools and images.
    """
    from .center import constant_weights, totalize

    J, X = F.complexes[N, bound]
    tot = totalize(J.D, X, weights or constant_weights(N), N=N, keys=(globe,))
    return tot.families.get(globe, ()), tot


def _hom_complex(F: CatValuedFunctor, key):
    """The enriched graph category of F and the cosimplicial object of its
    distinguished monoid's endomorphism operad, to level N + 1."""
    from .operads import cosimplicial_from_multiplicative, multiplicative_from_k_monoid

    N, bound = key
    J = EnrichedGraphCategory(object_functor_of(F))
    A = multiplicative_from_k_monoid(monoid_from_factorization(F, J), bound=bound)
    return J, cosimplicial_from_multiplicative(A, N)
