"""Globe-indexed families of finite sets over a finite base category.

An object assigns a finite set to each globe (parallel pair of arrows) of
the base, with finite support.  The horizontal tensor sums over
factorizations of the globe's two arrows, the vertical tensor over
composable parallel pairs; the interchange includes the matching-middles
configurations into the general ones.

Strictness is achieved formally: objects are atoms or flattened tensor
nodes, with unit atoms dropped during canonicalization, and the fibers of a
tensor node are chain-tagged tuples.  All morphisms are stored as per-globe
dictionaries over the (finite) support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .duoidal import Tensors
from .fincat import FiniteCategory
from .report import SizeError, skey, sorted_elements


class Globe(NamedTuple):
    """A parallel pair of arrows f, g: a -> b of the base.

    A named tuple of four strings, so globes (and the chain-tagged elements
    that hold them) hash and compare in C.
    """

    a: str
    b: str
    f: str
    g: str

    def sort_key(self):
        return (self.a, self.b, self.f, self.g)

    def render(self):
        return f"({self.a},{self.b},{self.f},{self.g})"


def identity_globe(cat: FiniteCategory, a: str) -> Globe:
    ident = cat.identities[a]
    return Globe(a, a, ident, ident)


def arrow_globe(cat: FiniteCategory, f: str) -> Globe:
    return Globe(cat.src(f), cat.tgt(f), f, f)


def all_globes(cat: FiniteCategory):
    return tuple(Globe._make(t) for t in cat.parallel_pairs())


def hcompose(cat: FiniteCategory, g1: Globe, g2: Globe) -> Globe:
    if g1.b != g2.a:
        raise ValueError("globes not horizontally composable")
    return Globe(g1.a, g2.b, cat.compose(g1.f, g2.f), cat.compose(g1.g, g2.g))


def vcompose(g1: Globe, g2: Globe) -> Globe:
    if (g1.a, g1.b) != (g2.a, g2.b) or g1.g != g2.f:
        raise ValueError("globes not vertically composable")
    return Globe(g1.a, g1.b, g1.f, g2.g)


def hsplits(cat: FiniteCategory, globe: Globe):
    """Pairs (G1, G2) horizontally composing to the globe."""
    out = []
    for f1, f2 in cat.factorizations(globe.f):
        mid = cat.tgt(f1)
        for g1, g2 in cat.factorizations(globe.g):
            if cat.tgt(g1) == mid:
                out.append((Globe(globe.a, mid, f1, g1), Globe(mid, globe.b, f2, g2)))
    return out


def vsplits(cat: FiniteCategory, globe: Globe):
    """Pairs (G1, G2) vertically composing to the globe."""
    return [(globe._replace(g=mid), globe._replace(f=mid)) for mid in cat.hom(globe.a, globe.b)]


class SpanAtom:
    """An atom: a family whose fiber over a globe comes from a function.

    A listed atom (`span_atom`) looks its fibers up in a table; a hom object
    computes them.  Identity is the structural `key`.  Fibers are cached by
    the instance (`SpanDuoidal.fiber`), not by the atom.
    """

    __slots__ = ("name", "key", "fiber_fn")

    def __init__(self, name, key, fiber_fn):
        self.name = name
        self.key = key
        self.fiber_fn = fiber_fn

    def __eq__(self, other):
        return isinstance(other, SpanAtom) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SpanAtom({self.name})"

    def sort_key(self):
        return (self.name, skey(self.key))


def span_atom(name, fibers: dict) -> SpanAtom:
    """An atom with listed fibers, globe -> elements; empty fibers are dropped."""
    table = {}
    for g, elems in fibers.items():
        elems = tuple(sorted_elements(elems))
        if elems:
            table[g] = elems
    listed = tuple(sorted(table.items(), key=lambda p: p[0].sort_key()))
    return SpanAtom(name, (name, listed), lambda g: table.get(g, ()))


@dataclass(frozen=True)
class SpanNode:
    kind: str  # "p0" or "p1"
    children: tuple

    def sort_key(self):
        return (self.kind, tuple(c.sort_key() for c in self.children))


class SpanMor:
    """A morphism of globe-indexed families, evaluated lazily.

    Either a per-globe table or a callable (globe, element) -> element; the
    table is materialized on demand (equality always materializes).
    """

    __slots__ = ("dom", "cod", "_mapping", "_fn", "_memo")

    def __init__(self, dom, cod, mapping=None, fn=None):
        self.dom = dom
        self.cod = cod
        self._mapping = mapping
        self._fn = fn
        self._memo = {} if mapping is None else None

    def apply(self, globe, elt):
        if self._mapping is not None:
            return self._mapping[globe][elt]
        key = (globe, elt)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._fn(globe, elt)
        return out

    def __repr__(self):
        state = "table" if self._mapping is not None else "lazy"
        return f"SpanMor({state})"


# per tensor t: the kind of a tensor-t node, the Globe fields where the
# cursor of `split` starts and where each factor moves it (a -> b for box0,
# f -> g for box1), and the binary splits of a globe
_NODE_KINDS = ("p0", "p1")
_CURSOR = ((0, 1), (2, 3))
_SPLITS = (hsplits, vsplits)


class SpanDuoidal(Tensors):
    """The duoidal instance of globe-indexed families over a finite base."""

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self.name = f"spans({cat.name})"
        # per tensor t (0 = horizontal, 1 = vertical): the unit globes by
        # cursor position (an object for box0, an arrow for box1), the unit
        # object, and the composition of globes
        self._unit_globes = (
            {a: identity_globe(cat, a) for a in cat.objects},
            {f: arrow_globe(cat, f) for f in cat.arrows},
        )
        self._units = tuple(
            span_atom(f"I{t}", {g: ((),) for g in self._unit_globes[t].values()}) for t in (0, 1)
        )
        self._compose = (self._hcompose, vcompose)
        self._hcompose_cache = {}
        self._fiber_cache = {}

    # -- objects ---------------------------------------------------------
    def objects(self):
        return None

    def atom(self, name, fibers: dict):
        for g in fibers:
            if g not in self.cat.parallel_pairs():
                raise ValueError(f"atom {name}: globe {g.render()} not in the base")
        return span_atom(name, fibers)

    def arities(self, t, xs):
        """The number of tensor-t factors of each object: 0 for the unit
        of tensor t, the children of a tensor-t node, else 1."""
        return tuple(len(self._factors(t, x)) for x in xs)

    def _factors(self, t, x):
        if x == self._units[t]:
            return ()
        if isinstance(x, SpanNode) and x.kind == _NODE_KINDS[t]:
            return x.children
        return (x,)

    def tensor(self, t, xs):
        """The flattened tensor-t product (0 = horizontal, 1 = vertical)."""
        flat = [c for x in xs for c in self._factors(t, x)]
        if not flat:
            return self._units[t]
        if len(flat) == 1:
            return flat[0]
        return SpanNode(_NODE_KINDS[t], tuple(flat))

    # -- fibers ----------------------------------------------------------
    def chains(self, t, globe, k):
        """All k-chains of globes whose tensor-t composite is the globe; the
        empty chain composes to the unit globe at the cursor."""
        if k == 0:
            return [()] if globe == self._unit_globes[t].get(globe[_CURSOR[t][0]]) else []
        if k == 1:
            return [(globe,)]
        return [(g1,) + rest for g1, g2 in _SPLITS[t](self.cat, globe) for rest in self.chains(t, g2, k - 1)]

    def fiber(self, obj, globe):
        """The fiber of an object over one globe (computed on demand)."""
        key = (obj, globe)
        cached = self._fiber_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(obj, SpanAtom):
            out = tuple(obj.fiber_fn(globe))
        else:
            t = _NODE_KINDS.index(obj.kind)
            elems = []
            for chain in self.chains(t, globe, len(obj.children)):
                child_fibers = [self.fiber(c, g) for c, g in zip(obj.children, chain)]
                if any(not f for f in child_fibers):
                    continue
                for comps in itertools.product(*child_fibers):
                    elems.append((chain, comps))
            out = tuple(elems)
        self._fiber_cache[key] = out
        return out

    def fibers_of(self, obj) -> dict:
        return {g: self.fiber(obj, g) for g in all_globes(self.cat) if self.fiber(obj, g)}

    def support(self, obj):
        return tuple(g for g in all_globes(self.cat) if self.fiber(obj, g))

    # -- splitting and joining tensor elements ----------------------------
    def _hcompose(self, g1, g2):
        """`hcompose` over the base, stored per pair of globes."""
        key = (g1, g2)
        out = self._hcompose_cache.get(key)
        if out is None:
            out = self._hcompose_cache[key] = hcompose(self.cat, g1, g2)
        return out

    def split(self, t, arities, globe, elt):
        """Decompose an element of a tensor-t product over `globe` into one
        (globe, element) pair per factor, given the factors' arities.

        A factor of arity 0 gets the unit globe at the cursor: the current
        object for box0, the current arrow for box1.
        """
        total = sum(arities)
        if total == 0:
            chain, comps = (), ()
        elif total == 1:
            chain, comps = (globe,), (elt,)
        else:
            chain, comps = elt
        compose = self._compose[t]
        unit_globes = self._unit_globes[t]
        start, end = _CURSOR[t]
        cur = globe[start]
        parts = []
        pos = 0
        for k in arities:
            if k == 0:
                parts.append((unit_globes[cur], ()))
                continue
            g = chain[pos]
            for nxt in chain[pos + 1 : pos + k]:
                g = compose(g, nxt)
            cur = g[end]
            parts.append((g, comps[pos] if k == 1 else (chain[pos : pos + k], comps[pos : pos + k])))
            pos += k
        return parts

    def join(self, t, arities, parts):
        """Reassemble per-factor (globe, element) pairs into the composite
        globe and an element of the tensor-t product; inverse of `split`."""
        compose = self._compose[t]
        chain = []
        comps = []
        composite = None
        for k, (g, elt) in zip(arities, parts):
            composite = g if composite is None else compose(composite, g)
            if k == 1:
                chain.append(g)
                comps.append(elt)
            elif k > 1:
                sub_chain, sub_comps = elt
                chain.extend(sub_chain)
                comps.extend(sub_comps)
        if not chain:
            return composite, ()
        if len(chain) == 1:
            return composite, comps[0]
        return composite, (tuple(chain), tuple(comps))

    # -- morphisms ---------------------------------------------------------
    def mor(self, dom, cod, mapping) -> SpanMor:
        """A validated, fully tabulated morphism."""
        out = {}
        fibers = self.fibers_of(dom)
        cods = self.fibers_of(cod)
        for g, elems in fibers.items():
            table = mapping.get(g, {})
            row = {}
            for x in elems:
                if x not in table:
                    raise ValueError(f"morphism not total at {g.render()}: missing {x!r}")
                y = table[x]
                if y not in cods.get(g, ()):
                    raise ValueError(f"morphism leaves the codomain fiber at {g.render()}")
                row[x] = y
            if row:
                out[g] = row
        return SpanMor(dom, cod, mapping=out)

    def materialize(self, f: SpanMor) -> dict:
        if f._mapping is None:
            mapping = {}
            for g in self.support(f.dom):
                cod_fiber = set(self.fiber(f.cod, g))
                row = {}
                for x in self.fiber(f.dom, g):
                    y = f._fn(g, x)
                    if y not in cod_fiber:
                        raise ValueError(f"morphism leaves the codomain fiber at {g.render()}")
                    row[x] = y
                if row:
                    mapping[g] = row
            f._mapping = mapping
        return f._mapping

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def identity(self, x):
        return SpanMor(x, x, fn=lambda g, el: el)

    def compose(self, f, g):
        """f then g."""
        if f.cod != g.dom:
            raise ValueError("compose: middle objects differ")
        return SpanMor(f.dom, g.cod, fn=lambda gl, el: g.apply(gl, f.apply(gl, el)))

    def maps_equal(self, f, g, cap=None):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        return self.materialize(f) == self.materialize(g)

    def memoize(self, f):
        """Every lazy `SpanMor` already stores its values."""
        return f

    def apply_at(self, f, key, elt):
        return f.apply(key, elt)

    def hom(self, x, y, cap=100_000):
        """All morphisms x -> y, enumerated per fiber."""
        xf = self.fibers_of(x)
        yf = self.fibers_of(y)
        total = 1
        for g, elems in xf.items():
            choices = len(yf.get(g, ()))
            total *= choices ** len(elems)
            if total > cap:
                raise SizeError("span hom set exceeds cap")
        if total == 0:
            return []
        globes = sorted(xf, key=lambda g: g.sort_key())
        per_globe = []
        for g in globes:
            targets = yf.get(g, ())
            rows = [dict(zip(xf[g], combo)) for combo in itertools.product(targets, repeat=len(xf[g]))]
            per_globe.append(rows)
        out = []
        for combo in itertools.product(*per_globe):
            out.append(SpanMor(x, y, {g: row for g, row in zip(globes, combo) if row}))
        return out

    # -- tensor on morphisms ------------------------------------------------
    def tensor_map(self, t, fs):
        """The tensor-t product of morphisms, evaluated per element by
        splitting over the domains and joining over the codomains."""
        fs = list(fs)
        if not fs:
            return self.identity(self._units[t])
        doms = [f.dom for f in fs]
        cods = [f.cod for f in fs]
        dom_arities = self.arities(t, doms)
        cod_arities = self.arities(t, cods)

        def act(globe, elt):
            parts = self.split(t, dom_arities, globe, elt)
            outs = [(g, f.apply(g, el)) for f, (g, el) in zip(fs, parts)]
            out_globe, out_elt = self.join(t, cod_arities, outs)
            if out_globe != globe:
                raise AssertionError(f"box{t} tensor moved a globe")
            return out_elt

        return SpanMor(self.tensor(t, doms), self.tensor(t, cods), fn=act)

    # -- duoidal structure ----------------------------------------------
    def interchange(self, a, b, c, d):
        ab = self.tensor(1, (a, b))
        cd = self.tensor(1, (c, d))
        ac = self.tensor(0, (a, c))
        bd = self.tensor(0, (b, d))
        outer0 = self.arities(0, (ab, cd))
        ab_arities = self.arities(1, (a, b))
        cd_arities = self.arities(1, (c, d))
        ac_arities = self.arities(0, (a, c))
        bd_arities = self.arities(0, (b, d))
        outer1 = self.arities(1, (ac, bd))

        def act(globe, elt):
            (g1, e_ab), (g2, e_cd) = self.split(0, outer0, globe, elt)
            (g1u, ea), (g1d, eb) = self.split(1, ab_arities, g1, e_ab)
            (g2u, ec), (g2d, ed) = self.split(1, cd_arities, g2, e_cd)
            gu, e_ac = self.join(0, ac_arities, [(g1u, ea), (g2u, ec)])
            gd, e_bd = self.join(0, bd_arities, [(g1d, eb), (g2d, ed)])
            out_globe, out = self.join(1, outer1, [(gu, e_ac), (gd, e_bd)])
            if out_globe != globe:
                raise AssertionError("interchange moved a globe")
            return out

        return SpanMor(self.tensor(0, (ab, cd)), self.tensor(1, (ac, bd)), fn=act)

    def delta_e(self):
        def act(globe, elt):
            return ((globe, globe), ((), ()))

        return SpanMor(self.e, self.box1(self.e, self.e), fn=act)

    def mu_v(self):
        return SpanMor(self.box0(self.v, self.v), self.v, fn=lambda g, el: ())

    def iota(self):
        return SpanMor(self.e, self.v, fn=lambda g, el: ())

    # -- extra structure used by the center machinery --------------------
    def subobject_from_fibers(self, x, fibers, name):
        sub = span_atom(name, {g: elems for g, elems in fibers.items() if elems})
        incl = SpanMor(sub, x, fn=lambda g, el: el)
        return sub, incl

    def corestrict_map(self, f, sub, fibers):
        allowed = {g: set(elems) for g, elems in fibers.items()}
        mapping = {}
        for g, elems in self.fibers_of(f.dom).items():
            row = {}
            for x in elems:
                y = f.apply(g, x)
                if y not in allowed.get(g, set()):
                    raise KeyError(f"image at {g.render()} not in the subobject")
                row[x] = y
            mapping[g] = row
        return self.mor(f.dom, sub, mapping)

    def cotensor(self, y, s, name=None):
        """Fiberwise function sets (Y_G)^s, with functions stored as graphs.

        Cotensoring by the empty set gives the singleton over every globe of
        the base, not just over the support of y.
        """
        s = tuple(sorted_elements(s))
        if not s:
            return self.atom(name or "cotensor", {g: ((),) for g in all_globes(self.cat)})
        fibers = {}
        for g, elems in self.fibers_of(y).items():
            fibers[g] = tuple(
                tuple(zip(s, choice)) for choice in itertools.product(elems, repeat=len(s))
            )
        return self.atom(name or "cotensor", fibers)

    def coproduct(self, parts, name=None):
        """Tagged disjoint union of atoms, with the injection morphisms."""
        fibers = {}
        for i, p in enumerate(parts):
            for g, elems in self.fibers_of(p).items():
                fibers.setdefault(g, [])
                fibers[g].extend((i, el) for el in elems)
        out = self.atom(name or "coproduct", {g: tuple(v) for g, v in fibers.items()})
        injections = [
            SpanMor(p, out, fn=lambda g, el, i=i: (i, el)) for i, p in enumerate(parts)
        ]
        return out, injections
