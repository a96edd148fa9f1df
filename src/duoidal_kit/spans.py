"""Globe-indexed families of finite sets over a finite base category.

An object assigns a finite set to each globe (parallel pair of arrows) of
the base, with finite support.  The horizontal tensor sums over
factorizations of the globe's two arrows, the vertical tensor over
composable parallel pairs; the interchange includes the matching-middles
configurations into the general ones.

Strictness is achieved formally: objects are atoms or flattened tensor
nodes, with unit atoms dropped during canonicalization.  An element of a
tensor node over a globe is a pair (chain of globes composing to it, one
element of each factor over its globe of the chain).

Inside an instance every element has an integer code: an atom's elements
are numbered per (atom, globe) in the order they are first met, so coding
never lists a fiber, and a node element is the tuple (chain id, child
code, ...), with chains interned per instance.  Every map (`SpanMor`)
belongs to the instance that built it and works on that instance's codes.
Applied at a code (`at`), it stores its value there, one `report.Memo` per
globe; a tensor of maps and the interchange are planned per chain: `_parts`
splits a chain among the factors once per chain, not once per element.

`compose` builds every composite in normal form by identities of maps, so
no value changes: (a) identities drop out, by the unit laws; (b) composites
nest to the left, by associativity; (c) two tensor-t maps whose factors meet
compose factorwise, as tensor t is a bifunctor; t must match, as box0 and
box1 are different functors.  `maps_equal` lists a fused tensor as a product.

`maps_equal` compares two maps' image tables, one globe at a time, each
listed in the order of the domain's codes and built from how the map was
made (`SpanMor.parts`), as a finite function is its vector of images
(Patterson, Lynch & Fairbanks, "Categorical data structures for technical
computing", 2022): an identity's images are the codes, a composite's are
its second map's images at its first map's table, and a tensor's table is
listed chain by chain as the product of its factors' tables, each factor
read once per code of its own fiber.  Any other map reads its stored
values.  The instance's own caches (tensor nodes, atom pools, fiber codes
by globe and by chain, horizontal composites of globes) are `Memo`s too,
and live as long as it.  Values appear only at the boundary: `fiber`,
`SpanMor.apply`/`apply_at`, and the maps given on values
(`SpanDuoidal.value_map`), which are decoded, applied and re-coded once per
element.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from types import MethodType
from typing import NamedTuple

from .duoidal import Tensors
from .fincat import FiniteCategory
from .report import Memo, SizeError, sorted_elements


class Globe(NamedTuple):
    """A parallel pair of arrows f, g: a -> b of the base.

    A named tuple of four strings, so globes (and the chains that hold them)
    hash and compare in C.
    """

    a: str
    b: str
    f: str
    g: str

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

    A listed atom (`SpanDuoidal.atom`) looks its fibers up in a table; a hom
    object computes them.  Identity is the structural `key`, hashed once.  Fibers
    are listed and coded by the instance (`SpanDuoidal.fiber`), not by the
    atom.
    """

    __slots__ = ("name", "key", "fiber_fn", "_hash")

    def __init__(self, name, key, fiber_fn):
        self.name = name
        self.key = key
        self.fiber_fn = fiber_fn
        self._hash = hash(key)

    def __eq__(self, other):
        return self is other or (isinstance(other, SpanAtom) and self._hash == other._hash and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SpanAtom({self.name})"


class SpanNode:
    """A flattened tensor node: `kind` is "p0" or "p1", and no child is a
    node of the same kind.  The hash is computed once."""

    __slots__ = ("kind", "children", "_hash")

    def __init__(self, kind, children):
        self.kind = kind
        self.children = children
        self._hash = hash((kind, children))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SpanNode)
            and self._hash == other._hash
            and (self.kind, self.children) == (other.kind, other.children)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SpanNode(kind={self.kind!r}, children={self.children!r})"


class SpanMor:
    """A morphism of globe-indexed families on the codes of the instance
    `owner` that built it, evaluated lazily: `code(globe, code) -> code`.

    It stores its value at each code it is applied to (`at`), one `Memo`
    per globe.  `parts` records how an identity ("id",), a composite
    ("then", f, g) or a tensor ("tensor", t, fs, arities, plans) was built, so
    that `SpanDuoidal.maps_equal` lists its images from its parts' images
    (`SpanDuoidal._table`); it is None otherwise.
    """

    __slots__ = ("owner", "dom", "cod", "code", "_rows", "parts")

    def __init__(self, owner, dom, cod, code, parts=None):
        self.owner = owner
        self.dom = dom
        self.cod = cod
        self.code = code
        self._rows = Memo(MethodType(_row, code))  # its values by globe and code
        self.parts = parts

    def at(self, globe, code):
        """The code of the image of a code of the domain over `globe`."""
        return self._rows[globe][code]

    def apply(self, globe, elt):
        """The image of an element value over `globe`."""
        D = self.owner
        return D.decode(self.cod, globe, self.at(globe, D.encode(self.dom, globe, elt)))

    def __repr__(self):
        return f"SpanMor({self.owner.name})"


def _row(code, globe):
    """The values of a map over one globe.  `MethodType` binds an argument as
    `functools.partial` does, in less memory and with no cycle through the map."""
    return Memo(MethodType(code, globe))


def _intern(pool, x):
    """The id of x in a pool (ids by value, values by id), adding x if new."""
    ids, values = pool
    out = ids.get(x)
    if out is None:
        out = ids[x] = len(values)
        values.append(x)
    return out


# per tensor t: the kind of a tensor-t node, the Globe fields where the
# cursor of `_parts` starts and where each factor moves it (a -> b for box0,
# f -> g for box1), and the binary splits of a globe
_NODE_KINDS = ("p0", "p1")
_CURSOR = ((0, 1), (2, 3))
_SPLITS = (hsplits, vsplits)


class SpanDuoidal(Tensors):
    """The duoidal instance of globe-indexed families over a finite base."""

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self.name = f"spans({cat.name})"
        self._globes = all_globes(cat)
        # per tensor t (0 = horizontal, 1 = vertical): the unit globes by
        # cursor position (an object for box0, an arrow for box1), the unit
        # object, and the composition of globes
        self._unit_globes = (
            {a: identity_globe(cat, a) for a in cat.objects},
            {f: arrow_globe(cat, f) for f in cat.arrows},
        )
        self._units = tuple(self.atom(f"I{t}", {g: ((),) for g in self._unit_globes[t].values()}) for t in (0, 1))
        hcomposed = Memo(lambda pair: hcompose(cat, *pair))
        self._compose = (lambda g1, g2: hcomposed[g1, g2], vcompose)
        self._nodes = Memo(lambda key: SpanNode(_NODE_KINDS[key[0]], key[1]))  # (t, factors) -> node
        self._codes = Memo(self._list_codes)  # (object, globe) -> the codes of its fiber
        self._cids = Memo(self._list_cids)  # (node, globe) -> the ids of the chains of its fiber
        self._blocks = Memo(self._list_block)  # (node, chain id) -> the codes of its fiber over the chain
        # per (atom, globe): ids by element, elements by id; () is code 0 over every unit globe
        self._pools = Memo(lambda key: ({}, []))
        self._pools.update(
            ((self._units[t], g), ({(): 0}, [()])) for t in (0, 1) for g in self._unit_globes[t].values()
        )
        self._chains = ({}, [])  # ids by chain, chains by id

    # -- objects ---------------------------------------------------------
    def objects(self):
        return None

    def atom(self, name, fibers: dict) -> SpanAtom:
        """An atom with listed fibers, globe -> elements; empty fibers are dropped."""
        table = {}
        for g, elems in fibers.items():
            if g not in self._globes:
                raise ValueError(f"atom {name}: globe {g.render()} not in the base")
            elems = tuple(sorted_elements(elems))
            if elems:
                table[g] = elems
        return SpanAtom(name, (name, tuple(sorted(table.items()))), lambda g: table.get(g, ()))

    def arities(self, t, xs):
        """The number of tensor-t factors of each object: 0 for the unit
        of tensor t, the children of a tensor-t node, else 1."""
        return tuple(len(self._factors(t, x)) for x in xs)

    def _factors(self, t, x):
        if isinstance(x, SpanNode):  # the units are atoms, equal by their keys
            return x.children if x.kind == _NODE_KINDS[t] else (x,)
        return () if x.key == self._units[t].key else (x,)

    def tensor(self, t, xs):
        """The flattened tensor-t product (0 = horizontal, 1 = vertical)."""
        flat = tuple(c for x in xs for c in self._factors(t, x))
        if not flat:
            return self._units[t]
        if len(flat) == 1:
            return flat[0]
        return self._nodes[t, flat]

    # -- fibers and codes --------------------------------------------------
    def chains(self, t, globe, k):
        """All k-chains of globes whose tensor-t composite is the globe; the
        empty chain composes to the unit globe at the cursor."""
        if k == 0:
            return [()] if globe == self._unit_globes[t].get(globe[_CURSOR[t][0]]) else []
        if k == 1:
            return [(globe,)]
        return [(g1,) + rest for g1, g2 in _SPLITS[t](self.cat, globe) for rest in self.chains(t, g2, k - 1)]

    def encode(self, obj, globe, elt):
        """The code of an element of obj over globe; an atom element met for
        the first time gets the next id of its (atom, globe) pool."""
        if isinstance(obj, SpanAtom):
            return _intern(self._pools[obj, globe], elt)
        chain, comps = elt
        codes = tuple(self.encode(c, g, x) for c, g, x in zip(obj.children, chain, comps))
        return (_intern(self._chains, tuple(chain)),) + codes

    def decode(self, obj, globe, code):
        """The element of obj over globe with the given code."""
        if isinstance(obj, SpanAtom):
            return self._pools[obj, globe][1][code]
        chain = self._chains[1][code[0]]
        return chain, tuple(self.decode(c, g, x) for c, g, x in zip(obj.children, chain, code[1:]))

    def _list_codes(self, key):
        """The codes of the fiber of obj over globe, for key = (obj, globe); a
        node's chain by chain."""
        obj, globe = key
        if isinstance(obj, SpanAtom):
            return tuple(self.encode(obj, globe, x) for x in obj.fiber_fn(globe))
        return tuple(itertools.chain.from_iterable(self._blocks[obj, cid] for cid in self._cids[key]))

    def _list_cids(self, key):
        """The ids of the chains over which a node has elements, for key =
        (node, globe), in the order `chains` lists them."""
        node, globe = key
        return tuple(
            _intern(self._chains, chain)
            for chain in self.chains(_NODE_KINDS.index(node.kind), globe, len(node.children))
            if all(self._codes[c, g] for c, g in zip(node.children, chain))
        )

    def _list_block(self, key):
        """The codes of a node's elements over one chain, for key = (node, chain id)."""
        node, cid = key
        child_codes = [self._codes[c, g] for c, g in zip(node.children, self._chains[1][cid])]
        return [(cid,) + comps for comps in itertools.product(*child_codes)]

    def fiber(self, obj, globe):
        """The elements of an object over one globe (listed on demand)."""
        return tuple(self.decode(obj, globe, c) for c in self._codes[obj, globe])

    def fibers_of(self, obj) -> dict:
        return {g: self.fiber(obj, g) for g in self.support(obj)}

    def support(self, obj):
        return tuple(g for g in self._globes if self._codes[obj, g])

    # -- planning tensors per chain ----------------------------------------
    def _parts(self, t, arities, globe, cid):
        """How a tensor-t product's chain over `globe` (`cid`, or None when the
        product has one factor or none) splits among factors of the given
        arities: per factor its globe (the composite of its subchain, or the
        unit globe at the cursor for arity 0), its subchain id (None unless
        its arity is above 1), and a getter of its code from a code of the
        product."""
        chain = (globe,) if cid is None else self._chains[1][cid]
        start, end = _CURSOR[t]
        cur, pos, parts = globe[start], 0, []
        for k in arities:
            if k == 0:
                parts.append((self._unit_globes[t][cur], None, lambda code: 0))
                continue
            sub = chain[pos : pos + k]
            g = functools.reduce(self._compose[t], sub)
            cur = g[end]
            if k == 1:
                parts.append((g, None, (lambda code: code) if cid is None else itemgetter(1 + pos)))
            else:
                head = (_intern(self._chains, sub),)
                parts.append((g, head[0], lambda code, head=head, lo=1 + pos, hi=1 + pos + k: head + code[lo:hi]))
            pos += k
        return parts

    def _joiner(self, t, arities, globes):
        """The composite of fixed factor globes, and how a plan joins one code
        per factor over them into a code of the tensor-t product: the chain
        id is found once per tuple of the factors' own chain ids."""
        composite = functools.reduce(self._compose[t], globes)
        n = sum(arities)
        if n <= 1:
            return composite, itemgetter(arities.index(1)) if n else lambda codes: 0

        def out_cid(cids):
            it = iter(cids)
            chain = ()
            for g, k in zip(globes, arities):
                chain += (g,) if k == 1 else self._chains[1][next(it)] if k else ()
            return _intern(self._chains, chain)

        if max(arities) == 1:
            head = (out_cid(()),)
            get = itemgetter(*(i for i, k in enumerate(arities) if k))
            return composite, lambda codes: head + get(codes)
        out_cids = Memo(out_cid)

        def joined(codes):
            cids, comps = [], []
            for code, k in zip(codes, arities):
                if k == 1:
                    comps.append(code)
                elif k:
                    cids.append(code[0])
                    comps.extend(code[1:])
            return (out_cids[tuple(cids)],) + tuple(comps)

        return composite, joined

    # -- morphisms ---------------------------------------------------------
    def value_map(self, dom, cod, fn) -> SpanMor:
        """A morphism given on values, fn(globe, element) -> element: each
        element is decoded, applied and re-coded once."""
        return SpanMor(self, dom, cod, lambda g, c: self.encode(cod, g, fn(g, self.decode(dom, g, c))))

    def _coded(self, f: SpanMor) -> SpanMor:
        """f on the codes of this instance; another instance's map goes through values."""
        return f if f.owner is self else self.value_map(f.dom, f.cod, f.apply)

    def _images(self, f, globe, codes):
        """The list of f's images at the given codes over globe: an
        identity's are the codes, a composite's are its second map's images
        at its first map's, and any other map reads them from its rows."""
        kind = f.parts[0] if f.parts else None
        if kind == "id":
            return list(codes)
        if kind == "then":
            return self._images(f.parts[2], globe, self._images(f.parts[1], globe, codes))
        return list(map(f._rows[globe].__getitem__, codes))

    def _table(self, f, globe, cid=None):
        """f's images at the codes of its domain over globe, in `_codes`
        order, or at those over one chain id of the domain.  A composite
        reads its second map only at its first map's images; a tensor's are
        listed chain by chain as the product of its factors' tables."""
        kind = f.parts[0] if f.parts else None
        if kind == "then":
            return self._images(f.parts[2], globe, self._table(f.parts[1], globe, cid))
        if kind != "tensor":
            return self._images(f, globe, self._codes[f.dom, globe] if cid is None else self._blocks[f.dom, cid])
        fs, arities, plans = f.parts[2:]
        if sum(arities) <= 1:
            keys, whole = [(globe, None)], cid
        else:
            keys, whole = [(globe, c) for c in (self._cids[f.dom, globe] if cid is None else (cid,))], None
        out = []
        for key in keys:
            parts, _, joined = plans[key]
            # a factor of arity 1 lists its whole fiber over its globe (or the chain of
            # an unchained tensor's one factor), one of arity k > 1 the block of its
            # subchain, one of arity 0 the unit code 0
            columns = [
                self._table(h, g, sub if k > 1 else whole) if k else self._images(h, g, (0,))
                for h, k, (g, sub, _) in zip(fs, arities, parts)
            ]
            out.extend(map(joined, itertools.product(*columns)))
        return out

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def identity(self, x):
        return SpanMor(self, x, x, lambda g, c: c, ("id",))

    def compose(self, f, g):
        """f then g, in normal form once the middle objects are checked:
        (a) id;g = g and f;id = f, the unit laws; (b) f;(g1;g2) = (f;g1);g2,
        associativity; (c) tensor-t maps whose factors meet compose factorwise,
        tensor t being a bifunctor (one t: box0 and box1 are different functors)."""
        if f.cod != g.dom:
            raise ValueError("compose: middle objects differ")
        return self._then(self._coded(f), self._coded(g))

    def _then(self, f, g):
        """`compose` of this instance's maps, whose middle objects are known to be equal."""
        (kf, *fs), (kg, *gs) = f.parts or (None,), g.parts or (None,)
        if kf == "id" or kg == "id":
            return g if kf == "id" else f
        if kg == "then":
            return self._then(self._then(f, gs[0]), gs[1])
        if kf == kg == "tensor" and fs[0] == gs[0] and len(fs[1]) == len(gs[1]):
            if all(a.cod == b.dom for a, b in zip(fs[1], gs[1])):
                return self.tensor_map(fs[0], map(self._then, fs[1], gs[1]))
        f_rows, g_rows = f._rows, g._rows
        return SpanMor(self, f.dom, g.cod, lambda gl, c: g_rows[gl][f_rows[gl][c]], ("then", f, g))

    def maps_equal(self, f, g, cap=None):
        """Whether f and g agree at every code of every globe of the support
        of their domain, compared as image tables (`_table`), each checked
        against the listed codomain."""
        if f.dom != g.dom or f.cod != g.cod:
            return False
        f, g = self._coded(f), self._coded(g)
        equal = True
        for globe in self.support(f.dom):
            tables = self._table(f, globe), self._table(g, globe)
            if not set(self._codes[f.cod, globe]).issuperset(itertools.chain(*tables)):
                raise ValueError(f"morphism leaves the codomain fiber at {globe.render()}")
            equal = equal and tables[0] == tables[1]
        return equal

    def memoize(self, f):
        """Every `SpanMor` already stores its values."""
        return f

    def apply_at(self, f, key, elt):
        return f.apply(key, elt)

    def hom(self, x, y, cap=100_000):
        """All morphisms x -> y, enumerated per fiber: one code table per
        globe of the support of x."""
        xc = {g: self._codes[x, g] for g in self.support(x)}
        yc = {g: self._codes[y, g] for g in xc}
        total = 1
        for g, codes in xc.items():
            total *= len(yc[g]) ** len(codes)
            if total > cap:
                raise SizeError("span hom set exceeds cap")
        if total == 0:
            return []
        per_globe = [[dict(zip(xc[g], combo)) for combo in itertools.product(yc[g], repeat=len(xc[g]))] for g in xc]
        return [
            SpanMor(self, x, y, lambda g, c, tables=dict(zip(xc, combo)): tables[g][c])
            for combo in itertools.product(*per_globe)
        ]

    # -- tensor on morphisms ------------------------------------------------
    def tensor_map(self, t, fs):
        """The tensor-t product of morphisms, planned per chain: on the first
        element of a (globe, chain id) of the domain (of a globe, when the
        domain has one factor or none), `_parts` gives each factor's globe,
        row and getter, and the plan checks the globe once.  Then an element
        is one row lookup per factor and one join."""
        fs = [self._coded(f) for f in fs]
        if not fs:
            return self.identity(self._units[t])
        doms = [f.dom for f in fs]
        cods = [f.cod for f in fs]
        dom_arities = self.arities(t, doms)
        cod_arities = self.arities(t, cods)
        chained = sum(dom_arities) > 1

        def plan(key):
            parts = self._parts(t, dom_arities, *key)
            composite, joined = self._joiner(t, cod_arities, [g for g, _, _ in parts])
            if composite != key[0]:
                raise AssertionError(f"box{t} tensor moved a globe")
            return parts, [(f._rows[g], get) for f, (g, _, get) in zip(fs, parts)], joined

        plans = Memo(plan)

        def act(globe, code):
            _, steps, joined = plans[globe, code[0] if chained else None]
            return joined([row[read(code)] for row, read in steps])

        dom, cod = self.tensor(t, doms), self.tensor(t, cods)
        return SpanMor(self, dom, cod, act, ("tensor", t, fs, dom_arities, plans))

    # -- duoidal structure ----------------------------------------------
    def interchange(self, a, b, c, d):
        """(a box1 b) box0 (c box1 d) -> (a box0 c) box1 (b box0 d), planned as
        `tensor_map` is, per globe and chain ids of the domain: the box0 chain
        and, where ab or cd is a box1 node, its box1 chain.  A plan reads
        `_parts` at both levels, box0 outside and box1 inside, so that it gets
        the codes of a, b, c and d from a code, joins them, and checks the
        globe once."""
        ab, cd = self.tensor(1, (a, b)), self.tensor(1, (c, d))
        ac, bd = self.tensor(0, (a, c)), self.tensor(0, (b, d))
        outer = self.arities(0, (ab, cd))
        inner = self.arities(1, (a, b)), self.arities(1, (c, d))
        ac_arities, bd_arities = self.arities(0, (a, c)), self.arities(0, (b, d))
        out_arities = self.arities(1, (ac, bd))
        chained = sum(outer) > 1

        def inner_cid(pos, arities):
            """How to read the box1 chain id of ab or cd, at pos among the box0
            factors, from a code of the domain; None where it has none."""
            if sum(arities) <= 1:
                return lambda code: None
            return (lambda code: code[1 + pos][0]) if chained else itemgetter(0)

        def plan(key):
            globe, cid, *cids = key
            reads, globes = [], []
            for (g, _, half), arities, icid in zip(self._parts(0, outer, globe, cid), inner, cids):
                for g2, _, read in self._parts(1, arities, g, icid):
                    reads.append(lambda code, half=half, read=read: read(half(code)))
                    globes.append(g2)
            (ra, rb, rc, rd), (ga, gb, gc, gd) = reads, globes
            up, join_ac = self._joiner(0, ac_arities, (ga, gc))
            down, join_bd = self._joiner(0, bd_arities, (gb, gd))
            composite, join_out = self._joiner(1, out_arities, (up, down))
            if composite != globe:
                raise AssertionError("interchange moved a globe")
            return lambda code: join_out((join_ac((ra(code), rc(code))), join_bd((rb(code), rd(code)))))

        plans = Memo(plan)
        cid_ab, cid_cd = inner_cid(0, inner[0]), inner_cid(outer[0], inner[1])

        def act(globe, code):
            return plans[globe, code[0] if chained else None, cid_ab(code), cid_cd(code)](code)

        return SpanMor(self, self.tensor(0, (ab, cd)), self.tensor(1, (ac, bd)), act)

    def delta_e(self):
        return SpanMor(self, self.e, self.box1(self.e, self.e), lambda g, c: (_intern(self._chains, (g, g)), 0, 0))

    def mu_v(self):
        return SpanMor(self, self.box0(self.v, self.v), self.v, lambda g, c: 0)

    def iota(self):
        return SpanMor(self, self.e, self.v, lambda g, c: 0)

    # -- extra structure used by the center machinery --------------------
    def subobject_from_fibers(self, x, fibers, name):
        sub = self.atom(name, fibers)
        return sub, self.value_map(sub, x, lambda g, el: el)

    def corestrict_map(self, f, sub, fibers):
        for g, elems in self.fibers_of(f.dom).items():
            if not {f.apply(g, x) for x in elems} <= set(fibers.get(g, ())):
                raise ValueError(f"image at {g.render()} not in the subobject")
        return self.value_map(f.dom, sub, f.apply)

    def cotensor(self, y, s):
        """Fiberwise function sets (Y_G)^s, with functions stored as graphs.

        Cotensoring by the empty set gives the singleton over every globe of
        the base, not just over the support of y.
        """
        s = tuple(sorted_elements(s))
        if not s:
            return self.atom("cotensor", {g: ((),) for g in self._globes})
        fibers = {
            g: tuple(tuple(zip(s, choice)) for choice in itertools.product(elems, repeat=len(s)))
            for g, elems in self.fibers_of(y).items()
        }
        return self.atom("cotensor", fibers)

    def coproduct(self, parts):
        """Tagged disjoint union of atoms, with the injection morphisms."""
        fibers = {}
        for i, p in enumerate(parts):
            for g, elems in self.fibers_of(p).items():
                fibers.setdefault(g, []).extend((i, el) for el in elems)
        out = self.atom("coproduct", {g: tuple(v) for g, v in fibers.items()})
        return out, [self.value_map(p, out, lambda g, el, i=i: (i, el)) for i, p in enumerate(parts)]
