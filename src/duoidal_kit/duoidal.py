"""Strict duoidal categories: shared combinators, axiom checkers, duoids.

Every instance exposes the same duck interface: objects are opaque hashable
values, the two tensors are strictly associative and strictly unital on
objects, and the structure maps `interchange`, `delta_e`, `mu_v`, `iota`
are ordinary morphisms of the instance.  An instance defines its tensors
once, indexed by t in {0, 1}, and inherits the units and the box0/box1
names from `Tensors`.  Composition is diagrammatic throughout:
``compose(f, g)`` means "f then g".  ``memoize(f)`` returns f, or a map
equal to f that stores its value at each point it is applied to; the
instance decides which, and operads keep their compositions through it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .report import CheckReport, Memo, SizeError


class Tensors:
    """The two tensors of a strict duoidal instance, indexed by t in {0, 1}.

    An instance defines `tensor(t, xs)`, the tensor-t product of a sequence
    of objects, and `tensor_map(t, fs)`, that of a sequence of maps; the
    empty product is the unit of tensor t.  Tensor 0 is box0 with unit e,
    tensor 1 is box1 with unit v.

    Maps record how they were built in `parts`: ("id",), ("then", f, g),
    ("tensor", t, fs, ...) or None.  `compose` builds normal forms, and
    `_table` lists a map's images from its parts, a finite function being its
    vector of images (Patterson, Lynch & Fairbanks, 2022).  An instance gives
    `_composite(f, g)`; `_points(obj, key)`, at a key such as a size cap or a
    globe and chain; `_read(f, key, xs)`, the images of a map of no rule;
    and `_factor_keys(f, key)`, (factor keys, join) pairs of a tensor.
    """

    @property
    def e(self):
        return self.tensor(0, ())

    @property
    def v(self):
        return self.tensor(1, ())

    def box0(self, x, y):
        return self.tensor(0, (x, y))

    def box1(self, x, y):
        return self.tensor(1, (x, y))

    def box0_map(self, f, g):
        return self.tensor_map(0, (f, g))

    def box1_map(self, f, g):
        return self.tensor_map(1, (f, g))

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def memoize(self, f):
        return f

    def compose(self, f, g):
        """f then g, in normal form: the middle objects are checked once, and
        `_then` applies the rules."""
        if f.cod != g.dom:
            raise ValueError("compose: middle objects differ")
        return self._then(f, g)

    def _then(self, f, g):
        """f then g for maps whose middle objects meet: (a) id;g = g and
        f;id = f, the unit laws; (b) f;(g1;g2) = (f;g1);g2, associativity;
        (c) tensor-t maps whose factors meet compose factorwise, tensor t
        being a bifunctor (one t: box0 and box1 may be different functors)."""
        (kf, *fs), (kg, *gs) = f.parts or (None,), g.parts or (None,)
        if kf == "id" or kg == "id":
            return g if kf == "id" else f
        if kg == "then":
            return self._then(self._then(f, gs[0]), gs[1])
        if kf == kg == "tensor" and fs[0] == gs[0] and len(fs[1]) == len(gs[1]):
            if all(a.cod == b.dom for a, b in zip(fs[1], gs[1])):
                return self.tensor_map(fs[0], map(self._then, fs[1], gs[1]))
        return self._composite(f, g)

    def _images(self, f, key, xs):
        """An iterable of f's images at the points xs over key, in order: an
        identity's are the points, a composite's are its second map's images
        at its first map's, and any other map's are read (`_read`)."""
        kind = f.parts[0] if f.parts else None
        if kind == "id":
            return xs
        if kind == "then":
            return self._images(f.parts[2], key, self._images(f.parts[1], key, xs))
        return self._read(f, key, xs)

    def _table(self, f, key):
        """`_images(f, key, _points(f.dom, key))`, a composite's read at its
        first map's table, a tensor's per entry of `_factor_keys` as the
        product of its factors' tables, each listed once over its own key."""
        kind = f.parts[0] if f.parts else None
        if kind == "then":
            return self._images(f.parts[2], key, self._table(f.parts[1], key))
        if kind != "tensor":
            return self._images(f, key, self._points(f.dom, key))
        return itertools.chain.from_iterable(
            map(joined, itertools.product(*map(self._table, f.parts[2], keys)))
            for keys, joined in self._factor_keys(f, key)
        )


def chain(D, *maps):
    out = maps[0]
    for f in maps[1:]:
        out = D.compose(out, f)
    return out


def iterated_mu_v(D, m: int):
    """The canonical map v^{box0 m} -> v; m = 0 gives e -> v."""
    if m == 0:
        return D.iota()
    if m == 1:
        return D.identity(D.v)
    if m == 2:
        return D.mu_v()
    step = D.box0_map(D.mu_v(), D.identity(D.tensor(0, [D.v] * (m - 2))))
    return chain(D, step, iterated_mu_v(D, m - 1))


def iterated_delta_e(D, k: int):
    """The canonical map e -> e^{box1 k}; k = 0 gives e -> v."""
    if k == 0:
        return D.iota()
    if k == 1:
        return D.identity(D.e)
    if k == 2:
        return D.delta_e()
    return chain(D, D.delta_e(), D.box1_map(D.identity(D.e), iterated_delta_e(D, k - 1)))


def iterated_interchange(D, xs, ys):
    """The canonical map (box1 xs) box0 (box1 ys) -> box1 (x_i box0 y_i).

    Both lists must have the same length n; n = 0 degenerates to mu_v and
    n = 1 to the identity.  Built from the binary interchange, so any
    bracketing of the iteration agrees by the coherence hexagons.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError("iterated interchange needs equally many factors")
    n = len(xs)
    if n == 0:
        return D.mu_v()
    if n == 1:
        return D.identity(D.box0(xs[0], ys[0]))
    x_rest = D.tensor(1, xs[1:])
    y_rest = D.tensor(1, ys[1:])
    first = D.interchange(xs[0], x_rest, ys[0], y_rest)
    rest = iterated_interchange(D, xs[1:], ys[1:])
    return chain(D, first, D.box1_map(D.identity(D.box0(xs[0], ys[0])), rest))


def matrix_interchange(D, grid):
    """Canonical map box0_j (box1_i Z[i][j]) -> box1_i (box0_j Z[i][j]).

    `grid` is a list of rows; all rows must have equal length.  Degenerate
    shapes use the unit comparisons: no rows gives iterated mu_v over the
    columns, no columns gives iterated delta_e over the rows.
    """
    k = len(grid)
    m = len(grid[0]) if k else 0
    if k == 0:
        return iterated_mu_v(D, m)
    if any(len(row) != m for row in grid):
        raise ValueError("ragged interchange grid")
    if m == 0:
        return iterated_delta_e(D, k)
    if m == 1:
        return D.identity(D.tensor(1, [row[0] for row in grid]))
    col0 = D.tensor(1, [row[0] for row in grid])
    rest_rows = [[row[j] for j in range(1, m)] for row in grid]
    rest = matrix_interchange(D, rest_rows)
    rest_objs = [D.tensor(0, row) for row in rest_rows]
    step = D.box0_map(D.identity(col0), rest)
    shuffle = iterated_interchange(D, [row[0] for row in grid], rest_objs)
    return chain(D, step, shuffle)


# ---------------------------------------------------------------------------
# axiom checking


def check_duoidal_axioms(D, objects=None, hom_limit=3) -> CheckReport:
    """Check the duoidal coherence diagrams over an object sample.

    Finite instances (``D.objects()`` not None) are checked exhaustively;
    virtual instances are checked pointwise on the supplied sample, with the
    quantifier scope recorded on every report row.
    """
    listed = D.objects()
    if listed is not None:
        sample = list(listed)
        scope = f"all {len(sample)} objects"
    else:
        if objects is None:
            raise ValueError("virtual instance: an object sample is required")
        sample = list(objects)
        scope = f"pointwise on {len(sample)} sample objects"
    rep = CheckReport(f"duoidal axioms: {getattr(D, 'name', type(D).__name__)} ({scope})")
    eq = D.maps_equal
    # every case reads the structure maps built once per check; objects are values
    interchange = Memo(lambda objs: D.interchange(*objs))  # (a, b, c, d) -> its interchange
    identity = Memo(D.identity)  # object -> its identity
    capped = f"{scope}; homs capped at {hom_limit}"
    pairs = list(itertools.product(sample, repeat=2))
    # the first hom_limit maps of each hom set of the sample; a hom set too
    # large to list is dropped, and counted as skipped in the rows that use it
    homs = {}
    dropped = 0
    for x, y in pairs:
        try:
            homs[(x, y)] = list(D.hom(x, y))[:hom_limit]
        except SizeError:
            homs[(x, y)] = []
            dropped += 1

    # strictness of the tensors on objects
    cases = (
        (
            (a, b, c),
            (D.box0(D.box0(a, b), c), D.box1(D.box1(a, b), c)),
            (D.box0(a, D.box0(b, c)), D.box1(a, D.box1(b, c))),
        )
        for a, b, c in itertools.product(sample, repeat=3)
    )
    rep.add_law("strict associativity of box0/box1 on objects", cases, operator.eq, scope)
    cases = (((a,), (D.box0(D.e, a), D.box0(a, D.e), D.box1(D.v, a), D.box1(a, D.v)), (a,) * 4) for a in sample)
    rep.add_law("strict unitality of box0/box1 on objects", cases, operator.eq, scope)

    # functoriality of the tensors: composition squares over sampled homs
    def functorial(box_map):
        for a, b in pairs:
            for f in homs[(a, b)]:
                for f2 in homs[(b, a)]:
                    for c, d in pairs:
                        for g in homs[(c, d)]:
                            for g2 in homs[(d, c)]:
                                lhs = box_map(D.compose(f, f2), D.compose(g, g2))
                                yield (a, b, c, d), lhs, D.compose(box_map(f, g), box_map(f2, g2))

    for t, box_map in enumerate((D.box0_map, D.box1_map)):
        rep.add_law(f"box{t} functorial on morphisms", functorial(box_map), eq, capped, skipped=dropped)

    # associativity hexagon 1: three box0-factors of box1-pairs
    def hex1():
        for a, b, c, d, e2, f2 in itertools.product(sample, repeat=6):
            left = chain(
                D,
                D.box0_map(interchange[a, b, c, d], identity[D.box1(e2, f2)]),
                interchange[D.box0(a, c), D.box0(b, d), e2, f2],
            )
            right = chain(
                D,
                D.box0_map(identity[D.box1(a, b)], interchange[c, d, e2, f2]),
                interchange[a, b, D.box0(c, e2), D.box0(d, f2)],
            )
            yield (a, b, c, d, e2, f2), left, right

    rep.add_law("associativity hexagon for box0", hex1(), eq, scope)

    # associativity hexagon 2: box0 of two box1-triples
    def hex2():
        for a, b, c, d, e2, f2 in itertools.product(sample, repeat=6):
            left = chain(
                D,
                interchange[D.box1(a, b), c, D.box1(d, e2), f2],
                D.box1_map(interchange[a, b, d, e2], identity[D.box0(c, f2)]),
            )
            right = chain(
                D,
                interchange[a, D.box1(b, c), d, D.box1(e2, f2)],
                D.box1_map(identity[D.box0(a, d)], interchange[b, c, e2, f2]),
            )
            yield (a, b, c, d, e2, f2), left, right

    rep.add_law("associativity hexagon for box1", hex2(), eq, scope)

    # the four unit squares
    e, v = D.e, D.v

    def unit_squares():
        for a, b in pairs:
            ab0, ab1 = D.box0(a, b), D.box1(a, b)
            lhs = chain(D, D.box0_map(D.delta_e(), identity[ab1]), interchange[e, e, a, b])
            yield ("left e-square", a, b), lhs, identity[ab1]
            lhs = chain(D, D.box0_map(identity[ab1], D.delta_e()), interchange[a, b, e, e])
            yield ("right e-square", a, b), lhs, identity[ab1]
            lhs = chain(D, interchange[v, a, v, b], D.box1_map(D.mu_v(), identity[ab0]))
            yield ("left v-square", a, b), lhs, identity[ab0]
            lhs = chain(D, interchange[a, v, b, v], D.box1_map(identity[ab0], D.mu_v()))
            yield ("right v-square", a, b), lhs, identity[ab0]

    rep.add_law("unitality squares (4)", unit_squares(), eq, scope)

    # v is a box0-monoid with unit iota, and e a box1-comonoid with counit iota
    mu, delta, iota = D.mu_v(), D.delta_e(), D.iota()
    cases = (
        ("associativity", chain(D, D.box0_map(mu, identity[v]), mu), chain(D, D.box0_map(identity[v], mu), mu)),
        ("left unit", chain(D, D.box0_map(iota, identity[v]), mu), identity[v]),
        ("right unit", chain(D, D.box0_map(identity[v], iota), mu), identity[v]),
    )
    rep.add_law("v is a monoid in (D, box0, e)", cases, eq, scope, witness=None)
    cases = (
        (
            "coassociativity",
            chain(D, delta, D.box1_map(delta, identity[e])),
            chain(D, delta, D.box1_map(identity[e], delta)),
        ),
        ("left counit", chain(D, delta, D.box1_map(iota, identity[e])), identity[e]),
        ("right counit", chain(D, delta, D.box1_map(identity[e], iota)), identity[e]),
    )
    rep.add_law("e is a comonoid in (D, box1, v)", cases, eq, scope, witness=None)

    # naturality of the interchange in all four arguments
    def naturality():
        for a, b in pairs:
            for c, d in pairs:
                fs = homs[(a, b)]
                gs = homs[(c, d)]
                for f in fs:
                    for g in gs:
                        for h in fs:
                            for k in gs:
                                lhs = chain(
                                    D,
                                    D.box0_map(D.box1_map(f, g), D.box1_map(h, k)),
                                    interchange[b, d, D.cod(h), D.cod(k)],
                                )
                                rhs = chain(
                                    D,
                                    interchange[a, c, D.dom(h), D.dom(k)],
                                    D.box1_map(D.box0_map(f, h), D.box0_map(g, k)),
                                )
                                yield (a, b, c, d), lhs, rhs

    rep.add_law("interchange natural in all arguments", naturality(), eq, capped, skipped=dropped)
    return rep


def derived_unit_comparison(D):
    """The map e -> v induced by the interchange at (e, v, v, e).

    Under strictness the unit isomorphisms are identities, so this is the
    interchange component itself; it must coincide with iota.
    """
    return D.interchange(D.e, D.v, D.v, D.e)


# ---------------------------------------------------------------------------
# duoids


@dataclass
class Duoid:
    carrier: object
    mult0: object  # X box0 X -> X
    unit0: object  # e -> X
    mult1: object  # X box1 X -> X
    unit1: object  # v -> X
    name: str = "duoid"


def check_duoid_axioms(D, d: Duoid) -> CheckReport:
    rep = CheckReport(f"duoid axioms: {d.name}")
    eq = D.maps_equal
    x = d.carrier
    idx = D.identity(x)

    # mult_t is associative and unital for box_t
    for t, (box, mult, unit) in enumerate(((D.box0_map, d.mult0, d.unit0), (D.box1_map, d.mult1, d.unit1))):
        rep.add(f"mult{t} associative", eq(chain(D, box(mult, idx), mult), chain(D, box(idx, mult), mult)))
        ok = eq(chain(D, box(unit, idx), mult), idx) and eq(chain(D, box(idx, unit), mult), idx)
        rep.add(f"mult{t} unital", ok)

    # (*) unit1 is a morphism of box0-monoids (v, mu_v, iota) -> (X, mult0, unit0)
    ok = eq(chain(D, D.box0_map(d.unit1, d.unit1), d.mult0), chain(D, D.mu_v(), d.unit1))
    rep.add("(*) unit1 preserves multiplication", ok)
    ok = eq(chain(D, D.iota(), d.unit1), d.unit0)
    rep.add("(*) unit1 preserves the unit", ok)

    # (**) middle interchange compatibility
    lhs = chain(D, D.box0_map(d.mult1, d.mult1), d.mult0)
    rhs = chain(D, D.interchange(x, x, x, x), D.box1_map(d.mult0, d.mult0), d.mult1)
    rep.add("(**) interchange square", eq(lhs, rhs))
    return rep


def v_as_duoid(D) -> Duoid:
    """The second unit with its canonical duoid structure."""
    return Duoid(D.v, D.mu_v(), D.iota(), D.identity(D.v), D.identity(D.v), name="v")


class InterchangeOverride:
    """Delegating wrapper that patches selected interchange components.

    Used for negative tests: `patch(a, b, c, d)` returns a replacement map or
    None to keep the base component.
    """

    def __init__(self, base, patch, name="patched"):
        self._base = base
        self._patch = patch
        self.name = name

    def interchange(self, a, b, c, d):
        out = self._patch(a, b, c, d)
        if out is not None:
            return out
        return self._base.interchange(a, b, c, d)

    def __getattr__(self, attr):
        return getattr(self._base, attr)
