"""Finite categories as tables, and table-backed strict duoidal instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .duoidal import Tensors


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


class FiniteCategory:
    """A finite category: objects, named arrows, a total composition table.

    Composition is diagrammatic: ``compose(f, g)`` is "f then g" and is
    defined when f.tgt == g.src.  Associativity and identity laws are checked
    exhaustively on construction.
    """

    def __init__(self, name, objects, arrows, compose_table, identities):
        self.name = name
        self.objects = tuple(objects)
        arrows = tuple(arrows)
        self.arrows = {a.name: a for a in arrows}
        if len(set(self.objects)) != len(self.objects) or len(self.arrows) != len(arrows):
            raise ValidationError(f"{name}: an object or arrow name is listed twice")
        self._compose = dict(compose_table)
        self.identities = dict(identities)
        self._validate()
        self._factorizations = {f: [] for f in self.arrows}
        for f, g, fg in sorted(self.composable):
            self._factorizations[fg].append((f, g))

    def _validate(self):
        """Check the tables, recording the composable pairs once as
        `composable`, a list of (f, g, f then g)."""
        objs = set(self.objects)
        for a in self.arrows.values():
            if a.src not in objs or a.tgt not in objs:
                raise ValidationError(f"{self.name}: arrow {a.name} has unknown endpoint")
        for x in self.objects:
            ident = self.identities.get(x)
            if ident not in self.arrows or self.arrows[ident].src != x or self.arrows[ident].tgt != x:
                raise ValidationError(f"{self.name}: bad identity for {x}")
        self.composable = []
        for f in self.arrows.values():
            for g in self.arrows.values():
                if f.tgt == g.src:
                    h = self._compose.get((f.name, g.name))
                    if h is None:
                        raise ValidationError(f"{self.name}: composition missing at ({f.name}, {g.name})")
                    ha = self.arrows.get(h)
                    if ha is None:
                        raise ValidationError(f"{self.name}: composite at ({f.name}, {g.name}) is {h!r}, not an arrow")
                    if ha.src != f.src or ha.tgt != g.tgt:
                        raise ValidationError(f"{self.name}: ill-typed composite at ({f.name}, {g.name})")
                    self.composable.append((f.name, g.name, h))
        for f in self.arrows.values():
            if self.compose(self.identities[f.src], f.name) != f.name:
                raise ValidationError(f"{self.name}: left identity fails at {f.name}")
            if self.compose(f.name, self.identities[f.tgt]) != f.name:
                raise ValidationError(f"{self.name}: right identity fails at {f.name}")
        for f, g, fg in self.composable:
            for h in self.arrows.values():
                if h.src == self.tgt(g) and self.compose(fg, h.name) != self.compose(f, self.compose(g, h.name)):
                    raise ValidationError(f"{self.name}: associativity fails at ({f}, {g}, {h.name})")

    def compose(self, f: str, g: str) -> str:
        """f then g."""
        return self._compose[(f, g)]

    def factorizations(self, f: str):
        """The pairs (f1, f2) with f = f1 then f2, sorted."""
        return self._factorizations[f]

    def functor_fault(self, image, identity, compose):
        """The first functor law broken by sending each arrow f to image[f],
        or None: the identity of x must go to identity(x), and f then g to
        compose(image[f], image[g])."""
        for x in self.objects:
            if image[self.identities[x]] != identity(x):
                return f"identities not preserved at {x}"
        for f, g, fg in self.composable:
            if image[fg] != compose(image[f], image[g]):
                return f"composition not preserved at ({f}, {g})"
        return None

    def hom(self, x, y):
        return tuple(sorted(a.name for a in self.arrows.values() if a.src == x and a.tgt == y))

    def src(self, f: str) -> str:
        return self.arrows[f].src

    def tgt(self, f: str) -> str:
        return self.arrows[f].tgt

    def parallel_pairs(self):
        """All globes (A, B, f, g): ordered pairs of parallel arrows."""
        out = []
        for f in self.arrows.values():
            for g in self.arrows.values():
                if f.src == g.src and f.tgt == g.tgt:
                    out.append((f.src, f.tgt, f.name, g.name))
        return tuple(sorted(out))


def finite_category(name, objects, arrow_specs, compose_pairs=None) -> FiniteCategory:
    """Build a finite category, adding identities and closing the table.

    `arrow_specs` lists non-identity arrows as (name, src, tgt);
    `compose_pairs` maps (f, g) to the composite's name for composable
    non-identity pairs.
    """
    arrows = [Arrow(f"id_{x}", x, x) for x in objects]
    arrows += [Arrow(n, s, t) for n, s, t in arrow_specs]
    identities = {x: f"id_{x}" for x in objects}
    table = {}
    for f in arrows:
        for g in arrows:
            if f.tgt != g.src:
                continue
            if f.name == identities[f.src] and f.src == f.tgt:
                table[(f.name, g.name)] = g.name
            elif g.name == identities[g.src] and g.src == g.tgt:
                table[(f.name, g.name)] = f.name
            else:
                key = (f.name, g.name)
                if compose_pairs is None or key not in compose_pairs:
                    raise ValidationError(f"{name}: composite of {key} unspecified")
                table[key] = compose_pairs[key]
    return FiniteCategory(name, objects, arrows, table, identities)


# ---------------------------------------------------------------------------
# table-backed duoidal instances


class TableDuoidal(Tensors):
    """A strict duoidal category given entirely by finite tables.

    Objects and morphisms are names; all structure is table lookup.  The
    constructor validates the tables (totality, functoriality, strictness)
    and raises ValidationError on malformed input, before any coherence
    checking runs.
    """

    def __init__(self, name, base: FiniteCategory, objs, arrs, units, interchange_table, delta_e, mu_v, iota):
        self.name = name
        self.base = base
        # per tensor t: the object table objs[t], the arrow table arrs[t] and the unit units[t]
        self._obj = tuple(dict(table) for table in objs)
        self._arr = tuple(dict(table) for table in arrs)
        self._units = tuple(units)
        self._zeta = dict(interchange_table)
        self._delta_e = delta_e
        self._mu_v = mu_v
        self._iota = iota
        self._validate()

    def _validate(self):
        objs = self.base.objects
        arrs = self.base.arrows
        for t in (0, 1):
            table, arr_table, unit, label = self._obj[t], self._arr[t], self._units[t], f"box{t}"
            if unit not in objs:
                raise ValidationError(f"{self.name}: unit of {label} is not an object")
            for x in objs:
                for y in objs:
                    if (x, y) not in table or table[(x, y)] not in objs:
                        raise ValidationError(f"{self.name}: {label} object table not total at ({x}, {y})")
                if table[(unit, x)] != x or table[(x, unit)] != x:
                    raise ValidationError(f"{self.name}: {label} not strictly unital at {x}")
            for x in objs:
                for y in objs:
                    for z in objs:
                        if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                            raise ValidationError(f"{self.name}: {label} not strictly associative")
            for f in arrs.values():
                for g in arrs.values():
                    h = arr_table.get((f.name, g.name))
                    if h is None or h not in arrs:
                        raise ValidationError(f"{self.name}: {label} arrow table not total")
                    ha = arrs[h]
                    if ha.src != table[(f.src, g.src)] or ha.tgt != table[(f.tgt, g.tgt)]:
                        raise ValidationError(f"{self.name}: {label} arrow table ill-typed at ({f.name}, {g.name})")
            ident = self.base.identities[unit]
            for f in arrs:
                if arr_table[(ident, f)] != f or arr_table[(f, ident)] != f:
                    raise ValidationError(f"{self.name}: {label} not strictly unital on arrows at {f}")
        for tup in itertools.product(objs, repeat=4):
            zname = self._zeta.get(tup)
            if zname is None:
                raise ValidationError(f"{self.name}: interchange table not total")
            za = arrs.get(zname)
            if za is None:
                raise ValidationError(f"{self.name}: interchange entry {tup} is not an arrow")
            a, b, c, d = tup
            src = self.box0(self.box1(a, b), self.box1(c, d))
            tgt = self.box1(self.box0(a, c), self.box0(b, d))
            if za.src != src or za.tgt != tgt:
                raise ValidationError(f"{self.name}: interchange ill-typed at {tup}")
        e, v = self._units
        for aname, src, tgt, label in (
            (self._delta_e, e, self.box1(e, e), "delta_e"),
            (self._mu_v, self.box0(v, v), v, "mu_v"),
            (self._iota, e, v, "iota"),
        ):
            arr = arrs.get(aname)
            if arr is None or arr.src != src or arr.tgt != tgt:
                raise ValidationError(f"{self.name}: {label} ill-typed")

    # duoidal interface -------------------------------------------------
    def objects(self):
        return self.base.objects

    def hom(self, x, y):
        return self.base.hom(x, y)

    def dom(self, f):
        return self.base.src(f)

    def cod(self, f):
        return self.base.tgt(f)

    def identity(self, x):
        return self.base.identities[x]

    def compose(self, f, g):
        return self.base.compose(f, g)

    def maps_equal(self, f, g, cap=None):
        return f == g

    def memoize(self, f):
        """Maps are arrow names; there is nothing to store."""
        return f

    def tensor(self, t, xs):
        """Fold the object table of tensor t over xs.  The tensor is strictly
        unital, so the fold starts at the first factor."""
        table = self._obj[t]
        it = iter(xs)
        out = next(it, self._units[t])
        for x in it:
            out = table[(out, x)]
        return out

    def tensor_map(self, t, fs):
        """Fold the arrow table of tensor t over fs, as `tensor` does."""
        table = self._arr[t]
        it = iter(fs)
        out = next(it, None)
        if out is None:
            return self.base.identities[self._units[t]]
        for f in it:
            out = table[(out, f)]
        return out

    def interchange(self, a, b, c, d):
        return self._zeta[(a, b, c, d)]

    def delta_e(self):
        return self._delta_e

    def mu_v(self):
        return self._mu_v

    def iota(self):
        return self._iota


class CatFunctor:
    """A functor between finite categories, given by object and arrow tables."""

    def __init__(self, name, src: FiniteCategory, tgt: FiniteCategory, obj_map, arr_map):
        self.name = name
        self.src = src
        self.tgt = tgt
        obj_map, arr_map = dict(obj_map), dict(arr_map)
        self.obj_map = {x: obj_map.get(x) for x in src.objects}
        self.arr_map = {f: arr_map.get(f) for f in src.arrows}
        for x in src.objects:
            if self.obj_map[x] not in tgt.objects:
                raise ValidationError(f"functor {name}: no image for object {x}")
        for f in src.arrows.values():
            img = self.arr_map[f.name]
            if img not in tgt.arrows:
                raise ValidationError(f"functor {name}: no image for arrow {f.name}")
            fa = tgt.arrows[img]
            if fa.src != self.obj_map[f.src] or fa.tgt != self.obj_map[f.tgt]:
                raise ValidationError(f"functor {name}: ill-typed image of {f.name}")
        fault = src.functor_fault(self.arr_map, lambda x: tgt.identities[self.obj_map[x]], tgt.compose)
        if fault:
            raise ValidationError(f"functor {name}: {fault}")

    def on_obj(self, x):
        return self.obj_map[x]

    def on_arr(self, f):
        return self.arr_map[f]


def identity_functor(c: FiniteCategory) -> CatFunctor:
    return CatFunctor(f"id[{c.name}]", c, c, {x: x for x in c.objects}, {a: a for a in c.arrows})


def natural_transformations(F: CatFunctor, G: CatFunctor):
    """Brute-force set of natural transformations F -> G."""
    if F.src is not G.src or F.tgt is not G.tgt:
        raise ValidationError("natural transformations need a parallel functor pair")
    src, tgt = F.src, F.tgt
    objs = src.objects
    choices = [tgt.hom(F.on_obj(x), G.on_obj(x)) for x in objs]
    out = []
    for combo in itertools.product(*choices):
        alpha = dict(zip(objs, combo))
        if all(
            tgt.compose(F.on_arr(f.name), alpha[f.tgt]) == tgt.compose(alpha[f.src], G.on_arr(f.name))
            for f in src.arrows.values()
        ):
            out.append(tuple(sorted(alpha.items())))
    return tuple(sorted(out))

