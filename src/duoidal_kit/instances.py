"""The shipped corpus: duoidal instances, small categories, functor pairs."""

from __future__ import annotations

import itertools

from .fincat import Arrow, CatFunctor, FiniteCategory, TableDuoidal, ValidationError, finite_category, identity_functor
from .monoids import Monoid, cyclic


def thin_duoidal(name, objects, leq, boxes, units):
    """A duoidal instance whose base is a thin category (a poset), with the
    tensor-t product boxes[t] and unit units[t].

    All coherence diagrams commute automatically; the point of these
    instances is that the structure arrows exist and typecheck, and that
    e != v is exercised when the two units differ.
    """
    objects = tuple(objects)
    arrows = [Arrow(f"{x}->{y}", x, y) for x in objects for y in objects if leq(x, y)]
    table = {}
    for f in arrows:
        for g in arrows:
            if f.tgt == g.src:
                table[(f.name, g.name)] = f"{f.src}->{g.tgt}"
    identities = {x: f"{x}->{x}" for x in objects}
    base = FiniteCategory(name, objects, arrows, table, identities)

    def arrow_between(x, y):
        if not leq(x, y):
            raise ValidationError(f"{name}: required structure arrow {x} -> {y} is missing")
        return f"{x}->{y}"

    objs = [{(x, y): box(x, y) for x in objects for y in objects} for box in boxes]
    arrs = [
        {(f.name, g.name): arrow_between(box(f.src, g.src), box(f.tgt, g.tgt)) for f in arrows for g in arrows}
        for box in boxes
    ]
    box0, box1 = boxes
    e, v = units
    zeta = {}
    for a, b, c, d in itertools.product(objects, repeat=4):
        src = box0(box1(a, b), box1(c, d))
        tgt = box1(box0(a, c), box0(b, d))
        zeta[(a, b, c, d)] = arrow_between(src, tgt)
    return TableDuoidal(
        name,
        base,
        objs,
        arrs,
        units,
        zeta,
        delta_e=arrow_between(e, box1(e, e)),
        mu_v=arrow_between(box0(v, v), v),
        iota=arrow_between(e, v),
    )


def bool_lattice_instance():
    """Objects 0, 1 with box0 = or (unit 0) and box1 = and (unit 1).

    A genuinely duoidal table instance with distinct units: the interchange
    (a or b) and (c or d) ... is the lattice inequality
    (a and b) or (c and d) <= (a or c) and (b or d)."""
    return thin_duoidal("bool_lattice", ("0", "1"), lambda x, y: x <= y, (max, min), ("0", "1"))


def bool_cartesian_instance():
    """The cartesian fragment on the empty set and the point: both tensors
    are the product, e = v = 1."""
    return thin_duoidal("bool_cartesian", ("0", "1"), lambda x, y: x <= y, (min, min), ("1", "1"))


def additive_instance(m: Monoid):
    """One object, hom = a commutative monoid, both tensors = addition.

    Interchange and all unit comparison maps are the monoid unit.  The homs
    are genuinely non-thin, so equalities of structure maps carry content.
    """
    if not m.is_commutative():
        raise ValidationError("additive instances need a commutative monoid")
    name = f"additive_{m.name}"
    label = {x: f"a{i}" for i, x in enumerate(m.elements)}
    arrows = [Arrow(label[x], "*", "*") for x in m.elements]
    table = {(label[x], label[y]): label[m.mult(x, y)] for x in m.elements for y in m.elements}
    base = FiniteCategory(name, ("*",), arrows, table, {"*": label[m.unit]})
    unit_arrow = label[m.unit]
    return TableDuoidal(
        name,
        base,
        ({("*", "*"): "*"},) * 2,
        (table,) * 2,
        ("*",) * 2,
        {("*",) * 4: unit_arrow},
        delta_e=unit_arrow,
        mu_v=unit_arrow,
        iota=unit_arrow,
    )


def discrete_commutative_instance(m: Monoid):
    """Objects = elements of a commutative monoid, only identity arrows,
    both tensors = the monoid operation."""
    if not m.is_commutative():
        raise ValidationError("discrete instances need a commutative monoid")
    name = f"discrete_{m.name}"
    objs = tuple(str(x) for x in m.elements)
    lift = {str(x): x for x in m.elements}
    base = finite_category(name, objs, [])
    op = {(x, y): str(m.mult(lift[x], lift[y])) for x in objs for y in objs}
    ident = {x: f"id_{x}" for x in objs}
    arr_op = {(ident[x], ident[y]): ident[op[(x, y)]] for x in objs for y in objs}
    unit = str(m.unit)
    return TableDuoidal(
        name,
        base,
        (op,) * 2,
        (arr_op,) * 2,
        (unit,) * 2,
        {(a, b, c, d): ident[op[(op[(a, b)], op[(c, d)])]] for a, b, c, d in itertools.product(objs, repeat=4)},
        delta_e=ident[unit],
        mu_v=ident[unit],
        iota=ident[unit],
    )


# the builtin table instances, each built when called
TABLE_INSTANCES = {
    "bool_lattice": bool_lattice_instance,
    "bool_cartesian": bool_cartesian_instance,
    "additive_z2": lambda: additive_instance(cyclic(2)),
    "additive_z3": lambda: additive_instance(cyclic(3)),
    "discrete_z3": lambda: discrete_commutative_instance(cyclic(3)),
}


def table_instances():
    return [build() for build in TABLE_INSTANCES.values()]


# ---------------------------------------------------------------------------
# small categories and functor pairs


def cat_one():
    return finite_category("one", ("*",), [])


def arrow_cat():
    return finite_category("arrow", ("0", "1"), [("a", "0", "1")])


def parallel_pair_cat():
    return finite_category("parallel", ("0", "1"), [("u", "0", "1"), ("w", "0", "1")])


def composable_pair_cat():
    return finite_category(
        "chain3",
        ("0", "1", "2"),
        [("f01", "0", "1"), ("f12", "1", "2"), ("f02", "0", "2")],
        {("f01", "f12"): "f02"},
    )


def bz2_cat():
    return finite_category("bz2", ("*",), [("s", "*", "*")], {("s", "s"): "id_*"})


def square_poset_cat():
    return finite_category(
        "square",
        ("00", "01", "10", "11"),
        [
            ("l", "00", "01"),
            ("r", "00", "10"),
            ("lt", "01", "11"),
            ("rt", "10", "11"),
            ("diag", "00", "11"),
        ],
        {("l", "lt"): "diag", ("r", "rt"): "diag"},
    )


def functor_pair_corpus():
    """Parallel functor pairs (f, g) between categories with <= 4 objects."""
    one = cat_one()
    arr = arrow_cat()
    par = parallel_pair_cat()
    ch3 = composable_pair_cat()
    bz2 = bz2_cat()
    sq = square_poset_cat()

    id_bz2 = identity_functor(bz2)
    collapse_bz2 = CatFunctor("collapse", bz2, bz2, {"*": "*"}, {"id_*": "id_*", "s": "id_*"})
    id_arr = identity_functor(arr)
    const0 = CatFunctor("const0", arr, arr, {"0": "0", "1": "0"}, {"id_0": "id_0", "id_1": "id_0", "a": "id_0"})
    const1 = CatFunctor("const1", arr, arr, {"0": "1", "1": "1"}, {"id_0": "id_1", "id_1": "id_1", "a": "id_1"})
    par_to_bz2_f = CatFunctor(
        "uv2id_s", par, bz2, {"0": "*", "1": "*"}, {"id_0": "id_*", "id_1": "id_*", "u": "id_*", "w": "s"}
    )
    par_to_bz2_g = CatFunctor(
        "uv2s_s", par, bz2, {"0": "*", "1": "*"}, {"id_0": "id_*", "id_1": "id_*", "u": "s", "w": "s"}
    )
    id_ch3 = identity_functor(ch3)
    crush_ch3 = CatFunctor(
        "crush",
        ch3,
        ch3,
        {"0": "0", "1": "0", "2": "0"},
        {"id_0": "id_0", "id_1": "id_0", "id_2": "id_0", "f01": "id_0", "f12": "id_0", "f02": "id_0"},
    )
    emb01 = CatFunctor("emb01", arr, ch3, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "f01"})
    emb12 = CatFunctor("emb12", arr, ch3, {"0": "1", "1": "2"}, {"id_0": "id_1", "id_1": "id_2", "a": "f12"})
    pt_bz2_id = CatFunctor("pt_id", one, bz2, {"*": "*"}, {"id_*": "id_*"})
    id_sq = identity_functor(sq)

    return [
        (id_bz2, id_bz2),
        (id_bz2, collapse_bz2),
        (collapse_bz2, collapse_bz2),
        (id_arr, id_arr),
        (const0, const1),
        (id_arr, const1),
        (par_to_bz2_f, par_to_bz2_g),
        (par_to_bz2_f, par_to_bz2_f),
        (id_ch3, crush_ch3),
        (emb01, emb12),
        (pt_bz2_id, pt_bz2_id),
        (id_sq, id_sq),
    ]
