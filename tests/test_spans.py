import itertools
import random
from functools import partial, reduce

import pytest

from duoidal_kit.duoidal import check_duoidal_axioms, derived_unit_comparison
from duoidal_kit.instances import arrow_cat, bz2_cat, cat_one, composable_pair_cat, parallel_pair_cat
from duoidal_kit.report import SizeError, sorted_elements
from duoidal_kit.spans import (
    Globe,
    SpanAtom,
    SpanDuoidal,
    all_globes,
    arrow_globe,
    hcompose,
    identity_globe,
    vcompose,
)


@pytest.fixture(scope="module")
def par():
    cat = parallel_pair_cat()
    return cat, SpanDuoidal(cat)


def test_units_are_strict(par):
    cat, D = par
    X = D.atom("X", {Globe("0", "1", "u", "w"): ("x1", "x2")})
    assert D.box0(X, D.e) == X == D.box0(D.e, X)
    assert D.box1(X, D.v) == X == D.box1(D.v, X)


def test_unit_fibers(par):
    cat, D = par
    for a in cat.objects:
        assert D.fiber(D.e, identity_globe(cat, a)) == ((),)
    assert D.fiber(D.e, Globe("0", "1", "u", "u")) == ()
    for f in cat.arrows:
        assert D.fiber(D.v, arrow_globe(cat, f)) == ((),)


def test_tensor0_sums_over_factorizations(par):
    cat, D = par
    # one summand per factorization of u: u = id0;u = u;id1
    fib = D.fiber(D.box0(D.v, D.v), arrow_globe(cat, "u"))
    assert len(fib) == 2


def test_tensor0_empty_when_not_composable():
    cat = parallel_pair_cat()
    D = SpanDuoidal(cat)
    X = D.atom("X", {Globe("0", "1", "u", "u"): ("x",)})
    Y = D.atom("Y", {Globe("0", "1", "w", "w"): ("y",)})
    # T(X-globes) = 1 but S(Y-globes) = 0: nothing composes
    assert D.support(D.box0(X, Y)) == ()


def test_tensor1_stacks_vertically(par):
    cat, D = par
    X = D.atom("X", {Globe("0", "1", "u", "u"): ("a",), Globe("0", "1", "u", "w"): ("b",)})
    fib = D.fiber(D.box1(X, X), Globe("0", "1", "u", "w"))
    # middle arrow u: (u,u);(u,w) -> a|b ; middle w: (u,w);(w,w) has empty top
    assert len(fib) == 1
    chain_tag, comps = fib[0]
    assert comps == ("a", "b")


def test_tensor1_empty_without_shared_middle(par):
    cat, D = par
    X = D.atom("X", {Globe("0", "1", "u", "u"): ("a",)})
    Y = D.atom("Y", {Globe("0", "1", "w", "w"): ("y",)})
    assert D.fiber(D.box1(X, Y), Globe("0", "1", "u", "w")) == ()


def test_mu_v_folds_factorizations(par):
    cat, D = par
    mu = D.mu_v()
    g = arrow_globe(cat, "u")
    for el in D.fiber(D.box0(D.v, D.v), g):
        assert mu.apply(g, el) == ()


def test_comonoid_laws_for_the_first_unit(par):
    cat, D = par
    from duoidal_kit.duoidal import chain

    lhs = chain(D, D.delta_e(), D.box1_map(D.iota(), D.identity(D.e)))
    assert D.maps_equal(lhs, D.identity(D.e))
    rhs = chain(D, D.delta_e(), D.box1_map(D.identity(D.e), D.iota()))
    assert D.maps_equal(rhs, D.identity(D.e))


def test_pointwise_duoidal_axioms(par):
    cat, D = par
    X = D.atom("X", {Globe("0", "1", "u", "w"): ("x1", "x2"), arrow_globe(cat, "u"): ("y",)})
    rep = check_duoidal_axioms(D, objects=[D.e, D.v, X], hom_limit=2)
    assert rep.all_passed, rep.render()
    assert D.maps_equal(derived_unit_comparison(D), D.iota())


def test_interchange_image_strictly_smaller_with_two_factorizations():
    cat = arrow_cat()
    D = SpanDuoidal(cat)
    z = D.interchange(D.v, D.v, D.v, D.v)
    g = arrow_globe(cat, "a")
    dom = D.fiber(z.dom, g)
    cod = D.fiber(z.cod, g)
    image = {z.apply(g, el) for el in dom}
    assert len(dom) == 2 and len(cod) == 4
    assert image < set(cod)


def test_interchange_empty_support(par):
    cat, D = par
    X = D.atom("X", {Globe("0", "1", "u", "w"): ("x",)})
    empty = D.atom("empty", {})
    z = D.interchange(X, empty, X, X)
    assert D.support(z.dom) == ()
    # no element to apply at, so even a map that raises wherever it is applied is equal to z
    assert D.maps_equal(z, D.value_map(z.dom, z.cod, lambda g, el: 1 // 0))


def test_interchange_naturality_pointwise(par):
    cat, D = par
    X = D.atom("X", {arrow_globe(cat, "u"): ("a", "b")})
    Y = D.atom("Y", {arrow_globe(cat, "u"): ("c",)})
    f = D.value_map(X, Y, lambda g, el: "c")
    z_src = D.interchange(X, X, X, X)
    z_tgt = D.interchange(Y, Y, Y, Y)
    from duoidal_kit.duoidal import chain

    lhs = chain(D, D.box0_map(D.box1_map(f, f), D.box1_map(f, f)), z_tgt)
    rhs = chain(D, z_src, D.box1_map(D.box0_map(f, f), D.box0_map(f, f)))
    assert D.maps_equal(lhs, rhs)


def test_cotensor(par):
    cat, D = par
    g = Globe("0", "1", "u", "w")
    X = D.atom("X", {g: ("x1", "x2")})
    assert len(D.fiber(D.cotensor(X, ("s",)), g)) == 2
    assert len(D.fiber(D.cotensor(X, ("a", "b", "c")), g)) == 8
    empty = D.cotensor(X, ())
    assert all(len(D.fiber(empty, gl)) == 1 for gl in D.support(empty))


def test_tensors_preserve_coproducts(par):
    cat, D = par
    g_u = arrow_globe(cat, "u")
    X = D.atom("X", {g_u: ("a",)})
    Y = D.atom("Y", {g_u: ("b", "c")})
    Z = D.atom("Z", {g_u: ("z",), identity_globe(cat, "0"): ("w",)})
    total, (inx, iny) = D.coproduct([X, Y])
    for gl in D.support(D.box0(total, Z)):
        split = len(D.fiber(D.box0(X, Z), gl)) + len(D.fiber(D.box0(Y, Z), gl))
        assert len(D.fiber(D.box0(total, Z), gl)) == split
    for gl in D.support(D.box1(total, Z)):
        split = len(D.fiber(D.box1(X, Z), gl)) + len(D.fiber(D.box1(Y, Z), gl))
        assert len(D.fiber(D.box1(total, Z), gl)) == split


def test_one_object_base_collapses_to_plain_finite_sets():
    cat = cat_one()
    D = SpanDuoidal(cat)
    g = identity_globe(cat, "*")
    X = D.atom("X", {g: ("x1", "x2")})
    Y = D.atom("Y", {g: ("y1", "y2", "y3")})
    assert len(D.fiber(D.box0(X, Y), g)) == 6
    assert len(D.fiber(D.box1(X, Y), g)) == 6
    assert len(D.hom(X, Y)) == 9
    rep = check_duoidal_axioms(D, objects=[D.e, X, Y], hom_limit=2)
    assert rep.all_passed


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat])
def test_hom_lists_the_value_tables_in_order(base):
    """`hom` lists the maps in the order of an enumeration of value tables:
    globes of the domain's support in turn, each fiber's elements in listed
    order, images varying last-element-fastest."""
    cat = base()
    D = SpanDuoidal(cat)
    globes = all_globes(cat)
    X = D.atom("X", {globes[0]: ("x1", "x2"), globes[-1]: ("x3",)})
    Y = D.atom("Y", {g: ("y1", "y2") for g in globes})
    XY = D.box1(X, Y)
    for dom, cod in ((X, Y), (X, X), (XY, Y), (D.e, X)):
        points = [(g, x) for g in D.support(dom) for x in D.fiber(dom, g)]
        choices = [D.fiber(cod, g) for g, _ in points]
        tables = [dict(zip(points, images)) for images in itertools.product(*choices)]
        maps = D.hom(dom, cod)
        assert len(maps) == len(tables) > 0
        assert [{(g, x): f.apply(g, x) for g, x in points} for f in maps] == tables


def test_hom_and_subobject(par):
    cat, D = par
    g = Globe("0", "1", "u", "w")
    X = D.atom("X", {g: ("x1", "x2")})
    maps = D.hom(X, X)
    assert len(maps) == 4
    sub, incl = D.subobject_from_fibers(X, {g: ("x1",)}, "sub")
    assert D.fiber(sub, g) == ("x1",)
    assert incl.apply(g, "x1") == "x1"


def _compose_globes(D, t):
    return partial(hcompose, D.cat) if t == 0 else vcompose


def _split_value(D, t, arities, globe, x):
    """The reference split of an element value of a tensor-t product over
    `globe` into one (globe, element) pair per factor of the given arities:
    a factor of arity k takes the next k globes and components of the
    element, with the composite of its globes; one of arity 0 takes the
    unit globe at the cursor (an object for box0, an arrow for box1) and ()."""
    n = sum(arities)
    chain, comps = ((), ()) if n == 0 else ((globe,), (x,)) if n == 1 else x
    cur = globe.a if t == 0 else globe.f
    parts, pos = [], 0
    for k in arities:
        if k == 0:
            parts.append(((identity_globe if t == 0 else arrow_globe)(D.cat, cur), ()))
            continue
        sub = chain[pos : pos + k]
        g = reduce(_compose_globes(D, t), sub)
        parts.append((g, comps[pos] if k == 1 else (sub, comps[pos : pos + k])))
        cur = g.b if t == 0 else g.g
        pos += k
    return parts


def _join_values(D, t, arities, parts):
    """The reference join, inverse of `_split_value`: the composite globe
    and the element of the tensor-t product with the factors' globes and
    elements concatenated."""
    chain, comps = [], []
    for k, (g, x) in zip(arities, parts):
        if k == 1:
            chain.append(g)
            comps.append(x)
        elif k:
            chain.extend(x[0])
            comps.extend(x[1])
    x = () if not chain else comps[0] if len(chain) == 1 else (tuple(chain), tuple(comps))
    return reduce(_compose_globes(D, t), [g for g, _ in parts]), x


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat])
@pytest.mark.parametrize("t", [0, 1])
def test_join_inverts_split(base, t):
    """Codes round-trip through `decode`/`encode`, the reference join inverts
    the reference split, and `_parts` plans each factor's globe, subchain id
    and code as the reference split finds them."""
    cat = base()
    D = SpanDuoidal(cat)
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    Y = D.atom("Y", {g: ("y",) for g in all_globes(cat)})
    unit = (D.e, D.v)[t]
    XY = D.tensor(t, (X, Y))
    cases = {
        (X,): (1,),
        (unit,): (0,),
        (X, Y): (1, 1),
        (unit, X): (0, 1),
        (X, unit, Y): (1, 0, 1),
        (unit, unit): (0, 0),
        (XY, X): (2, 1),
        (XY, unit, XY): (2, 0, 2),
    }
    elements = 0
    for factors, arities in cases.items():
        assert D.arities(t, factors) == arities
        obj = D.tensor(t, factors)
        for globe in D.support(obj):
            for x in D.fiber(obj, globe):
                code = D.encode(obj, globe, x)
                assert D.decode(obj, globe, code) == x
                want = _split_value(D, t, arities, globe, x)
                assert _join_values(D, t, arities, want) == (globe, x)
                parts = D._parts(t, arities, globe, code[0] if sum(arities) > 1 else None)
                assert len(parts) == len(want) == len(factors)
                for factor, k, (g, sub, get), (g_want, el) in zip(factors, arities, parts, want):
                    assert el in D.fiber(factor, g_want)
                    assert (g, get(code)) == (g_want, D.encode(factor, g_want, el))
                    assert sub == (get(code)[0] if k > 1 else None)
                elements += 1
    assert elements > 100


def _swap(g, el):
    return {"x1": "x2", "x2": "x1"}.get(el, el)


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat])
@pytest.mark.parametrize("t", [0, 1])
def test_tensor_map_agrees_with_split_then_join(base, t):
    """The planned tensor of maps against the reference on element values:
    split the element among the domains, apply each map, join the images."""
    cat = base()
    D = SpanDuoidal(cat)
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    Y = D.atom("Y", {g: ("y",) for g in all_globes(cat)})
    unit = (D.e, D.v)[t]
    XY = D.tensor(t, (X, Y))

    def to_node(g, x):  # over each globe, x1 and x2 go over different chains
        chains = D.chains(t, g, 2)
        return chains[0 if x == "x1" else -1], (x, "y")

    maps = {
        X: [D.value_map(X, X, _swap), D.value_map(X, XY, to_node)],
        Y: [D.value_map(Y, X, lambda g, y: "x2")],
        unit: [D.value_map(unit, unit, lambda g, el: el), D.value_map(unit, X, lambda g, el: "x1")],
        XY: [
            D.value_map(XY, XY, lambda g, el: (el[0], (_swap(g, el[1][0]), "y"))),
            D.value_map(XY, X, lambda g, el: el[1][0]),
        ],
    }
    node_chains = {D.encode(XY, g, to_node(g, x))[0] for g in all_globes(cat) for x in ("x1", "x2")}
    assert len(node_chains) > len(all_globes(cat))
    factor_lists = [(X,), (unit,), (X, Y), (unit, X), (X, unit, Y), (unit, unit), (XY, X), (XY, unit, XY)]
    elements = 0
    for factors in factor_lists:
        dom_arities = D.arities(t, factors)
        for fs in itertools.product(*(maps[x] for x in factors)):
            cod_arities = D.arities(t, [f.cod for f in fs])
            F = D.tensor_map(t, fs)
            assert F.dom == D.tensor(t, factors)
            for globe in D.support(F.dom):
                for x in D.fiber(F.dom, globe):
                    parts = _split_value(D, t, dom_arities, globe, x)
                    want = _join_values(D, t, cod_arities, [(g, f.apply(g, el)) for f, (g, el) in zip(fs, parts)])
                    assert (globe, F.apply(globe, x)) == want
                    elements += 1
    assert elements > 1000


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat])
def test_interchange_agrees_with_its_definition_on_values(base):
    """`interchange` against the reference on element values: split an
    element of (a box1 b) box0 (c box1 d) at box0 and then at box1, and join
    a with c and b with d at box0 and the two at box1, for every (a, b, c, d)
    drawn from two atoms, the two units and a node of each tensor."""
    cat = base()
    D = SpanDuoidal(cat)
    globes = all_globes(cat)
    X = D.atom("X", {g: ("x1", "x2") if g == globes[0] else ("x1",) for g in globes})
    Y = D.atom("Y", {globes[-1]: ("y",)})
    objects = (X, Y, D.e, D.v, D.box0(X, Y), D.box1(Y, X))
    elements = 0
    for a, b, c, d in itertools.product(objects, repeat=4):
        z = D.interchange(a, b, c, d)
        ab, cd = D.box1(a, b), D.box1(c, d)
        for globe in D.support(z.dom):
            for x in D.fiber(z.dom, globe):
                (g_ab, x_ab), (g_cd, x_cd) = _split_value(D, 0, D.arities(0, (ab, cd)), globe, x)
                pa, pb = _split_value(D, 1, D.arities(1, (a, b)), g_ab, x_ab)
                pc, pd = _split_value(D, 1, D.arities(1, (c, d)), g_cd, x_cd)
                ac = _join_values(D, 0, D.arities(0, (a, c)), (pa, pc))
                bd = _join_values(D, 0, D.arities(0, (b, d)), (pb, pd))
                want = _join_values(D, 1, D.arities(1, (D.box0(a, c), D.box0(b, d))), (ac, bd))
                assert (globe, z.apply(globe, x)) == want
                elements += 1
    assert elements > 4000


def _counting_parts(D):
    """Record every `_parts` call of D as (t, arities, globe, chain id)."""
    calls = []
    parts = D._parts
    D._parts = lambda *args: calls.append(args) or parts(*args)
    return calls


@pytest.mark.parametrize("t", [0, 1])
def test_tensor_map_splits_once_per_chain(t):
    """Evaluating a tensor of maps over whole fibers plans with `_parts` once
    per (globe, chain id) of the domain, not once per element."""
    cat = bz2_cat()
    D = SpanDuoidal(cat)
    X = D.atom("X", {g: ("x1", "x2", "x3") for g in all_globes(cat)})
    XX = D.tensor(t, (X, X))
    calls = _counting_parts(D)
    F = D.tensor_map(t, (D.value_map(X, X, _swap), D.value_map(XX, XX, lambda g, el: el)))
    chains = set()
    for globe in D.support(F.dom):
        for x in D.fiber(F.dom, globe):
            code = D.encode(F.dom, globe, x)
            F.at(globe, code)
            chains.add((globe, code[0]))
    assert sorted(c[2:] for c in calls) == sorted(chains)
    assert len(calls) < sum(len(D.fiber(F.dom, g)) for g in D.support(F.dom)) / 10


def test_interchange_splits_once_per_plan():
    """Evaluating an interchange over whole fibers calls the box0 `_parts`
    once per plan key (globe, box0 chain id and the two box1 chain ids) and
    the box1 `_parts` twice as often, not once per element."""
    cat = bz2_cat()
    D = SpanDuoidal(cat)
    X = D.atom("X", {g: ("x1", "x2", "x3") for g in all_globes(cat)})
    z = D.interchange(X, X, X, X)
    calls = _counting_parts(D)
    keys = set()
    elements = 0
    for globe in D.support(z.dom):
        for x in D.fiber(z.dom, globe):
            code = D.encode(z.dom, globe, x)
            z.at(globe, code)
            keys.add((globe, code[0], code[1][0], code[2][0]))
            elements += 1
    box0 = [c[2:] for c in calls if c[0] == 0]
    assert sorted(box0) == sorted(k[:2] for k in keys)
    assert len(calls) == 3 * len(keys) < elements / 10


def test_apply_lists_no_intermediate_fiber(par):
    """Applying a composite at one element codes the middle element on first
    use; listing the middle fiber would raise."""
    cat, D = par
    g = arrow_globe(cat, "u")
    X = D.atom("X", {g: ("x1", "x2")})
    Y = D.atom("Y", {g: ("y",)})

    def unlisted(globe):
        raise AssertionError("the middle fiber was listed")

    mid = SpanAtom("mid", ("mid",), unlisted)
    f = D.value_map(X, mid, lambda gl, el: ("m", el))
    h = D.value_map(mid, Y, lambda gl, el: "y")
    assert D.compose(f, h).apply(g, "x2") == "y"
    assert D.box0_map(D.compose(f, h), D.identity(D.e)).apply(g, "x1") == "y"


def test_value_map_leaving_its_codomain_is_an_error(par):
    cat, D = par
    g = arrow_globe(cat, "u")
    X = D.atom("X", {g: ("x1", "x2")})
    Y = D.atom("Y", {g: ("y",)})
    stray = D.value_map(X, Y, lambda gl, el: "y" if el == "x1" else "z")
    with pytest.raises(ValueError, match="leaves the codomain fiber"):
        D.maps_equal(stray, D.value_map(X, Y, lambda gl, el: "y"))
    with pytest.raises(ValueError, match="leaves the codomain fiber"):
        D.maps_equal(D.compose(D.identity(X), stray), D.compose(stray, D.identity(Y)))


def test_globes_sort_as_tuples():
    for cat in (bz2_cat(), parallel_pair_cat(), arrow_cat()):
        globes = all_globes(cat)
        assert sorted_elements(reversed(globes)) == sorted(globes)


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat, composable_pair_cat])
@pytest.mark.parametrize("t", [0, 1])
def test_chains_are_the_k_tuples_composing_to_the_globe(base, t):
    """`chains` against a filter of all k-tuples of globes by their composite;
    the empty tuple composes to the unit globes of the tensor."""
    cat = base()
    D = SpanDuoidal(cat)
    globes = all_globes(cat)
    if t == 0:
        units = {identity_globe(cat, a) for a in cat.objects}
        compose = partial(hcompose, cat)
    else:
        units = {arrow_globe(cat, f) for f in cat.arrows}
        compose = vcompose

    def composite(chain):
        try:
            return reduce(compose, chain)
        except ValueError:
            return None

    for globe in globes:
        assert D.chains(t, globe, 0) == ([()] if globe in units else [])
        for k in (1, 2, 3):
            brute = [c for c in itertools.product(globes, repeat=k) if composite(c) == globe]
            got = D.chains(t, globe, k)
            assert len(set(got)) == len(got)
            assert sorted(got) == brute, (globe, k)


def test_maps_of_another_instance_are_applied_through_values(par):
    cat, D = par
    other = SpanDuoidal(cat)
    X = D.atom("X", {arrow_globe(cat, "u"): ("a", "b")})
    swap = D.value_map(X, X, lambda g, el: {"a": "b", "b": "a"}[el])
    assert other.maps_equal(D.compose(swap, swap), other.identity(X))
    assert D.maps_equal(other.compose(swap, swap), D.identity(X))
    assert not other.maps_equal(D.box0_map(swap, D.identity(D.e)), other.identity(X))


def _pointwise_equal(D, f, g):
    """The reference for `maps_equal`: both maps applied through `at` at
    every element of every globe of the support of their domain."""
    for globe in D.support(f.dom):
        for x in D.fiber(f.dom, globe):
            code = D.encode(f.dom, globe, x)
            if f.at(globe, code) != g.at(globe, code):
                return False
    return True


def _then_on_values(D, f, g):
    """f then g as a map given on values."""
    return D.value_map(f.dom, g.cod, lambda gl, x: g.apply(gl, f.apply(gl, x)))


def _size(D, obj):
    return sum(len(D.fiber(obj, g)) for g in D.support(obj))


def _span_maps(D, t, rng, rounds):
    """Random nested composites and tensors (of both kinds) of `hom` and
    `value_map` maps, starting from maps that cover identities, unit
    factors, a map of domain arity 1 and codomain arity 0, a map into a
    tensor whose image chains vary per element, and interchanges.  Every
    composite is checked against f then g applied on values, and at least
    one of them must be a tensor fused factorwise."""
    cat = D.cat
    fused = 0

    def compose(f, g):
        nonlocal fused
        fg = D.compose(f, g)
        assert _pointwise_equal(D, fg, _then_on_values(D, f, g))
        fused += fg is not f and fg is not g and (fg.parts or (None,))[0] == "tensor"
        return fg

    globes = all_globes(cat)
    units = (D.e, D.v)[t], (D.e, D.v)[1 - t]
    unit_globes = D.support(units[0])
    X = D.atom("X", {g: ("x1", "x2") for g in globes})
    Y = D.atom("Y", {g: ("y",) for g in globes})
    X0 = D.atom("X0", {g: ("p", "q") for g in unit_globes})  # lies over the unit globes of tensor t only
    XY = D.tensor(t, (X, Y))

    def to_node(g, x):  # over each globe, x1 and x2 go over different chains
        chains = D.chains(t, g, 2)
        return chains[0 if x == "x1" else -1], (x, "y")

    swap = D.value_map(X, X, _swap)
    xy_swap = D.value_map(XY, XY, lambda g, el: (el[0], (_swap(g, el[1][0]), "y")))
    maps = [
        swap,
        D.value_map(Y, X, lambda g, y: "x2"),
        D.value_map(X0, units[0], lambda g, x: ()),
        D.value_map(units[0], X0, lambda g, el: "q"),
        D.value_map(X0, X, lambda g, x: "x1" if x == "p" else "x2"),
        D.value_map(XY, X, lambda g, el: el[1][0]),
        xy_swap,
        D.interchange(X, Y, X, Y),
        D.interchange(X, D.v, D.e, Y),
        D.interchange(D.box0(X, Y), Y, X, X),
    ]
    # factors of domain arity 2: a tensor of the other kind with a unit factor, and a composite
    inner = D.tensor_map(1 - t, (D.value_map(XY, XY, lambda g, el: el), D.identity(units[1])))
    maps += [D.tensor_map(t, (inner, swap)), D.tensor_map(t, (compose(inner, xy_swap), swap))]
    maps.append(D.value_map(X, XY, to_node))
    maps += D.hom(X, X)[1:3] + D.hom(X0, X0)[:2]
    maps += [D.identity(x) for x in (X, Y, X0, XY, units[0], units[1])]
    for _ in range(rounds):
        kind = rng.randrange(3)
        if kind == 0:
            f = rng.choice(maps)
            then = [g for g in maps if g.dom == f.cod]
            if then:
                maps.append(compose(f, rng.choice(then)))
            continue
        F = D.tensor_map(t if kind == 1 else 1 - t, [rng.choice(maps) for _ in range(rng.randint(1, 3))])
        if 0 < _size(D, F.dom) <= 200 and _size(D, F.cod) <= 400:
            maps.append(F)
    assert fused
    return maps


@pytest.mark.parametrize("base", [bz2_cat, parallel_pair_cat])
@pytest.mark.parametrize("t", [0, 1])
def test_maps_equal_agrees_with_the_pointwise_comparison(base, t):
    D = SpanDuoidal(base())
    maps = [f for f in _span_maps(D, t, random.Random(t), rounds=60) if D.support(f.dom)]
    flipped = compared = 0
    for f in maps:
        copy = D.value_map(f.dom, f.cod, f.apply)
        assert D.maps_equal(f, copy) and D.maps_equal(copy, f)
        globe = D.support(f.dom)[-1]
        last = D.fiber(f.dom, globe)[-1]
        others = [y for y in D.fiber(f.cod, globe) if y != f.apply(globe, last)]
        if others:  # the image differs at the last code of the last globe only
            at, y = (globe, last), others[0]
            flip = D.value_map(f.dom, f.cod, lambda g, x, f=f, at=at, y=y: y if (g, x) == at else f.apply(g, x))
            assert not D.maps_equal(f, flip) and not D.maps_equal(flip, f)
            flipped += 1
    for f, g in itertools.combinations(maps, 2):
        if f.dom == g.dom and f.cod == g.cod:
            assert D.maps_equal(f, g) == _pointwise_equal(D, f, g)
            compared += 1
    assert flipped > 20 and compared > 50


def test_an_identity_equals_the_composites_and_tensors_it_is_built_as(par):
    cat, D = par
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    swap = D.value_map(X, X, _swap)
    for t in (0, 1):
        XX = D.tensor(t, (X, X))
        assert D.maps_equal(D.identity(X), D.compose(swap, swap))
        assert D.maps_equal(D.identity(XX), D.compose(D.identity(XX), D.identity(XX)))
        assert D.maps_equal(D.tensor_map(t, (D.identity(X), D.identity(X))), D.identity(XX))
        assert D.maps_equal(D.identity(XX), D.tensor_map(t, (D.compose(swap, swap), D.identity(X))))


@pytest.mark.parametrize("t", [0, 1])
def test_maps_equal_reads_each_map_only_where_it_is_needed(t):
    """The second map of a composite is read only at the first map's images,
    never over its own whole fiber; a tensor of maps reads each factor once
    per code of the factor's own fiber over each globe, not once per element
    of the product."""
    cat = bz2_cat()
    D = SpanDuoidal(cat)
    globes = all_globes(cat)
    X = D.atom("X", {g: ("x1", "x2", "x3") for g in globes})
    Y = D.atom("Y", {g: ("y1", "y2") for g in globes})
    Z = D.atom("Z", {g: tuple(f"z{i}" for i in range(6)) for g in globes})
    calls = []

    def counting(name):
        return lambda g, el: calls.append((name, g, el)) or el

    to_z = D.value_map(X, Z, lambda g, x: "z0")
    assert D.maps_equal(D.compose(to_z, D.value_map(Z, Z, counting("z"))), to_z)
    assert sorted(calls) == sorted(("z", g, "z0") for g in D.support(X))
    calls.clear()
    F = D.tensor_map(t, (D.value_map(X, X, counting("x")), D.value_map(Y, Y, counting("y"))))
    assert D.maps_equal(F, D.identity(F.dom))
    elements = [el for g in D.support(F.dom) for el in D.fiber(F.dom, g)]
    met = {(name, g, x) for chain, comps in elements for name, g, x in zip("xy", chain, comps)}
    assert sorted(calls) == sorted(met)
    assert len(calls) < len(elements)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda D, X: D.box0_map(D.identity(X), D.identity(X)), "box0 tensor moved a globe"),
        (lambda D, X: D.box1_map(D.identity(X), D.identity(X)), "box1 tensor moved a globe"),
        (lambda D, X: D.interchange(X, X, X, X), "interchange moved a globe"),
    ],
)
def test_a_map_moving_a_globe_is_caught_by_its_plan(build, message):
    """With the composition of globes corrupted, a plan's one check of its
    composite globe raises."""
    cat = parallel_pair_cat()
    D = SpanDuoidal(cat)
    F = build(D, D.atom("X", {g: ("x",) for g in all_globes(cat)}))
    stray = Globe("?", "?", "?", "?")
    D._compose = (lambda g1, g2: stray,) * 2
    with pytest.raises(AssertionError, match=message):
        D.maps_equal(F, F)


def _constant(D, dom, cod):
    """The map sending every element over a globe to the first element of cod there."""
    return D.value_map(dom, cod, lambda g, x: D.fiber(cod, g)[0])


@pytest.mark.parametrize("t", [0, 1])
def test_compose_builds_the_normal_form(par, t):
    cat, D = par
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    Y = D.atom("Y", {g: ("y",) for g in all_globes(cat)})
    swap, to_y, to_x = D.value_map(X, X, _swap), _constant(D, X, Y), _constant(D, Y, X)
    # (a) an identity on either side gives the other map
    for f, g in [(D.identity(X), swap), (swap, D.identity(X))]:
        assert D.compose(f, g) is swap and _pointwise_equal(D, swap, _then_on_values(D, f, g))
    # (b) a composite's second part is never a composite
    yx = D.compose(to_y, to_x)
    fgh = D.compose(swap, yx)
    assert fgh.parts[0] == "then" and fgh.parts[2] is to_x and fgh.parts[1].parts[1:] == (swap, to_y)
    assert _pointwise_equal(D, fgh, _then_on_values(D, swap, yx))
    # (c) tensor-t maps whose factors meet one to one compose factorwise
    f, g = D.tensor_map(t, [swap, to_y]), D.tensor_map(t, [to_y, to_x])
    fused = D.compose(f, g)
    assert fused.parts[:2] == ("tensor", t) and [h.parts[1:] for h in fused.parts[2]] == [(swap, to_y), (to_y, to_x)]
    assert D.support(f.dom) and _pointwise_equal(D, fused, _then_on_values(D, f, g))


@pytest.mark.parametrize("t", [0, 1])
def test_compose_fuses_only_tensors_whose_factors_meet(par, t):
    cat, D = par
    X, Y, Z = (D.atom(n, {g: (n + "1", n + "2") for g in all_globes(cat)}) for n in "XYZ")
    XY, YZ = D.tensor(t, (X, Y)), D.tensor(t, (Y, Z))
    swap = D.value_map(X, X, _swap)
    cases = [
        # both tensors end at X, Y, Z, but g has a third factor
        (D.tensor_map(t, [swap, _constant(D, Y, YZ)]), D.tensor_map(t, [_constant(D, c, c) for c in (X, Y, Z)])),
        # as many factors, but f's first factor ends at X, Y where g's starts at X
        (D.tensor_map(t, [_constant(D, X, XY), _constant(D, Y, Z)]), D.tensor_map(t, [swap, _constant(D, YZ, Y)])),
        # one factor each, but tensors of different kinds
        (D.tensor_map(t, [swap]), D.tensor_map(1 - t, [swap])),
    ]
    for f, g in cases:
        fg = D.compose(f, g)
        assert fg.parts == ("then", f, g)
        assert D.support(f.dom) and _pointwise_equal(D, fg, _then_on_values(D, f, g))
        assert D.maps_equal(fg, _then_on_values(D, f, g))


def test_compose_checks_the_middle_objects_before_any_rule(par):
    cat, D = par
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    Y = D.atom("Y", {g: ("y",) for g in all_globes(cat)})
    to_y, to_x = _constant(D, X, Y), _constant(D, Y, X)
    for lhs, rhs in [
        (D.identity(X), D.identity(Y)),  # (a) would return either side
        (to_y, D.compose(to_y, to_x)),  # (b) would reassociate
        (D.tensor_map(0, [to_y, to_y]), D.tensor_map(0, [to_y, to_y])),  # (c) would fuse factorwise
    ]:
        with pytest.raises(ValueError, match="^compose: middle objects differ$"):
            D.compose(lhs, rhs)


def test_spans_rejections_say_what_is_wrong(par):
    cat, D = par
    X = D.atom("X", {g: ("x1", "x2") for g in all_globes(cat)})
    uu, ww, stray = Globe("0", "1", "u", "u"), Globe("0", "1", "w", "w"), Globe("0", "1", "u", "z")
    for build, error, message in [
        (lambda: D.atom("S", {stray: ("s",)}), ValueError, "atom S: globe (0,1,u,z) not in the base"),
        (lambda: hcompose(cat, uu, uu), ValueError, "globes not horizontally composable"),
        (lambda: vcompose(uu, ww), ValueError, "globes not vertically composable"),
        (lambda: D.hom(X, X, cap=1000), SizeError, "span hom set exceeds cap"),  # 4 tables on each of 6 globes
    ]:
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message
