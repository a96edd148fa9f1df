import pytest

from duoidal_kit.duoidal import (
    InterchangeOverride,
    check_duoid_axioms,
    check_duoidal_axioms,
    derived_unit_comparison,
    v_as_duoid,
)
from duoidal_kit.fincat import Arrow, FiniteCategory, ValidationError, finite_category
from duoidal_kit.finset import CartMap, CartesianFinSet, atom_letter
from duoidal_kit.instances import (
    additive_instance,
    bool_cartesian_instance,
    bool_lattice_instance,
    discrete_commutative_instance,
    table_instances,
    thin_duoidal,
)
from duoidal_kit.instances import bz2_cat
from duoidal_kit.jsonio import table_duoidal_from_doc, table_duoidal_to_doc
from duoidal_kit.monoids import cyclic, left_zero_plus_unit
from duoidal_kit.report import SizeError
from duoidal_kit.spans import Globe, SpanDuoidal


def _tensor_cases():
    """Each instance with a few objects to tensor."""
    for D in table_instances():
        yield pytest.param(D, list(D.objects()), id=D.name)
    x, y = (atom_letter("x", ["p", "q"]),), (atom_letter("y", [0, 1, 2]),)
    yield pytest.param(CartesianFinSet(), [(), x, y, x + y], id="cartesian")
    D = SpanDuoidal(bz2_cat())
    X = D.atom("X", {Globe("*", "*", "s", "id_*"): ("a", "b")})
    Y = D.atom("Y", {Globe("*", "*", "s", "s"): ("c",)})
    yield pytest.param(D, [D.e, D.v, X, Y, D.tensor(1, (X, Y))], id=D.name)


@pytest.mark.parametrize("D, objects", list(_tensor_cases()))
def test_tensors_are_strict_folds(D, objects):
    """Both tensors are strictly unital and associative on objects, as folds
    over any split of the factor list."""
    words = [()] + [(x,) for x in objects] + [(x, y) for x in objects for y in objects]
    for t in (0, 1):
        assert D.tensor(t, ()) == (D.e, D.v)[t]
        for xs in words:
            for ys in words:
                assert D.tensor(t, xs + ys) == D.tensor(t, (D.tensor(t, xs), D.tensor(t, ys))), (t, xs, ys)


@pytest.mark.parametrize("instance", table_instances(), ids=lambda d: d.name)
def test_table_instances_pass_the_gate(instance):
    rep = check_duoidal_axioms(instance)
    assert rep.all_passed


def test_table_tensors_must_be_strictly_unital_on_arrows():
    doc = table_duoidal_to_doc(additive_instance(cyclic(3)))
    doc["box0_arrows"]["a0 a1"] = "a2"
    with pytest.raises(ValidationError, match="box0 not strictly unital on arrows at a1"):
        table_duoidal_from_doc(doc)


def test_a_thin_base_must_hold_every_structure_arrow():
    # the discrete order on 0 < 1 has identities only; the interchange at (0, 1, 1, 0) needs 0 -> 1
    with pytest.raises(ValidationError) as err:
        thin_duoidal("bad", ("0", "1"), lambda x, y: x == y, (max, min), ("0", "1"))
    assert str(err.value) == "bad: required structure arrow 0 -> 1 is missing"


def test_a_composite_must_name_an_arrow():
    with pytest.raises(ValidationError) as err:
        finite_category("c", ("0",), [("s", "0", "0")], {("s", "s"): "nope"})
    assert str(err.value) == "c: composite at (s, s) is 'nope', not an arrow"
    with pytest.raises(ValidationError) as err:
        finite_category("c", ("0",), [("s", "0", "0")])
    assert str(err.value) == "c: composite of ('s', 's') unspecified"


def _two_object_category(arrows=(), table=(), identities=None):
    """Objects 0 and 1 with identities id_0, id_1 and s: 0 -> 1, whose table
    is complete and correct unless `arrows`, `table` (a None entry drops the
    composite) or `identities` say otherwise."""
    good = {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1", ("id_0", "s"): "s", ("s", "id_1"): "s"}
    return FiniteCategory(
        "c",
        ("0", "1"),
        [Arrow("id_0", "0", "0"), Arrow("id_1", "1", "1"), Arrow("s", "0", "1"), *arrows],
        {k: h for k, h in (good | dict(table)).items() if h is not None},
        {"0": "id_0", "1": "id_1"} if identities is None else identities,
    )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"arrows": [Arrow("t", "1", "2")]}, "arrow t has unknown endpoint"),
        ({"identities": {"0": "id_0"}}, "bad identity for 1"),
        ({"identities": {"0": "id_0", "1": "nope"}}, "bad identity for 1"),
        ({"identities": {"0": "s", "1": "id_1"}}, "bad identity for 0"),
        ({"table": {("id_0", "s"): None}}, "composition missing at (id_0, s)"),
        ({"table": {("id_0", "s"): "id_0"}}, "ill-typed composite at (id_0, s)"),
    ],
)
def test_a_category_table_must_be_well_typed_and_total(kwargs, message):
    assert _two_object_category().compose("id_0", "s") == "s"
    with pytest.raises(ValidationError) as err:
        _two_object_category(**kwargs)
    assert str(err.value) == f"c: {message}"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({("id", "s"): "id"}, "left identity fails at s"),
        ({("s", "id"): "id"}, "right identity fails at s"),
        ({("s", "t"): "id"}, "associativity fails at (s, s, t)"),
    ],
)
def test_a_category_table_must_satisfy_the_laws(changes, message):
    """One object with arrows id, s, t, where every composite of s and t is id
    except where `changes` says otherwise."""
    names = ("id", "s", "t")
    table = {(f, g): "id" for f in names for g in names}
    table.update({("id", f): f for f in names} | {(f, "id"): f for f in names})
    table.update(changes)
    with pytest.raises(ValidationError) as err:
        FiniteCategory("c", ("0",), [Arrow(n, "0", "0") for n in names], table, {"0": "id"})
    assert str(err.value) == f"c: {message}"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: doc["box0_objects"].update({"1 1": "1"}), "box0 not strictly associative"),
        (lambda doc: doc["box1_arrows"].pop("id_1 id_2"), "box1 arrow table not total"),
        (lambda doc: doc["interchange"].pop("0 1 2 0"), "interchange table not total"),
        (lambda doc: doc["box0_objects"].pop("1 2"), "box0 object table not total at (1, 2)"),
        (lambda doc: doc["box1_objects"].update({"0 1": "2"}), "box1 not strictly unital at 1"),
        (lambda doc: doc["box0_arrows"].update({"id_1 id_1": "id_0"}), "box0 arrow table ill-typed at (id_1, id_1)"),
        (lambda doc: doc["interchange"].update({"0 1 2 0": "id_1"}), "interchange ill-typed at ('0', '1', '2', '0')"),
        (lambda doc: doc.update(delta_e="id_1"), "delta_e ill-typed"),
        (lambda doc: doc.update(e="3"), "unit of box0 is not an object"),
        (lambda doc: doc.update(v="3"), "unit of box1 is not an object"),
        (lambda doc: doc["interchange"].update({"0 1 2 0": "id_3"}), "interchange entry ('0', '1', '2', '0') is not an arrow"),
    ],
)
def test_a_duoidal_table_must_be_strict_and_total(corrupt, message):
    doc = table_duoidal_to_doc(discrete_commutative_instance(cyclic(3)))
    corrupt(doc)
    with pytest.raises(ValidationError) as err:
        table_duoidal_from_doc(doc)
    assert str(err.value) == f"discrete_z3: {message}"


def test_additive_instance_requires_commutativity():
    with pytest.raises(ValidationError):
        additive_instance(left_zero_plus_unit(2, "lz"))


def test_cartesian_instance_pointwise():
    D = CartesianFinSet()
    x = (atom_letter("x", ["p", "q"]),)
    y = (atom_letter("y", [0, 1, 2]),)
    rep = check_duoidal_axioms(D, objects=[D.e, x, y], hom_limit=2)
    assert rep.all_passed


class _HomCapped(InterchangeOverride):
    """An instance whose hom set (1, 1) is too large to list."""

    def hom(self, x, y):
        if (x, y) == ("1", "1"):
            raise SizeError("hom set exceeds cap")
        return self._base.hom(x, y)


def test_hom_sets_too_large_to_list_are_counted_as_skipped():
    D = _HomCapped(bool_lattice_instance(), lambda a, b, c, d: None)
    scopes = {item.name: item.scope for item in check_duoidal_axioms(D).items}
    capped = "all 2 objects; homs capped at 3; 1 skipped"
    assert scopes["box0 functorial on morphisms"] == capped
    assert scopes["box1 functorial on morphisms"] == capped
    assert scopes["interchange natural in all arguments"] == capped
    assert scopes["associativity hexagon for box0"] == "all 2 objects"


@pytest.mark.parametrize("instance", table_instances(), ids=lambda d: d.name)
def test_derived_unit_comparison_equals_iota(instance):
    assert instance.maps_equal(derived_unit_comparison(instance), instance.iota())


def test_derived_unit_comparison_cartesian():
    D = CartesianFinSet()
    assert D.maps_equal(derived_unit_comparison(D), D.iota())


def test_targeted_interchange_corruption_breaks_a_hexagon():
    D = CartesianFinSet()
    a = (atom_letter("a", [0, 1]),)
    b = (atom_letter("b", [0, 1]),)

    def patch(w, x, y, z):
        if (w, x, y, z) == (a, a, a, a):
            base = D.interchange(a, a, a, a)

            def swapped(t):
                out = base.apply(t)
                return out[:2] + (1 - out[2],) + out[3:]

            return CartMap(base.dom, base.cod, fn=swapped)
        return None

    bad = InterchangeOverride(D, patch, name="corrupted")
    rep = check_duoidal_axioms(bad, objects=[a, b], hom_limit=1)
    failing = {item.name for item in rep.failures()}
    assert "associativity hexagon for box0" in failing
    hex_row = [i for i in rep.items if i.name == "associativity hexagon for box0"][0]
    assert hex_row.witness  # a concrete witness tuple is reported


def test_constant_interchange_corruption_fails_unitality_not_hexagons():
    D = CartesianFinSet()
    a = (atom_letter("a", [0, 1]),)

    def patch(w, x, y, z):
        base = D.interchange(w, x, y, z)
        try:
            first = D.fiber(base.cod, None)[0]
        except Exception:
            return None
        return CartMap(base.dom, base.cod, fn=lambda t: first)

    bad = InterchangeOverride(D, patch, name="constant")
    rep = check_duoidal_axioms(bad, objects=[a], hom_limit=1)
    names = {i.name: i.passed for i in rep.items}
    assert not names["unitality squares (4)"]
    # every square fails; the witness is the last one, as on every row
    assert rep.items[6].witness == repr(("right v-square", a, a))
    # constant components satisfy both hexagons: each leg is constant at the
    # same value, which is why the targeted corruption above is needed
    assert names["associativity hexagon for box0"]
    assert names["associativity hexagon for box1"]


def test_inconsistent_derived_unit_is_flagged():
    # an instance whose interchange component at (e, v, v, e) is not iota
    base = additive_instance(cyclic(2))

    def patch(a, b, c, d):
        return "a1"  # the non-identity arrow; iota is a0

    bad = InterchangeOverride(base, patch, name="bad_unit_comparison")
    assert not bad.maps_equal(derived_unit_comparison(bad), bad.iota())
    rep = check_duoidal_axioms(bad)
    assert not rep.all_passed


@pytest.mark.parametrize("instance", table_instances(), ids=lambda d: d.name)
def test_v_is_a_duoid_everywhere(instance):
    rep = check_duoid_axioms(instance, v_as_duoid(instance))
    assert rep.all_passed


def test_commutative_monoid_is_a_duoid_in_the_cartesian_instance():
    D = CartesianFinSet()
    m = cyclic(3)
    X = (atom_letter("z3", m.elements),)
    mult = CartMap(X + X, X, table={(a, b): (m.mult(a, b),) for a in m.elements for b in m.elements})
    unit = CartMap((), X, table={(): (m.unit,)})
    from duoidal_kit.duoidal import Duoid

    rep = check_duoid_axioms(D, Duoid(X, mult, unit, mult, unit, name="z3"))
    assert rep.all_passed


def test_noncommutative_shared_multiplication_fails_interchange():
    D = CartesianFinSet()
    m = left_zero_plus_unit(2, "lz3")
    X = (atom_letter("lz3", m.elements),)
    mult = CartMap(X + X, X, table={(a, b): (m.mult(a, b),) for a in m.elements for b in m.elements})
    unit = CartMap((), X, table={(): (m.unit,)})
    from duoidal_kit.duoidal import Duoid

    rep = check_duoid_axioms(D, Duoid(X, mult, unit, mult, unit, name="lz3"))
    names = {i.name: i.passed for i in rep.items}
    assert not names["(**) interchange square"]


def test_bool_lattice_has_distinct_units():
    D = bool_lattice_instance()
    assert D.e != D.v
    assert D.box0("0", "1") == "1" and D.box1("0", "1") == "0"


def test_discrete_instance_interchange_is_identity():
    D = discrete_commutative_instance(cyclic(3))
    assert D.interchange("1", "2", "0", "1") == D.identity(D.tensor(0, ["1", "2", "0", "1"]))
