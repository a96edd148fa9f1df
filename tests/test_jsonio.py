import json
from pathlib import Path

import pytest

from duoidal_kit import jsonio
from duoidal_kit.fincat import ValidationError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SCHEMAS = Path(jsonio.__file__).resolve().parent / "schemas"


@pytest.mark.parametrize(
    "name",
    [
        "z2.json",
        "t2.json",
        "s3.json",
        "arrow_category.json",
        "bool_lattice.json",
        "id_bz2_functor.json",
        "pair_bz2_functor.json",
        "span_object_parallel.json",
    ],
)
def test_corpus_files_round_trip_byte_exact(name):
    path = CORPUS / name
    raw = path.read_text()
    doc = json.loads(raw)
    kind = doc["kind"]
    if kind == "monoid":
        again = jsonio.monoid_to_doc(jsonio.monoid_from_doc(doc))
    elif kind == "category":
        again = jsonio.category_to_doc(jsonio.category_from_doc(doc))
    elif kind == "duoidal_table":
        again = jsonio.table_duoidal_to_doc(jsonio.table_duoidal_from_doc(doc))
    elif kind == "cat_valued_functor":
        again = jsonio.cat_valued_functor_to_doc(jsonio.cat_valued_functor_from_doc(doc))
    elif kind == "span_object":
        D, atom = jsonio.span_object_from_doc(doc)
        again = jsonio.span_object_to_doc(D, atom)
    else:
        pytest.skip(f"no round trip for {kind}")
    assert jsonio.dumps(again) == raw


def test_loading_validates_through_the_constructors(tmp_path):
    bad = {
        "kind": "monoid",
        "schema_version": 1,
        "name": "broken",
        "elements": ["0", "1"],
        "unit": "0",
        "table": {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "7"}},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    doc = jsonio.load_document(path)
    with pytest.raises(ValueError):
        jsonio.monoid_from_doc(doc)


@pytest.mark.parametrize(
    "name, patch, message",
    [
        ("z2.json", lambda d: d["elements"].append("1"), "z2: an element is listed twice"),
        ("arrow_category.json", lambda d: d["objects"].append("1"), "an object or arrow name is listed twice"),
        ("arrow_category.json", lambda d: d["arrows"].append(d["arrows"][-1]), "an object or arrow name is listed twice"),
    ],
)
def test_a_repeated_name_is_rejected(name, patch, message):
    doc = json.loads((CORPUS / name).read_text())
    patch(doc)
    load = jsonio.monoid_from_doc if doc["kind"] == "monoid" else jsonio.category_from_doc
    with pytest.raises(ValueError, match=message):
        load(doc)


def test_schema_documents_exist_for_every_kind():
    kinds = {
        "monoid",
        "category",
        "object_functor",
        "cat_valued_functor",
        "span_object",
        "duoidal_table",
        "one_operad",
        "duoid",
    }
    assert set(jsonio.SCHEMAS) == kinds
    for kind in kinds:
        body = json.loads((SCHEMAS / f"{kind}.schema.json").read_text())
        assert body["title"] == kind
        assert "schema_version" in body["properties"]


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "widget", "schema_version": 1}))
    with pytest.raises(ValidationError):
        jsonio.load_document(path)


def test_a_schema_keyword_outside_the_subset_is_refused():
    for schema in (
        {"type": "string", "enum": ["a", "b"]},
        {"type": "object", "properties": {"table": {"type": "object", "additionalProperties": {"type": "string"}}}},
        {"type": "array", "items": {"type": "string", "pattern": "^[a-z]+$"}},
    ):
        with pytest.raises(ValueError, match="are not interpreted"):
            jsonio.interpreted(schema, "widget.schema.json")
    assert jsonio.interpreted(jsonio.SCHEMAS["category"], "category.schema.json") is jsonio.SCHEMAS["category"]


def _object_functor_doc():
    category = json.loads((CORPUS / "arrow_category.json").read_text())
    return {"kind": "object_functor", "schema_version": 1, "category": category, "sets": {}, "maps": {}}


WRONG_TYPES = [
    ("monoid", "elements", "01"),
    ("category", "objects", "01"),
    ("object_functor", "sets", ["a"]),
    ("cat_valued_functor", "functors", ["id_*"]),
    ("span_object", "fibers", {}),
    ("duoidal_table", "e", 0),
    ("one_operad", "components", ["*"]),
    ("duoid", "mult0", ["x"]),
]
FILES = {
    "monoid": "z2.json",
    "category": "arrow_category.json",
    "cat_valued_functor": "id_bz2_functor.json",
    "span_object": "span_object_parallel.json",
    "duoidal_table": "bool_lattice.json",
    "one_operad": "fass_additive_z2.json",
    "duoid": "duoid_v_bool_lattice.json",
}


def _wrong_type_doc(kind, field, value):
    doc = _object_functor_doc() if kind == "object_functor" else json.loads((CORPUS / FILES[kind]).read_text())
    doc[field] = value
    return doc


@pytest.mark.parametrize("kind, field, value", WRONG_TYPES)
def test_a_wrong_json_type_names_the_field(kind, field, value):
    from duoidal_kit.instances import additive_instance, bool_lattice_instance
    from duoidal_kit.monoids import cyclic

    loaders = {
        "monoid": jsonio.monoid_from_doc,
        "category": jsonio.category_from_doc,
        "object_functor": jsonio.object_functor_from_doc,
        "cat_valued_functor": jsonio.cat_valued_functor_from_doc,
        "span_object": jsonio.span_object_from_doc,
        "duoidal_table": jsonio.table_duoidal_from_doc,
        "one_operad": lambda d: jsonio.table_operad_from_doc(d, additive_instance(cyclic(2))),
        "duoid": lambda d: jsonio.duoid_from_doc(d, bool_lattice_instance()),
    }
    with pytest.raises(ValidationError, match=f"{kind}: field '{field}' is not a JSON"):
        loaders[kind](_wrong_type_doc(kind, field, value))


def test_object_functor_map_keys_name_source_elements():
    doc = _object_functor_doc()
    doc["sets"] = {"0": ["p", "q"], "1": ["r"]}
    doc["maps"] = {"a": {"p": "r", "q": "r"}, "id_0": {"p": "p", "q": "q"}, "id_1": {"r": "r"}}
    assert dict(jsonio.object_functor_from_doc(doc).maps)["a"] == (("p", "r"), ("q", "r"))
    doc["maps"]["a"]["s"] = "r"
    with pytest.raises(ValidationError, match="object_functor: map 'a' key 's' does not name an element"):
        jsonio.object_functor_from_doc(doc)
    doc["maps"]["a"] = [["p", "r"], ["q", "r"]]
    with pytest.raises(ValidationError, match="object_functor: map 'a' is not a JSON object"):
        jsonio.object_functor_from_doc(doc)


def _span_doc(fibers):
    doc = json.loads((CORPUS / "span_object_parallel.json").read_text())
    doc["fibers"] = fibers
    return doc


def test_span_fiber_over_a_globe_outside_the_base_is_rejected():
    doc = _span_doc([{"globe": ["0", "1", "u", "u"], "elements": ["y"]}, {"globe": ["1", "0", "u", "u"], "elements": []}])
    with pytest.raises(ValidationError, match=r"fiber entry 1: globe \(1,0,u,u\) is not a parallel pair of the base"):
        jsonio.span_object_from_doc(doc)


def test_span_fiber_over_a_repeated_globe_is_rejected():
    doc = _span_doc([{"globe": ["0", "1", "u", "w"], "elements": ["x"]}, {"globe": ["0", "1", "u", "w"], "elements": ["y"]}])
    with pytest.raises(ValidationError, match=r"fiber entry 1: globe \(0,1,u,w\) repeats an earlier entry"):
        jsonio.span_object_from_doc(doc)


def test_span_fiber_elements_must_be_an_array():
    doc = _span_doc([{"globe": ["0", "1", "u", "w"], "elements": "yz"}])
    with pytest.raises(ValidationError, match=r"span_object: field 'fibers\[0\]\.elements' is not a JSON array"):
        jsonio.span_object_from_doc(doc)


@pytest.mark.parametrize(
    "fiber, message",
    [
        ({"globe": ["0", "1", "u", "w"], "elements": [[1]]}, r"field 'fibers\[0\]\.elements\[0\]' is not a JSON string"),
        ({"globe": ["0", "1", "u"], "elements": ["y"]}, r"field 'fibers\[0\]\.globe' has 3 items, not between 4 and 4"),
        ({"globe": ["0", "1", "u", 5], "elements": ["y"]}, r"field 'fibers\[0\]\.globe\[3\]' is not a JSON string"),
        ({"globe": ["0", "1", "u", "w"]}, r"missing field 'fibers\[0\]\.elements'"),
    ],
)
def test_span_fiber_items_are_checked_by_path(fiber, message):
    with pytest.raises(ValidationError, match=f"^span_object: {message}$"):
        jsonio.span_object_from_doc(_span_doc([fiber]))


def _nested(name, patch):
    doc = json.loads((CORPUS / name).read_text())
    patch(doc)
    return doc


# Documents whose faults lie in nested items, or outside what the schemas say.
NESTED = [
    _nested("z2.json", lambda d: d.update(elements=[0, 1])),
    _nested("z2.json", lambda d: d["table"].update({"0": "01"})),
    _nested("id_bz2_functor.json", lambda d: d["base"]["arrows"][0].update(tgt=1)),
    _nested("id_bz2_functor.json", lambda d: d["base"]["arrows"][0].pop("src")),
    _nested("id_bz2_functor.json", lambda d: d["base"].update(objects="*")),
    _nested("id_bz2_functor.json", lambda d: d["base"].update(schema_version=True)),
    _nested("id_bz2_functor.json", lambda d: d.update(base=5)),
    _nested("id_bz2_functor.json", lambda d: d["functors"].update({"id_*": "id"})),
    _nested("arrow_category.json", lambda d: d["arrows"].append("a")),
    _nested("arrow_category.json", lambda d: d["compose"].update({"a a": 5})),
    _nested("fass_additive_z2.json", lambda d: d.update(components={})),
    _nested("fass_additive_z2.json", lambda d: d["gamma"].update({"1;1": ["a"]})),
    _nested("span_object_parallel.json", lambda d: d["fibers"][0].update(elements=[[1]])),
    _nested("span_object_parallel.json", lambda d: d["fibers"][0]["globe"].pop()),
    _nested("span_object_parallel.json", lambda d: d["fibers"][0]["globe"].append("u")),
    _nested("pair_bz2_functor.json", lambda d: d.update(nmae=d.pop("name"))),
    _nested("arrow_category.json", lambda d: d["arrows"][0].update(label="a")),
    _nested("span_object_parallel.json", lambda d: d["fibers"][0].update(globes=[])),
]


def test_the_interpreter_agrees_with_jsonschema():
    """`jsonio` accepts and rejects exactly the documents that a full JSON
    Schema 2020-12 validator does, on the corpus and on malformed documents."""
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    registry = referencing.Registry().with_resources(
        (f"{kind}.schema.json", referencing.Resource.from_contents(schema)) for kind, schema in jsonio.SCHEMAS.items()
    )
    documents = [json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.json"))]
    documents += [_wrong_type_doc(*row) for row in WRONG_TYPES] + NESTED
    verdicts = set()
    for doc in documents:
        try:
            jsonio._expect(doc, doc["kind"])
            accepted = True
        except ValidationError:
            accepted = False
        validator = jsonschema.Draft202012Validator(jsonio.SCHEMAS[doc["kind"]], registry=registry)
        assert accepted == validator.is_valid(doc), jsonio.dumps(doc)
        verdicts.add(accepted)
    assert verdicts == {True, False} and len(documents) == 14 + len(WRONG_TYPES) + len(NESTED)
