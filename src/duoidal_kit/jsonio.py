"""JSON interchange for the corpus: one schema family with a kind tag.

Every document carries `kind` and `schema_version`.  The package's
`schemas/<kind>.schema.json` are the one statement of the format: loaders
walk each document against its schema (`SCHEMAS`, `_walk`), then validate
the payload through the same constructors the library uses internally, so a
malformed file fails before any checking starts.  `dumps` is canonical
(sorted keys, fixed separators), which makes load/save round trips
byte-exact on canonical files.
"""

from __future__ import annotations

import json
from importlib.resources import files

from .fincat import Arrow, CatFunctor, FiniteCategory, TableDuoidal, ValidationError
from .monoids import Monoid
from .spans import Globe, SpanDuoidal, all_globes
from .tamarkin import CatValuedFunctor, ObjectFunctor, cat_valued_functor, object_functor

SCHEMA_VERSION = 1

# The JSON Schema 2020-12 keywords that `_walk` interprets (`additionalProperties`
# only as false), and the annotations it ignores.
KEYWORDS = {"type", "required", "properties", "additionalProperties", "const", "items", "$ref", "minItems", "maxItems"}
ANNOTATIONS = {"title", "description", "$schema"}
_JSON_TYPES = {"string": str, "array": list, "object": dict}


def interpreted(schema, name):
    """`schema`, refused if it or a subschema uses a keyword that `_walk` would ignore."""
    unknown = set(schema) - KEYWORDS - ANNOTATIONS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise ValueError(f"{name}: schema keywords {sorted(unknown)} are not interpreted")
    for sub in [*schema.get("properties", {}).values(), *([schema["items"]] if "items" in schema else [])]:
        interpreted(sub, name)
    return schema


SCHEMAS = {
    path.name.removesuffix(".schema.json"): interpreted(json.loads(path.read_text(encoding="utf-8")), path.name)
    for path in (files(__package__) / "schemas").iterdir()
    if path.name.endswith(".schema.json")
}


def _walk(value, schema, kind, path=""):
    """Check `value` against `schema`; a fault names `kind` and the JSON path of
    the value.  A `$ref` restarts both at the document it refers to."""
    field = f"field {path!r}" if path else "the document"
    if "$ref" in schema:
        ref = schema["$ref"].removesuffix(".schema.json")
        _walk(value, SCHEMAS[ref], ref)
    if "type" in schema and not isinstance(value, _JSON_TYPES[schema["type"]]):
        raise ValidationError(f"{kind}: {field} is not a JSON {schema['type']}")
    if "const" in schema and (value != schema["const"] or isinstance(value, bool) != isinstance(schema["const"], bool)):
        raise ValidationError(f"{kind}: {field} is not {json.dumps(schema['const'])}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise ValidationError(f"{kind}: missing field {f'{path}.{name}'.lstrip('.')!r}")
        if schema.get("additionalProperties") is False:
            for name in value:
                if name not in schema.get("properties", {}):
                    raise ValidationError(f"{kind}: unknown field {f'{path}.{name}'.lstrip('.')!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                _walk(value[name], sub, kind, f"{path}.{name}".lstrip("."))
    if isinstance(value, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", len(value))
        if not low <= len(value) <= high:
            raise ValidationError(f"{kind}: {field} has {len(value)} items, not between {low} and {high}")
        for i, item in enumerate(value if "items" in schema else ()):
            _walk(item, schema["items"], kind, f"{path}[{i}]")


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _expect(doc, kind):
    """Check the kind tag and the schema version, then walk the document
    against the schema of its kind."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a {kind} object, found {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise ValidationError(f"expected kind {kind!r}, found {doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {doc.get('schema_version')!r}")
    _walk(doc, SCHEMAS[kind], kind)


def _keys(table, names, parts, where, what):
    """`table` keyed by its keys split at spaces into `parts` members of
    `names` (a one-part key is not split); a key that names nothing is
    rejected."""
    if not isinstance(table, dict):
        raise ValidationError(f"{where} is not a JSON object")
    out = {}
    for key, value in table.items():
        split = tuple(key.split(" ")) if parts > 1 else (key,)
        if len(split) != parts or not all(name in names for name in split):
            raise ValidationError(f"{where} key {key!r} does not name {what}")
        out[split] = value
    return out


def _arity(text, where):
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"{where}: {text!r} is not an arity (a non-negative integer)")
    return int(text)


# -- monoids -----------------------------------------------------------------


def monoid_to_doc(m: Monoid) -> dict:
    return {
        "kind": "monoid",
        "schema_version": SCHEMA_VERSION,
        "name": m.name,
        "elements": [str(x) for x in m.elements],
        "unit": str(m.unit),
        "table": {str(a): {str(b): str(m.mult(a, b)) for b in m.elements} for a in m.elements},
    }


def monoid_from_doc(doc) -> Monoid:
    _expect(doc, "monoid")
    elements = tuple(doc["elements"])
    try:
        table = {(a, b): doc["table"][a][b] for a in elements for b in elements}
    except KeyError as exc:
        raise ValidationError(f"monoid {doc['name']}: table has no entry for {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"monoid {doc['name']}: malformed elements or table ({exc})") from exc
    where = f"monoid {doc['name']}: table"
    for (a,), row in _keys(doc["table"], elements, 1, where, "an element").items():
        _keys(row, elements, 1, f"{where} row {a!r}", "an element")
    return Monoid(doc["name"], elements, doc["unit"], table)


# -- finite categories --------------------------------------------------------


def category_to_doc(c: FiniteCategory) -> dict:
    return {
        "kind": "category",
        "schema_version": SCHEMA_VERSION,
        "name": c.name,
        "objects": list(c.objects),
        "arrows": [
            {"name": a.name, "src": a.src, "tgt": a.tgt}
            for a in sorted(c.arrows.values(), key=lambda a: a.name)
        ],
        "identities": dict(sorted(c.identities.items())),
        "compose": {f"{f} {g}": h for f, g, h in c.composable},
    }


def category_from_doc(doc) -> FiniteCategory:
    _expect(doc, "category")
    try:
        arrows = [Arrow(a["name"], a["src"], a["tgt"]) for a in doc["arrows"]]
        where = f"category {doc['name']}:"
        compose = _keys(doc["compose"], {a.name for a in arrows}, 2, f"{where} compose", "two arrows")
        _keys(doc["identities"], doc["objects"], 1, f"{where} identities", "an object")
        return FiniteCategory(doc["name"], doc["objects"], arrows, compose, doc["identities"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"category {doc['name']}: malformed objects, arrows or tables ({exc})") from exc


# -- object functors -----------------------------------------------------------


def object_functor_from_doc(doc) -> ObjectFunctor:
    _expect(doc, "object_functor")
    cat = category_from_doc(doc["category"])
    sets = _keys(doc["sets"], cat.objects, 1, "object_functor: sets", "an object")
    for (f,), table in _keys(doc["maps"], cat.arrows, 1, "object_functor: maps", "an arrow").items():
        _keys(table, sets.get((cat.src(f),), ()), 1, f"object_functor: map {f!r}", "an element of its source")
    return object_functor(cat, doc["sets"], doc["maps"])


# -- category-valued functors ---------------------------------------------------


def cat_valued_functor_to_doc(F: CatValuedFunctor) -> dict:
    return {
        "kind": "cat_valued_functor",
        "schema_version": SCHEMA_VERSION,
        "name": F.name,
        "base": category_to_doc(F.base),
        "values": {a: category_to_doc(c) for a, c in F.values},
        "functors": {
            f: {"objects": dict(sorted(fun.obj_map.items())), "arrows": dict(sorted(fun.arr_map.items()))}
            for f, fun in F.functors
        },
    }


def cat_valued_functor_from_doc(doc) -> CatValuedFunctor:
    _expect(doc, "cat_valued_functor")
    base = category_from_doc(doc["base"])
    _keys(doc["values"], base.objects, 1, "cat_valued_functor: values", "an object")
    values = {a: category_from_doc(c) for a, c in doc["values"].items()}
    for a in base.objects:
        if a not in values:
            raise ValidationError(f"cat_valued_functor: no value category for object {a!r}")
    functors = {}
    for f, data in doc["functors"].items():
        try:
            arrow = base.arrows[f]
            source = values[arrow.src]
            where = f"cat_valued_functor: functor {f!r}"
            _keys(data["objects"], source.objects, 1, f"{where} objects", "an object of its source")
            _keys(data["arrows"], source.arrows, 1, f"{where} arrows", "an arrow of its source")
            functors[f] = CatFunctor(f, source, values[arrow.tgt], data["objects"], data["arrows"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"cat_valued_functor: bad functor table at {f!r} ({exc})") from exc
    return cat_valued_functor(base, values, functors, name=doc.get("name", "F"))


# -- span objects ----------------------------------------------------------------


def span_object_to_doc(D: SpanDuoidal, atom) -> dict:
    return {
        "kind": "span_object",
        "schema_version": SCHEMA_VERSION,
        "name": atom.name,
        "category": category_to_doc(D.cat),
        "fibers": [
            {"globe": [g.a, g.b, g.f, g.g], "elements": [str(e) for e in D.fiber(atom, g)]}
            for g in D.support(atom)
        ],
    }


def span_object_from_doc(doc):
    _expect(doc, "span_object")
    cat = category_from_doc(doc["category"])
    D = SpanDuoidal(cat)
    globes = all_globes(cat)
    fibers = {}
    for i, entry in enumerate(doc["fibers"]):
        where = f"span_object {doc['name']}: fiber entry {i}"
        globe = Globe(*entry["globe"])
        if globe not in globes:
            raise ValidationError(f"{where}: globe {globe.render()} is not a parallel pair of the base")
        if globe in fibers:
            raise ValidationError(f"{where}: globe {globe.render()} repeats an earlier entry")
        fibers[globe] = tuple(entry["elements"])
    return D, D.atom(doc["name"], fibers)


# -- table duoidal instances -------------------------------------------------------


def table_duoidal_to_doc(D: TableDuoidal) -> dict:
    objs = D.base.objects
    arrs = sorted(D.base.arrows)
    return {
        "kind": "duoidal_table",
        "schema_version": SCHEMA_VERSION,
        "name": D.name,
        "base": category_to_doc(D.base),
        "e": D.e,
        "v": D.v,
        **{f"box{t}_objects": {f"{x} {y}": D.tensor(t, (x, y)) for x in objs for y in objs} for t in (0, 1)},
        **{f"box{t}_arrows": {f"{f} {g}": D.tensor_map(t, (f, g)) for f in arrs for g in arrs} for t in (0, 1)},
        "interchange": {f"{a} {b} {c} {d}": D.interchange(a, b, c, d) for a in objs for b in objs for c in objs for d in objs},
        "delta_e": D.delta_e(),
        "mu_v": D.mu_v(),
        "iota": D.iota(),
    }


def table_duoidal_from_doc(doc) -> TableDuoidal:
    _expect(doc, "duoidal_table")
    base = category_from_doc(doc["base"])

    def table(field, names, what, parts=2):
        return _keys(doc[field], names, parts, f"{doc['name']}: {field}", what)

    return TableDuoidal(
        doc["name"],
        base,
        [table(f"box{t}_objects", base.objects, "two objects") for t in (0, 1)],
        [table(f"box{t}_arrows", base.arrows, "two arrows") for t in (0, 1)],
        (doc["e"], doc["v"]),
        table("interchange", base.objects, "four objects", 4),
        doc["delta_e"],
        doc["mu_v"],
        doc["iota"],
    )


# -- table operads over table instances ----------------------------------------------


def table_operad_from_doc(doc, D):
    """A table-backed operad over a table duoidal instance: every component
    must be an object of D, and the unit and every gamma an arrow of D."""
    from .operads import OneOperad

    _expect(doc, "one_operad")
    if not isinstance(D, TableDuoidal):
        raise ValidationError("a one_operad document names objects and arrows of a table instance")
    if doc["instance"] != D.name:
        raise ValidationError(f"operad over the instance {doc['instance']!r}, not over the instance {D.name!r}")
    components = {_arity(n, "operad components"): obj for n, obj in doc["components"].items()}
    if not components:
        raise ValidationError("one_operad: field 'components' lists no arity")
    for n, obj in components.items():
        if obj not in D.objects():
            raise ValidationError(f"operad component {n} {obj!r} is not an object of the instance")
    gammas = {}
    for key, arrow in doc["gamma"].items():
        head, _, tail = key.partition(";")
        n = _arity(head, f"operad gamma {key!r}")
        ks = tuple(_arity(k, f"operad gamma {key!r}") for k in tail.split(",")) if tail else ()
        if len(ks) != n:
            raise ValidationError(f"operad gamma {key!r} does not list {n} arities after its ';'")
        if not isinstance(arrow, str) or arrow not in D.base.arrows:
            raise ValidationError(f"operad gamma {key!r} {arrow!r} is not an arrow of the instance")
        gammas[(n, ks)] = arrow
    if doc["unit"] not in D.base.arrows:
        raise ValidationError(f"operad unit {doc['unit']!r} is not an arrow of the instance")
    bound = max(components)

    def component(n):
        if n not in components:
            raise ValidationError(f"operad table missing the component {n}")
        return components[n]

    def gamma(n, ks):
        if (n, ks) not in gammas:
            raise ValidationError(f"operad table missing the shape ({n}; {ks})")
        return gammas[(n, ks)]

    return OneOperad(D, doc["name"], component, gamma, doc["unit"], has_zero=(0, ()) in gammas, bound=bound)


# -- duoids over table instances -------------------------------------------------------


def duoid_from_doc(doc, D):
    """A duoid in the table instance D: the carrier must be an object of D and
    each structure map an arrow of D with the ends of its axioms."""
    from .duoidal import Duoid

    _expect(doc, "duoid")
    if not isinstance(D, TableDuoidal):
        raise ValidationError("a duoid document names objects and arrows of a table instance")
    x = doc["carrier"]
    if x not in D.objects():
        raise ValidationError(f"duoid carrier {x!r} is not an object of the instance")
    for field, source in (("mult0", D.box0(x, x)), ("unit0", D.e), ("mult1", D.box1(x, x)), ("unit1", D.v)):
        if doc[field] not in D.hom(source, x):
            raise ValidationError(f"duoid {field} {doc[field]!r} is not an arrow {source} -> {x} of the instance")
    return Duoid(x, doc["mult0"], doc["unit0"], doc["mult1"], doc["unit1"], name=doc.get("name", "duoid"))


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the top level is not a JSON object")
    kind = doc.get("kind")
    if kind not in SCHEMAS:
        raise ValidationError(f"{path}: unknown kind {kind!r}")
    return doc
