import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def child_env(base):
    """`base` with the checkout's `src/` first on PYTHONPATH, so the child imports the code under test, installed or not."""
    inherited = os.environ.get("PYTHONPATH")
    return {**base, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), inherited)))}


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "duoidal_kit.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(os.environ if env is None else env))


def test_center_z2():
    out = run_cli("center", "--monoid", str(CORPUS / "z2.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "Z(M) = {0,1}"


def test_center_t2():
    out = run_cli("center", "--monoid", str(CORPUS / "t2.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "Z(M) = {id}"


def test_check_duoidal_builtin_passes():
    out = run_cli("check-duoidal", "--builtin", "bool_lattice")
    assert out.returncode == 0
    assert "ALL PASS" in out.stdout


_SAMPLE = ("check-duoidal", "--builtin", "cartesian", "--sample")
_TABLE_SAMPLE = ("check-duoidal", "--builtin", "bool_lattice", "--sample")
_LISTED = "--sample: the instance bool_lattice lists its objects, so it takes no sample"


@pytest.mark.parametrize("spec", ["x", "x:0"])
def test_a_sample_with_the_default_or_an_empty_size_passes(spec):
    out = run_cli(*_SAMPLE, spec)
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("-- ALL PASS (11 checks)\n")


def test_check_duoidal_file_round_trip(tmp_path):
    out = run_cli("check-duoidal", "--instance", str(CORPUS / "bool_lattice.json"))
    assert out.returncode == 0


def test_check_duoid_v():
    out = run_cli("check-duoid", "--builtin", "additive_z2")
    assert out.returncode == 0


def test_check_duoid_from_file():
    out = run_cli(
        "check-duoid",
        "--instance",
        str(CORPUS / "bool_lattice.json"),
        "--duoid",
        str(CORPUS / "duoid_v_bool_lattice.json"),
    )
    assert out.returncode == 0


def test_check_operad_monoid_and_corrupted_table():
    out = run_cli("check-operad", "--monoid", str(CORPUS / "z2.json"), "--bound", "3")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "== operad axioms: end(z2) (arity bound 3) + multiplicative structure ==",
        "PASS  unit law (inner)  [k <= 3]",
        "PASS  unit law (outer)  [k <= 3]",
        "PASS  associativity  [59 shapes within bound 3; 368 skipped (non-enumerable domains)]",
        "PASS  v-action bimodule square  [k <= 3]",
        "PASS  unit compatibility",
        "PASS  operad morphism from the all-v operad  [shapes within 3]",
        "-- ALL PASS (6 checks)",
    ]
    ok = run_cli("check-operad", "--builtin", "additive_z2", "--operad", str(CORPUS / "fass_additive_z2.json"))
    assert ok.returncode == 0
    bad = run_cli(
        "check-operad", "--builtin", "additive_z2", "--operad", str(CORPUS / "fass_corrupt_additive_z2.json")
    )
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout and "witness" in bad.stdout


def test_corrupted_operad_table_report_text():
    out = run_cli(
        "check-operad",
        "--builtin",
        "additive_z2",
        "--operad",
        str(CORPUS / "fass_corrupt_additive_z2.json"),
        "--bound",
        "3",
    )
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines() == [
        "== operad axioms: fass_corrupt (arity bound 3) ==",
        "FAIL  unit law (inner)  [k <= 3]  witness: k=2",
        "PASS  unit law (outer)  [k <= 3]",
        "FAIL  associativity  [427 shapes within bound 3]  witness: (n=3; ks=(2, 1, 0); ls=((1, 1), (1,), ()))",
        "PASS  v-action bimodule square  [k <= 3]",
        "-- FAILURES PRESENT (4 checks)",
    ]


def test_check_operad_counts_skipped_arities():
    # A(2) and A(3) of t2 have 4^16 and 4^64 elements: skipped and counted
    out = run_cli("check-operad", "--monoid", str(CORPUS / "t2.json"), "--bound", "3")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()
    for name in ("unit law (inner)", "unit law (outer)", "v-action bimodule square"):
        assert f"PASS  {name}  [k <= 3; 2 skipped]" in rows
    assert "PASS  associativity  [1 shapes within bound 3; 426 skipped (non-enumerable domains)]" in rows
    assert "-- ALL PASS (6 checks)" in rows


def test_check_operad_bound_zero():
    # the unit lives in arity 1: the operads are built to arity 1, the check stays at 0
    for argv in (("--monoid", str(CORPUS / "z2.json")), ("--builtin", "additive_z2", "--named", "fass")):
        out = run_cli("check-operad", *argv, "--bound", "0")
        assert out.returncode == 0, out.stderr
        rows = out.stdout.splitlines()
        assert "PASS  unit law (outer)  [k <= 0]" in rows
        assert "PASS  associativity  [0 shapes within bound 0]" in rows


def test_cosimplicial_verify():
    out = run_cli("cosimplicial-verify", "--monoid", str(CORPUS / "z2.json"), "--levels", "3")
    assert out.returncode == 0
    assert "generic" in out.stdout


def test_delta_center_exit_codes():
    out = run_cli("delta-center", "--monoid", str(CORPUS / "z3.json"), "--delta", "const")
    assert out.returncode == 0
    assert "stabilized: True" in out.stdout
    out = run_cli("delta-center", "--monoid", str(CORPUS / "t2.json"), "--delta", "const", "--levels", "1")
    # at N = 1 the restriction to the unconstrained level is not bijective
    assert out.returncode == 1
    # the weights are built to the requested level
    for delta in ("const", "ordinals", "lax", "colax"):
        out = run_cli("delta-center", "--monoid", str(CORPUS / "z2.json"), "--delta", delta, "--levels", "8")
        assert out.returncode == 0, out.stderr
        assert "stabilized: True (from level 1)" in out.stdout


def test_delta_center_rejects_a_level_of_lazy_function_elements():
    """s3^7 has more points than the enumeration cap, so level 7 holds lazy
    function elements, which have no value to compare."""
    out = run_cli("delta-center", "--monoid", str(CORPUS / "s3.json"), "--levels", "7")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: level 7 of end(s3) holds lazy function elements, not values\n"


def test_tamarkin_subcommand():
    """The whole output of the four corpus runs: both functor files, with
    constant and with ordinal weights, at the default level 2 and computed
    at levels 5 and 9, where nothing changes."""
    runs = {
        ("id_bz2_functor.json", "id_*,id_*", "const"): (
            "tamarkin fiber of id_bz2 over (*,*,id_*,id_*) with constant weights\n"
            "families: 2\n"
            "stabilized: True (from level 1)\n"
        ),
        ("id_bz2_functor.json", "id_*,id_*", "ordinals"): (
            "tamarkin fiber of id_bz2 over (*,*,id_*,id_*) with ordinals weights\n"
            "families: 2\n"
            "stabilized: True (from level 1)\n"
        ),
        ("pair_bz2_functor.json", "u,w", "const"): (
            "tamarkin fiber of pair_bz2 over (0,1,u,w) with constant weights\n"
            "families: 0\n"
            "stabilized: True (from level 1)\n"
        ),
        ("pair_bz2_functor.json", "u,w", "ordinals"): (
            "tamarkin fiber of pair_bz2 over (0,1,u,w) with ordinals weights\n"
            "families: 2\n"
            "stabilized: True (from level 1)\n"
        ),
    }
    for (name, globe, delta), expected in runs.items():
        for levels in ((), ("--levels", "5"), ("--levels", "9")):
            out = run_cli("tamarkin", "--functor", str(CORPUS / name), "--delta", delta, "--globe", globe, *levels)
            assert (out.returncode, out.stdout, out.stderr) == (0, expected, ""), (name, delta, levels)


def test_a_value_category_breaking_an_identity_law_exits_2(tmp_path):
    path = _patched(tmp_path, "id_bz2_functor.json", lambda d: d["values"]["*"]["compose"].update({"id_* s": "id_*"}))
    out = run_cli("tamarkin", "--globe", "id_*,id_*", "--functor", path)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: bz2: left identity fails at s\n"
    assert out.stdout == ""


def test_a_missing_value_category_names_its_object(tmp_path):
    path = _patched(tmp_path, "pair_bz2_functor.json", lambda d: d["values"].pop("1"))
    out = run_cli("tamarkin", "--globe", "u,w", "--functor", path)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: cat_valued_functor: no value category for object '1'\n"
    assert out.stdout == ""


def test_trees_subcommands():
    out = run_cli("trees", "enumerate", "--leaves", "2")
    assert out.returncode == 0 and "(1->1; t=[1])" in out.stdout
    out = run_cli("trees", "prune", "--tree", "2>3:1,3")
    assert out.returncode == 0 and "pruned: (2->2; t=[1, 2])" in out.stdout
    out = run_cli(
        "trees", "fibers", "--source", "2>2:1,2", "--target", "2>3:1,3", "--sigma1", "1,3", "--sigma2", "1,2"
    )
    assert out.returncode == 0 and "height-1 leaf 2" in out.stdout


def test_two_operad_subcommands():
    out = run_cli("two-operad", "check", "--builtin", "bool_lattice", "--x", "1", "--leaves", "2")
    assert out.returncode == 0
    out = run_cli("two-operad", "end", "--builtin", "bool_lattice", "--x", "1", "--leaves", "2")
    assert out.returncode == 0 and "component of size 1" in out.stdout


def test_btree_subcommands():
    out = run_cli("btree", "contract", "--term", "w(w(l,l),l)")
    assert out.returncode == 0 and out.stdout.strip() == "w(l,l,l)"
    out = run_cli("btree", "enumerate", "--tree-kind", "btree", "--leaves", "2", "--max-vertices", "1")
    assert out.stdout.split() == ["w(l,l)", "b(l,l)"]


def test_input_errors_exit_2(tmp_path):
    missing = run_cli("center", "--monoid", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("center", "--monoid", str(bad))
    assert out.returncode == 2 and "error:" in out.stderr
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text(json.dumps({"kind": "mystery", "schema_version": 1}))
    out = run_cli("center", "--monoid", str(wrong_kind))
    assert out.returncode == 2


def test_malformed_documents_exit_2(tmp_path):
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    no_table = tmp_path / "no_table.json"
    no_table.write_text(
        json.dumps({"kind": "monoid", "schema_version": 1, "name": "m", "elements": ["e"], "unit": "e"})
    )
    for path, message in ((not_object, "not a JSON object"), (no_table, "missing field 'table'")):
        out = run_cli("center", "--monoid", str(path))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert message in out.stderr


def test_duoid_arrows_outside_the_instance_exit_2(tmp_path):
    good = json.loads((CORPUS / "duoid_v_bool_lattice.json").read_text())
    cases = [
        ({"mult0": "nope"}, "duoid mult0 'nope' is not an arrow"),
        ({"unit1": "0->1"}, "duoid unit1 '0->1' is not an arrow"),  # an arrow, but not v -> X
        ({"carrier": "2"}, "duoid carrier '2' is not an object"),
    ]
    for patch, message in cases:
        path = tmp_path / "duoid.json"
        path.write_text(json.dumps({**good, **patch}))
        out = run_cli("check-duoid", "--builtin", "bool_lattice", "--duoid", str(path))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert message in out.stderr


def test_operad_names_outside_the_instance_exit_2(tmp_path):
    good = json.loads((CORPUS / "fass_additive_z2.json").read_text())
    cases = [
        ("additive_z2", {"gamma": {**good["gamma"], "1;0": "nope"}}, "operad gamma '1;0' 'nope' is not an arrow"),
        ("additive_z2", {"components": {**good["components"], "1": "zz"}}, "operad component 1 'zz' is not an object"),
        ("additive_z2", {"unit": "nope"}, "operad unit 'nope' is not an arrow"),
        ("additive_z2", {"components": {n: "*" for n in ("0", "1", "3")}}, "operad table missing the component 2"),
        ("cartesian", {}, "names objects and arrows of a table instance"),
        ("additive_z3", {}, "operad over the instance 'additive_z2', not over the instance 'additive_z3'"),
    ]
    for builtin, patch, message in cases:
        path = tmp_path / "operad.json"
        path.write_text(json.dumps({**good, **patch}))
        out = run_cli("check-operad", "--builtin", builtin, "--operad", str(path), "--bound", "2")
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert message in out.stderr


def _patched(path, name, patch):
    """A copy of a corpus file with patch(doc) applied, written to path/name."""
    doc = json.loads((CORPUS / name).read_text())
    patch(doc)
    out = path / name
    out.write_text(json.dumps(doc))
    return str(out)


@pytest.mark.parametrize(
    "name, patch, argv, message",
    [
        ("z2.json", lambda d: d.update(elements="01"), ("center", "--monoid"), "field 'elements' is not a JSON array"),
        ("z2.json", lambda d: d["table"].update({"0": "01"}), ("center", "--monoid"), "monoid z2: malformed elements or table"),
        (
            "fass_additive_z2.json",
            lambda d: d.update(components=["*"]),
            ("check-operad", "--builtin", "additive_z2", "--bound", "3", "--operad"),
            "field 'components' is not a JSON object",
        ),
        (
            "id_bz2_functor.json",
            lambda d: d.update(functors=["id_*"]),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "field 'functors' is not a JSON object",
        ),
        (
            "id_bz2_functor.json",
            lambda d: d["functors"].update({"id_*": "id"}),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "bad functor table at 'id_*'",
        ),
        (
            "id_bz2_functor.json",
            lambda d: d["base"].update(objects="*"),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "category: field 'objects' is not a JSON array",
        ),
        (
            "id_bz2_functor.json",
            lambda d: d["base"]["compose"].update({"id_* id_*": 5}),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "one: composite at (id_*, id_*) is 5, not an arrow",
        ),
        (
            "fass_additive_z2.json",
            lambda d: d["gamma"].update({"1;1": ["a"]}),
            ("check-operad", "--builtin", "additive_z2", "--bound", "2", "--operad"),
            "operad gamma '1;1' ['a'] is not an arrow",
        ),
        ("bool_lattice.json", lambda d: d.update(e=0), ("check-duoidal", "--instance"), "field 'e' is not a JSON string"),
        (
            "duoid_v_bool_lattice.json",
            lambda d: d.update(mult0=["x"]),
            ("check-duoid", "--builtin", "bool_lattice", "--duoid"),
            "field 'mult0' is not a JSON string",
        ),
        ("z2.json", lambda d: d.update(elements=[0, 1]), ("center", "--monoid"), "monoid: field 'elements[0]' is not a JSON string"),
        (
            "id_bz2_functor.json",
            lambda d: d["base"]["arrows"][0].update(tgt=1),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "category: field 'arrows[0].tgt' is not a JSON string",
        ),
        (
            "pair_bz2_functor.json",
            lambda d: d.update(nmae=d.pop("name")),
            ("tamarkin", "--globe", "u,w", "--functor"),
            "cat_valued_functor: unknown field 'nmae'",
        ),
    ],
)
def test_wrong_json_types_exit_2(tmp_path, name, patch, argv, message):
    out = run_cli(*argv, _patched(tmp_path, name, patch))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("drop", [lambda table: table["1"].pop("0"), lambda table: table.pop("1")], ids=["entry", "row"])
def test_a_monoid_table_missing_an_entry_names_the_pair(tmp_path, drop):
    out = run_cli("center", "--monoid", _patched(tmp_path, "z2.json", lambda d: drop(d["table"])))
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr == "error: monoid z2: table has no entry at ('1', '0')\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("tamarkin", "--functor", str(CORPUS / "id_bz2_functor.json"), "--globe", "nope,id_*"),
            "globe arrows 'nope', 'id_*' not in the base category",
        ),
        (
            ("tamarkin", "--functor", str(CORPUS / "pair_bz2_functor.json"), "--globe", "id_0,u"),
            "globe arrows must be parallel",
        ),
        (
            ("check-duoid", "--builtin", "cartesian", "--duoid", str(CORPUS / "duoid_v_bool_lattice.json")),
            "a duoid document names objects and arrows of a table instance",
        ),
    ],
)
def test_a_bad_globe_or_a_duoid_of_another_instance_exits_2_with_one_line(argv, message):
    out = run_cli(*argv)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr == f"error: {message}\n"


def _deep_term(depth):
    """w(l,w(l,...w(l,l)...)) with depth white vertices."""
    return "w(l," * depth + "l" + ")" * depth


def _repeat_element(doc):
    doc["elements"].append("1")


def _nonassociative(doc):
    # (1 * 1) * 1 = 2 * 1 = 1 but 1 * (1 * 1) = 1 * 2 = 2
    doc.update(name="nonassoc", elements=["0", "1", "2"])
    doc["table"] = {
        "0": {"0": "0", "1": "1", "2": "2"},
        "1": {"0": "1", "1": "2", "2": "2"},
        "2": {"0": "2", "1": "1", "2": "2"},
    }


@pytest.mark.parametrize(
    "name, patch, argv, code, message",
    [
        (
            "id_bz2_functor.json",
            lambda d: d["functors"]["id_*"]["arrows"].update(s="id_*"),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            2,
            "error: id_bz2: identities not preserved at *",
        ),
        ("z2.json", _repeat_element, ("center", "--monoid"), 2, "error: z2: an element is listed twice"),
        ("z2.json", _repeat_element, ("check-operad", "--monoid"), 2, "error: z2: an element is listed twice"),
        ("z2.json", _repeat_element, ("delta-center", "--monoid"), 2, "error: z2: an element is listed twice"),
        (
            "bool_lattice.json",
            lambda d: d["base"]["objects"].append("1"),
            ("check-duoidal", "--instance"),
            2,
            "error: bool_lattice: an object or arrow name is listed twice",
        ),
        (
            "bool_lattice.json",
            lambda d: d["base"]["arrows"].append(d["base"]["arrows"][0]),
            ("check-duoidal", "--instance"),
            2,
            "error: bool_lattice: an object or arrow name is listed twice",
        ),
        (None, None, ("btree", "contract", "--term", _deep_term(5000)), 0, ""),
        (None, None, ("btree", "contract", "--term", _deep_term(200)), 0, ""),
        ("z2.json", _nonassociative, ("center", "--monoid"), 2, "error: nonassoc: associativity fails at ('1', '1', '1')"),
        (None, None, ("btree", "contract", "--term", "w(x)"), 2, "error: unexpected character 'x' at 2"),
        (None, None, ("btree", "contract", "--term", "w(l)"), 2, "error: binary trees need white/black vertices of valence 1 or 3"),
        (None, None, (*_TABLE_SAMPLE, "x:-1"), 2, "error: --sample 'x:-1': the size must be a non-negative integer"),
        (None, None, (*_TABLE_SAMPLE, "x:2"), 2, f"error: {_LISTED}"),
        (None, None, _TABLE_SAMPLE, 2, f"error: {_LISTED}"),
    ],
)
def test_bad_input_exits_2_with_one_line_and_a_deep_term_contracts(tmp_path, name, patch, argv, code, message):
    if name is not None:
        argv = (*argv, _patched(tmp_path, name, patch))
    out = run_cli(*argv)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    if code:
        assert out.stderr.startswith(message) and out.stderr.count("\n") == 1, out.stderr
        assert out.stdout == ""
    else:  # the white chain contracts to one white corolla
        depth = argv[-1].count("w")
        assert out.stderr == "" and out.stdout == "w(" + ",".join(["l"] * (depth + 1)) + ")\n"


def _add_key(table, key):
    """Give table an extra key, valued like its first entry."""
    table[key] = next(iter(table.values()))


DUOIDAL = ("check-duoidal", "--instance")
OPERAD = ("check-operad", "--builtin", "additive_z2", "--bound", "2", "--operad")
MONOID = ("center", "--monoid")


@pytest.mark.parametrize(
    "name, patch, argv, message",
    [
        ("bool_lattice.json", lambda d: _add_key(d["box0_arrows"], "x"), DUOIDAL, "box0_arrows key 'x' does not"),
        ("bool_lattice.json", lambda d: _add_key(d["interchange"], "0 1 1"), DUOIDAL, "key '0 1 1' does not name four"),
        ("bool_lattice.json", lambda d: _add_key(d["base"]["compose"], "s"), DUOIDAL, "compose key 's' does not"),
        ("bool_lattice.json", lambda d: _add_key(d["base"]["identities"], "2"), DUOIDAL, "identities key '2' does not"),
        ("fass_additive_z2.json", lambda d: _add_key(d["components"], "-1"), OPERAD, "'-1' is not an arity"),
        ("fass_additive_z2.json", lambda d: _add_key(d["gamma"], "1;x"), OPERAD, "'x' is not an arity"),
        ("fass_additive_z2.json", lambda d: _add_key(d["gamma"], "2;1"), OPERAD, "gamma '2;1' does not list 2 arities"),
        ("z2.json", lambda d: _add_key(d["table"], "2"), MONOID, "monoid z2: table key '2' does not name an element"),
        ("z2.json", lambda d: _add_key(d["table"]["0"], "2"), MONOID, "table row '0' key '2' does not name an element"),
        (
            "id_bz2_functor.json",
            lambda d: _add_key(d["values"], "x"),
            ("tamarkin", "--globe", "id_*,id_*", "--functor"),
            "values key 'x' does not name an object",
        ),
        (
            "pair_bz2_functor.json",
            lambda d: d["functors"]["u"]["objects"].update(nothing="*"),
            ("tamarkin", "--globe", "u,w", "--functor"),
            "functor 'u' objects key 'nothing' does not name an object",
        ),
        (
            "pair_bz2_functor.json",
            lambda d: _add_key(d["functors"]["w"]["arrows"], "t"),
            ("tamarkin", "--globe", "u,w", "--functor"),
            "functor 'w' arrows key 't' does not name an arrow",
        ),
        ("fass_additive_z2.json", lambda d: d.update(components={}), OPERAD, "one_operad: field 'components' lists no arity"),
    ],
)
def test_table_keys_that_name_nothing_exit_2(tmp_path, name, patch, argv, message):
    out = run_cli(*argv, _patched(tmp_path, name, patch))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr
    assert out.stdout == ""


def _write(path, name, text):
    out = path / name
    out.write_text(text)
    return str(out)


@pytest.mark.parametrize(
    "make, argv, message",
    [
        (lambda p: _write(p, "top.json", "[1]"), MONOID, "the top level is not a JSON object"),
        (lambda p: _write(p, "kind.json", '{"kind": "nope"}'), MONOID, "unknown kind 'nope'"),
        (lambda p: str(CORPUS / "arrow_category.json"), ("check-operad", "--monoid"), "expected kind 'monoid', found 'category'"),
        (lambda p: _patched(p, "z2.json", lambda d: d.update(schema_version=2)), MONOID, "unsupported schema_version 2"),
        (
            lambda p: _patched(p, "fass_additive_z2.json", lambda d: d["gamma"].pop("2;1,1")),
            OPERAD,
            "operad table missing the shape (2; (1, 1))",
        ),
    ],
)
def test_loader_rejections_exit_2_with_one_line(tmp_path, make, argv, message):
    out = run_cli(*argv, make(tmp_path))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr


@pytest.mark.parametrize(
    "field, key, value, message",
    [
        ("box0_objects", "0 1", "2", "box0 object table not total at (0, 1)"),
        ("box1_objects", "1 1", "0", "box1 not strictly unital at 1"),
        ("box1_arrows", "0->1 0->1", "1->1", "box1 arrow table ill-typed at (0->1, 0->1)"),
        ("interchange", "0 1 1 0", "1->1", "interchange ill-typed at ('0', '1', '1', '0')"),
        ("mu_v", None, "0->1", "mu_v ill-typed"),
    ],
)
def test_corrupt_instance_tables_exit_2(tmp_path, field, key, value, message):
    doc = json.loads((CORPUS / "bool_lattice.json").read_text())
    if key is None:
        doc[field] = value
    else:
        doc[field][key] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = run_cli("check-duoidal", "--instance", str(path))
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: bool_lattice: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trees", "fibers"), "trees fibers needs --source"),
        (("trees", "prune"), "trees prune needs --tree"),
        (("btree", "contract"), "btree contract needs --term"),
        (("two-operad", "end"), "two-operad end needs --x"),
        (("two-operad", "end", "--x", "7"), "--x '7' is not a listed object of the instance bool_lattice"),
        (("two-operad", "check", "--builtin", "cartesian", "--x", "a"), "--x 'a' is not a listed object"),
        (("two-operad", "check", "--cap", "0"), "the element tuple cap must be at least 1, got 0"),
        ((*_SAMPLE, "x:-1"), "--sample 'x:-1': the size must be a non-negative integer"),
        ((*_SAMPLE, "x:abc"), "--sample 'x:abc': the size must be a non-negative integer"),
    ],
)
def test_actions_without_their_argument_exit_2(argv, message):
    out = run_cli(*argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr


_SQUARE = ("--source", "2>2:1,2", "--target", "2>3:1,3")


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SQUARE + ("--sigma1", "1,3"), "component length mismatch"),
        (_SQUARE + ("--sigma1", "1,9", "--sigma2", "1,2"), "sigma1 out of range"),
        (_SQUARE + ("--sigma1", "1,3", "--sigma2", "1,3"), "sigma2 out of range"),
        (_SQUARE + ("--sigma1", "3,1", "--sigma2", "1,2"), "sigma1 must be order preserving"),
        (_SQUARE + ("--sigma1", "1,3", "--sigma2", "2,1"), "square does not commute"),
        (
            ("--source", "2>1:1,1", "--target", "2>1:1,1", "--sigma1", "1", "--sigma2", "2,1"),
            "sigma2 must be order preserving on each fiber",
        ),
        (_SQUARE + ("--sigma1", "1,x", "--sigma2", "1,2"), "--sigma1 must be comma-separated integers"),
        (_SQUARE + ("--sigma1", "1,,3", "--sigma2", "1,2"), "--sigma1 must be comma-separated integers"),
        (_SQUARE + ("--sigma1", "1,3", "--sigma2", "1,y"), "--sigma2 must be comma-separated integers"),
    ],
)
def test_trees_fibers_rejects_a_bad_two_map_with_one_line(argv, message):
    out = run_cli("trees", "fibers", *argv)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr == f"error: {message}\n"


_SIGMA = ("--sigma1", "1,3", "--sigma2", "1,2")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("prune", "--tree", "2>x:1"), "tree"),
        (("prune", "--tree", "x>2:1,2"), "tree"),
        (("prune", "--tree", "2:1,2"), "tree"),
        (("prune", "--tree", "2>2:1,,2"), "tree"),
        (("prune", "--tree", "2>2:1,2,"), "tree"),
        (("fibers", "--source", "2>2:1,y", "--target", "2>3:1,3") + _SIGMA, "source"),
        (("fibers", "--source", "2>2:1,2", "--target", "2>3:,1,3") + _SIGMA, "target"),
    ],
)
def test_a_two_tree_with_a_bad_entry_names_its_flag(argv, flag):
    out = run_cli("trees", *argv)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr == f"error: --{flag} must be n>m:i1,...,in with integer entries\n"


def test_a_two_tree_with_no_images_is_read():
    out = run_cli("trees", "prune", "--tree", "0>0:")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("pruned: (0->0; t=[])\n")


def test_negative_bounds_exit_2():
    for argv in (("trees", "enumerate", "--leaves", "-3"), ("btree", "enumerate", "--leaves", "-1")):
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == "", (argv, out.stdout)
        assert "must be non-negative" in out.stderr


def test_byte_identical_reruns():
    for argv in (
        ("check-duoidal", "--builtin", "bool_lattice"),
        ("center", "--monoid", str(CORPUS / "s3.json")),
        ("trees", "enumerate", "--leaves", "3"),
        ("delta-center", "--monoid", str(CORPUS / "z3.json"), "--delta", "lax"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 190 kB, far past a pipe's buffer: the writer is still writing when the pipe closes
        (("trees", "enumerate", "--leaves", "9"), 1),
        # one write at the end of the check, after the pipe has closed
        (("check-operad", "--builtin", "additive_z2", "--named", "fass", "--bound", "3"), 0),
    ],
)
def test_a_closed_pipe_ends_the_output_without_a_traceback(argv, lines_read):
    cmd = [sys.executable, "-m", "duoidal_kit.cli", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(os.environ))
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_json_format_and_out_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("--format", "json", "--out", str(target), "check-duoidal", "--builtin", "bool_cartesian")
    assert out.returncode == 0
    doc = json.loads(target.read_text())
    assert doc["all_passed"] is True and doc["items"]


@pytest.mark.parametrize("argv", [("--builtin", name) for name in ("bool_lattice", "cartesian", "discrete_z3")])
def test_passing_json_rows_carry_an_empty_witness(argv):
    out = run_cli("--format", "json", "check-duoidal", *argv)
    assert out.returncode == 0, out.stderr
    items = json.loads(out.stdout)["items"]
    assert len(items) == 11 and all(item["passed"] for item in items)
    assert [item["witness"] for item in items] == [""] * 11


def test_selftest_seeded():
    # a stripped env keeps an ambient DUOIDAL_KIT_SEED or PYTHONHASHSEED out of the child,
    # so the two runs get different hash seeds and the comparison checks hash-order independence
    env = {"DUOIDAL_KIT_SEED": "3", "PATH": "/usr/bin:/bin"}
    out = run_cli("selftest", env=env)
    assert out.returncode == 0, out.stderr
    assert "(seed 3)" in out.stdout
    again = run_cli("selftest", env=env)
    assert out.stdout == again.stdout


# The table-instance commands, their stdout in tests/golden/<name>.txt and
# their exit codes in tests/golden/exit_codes.json.  `python tests/test_cli.py`
# records them again from the current code.
GOLDEN = ROOT / "tests" / "golden"
BOOL_LATTICE = str(CORPUS / "bool_lattice.json")
GOLDEN_RUNS = {
    **{
        f"check_duoidal_{name}": ("check-duoidal", "--builtin", name)
        for name in ("bool_lattice", "bool_cartesian", "additive_z2", "additive_z3", "discrete_z3")
    },
    "check_duoidal_file": ("check-duoidal", "--instance", BOOL_LATTICE),
    "check_duoid_file": ("check-duoid", "--instance", BOOL_LATTICE),
    "check_duoid_file_duoid": (
        "check-duoid", "--instance", BOOL_LATTICE, "--duoid", str(CORPUS / "duoid_v_bool_lattice.json")
    ),
    **{
        f"check_operad_{stem}": (
            "check-operad", "--builtin", "additive_z2", "--operad", str(CORPUS / f"{stem}.json"), "--bound", "3"
        )
        for stem in ("fass_additive_z2", "fass_corrupt_additive_z2")
    },
    "two_operad_check_additive_z2": ("two-operad", "check", "--builtin", "additive_z2", "--x", "*", "--leaves", "2"),
    "two_operad_check_bool_lattice": ("two-operad", "check", "--builtin", "bool_lattice", "--x", "1", "--leaves", "2"),
    **{
        f"two_operad_check_additive_z2_cap{cap}": (
            "two-operad", "check", "--builtin", "additive_z2", "--x", "*", "--leaves", "2", "--cap", cap
        )
        for cap in ("1", "64")
    },
    "two_operad_check_additive_z2_json": (
        "--format", "json", "two-operad", "check", "--builtin", "additive_z2", "--x", "*", "--leaves", "2"
    ),
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_table_instance_commands_match_their_golden_output(name):
    out = run_cli(*GOLDEN_RUNS[name])
    assert out.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[name], out.stderr
    assert out.stdout == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in GOLDEN_RUNS.items():
        out = run_cli(*argv)
        (GOLDEN / f"{name}.txt").write_text(out.stdout)
        codes[name] = out.returncode
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
