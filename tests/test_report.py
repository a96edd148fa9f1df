import pytest

from duoidal_kit.report import CheckReport, Memo, SizeError, evaluate


def _eq(seen):
    """Equality that records each case it decides and raises SizeError on a
    case whose left side is None."""

    def eq(lhs, rhs):
        seen.append((lhs, rhs))
        if lhs is None:
            raise SizeError("too large")
        return lhs == rhs

    return eq


def test_evaluate_returns_the_last_failing_label_and_evaluates_every_case():
    seen = []
    cases = [("a", 1, 1), ("b", 1, 2), ("c", 3, 3), ("d", 4, 5), ("e", 6, 6)]
    assert evaluate(iter(cases), _eq(seen)) == ("d", 5, 0)
    assert seen == [(lhs, rhs) for _, lhs, rhs in cases]  # cases after a failure are evaluated too


def test_evaluate_counts_size_errors_as_skipped_not_passed():
    seen = []
    cases = [(0, None, 1), (1, 2, 2), (2, None, 2), (3, 3, 4), (4, None, 0)]
    assert evaluate(cases, _eq(seen)) == (3, 2, 3)
    assert len(seen) == 5
    # only skips: nothing failed, nothing evaluated, and the row says so
    assert evaluate([("x", None, 1)], _eq([])) == (None, 0, 1)
    assert evaluate([], _eq([])) == (None, 0, 0)


@pytest.mark.parametrize(
    "cases, passed, scope, witness",
    [
        ([((1, 2), 1, 1)], True, "k <= 2", ""),
        ([((1, 2), 1, 0), ((3, 4), 2, 0), ((5, 6), 2, 2)], False, "k <= 2", "(3, 4)"),
        ([((1, 2), None, 0), ((3, 4), 2, 2)], True, "k <= 2; 1 skipped", ""),
    ],
)
def test_add_law_formats_the_witness_and_counts_skips(cases, passed, scope, witness):
    rep = CheckReport("t")
    rep.add_law("law", cases, _eq([]), "k <= 2")
    (item,) = rep.items
    assert (item.name, item.passed, item.scope, item.witness) == ("law", passed, scope, witness)


def test_add_law_without_scope_or_witness():
    rep = CheckReport("t")
    rep.add_law("unscoped", [("x", None, 1), ("y", 1, 2)], _eq([]), witness=None)
    (item,) = rep.items
    assert (item.passed, item.scope, item.witness) == (False, "1 skipped", "")
    assert "witness" not in rep.render()


def test_add_law_adds_cases_dropped_before_evaluation_to_the_skips():
    rep = CheckReport("t")
    rep.add_law("law", [("x", None, 1), ("y", 1, 1)], _eq([]), "k <= 2", skipped=2)
    rep.add_law("law", [], _eq([]), skipped=1)
    assert [(item.passed, item.scope) for item in rep.items] == [(True, "k <= 2; 3 skipped"), (True, "1 skipped")]


def test_memo_computes_each_key_once_and_stores_falsy_values():
    calls = []

    def fn(key):
        calls.append(key)
        if key == "bad":
            raise ValueError(key)
        return {"zero": 0, "none": None}.get(key, key)

    memo = Memo(fn)
    for _ in range(2):
        assert (memo["zero"], memo["none"], memo[3]) == (0, None, 3)
    assert calls == ["zero", "none", 3]
    for _ in range(2):
        with pytest.raises(ValueError):
            memo["bad"]
    assert "bad" not in memo and calls.count("bad") == 2
    assert memo == {"zero": 0, "none": None, 3: 3}
