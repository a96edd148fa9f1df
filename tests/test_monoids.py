import pytest

from duoidal_kit.monoids import Monoid

Z2 = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
# 0 is the unit, and (1 * 1) * 1 = 2 * 1 = 1 but 1 * (1 * 1) = 1 * 2 = 2
NONASSOC = {
    **{("0", x): x for x in "012"},
    **{(x, "0"): x for x in "012"},
    ("1", "1"): "2",
    ("1", "2"): "2",
    ("2", "1"): "1",
    ("2", "2"): "2",
}


@pytest.mark.parametrize(
    "elements, unit, table, message",
    [
        (("0", "1"), "2", Z2, "m: unit not an element"),
        (("0", "1"), "1", Z2, "m: unit law fails at 0"),
        (("0", "1", "2"), "0", NONASSOC, "m: associativity fails at ('1', '1', '1')"),
    ],
)
def test_a_table_that_breaks_a_monoid_law_is_rejected(elements, unit, table, message):
    with pytest.raises(ValueError) as exc:
        Monoid("m", elements, unit, table)
    assert str(exc.value) == message
