"""Check reports shared by all axiom checkers and the CLI, the one rule that
decides a report row from its cases, the size guard that every
enumeration raises, and the one cache type."""

from __future__ import annotations

from dataclasses import dataclass, field


class SizeError(RuntimeError):
    """Raised when an enumeration would exceed its size guard."""


class Memo(dict):
    """A dict that fills a missing key with fn(key): every get-or-compute
    cache is one, owned by an object that lives for one check or run.  A
    key whose fn raises is not stored."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def evaluate(cases, eq):
    """Decide one law over its cases: (failing, evaluated, skipped).

    `cases` yields (label, lhs, rhs), and the law holds at a case when
    eq(lhs, rhs) is true.  Every case is evaluated, so the counts cover the
    law's whole scope.  `failing` is the label of the last case where the law
    fails, or None if it holds everywhere; a case whose eq raises `SizeError`
    is counted as skipped, never as evaluated.
    """
    failing = None
    evaluated = skipped = 0
    for label, lhs, rhs in cases:
        try:
            ok = eq(lhs, rhs)
        except SizeError:
            skipped += 1
            continue
        evaluated += 1
        if not ok:
            failing = label
    return failing, evaluated, skipped


@dataclass
class CheckItem:
    name: str
    passed: bool
    scope: str = ""
    witness: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.name}"
        if self.scope:
            line += f"  [{self.scope}]"
        if self.witness and not self.passed:
            line += f"  witness: {self.witness}"
        return line


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, name: str, passed: bool, scope: str = "", witness: str = "") -> None:
        self.items.append(CheckItem(name, passed, scope, witness))

    def add_law(self, name: str, cases, eq, scope: str = "", witness=repr, skipped: int = 0) -> None:
        """A row deciding one law by `evaluate`: a failing row's witness is
        `witness` of the failing label (none if `witness` is None), and the
        skipped cases are counted in the scope: those `evaluate` skips plus
        the `skipped` ones the caller dropped before evaluation."""
        failing, _, evaluate_skipped = evaluate(cases, eq)
        skipped += evaluate_skipped
        if skipped:
            scope = f"{scope}; {skipped} skipped" if scope else f"{skipped} skipped"
        self.add(name, failing is None, scope, witness(failing) if failing is not None and witness else "")

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        lines.extend(item.render() for item in self.items)
        verdict = "ALL PASS" if self.all_passed else "FAILURES PRESENT"
        lines.append(f"-- {verdict} ({len(self.items)} checks)")
        return "\n".join(lines)


def skey(x):
    """Total deterministic sort key over the mixed values used as elements."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, len(x), tuple(skey(v) for v in x))
    if isinstance(x, frozenset):
        return (4, len(x), tuple(sorted(skey(v) for v in x)))
    return (5, repr(x))


def sorted_elements(xs):
    return sorted(xs, key=skey)
