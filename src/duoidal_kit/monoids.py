"""Finite monoids: the corpus used throughout the tests and CLI examples."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .report import skey


@dataclass(frozen=True)
class Monoid:
    name: str
    elements: tuple
    unit: object
    table: dict = field(compare=False, hash=False, repr=False)

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError(f"{self.name}: an element is listed twice")
        if self.unit not in elems:
            raise ValueError(f"{self.name}: unit not an element")
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] not in elems:
                    raise ValueError(f"{self.name}: table not closed at {(a, b)}")
        for a in self.elements:
            if self.table[(self.unit, a)] != a or self.table[(a, self.unit)] != a:
                raise ValueError(f"{self.name}: unit law fails at {a}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    left = self.table[(self.table[(a, b)], c)]
                    right = self.table[(a, self.table[(b, c)])]
                    if left != right:
                        raise ValueError(f"{self.name}: associativity fails at {(a, b, c)}")

    def mult(self, a, b):
        return self.table[(a, b)]

    def is_commutative(self) -> bool:
        return all(self.mult(a, b) == self.mult(b, a) for a in self.elements for b in self.elements)

    def center(self) -> tuple:
        """Brute-force center: elements commuting with everything."""
        zs = [z for z in self.elements if all(self.mult(z, m) == self.mult(m, z) for m in self.elements)]
        return tuple(sorted(zs, key=skey))


def monoid_from_fn(name, elements, unit, op) -> Monoid:
    elements = tuple(sorted(elements, key=skey))
    table = {(a, b): op(a, b) for a in elements for b in elements}
    return Monoid(name, elements, unit, table)


class FreeWordMonoid:
    """Formal words over named generators; used as a generic probe carrier.

    Never enumerated: elements are tuples of generator names, the unit is the
    empty word and multiplication is concatenation.
    """

    name = "free-words"
    elements = None
    unit = ()

    def mult(self, a, b):
        return tuple(a) + tuple(b)


def cyclic(n: int) -> Monoid:
    return monoid_from_fn(f"z{n}", range(n), 0, lambda a, b: (a + b) % n)


def direct_product(name, m1: Monoid, m2: Monoid) -> Monoid:
    elems = [(a, b) for a in m1.elements for b in m2.elements]
    return monoid_from_fn(
        name, elems, (m1.unit, m2.unit), lambda x, y: (m1.mult(x[0], y[0]), m2.mult(x[1], y[1]))
    )


def symmetric3() -> Monoid:
    perms = list(itertools.permutations((0, 1, 2)))
    labels = {p: "".join(str(i) for i in p) for p in perms}
    elems = [labels[p] for p in perms]
    inv = {v: k for k, v in labels.items()}

    def op(a, b):
        pa, pb = inv[a], inv[b]
        return labels[tuple(pa[pb[i]] for i in range(3))]

    return monoid_from_fn("s3", elems, labels[(0, 1, 2)], op)


def full_transformation2() -> Monoid:
    """All maps of a 2-point set under composition; center is {id}."""
    maps = {"id": (0, 1), "sw": (1, 0), "c0": (0, 0), "c1": (1, 1)}
    inv = {v: k for k, v in maps.items()}

    def op(a, b):
        fa, fb = maps[a], maps[b]
        return inv[(fb[fa[0]], fb[fa[1]])]

    return monoid_from_fn("t2", maps, "id", op)


def left_zero_plus_unit(n: int, name: str) -> Monoid:
    elems = ["1"] + [f"p{i}" for i in range(n)]

    def op(a, b):
        if a == "1":
            return b
        return a

    return monoid_from_fn(name, elems, "1", op)


def right_zero_plus_unit(n: int, name: str) -> Monoid:
    elems = ["1"] + [f"q{i}" for i in range(n)]

    def op(a, b):
        if b == "1":
            return a
        return b

    return monoid_from_fn(name, elems, "1", op)


def saturating_add(n: int) -> Monoid:
    return monoid_from_fn(f"cap{n}", range(n + 1), 0, lambda a, b: min(a + b, n))


def with_zero(m: Monoid, name: str) -> Monoid:
    elems = list(m.elements) + ["zero"]

    def op(a, b):
        if a == "zero" or b == "zero":
            return "zero"
        return m.mult(a, b)

    return monoid_from_fn(name, elems, m.unit, op)


def bool_and() -> Monoid:
    return monoid_from_fn("bool_and", (0, 1), 1, lambda a, b: a & b)


def semilattice4() -> Monoid:
    order = {"1": 3, "a": 1, "b": 2, "0": 0}
    meet = {
        ("a", "b"): "0",
        ("b", "a"): "0",
    }

    def op(x, y):
        if x == y:
            return x
        if (x, y) in meet:
            return meet[(x, y)]
        return x if order[x] < order[y] else y

    return monoid_from_fn("semilattice4", ("1", "a", "b", "0"), "1", op)


def nilpotent3() -> Monoid:
    def op(a, b):
        if a == "1":
            return b
        if b == "1":
            return a
        return "0"

    return monoid_from_fn("nilpotent3", ("1", "a", "0"), "1", op)


def monoid_corpus() -> list[Monoid]:
    """The fixed corpus: >= 20 monoids of order <= 6, with t2 and every
    abelian group of order <= 6."""
    z2 = cyclic(2)
    corpus = [
        monoid_from_fn("trivial", (0,), 0, lambda a, b: 0),
        z2,
        cyclic(3),
        cyclic(4),
        cyclic(5),
        cyclic(6),
        direct_product("v4", z2, z2),
        symmetric3(),
        full_transformation2(),
        bool_and(),
        left_zero_plus_unit(2, "leftzero3"),
        right_zero_plus_unit(2, "rightzero3"),
        saturating_add(1),
        saturating_add(2),
        saturating_add(3),
        with_zero(cyclic(2), "z2_zero"),
        with_zero(cyclic(3), "z3_zero"),
        semilattice4(),
        nilpotent3(),
        direct_product("z2xbool", z2, bool_and()),
    ]
    assert len({m.name for m in corpus}) == len(corpus)
    assert all(len(m.elements) <= 6 for m in corpus)
    return corpus
