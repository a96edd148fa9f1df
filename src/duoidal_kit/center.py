"""Weighted totalization of cosimplicial objects, centers, and the duoid
structure carried by the constant-weight center.

The end over the simplex category is computed over a truncation: families
(x_n)_{n <= N} compatible with the generating cofaces and codegeneracies,
fiberwise in instances whose objects are globe-indexed.  A stabilization
flag compares the result at N with the result at N - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .duoidal import Duoid, chain, check_duoid_axioms
from .operads import (
    CosimplicialObject,
    MultOperad,
    codegeneracy,
    coface,
    cosimplicial_from_multiplicative,
    intern,
    multiplicative_from_k_monoid,
)
from .report import SizeError, sorted_elements


class InternalConsistencyError(RuntimeError):
    """A construction the theory guarantees failed; indicates a bug."""


def _weights(name, N, level, coface, codegeneracy) -> CosimplicialObject:
    """A weight system: a cosimplicial finite set whose maps are dicts
    point -> point, so it lives in no duoidal instance (D is None)."""
    return CosimplicialObject(
        None,
        {n: level(n) for n in range(N + 2)},
        {(n, i): coface(n, i) for n in range(N + 1) for i in range(n + 2)},
        {(n, i): codegeneracy(n, i) for n in range(N + 1) for i in range(n + 1)},
        N,
        name,
    )


def constant_weights(N: int = 6) -> CosimplicialObject:
    return _weights("constant", N, lambda n: ("*",), lambda n, i: {"*": "*"}, lambda n, i: {"*": "*"})


def _ordinal_level(n):
    return tuple(range(n + 1))


def _ordinal_coface(n, i):
    return {k: (k if k < i else k + 1) for k in range(n + 1)}


def _ordinal_codegeneracy(n, i):
    return {k: (k if k <= i else k - 1) for k in range(n + 2)}


def ordinal_weights(N: int = 6) -> CosimplicialObject:
    """delta(n) = {0..n} with the standard ordinal action."""
    return _weights("ordinals", N, _ordinal_level, _ordinal_coface, _ordinal_codegeneracy)


def reversed_ordinal_weights(N: int = 6) -> CosimplicialObject:
    """The ordinal weights conjugated by index reversal on every level."""

    def coface(n, i):
        base = _ordinal_coface(n, i)
        return {k: (n + 1) - base[n - k] for k in range(n + 1)}

    def codegeneracy(n, i):
        base = _ordinal_codegeneracy(n, i)
        return {k: n - base[(n + 1) - k] for k in range(n + 2)}

    return _weights("ordinals-reversed", N, _ordinal_level, coface, codegeneracy)


@dataclass
class TotResult:
    weights: str
    N: int
    families: dict  # fiber key -> tuple of families; family[n] = tuple over delta(n)
    by_level: dict  # fiber key -> tuple over k <= N of family tuples at level k
    stabilized: bool  # restriction Tot_N -> Tot_{N-1} is a bijection
    stabilized_from: int | None  # least k >= 1 with all later restrictions bijective

    def family_count(self):
        return sum(len(v) for v in self.families.values())


_FREE_CAP = 4096  # the most choices enumerated for the free weight slots of one family


def _families_at(D, X: CosimplicialObject, delta: CosimplicialObject, N: int, key):
    """Families at every truncation level k <= N over one fiber key, each a
    tuple over k of tuples of point ids of X's pools, one per point of
    delta(k).  Each weight map is read once per (n, i) as a list of
    positions, and the images of the points from X's memos, which outlive
    this call."""
    cofaces, codegeneracies = X.coface_images, X.codegeneracy_images

    def pool_ids(n):
        pool = X.pools[n, key]
        return [intern(pool, x) for x in D.fiber(X.level(n), key)]

    fams = [(choice,) for choice in itertools.product(pool_ids(0), repeat=len(delta.level(0)))]
    snapshots = [tuple(fams)]
    for n in range(N):
        pts, next_pts = delta.level(n), delta.level(n + 1)
        here, there = ({p: j for j, p in enumerate(ps)} for ps in (pts, next_pts))
        d_pos = [(i, [there[delta.d(n, i)[u]] for u in pts]) for i in range(n + 2)]
        s_pos = [(i, [here[delta.s(n, i)[w]] for w in next_pts]) for i in range(n + 1)]
        free = [w for w in range(len(next_pts)) if all(w not in ws for _, ws in d_pos)]
        choices = None  # the free slots' fillings, listed when a family first needs them
        next_fams = []
        for fam in fams:
            xn = fam[n]
            forced = [None] * len(next_pts)
            for i, ws in d_pos:
                for x, w in zip(xn, ws):
                    val = cofaces[n, i, key, x]
                    if forced[w] is None:
                        forced[w] = val
                    elif forced[w] != val:
                        break
                else:
                    continue
                break  # two cofaces disagree on a point: no family extends fam
            else:
                if choices is None:
                    pool = pool_ids(n + 1) if free else ()
                    if free and len(pool) ** len(free) > _FREE_CAP:
                        raise SizeError("free weight slots exceed the enumeration cap")
                    choices = list(itertools.product(pool, repeat=len(free)))
                for extra in choices:
                    for w, x in zip(free, extra):
                        forced[w] = x
                    if all(codegeneracies[n, i, key, x] == xn[u] for i, us in s_pos for x, u in zip(forced, us)):
                        next_fams.append(fam + (tuple(forced),))
        fams = next_fams
        snapshots.append(tuple(fams))
    return snapshots


def _restriction_bijective(later, earlier, k):
    prefixes = [fam[: k + 1] for fam in later]
    return len(set(prefixes)) == len(later) and set(prefixes) == set(earlier)


def totalize(D, X: CosimplicialObject, delta: CosimplicialObject, N: int = 3, keys=None) -> TotResult:
    """The truncated end of X weighted by delta, with stabilization flags.

    `stabilized` records whether the restriction from level N to level N - 1
    is a bijection; `stabilized_from` is the least k >= 1 from which every
    later restriction is bijective (None when the last step still moved).
    Globe-indexed instances compute fiberwise; `keys` restricts the fibers.
    The families are found and restricted as tuples of X's point ids and
    decoded to values once, at the end.  X keeps its point pools and its
    maps' images, which any later totalization of X reuses.
    """
    if N < 1:
        raise ValueError("totalization needs N >= 1")
    if N > X.N:
        raise ValueError(f"cosimplicial object only defined to level {X.N + 1}")
    if N > delta.N:
        raise ValueError(f"weights only defined to level {delta.N + 1}")
    if keys is None:
        keys = D.support(X.level(0))
    ids = {key: _families_at(D, X, delta, N, key) for key in keys}
    bij = [all(_restriction_bijective(ids[key][k + 1], ids[key][k], k) for key in keys) for k in range(N)]

    def decoded(key, fam):
        return tuple(tuple(map(X.pools[k, key][0].__getitem__, x)) for k, x in enumerate(fam))

    by_level = {key: [tuple(decoded(key, f) for f in fams) for fams in snaps] for key, snaps in ids.items()}
    families = {key: by_level[key][N] for key in keys}
    stabilized = bij[-1]
    stabilized_from = next(k for k in range(1, N + 1) if all(bij[k:])) if stabilized else None
    return TotResult(delta.name, N, families, by_level, stabilized, stabilized_from)


# ---------------------------------------------------------------------------
# centers


@dataclass
class CenterResult:
    fibers: dict  # fiber key -> tuple of level-0 elements in the equalizer
    obj: object
    inclusion: object
    name: str


def equalizer_center(A: MultOperad, name="center") -> CenterResult:
    """The equalizer of d_0, d_1 : A(0) -> A(1), as a subobject of A(0)."""
    D = A.D
    d0 = coface(A, 0, 0)
    d1 = coface(A, 0, 1)
    a0 = A.base.component(0)
    fibers = {}
    for key in D.support(a0):
        fibers[key] = tuple(
            z
            for z in sorted_elements(D.fiber(a0, key))
            if D.apply_at(d0, key, z) == D.apply_at(d1, key, z)
        )
    obj, incl = D.subobject_from_fibers(a0, fibers, name)
    return CenterResult(fibers, obj, incl, name)


def center_of_monoid(M, N: int = 1):
    """The constant-weight center of a monoid in K: the level-(0,1) equalizer.

    Returns (CenterResult, TotResult); the totalization at N must match the
    equalizer and stabilize at N = 1.
    """
    A = multiplicative_from_k_monoid(M, bound=max(3, N + 2))
    cen = equalizer_center(A, name=f"Z({M.name})")
    X = cosimplicial_from_multiplicative(A, max(2, N))
    return cen, totalize(A.D, X, constant_weights(), N=N)


def duoid_on_center(A: MultOperad, name=None):
    """The canonical duoid structure on the constant-weight center of A.

    mult0 routes through d_0 box0 d_0, unary operad composition and s_0;
    mult1 routes through the binary component; the units come from the
    multiplicative structure.  The construction is corestricted onto the
    equalizer; images landing outside it indicate a bug, not bad input.
    """
    D = A.D
    name = name or f"center({A.name})"
    cen = equalizer_center(A, name=name)
    z, incl = cen.obj, cen.inclusion
    a0 = A.base.component(0)
    s0 = codegeneracy(A, 0, 0)

    def corestrict(f, label):
        try:
            return D.corestrict_map(f, z, cen.fibers)
        except ValueError as exc:
            raise InternalConsistencyError(f"{label} left the equalizer: {exc}") from exc

    mult0 = corestrict(mult0_variants(A, cen)[(0, 0)], "mult0")
    pair1 = D.box1(a0, a0)
    mult1_raw = chain(
        D,
        D.box1_map(incl, incl),
        D.box0_map(D.identity(pair1), chain(D, D.iota(), A.m[2])),
        A.base.gamma(2, (0, 0)),
    )
    mult1 = corestrict(mult1_raw, "mult1")
    unit1 = corestrict(chain(D, A.m[1], s0), "unit1")
    unit0 = chain(D, D.iota(), unit1)
    duoid = Duoid(z, mult0, unit0, mult1, unit1, name=name)
    rep = check_duoid_axioms(D, duoid)
    if not rep.all_passed:
        raise InternalConsistencyError(f"duoid axioms failed on {name}:\n{rep.render()}")
    return duoid, cen


def mult0_variants(A: MultOperad, cen: CenterResult):
    """The maps built with d_i box0 d_j for i, j in {0, 1}; all must agree."""
    D = A.D
    incl = cen.inclusion
    s0 = codegeneracy(A, 0, 0)
    out = {}
    for i in (0, 1):
        for j in (0, 1):
            out[(i, j)] = chain(
                D,
                D.box0_map(incl, incl),
                D.box0_map(coface(A, 0, i), coface(A, 0, j)),
                A.base.gamma(1, (1,)),
                s0,
            )
    return out
