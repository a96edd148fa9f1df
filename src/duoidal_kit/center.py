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
    multiplicative_from_k_monoid,
)
from .report import Memo, SizeError, sorted_elements


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
    """Families at every truncation level k <= N over one fiber key.  Each
    coface and codegeneracy is applied once per point, keyed (n, i, point)."""
    cofaces = Memo(lambda nip: D.apply_at(X.d(nip[0], nip[1]), key, nip[2]))
    codegeneracies = Memo(lambda nip: D.apply_at(X.s(nip[0], nip[1]), key, nip[2]))
    level0 = list(D.fiber(X.level(0), key))
    fams = []
    for choice in itertools.product(level0, repeat=len(delta.level(0))):
        fams.append((choice,))
    snapshots = [tuple(fams)]
    for n in range(N):
        next_fams = []
        pts = delta.level(n)
        next_pts = delta.level(n + 1)
        for fam in fams:
            xn = dict(zip(pts, fam[n]))
            forced = {}
            dead = False
            for i in range(n + 2):
                dmap = delta.d(n, i)
                for u in pts:
                    w = dmap[u]
                    val = cofaces[n, i, xn[u]]
                    if w in forced and forced[w] != val:
                        dead = True
                        break
                    forced[w] = val
                if dead:
                    break
            if dead:
                continue
            free = [w for w in next_pts if w not in forced]
            if free:
                pool = list(D.fiber(X.level(n + 1), key))
                if len(pool) ** len(free) > _FREE_CAP:
                    raise SizeError("free weight slots exceed the enumeration cap")
                choices = itertools.product(pool, repeat=len(free))
            else:
                choices = [()]
            for extra in choices:
                xn1 = dict(forced)
                xn1.update(zip(free, extra))
                ok = True
                for i in range(n + 1):
                    smap = delta.s(n, i)
                    for w in next_pts:
                        if codegeneracies[n, i, xn1[w]] != xn[smap[w]]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    next_fams.append(fam + (tuple(xn1[w] for w in next_pts),))
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
    """
    if N < 1:
        raise ValueError("totalization needs N >= 1")
    if N > X.N:
        raise ValueError(f"cosimplicial object only defined to level {X.N + 1}")
    if N > delta.N:
        raise ValueError(f"weights only defined to level {delta.N + 1}")
    if keys is None:
        keys = D.support(X.level(0))
    by_level = {key: _families_at(D, X, delta, N, key) for key in keys}
    families = {key: by_level[key][N] for key in keys}
    bij = []
    for k in range(N):
        bij.append(all(_restriction_bijective(by_level[key][k + 1], by_level[key][k], k) for key in keys))
    stabilized = bool(bij and bij[-1])
    stabilized_from = None
    for start in range(1, N + 1):
        if all(bij[j] for j in range(start, N)):
            stabilized_from = start
            break
    if stabilized_from == N and not stabilized:
        stabilized_from = None
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
