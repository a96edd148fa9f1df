"""Operads with one level of arity in a duoidal instance.

Components A(n) are objects of the instance, composition takes the shape
(A(k_1) box1 ... box1 A(k_n)) box0 A(n) -> A(k_1 + ... + k_n), the unit is a
map e -> A(1).  A plain (non-Forcey) operad additionally carries the n = 0
composition v box0 A(0) -> A(0), stored here as gamma(0, ()).  A
multiplicative operad is one with a morphism from the operad whose
components are all v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .duoidal import chain, iterated_delta_e, iterated_interchange
from .finset import CartesianFinSet, CartMap, FnElt, fn_eval
from .kcat import (
    CartesianSelfEnriched,
    KMonoid,
    fn_elt_of,
    hom_tensor,
    k_monoid_from_monoid,
    odot_hom_many,
    und_compose,
    und_odot,
)
from .report import CheckReport, Memo, SizeError, evaluate


class OneOperad:
    def __init__(self, D, name, component_fn, gamma_fn, unit_map, has_zero=True, bound=4):
        self.D = D
        self.name = name
        self.unit = unit_map
        self.has_zero = has_zero  # False for Forcey-only operads (no v-action)
        self.bound = bound
        self._components = Memo(component_fn)
        self._gammas = Memo(lambda key: D.memoize(gamma_fn(*key)))

    def component(self, n: int):
        if n < 0 or n > self.bound:
            raise ValueError(f"component {n} outside bound {self.bound}")
        return self._components[n]

    def gamma(self, n: int, ks: tuple):
        """Composition for the shape (n; k_1..k_n); gamma(0, ()) is the v-action."""
        ks = tuple(ks)
        if len(ks) != n:
            raise ValueError("shape mismatch")
        if n == 0 and not self.has_zero:
            raise ValueError(f"{self.name} is a Forcey operad: no arity-0 composition")
        if sum(ks) > self.bound or n > self.bound:
            raise ValueError(f"shape ({n}; {ks}) outside bound {self.bound}")
        return self._gammas[n, ks]


def fass(D, bound=4) -> OneOperad:
    """All components are v; multiplication is the monoid structure of v."""
    return OneOperad(D, "fass", lambda n: D.v, lambda n, ks: D.mu_v(), D.iota(), has_zero=True, bound=bound)


def eass(D, bound=4) -> OneOperad:
    """The Forcey operad with all components e.

    gamma is the canonical interchange collapse of (box1^n e) box0 e through
    n-1 copies of v and one e; for n = 1 it degenerates to the identity.
    """

    def gamma(n, ks):
        ys = [D.v] * (n - 1) + [D.e]
        return iterated_interchange(D, [D.e] * n, ys)

    return OneOperad(D, "eass", lambda n: D.e, gamma, D.identity(D.e), has_zero=False, bound=bound)


def end_operad(K, x, bound=4, name=None) -> OneOperad:
    """The endomorphism operad of an object of a D-monoidal category."""
    D = K.D

    def component(n):
        return K.hom_obj(K.odot_power(x, n), x)

    def gamma(n, ks):
        """The inner homs tensored (the v-action for n = 0), then composed with A(n)."""
        inner = odot_hom_many(K, [(K.odot_power(x, k), x) for k in ks]) if n else K.v_action_map()
        return und_compose(K, inner, D.identity(component(n)))

    return OneOperad(
        D, name or f"end({getattr(x, 'name', x)!r})", component, gamma, K.unit_map(x), has_zero=True, bound=bound
    )


# ---------------------------------------------------------------------------
# axiom checking


_EQ_CAP = 20000  # the largest domain on which check_one_operad compares two maps


def check_one_operad(A: OneOperad, bound=None, max_assoc_total=None) -> CheckReport:
    """The unit, associativity and v-action laws of A within an arity bound.

    The associativity shapes are those whose inner arities total at most
    `max_assoc_total` (default: the bound).  A law whose domain has more
    than `_EQ_CAP` elements is skipped and counted in its row's scope.
    """
    D = A.D
    bound = A.bound if bound is None else min(bound, A.bound)
    max_total = bound if max_assoc_total is None else max_assoc_total
    rep = CheckReport(f"operad axioms: {A.name} (arity bound {bound})")

    def eq(f, g):
        return D.maps_equal(f, g, cap=_EQ_CAP)

    def inner_units():
        """Units inserted in all inner slots."""
        for k in range(0 if A.has_zero else 1, bound + 1):
            units = chain(D, iterated_delta_e(D, k), D.tensor_map(1, [A.unit] * k))
            left = chain(D, D.box0_map(units, D.identity(A.component(k))), A.gamma(k, (1,) * k))
            yield k, left, D.identity(A.component(k))

    def outer_units():
        """The unit in the outer slot."""
        for k in range(0, bound + 1):
            left = chain(D, D.box0_map(D.identity(A.component(k)), A.unit), A.gamma(1, (k,)))
            yield k, left, D.identity(A.component(k))

    arities, arity = f"k <= {bound}", "k={}".format
    rep.add_law("unit law (inner)", inner_units(), eq, arities, arity)
    rep.add_law("unit law (outer)", outer_units(), eq, arities, arity)

    def shapes():
        """Associativity over all two-level shapes (n; ks; ls) within the bound."""
        lo = 0 if A.has_zero else 1
        for n in range(1, bound + 1):
            for ks in itertools.product(range(lo, bound + 1), repeat=n):
                if sum(ks) > bound:
                    continue
                inner_choices = [list(itertools.product(range(lo, bound + 1), repeat=k)) for k in ks]
                for lss in itertools.product(*inner_choices):
                    if sum(sum(ls) for ls in lss) > max_total:
                        continue
                    f_objs = [D.tensor(1, [A.component(l) for l in ls]) for ls in lss]
                    route1 = chain(
                        D,
                        D.box0_map(D.identity(D.tensor(1, f_objs)), A.gamma(n, ks)),
                        A.gamma(sum(ks), tuple(l for ls in lss for l in ls)),
                    )
                    inner_gammas = [A.gamma(k, ls) for k, ls in zip(ks, lss)]
                    shuffle = iterated_interchange(D, f_objs, [A.component(k) for k in ks])
                    route2 = chain(
                        D,
                        D.box0_map(shuffle, D.identity(A.component(n))),
                        D.box0_map(D.tensor_map(1, inner_gammas), D.identity(A.component(n))),
                        A.gamma(n, tuple(sum(ls) for ls in lss)),
                    )
                    yield (n, ks, lss), route1, route2

    failing, count, skipped = evaluate(shapes(), eq)
    scope = f"{count} shapes within bound {bound}"
    if skipped:
        scope += f"; {skipped} skipped (non-enumerable domains)"
    rep.add("associativity", failing is None, scope, "" if failing is None else "(n={}; ks={}; ls={})".format(*failing))

    def v_action_squares():
        """The bimodule square for the v-action."""
        for k in range(1, bound + 1):
            top = chain(D, D.box0_map(D.identity(D.v), A.gamma(k, (0,) * k)), A.gamma(0, ()))
            zeros = [A.component(0)] * k
            left = chain(
                D,
                D.box0_map(iterated_interchange(D, [D.v] * k, zeros), D.identity(A.component(k))),
                D.box0_map(D.tensor_map(1, [A.gamma(0, ())] * k), D.identity(A.component(k))),
                A.gamma(k, (0,) * k),
            )
            yield k, top, left

    if A.has_zero:
        rep.add_law("v-action bimodule square", v_action_squares(), eq, arities, arity)
    return rep


# ---------------------------------------------------------------------------
# multiplicative structure


@dataclass
class MultOperad:
    base: OneOperad
    m: dict  # n -> D-map v -> A(n)
    name: str = "mult"

    @property
    def D(self):
        return self.base.D


def _check_morphism(S: OneOperad, E: OneOperad, f: dict, bound, title, unit_row, morphism_row) -> CheckReport:
    """Is f (arity n -> map S(n) -> E(n)) a morphism of operads from the
    source S (`fass` or `eass`) into the endomorphism operad E?  Checks the
    unit and every composition shape whose arities are within the bound."""
    D = E.D
    rep = CheckReport(title)
    rep.add(unit_row, D.maps_equal(chain(D, S.unit, f[1]), E.unit))

    def shapes():
        for n in range(0 if S.has_zero else 1, bound + 1):
            for ks in itertools.product(range(0, bound + 1), repeat=n):
                if sum(ks) <= bound:
                    lhs = chain(D, D.box0_map(D.tensor_map(1, [f[k] for k in ks]), f[n]), E.gamma(n, ks))
                    yield (n, ks), lhs, chain(D, S.gamma(n, ks), f[sum(ks)])

    rep.add_law(morphism_row, shapes(), D.maps_equal, f"shapes within {bound}", lambda w: "(n={}; ks={})".format(*w))
    return rep


def check_multiplicative(A: MultOperad, bound=None) -> CheckReport:
    """Is the multiplicative structure m a morphism from the all-v operad?"""
    base = A.base
    bound = base.bound if bound is None else min(bound, base.bound)
    return _check_morphism(
        fass(A.D, bound=base.bound),
        base,
        A.m,
        bound,
        f"multiplicative structure: {A.name} (bound {bound})",
        "unit compatibility",
        "operad morphism from the all-v operad",
    )


def multiplicative_from_k_monoid(M: KMonoid, bound=4) -> MultOperad:
    """The endomorphism operad of a monoid's carrier, with its canonical
    multiplicative structure (the algebra map nu/u/mu and its iterates).
    Each m(n) goes through `D.memoize`; in finite sets its domain v has one
    point, so it stores at most one value."""
    K = M.K
    base = end_operad(K, M.carrier, bound=bound, name=f"end({M.name})")
    powers = und_monoid_to_eass_algebra(K, M.carrier, M.nu_bar, M.mu_bar, bound=bound)
    m = {n: K.D.memoize(und_compose(K, powers[n], M.u)) for n in range(bound + 1)}
    return MultOperad(base, m, name=f"end({M.name})")


def algebra_to_monoid(A: MultOperad, K, carrier, name="monoid") -> KMonoid:
    """Extract the monoid data from an algebra structure on End_carrier."""
    D = A.D
    return KMonoid(
        K,
        carrier,
        nu_bar=chain(D, D.iota(), A.m[0]),
        mu_bar=chain(D, D.iota(), A.m[2]),
        u=A.m[1],
        name=name,
    )


def check_fass_algebra_diagrams(M: KMonoid) -> CheckReport:
    """The five diagrams tying nu, u, mu to a monoid structure.

    nu = m(0), u = m(1), mu = m(2) of the induced multiplicative operad; the
    diagrams live entirely in D with domain v box0 v.
    """
    K = M.K
    D = K.D
    A = multiplicative_from_k_monoid(M, bound=3)
    nu, u, mu = A.m[0], A.m[1], A.m[2]
    rep = CheckReport(f"algebra diagrams (d1)-(d5): {M.name}")

    def after_mu(f, g):
        """f and g tensored (box1, then lax tensoring), then composed with mu."""
        return und_compose(K, hom_tensor(K, f, g), mu)

    # (d1): two associativity routes v box0 v -> K(x^3, x)
    rep.add("(d1)", D.maps_equal(after_mu(u, mu), after_mu(mu, u)))

    # (d2): unit routes agree with u after mu_v
    mid = chain(D, D.mu_v(), u)
    rep.add("(d2)", D.maps_equal(after_mu(nu, u), mid) and D.maps_equal(after_mu(u, nu), mid))

    # (d3): mu is compatible with u
    mid = chain(D, D.mu_v(), mu)
    rep.add("(d3)", D.maps_equal(und_compose(K, mu, u), mid) and D.maps_equal(after_mu(u, u), mid))

    # (d4): nu is compatible with u
    rep.add("(d4)", D.maps_equal(und_compose(K, nu, u), chain(D, D.mu_v(), nu)))

    # (d5): u is multiplicative
    rep.add("(d5)", D.maps_equal(und_compose(K, u, u), chain(D, D.mu_v(), u)))
    return rep


def und_monoid_to_eass_algebra(K, x, nu_bar, mu_bar, bound=3):
    """The algebra of the all-e Forcey operad induced by a monoid in Und K.

    Components are the iterated multiplications as maps e -> K(odot^n x, x).
    """
    kappa = {0: nu_bar, 1: K.unit_map(x), 2: mu_bar}
    for n in range(3, bound + 1):
        kappa[n] = und_compose(K, und_odot(K, kappa[n - 1], kappa[1]), mu_bar)
    return kappa


def check_eass_algebra(K, x, kappa, bound=3) -> CheckReport:
    """Is kappa a morphism of Forcey operads from the all-e operad?"""
    return _check_morphism(
        eass(K.D, bound=bound),
        end_operad(K, x, bound=bound),
        kappa,
        bound,
        "all-e algebra structure",
        "unit component",
        "operad morphism property",
    )


def algebra_hom_elements(K, x, y, kx, ky, bound=3):
    """The hom-set of two algebras: the equalizer of post- and pre-composition.

    kx, ky map each arity to the structure map into the endomorphism
    component (a map from v for the all-v operad, as in `MultOperad.m`); the
    returned elements are the maps e -> K(x, y) equalizing both induced
    families up to the bound.
    """
    D = K.D

    def preserves(phi, n):
        post = chain(D, kx[n], und_compose(K, D.identity(D.cod(kx[n])), phi))
        pre = chain(D, ky[n], und_compose(K, _und_power(K, phi, n), D.identity(D.cod(ky[n]))))
        return D.maps_equal(post, pre, cap=4096)

    return [phi for phi in D.hom(D.e, K.hom_obj(x, y)) if all(preserves(phi, n) for n in range(bound + 1))]


def _und_power(K, phi, n):
    """phi^{odot n} : e -> K(odot^n x, odot^n y), via the comonoid of e."""
    if n == 0:
        return K.unit_map(K.eta)
    out = phi
    for _ in range(1, n):
        out = und_odot(K, out, phi)
    return out


# ---------------------------------------------------------------------------
# the cosimplicial object of a multiplicative operad


def coface(A: MultOperad, n: int, i: int):
    """d_i : A(n) -> A(n+1), 0 <= i <= n+1."""
    D = A.D
    base = A.base
    an = base.component(n)
    if i in (0, n + 1):
        outer = (A.m[1], D.identity(an)) if i == 0 else (D.identity(an), A.m[1])
        return chain(
            D,
            D.box0_map(D.identity(an), D.iota()),
            D.box0_map(D.box1_map(*outer), A.m[2]),
            base.gamma(2, (1, n) if i == 0 else (n, 1)),
        )
    if not 1 <= i <= n:
        raise ValueError(f"coface index {i} outside 0..{n + 1}")
    return _substitute(A, (1,) * (i - 1) + (2,) + (1,) * (n - i))


def codegeneracy(A: MultOperad, n: int, i: int):
    """s_i : A(n+1) -> A(n), 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError(f"codegeneracy index {i} outside 0..{n}")
    return _substitute(A, (1,) * i + (0,) + (1,) * (n - i))


def _substitute(A: MultOperad, ks):
    """gamma(n; ks) fed by m(k) in each slot: A(n) -> A(sum ks), n = len(ks)."""
    D = A.D
    an = A.base.component(len(ks))
    return chain(
        D,
        D.box0_map(D.iota(), D.identity(an)),
        D.box0_map(D.tensor_map(1, [A.m[k] for k in ks]), D.identity(an)),
        A.base.gamma(len(ks), ks),
    )


def hochschild_oracle_coface(m, K, n: int, i: int, carrier):
    """The classical coface on Set(M^n, M), written directly from the monoid.

    Independent of the operadic construction; used as its oracle.
    """
    dom_word = K.odot_power(carrier, n)
    cod_word = K.odot_power(carrier, n + 1)

    def transform(t):
        (f_el,) = t
        f = fn_eval(f_el)

        def value(args):
            if i == 0:
                return (m.mult(args[0], f(args[1:])[0]),)
            if i == n + 1:
                return (m.mult(f(args[:n])[0], args[n]),)
            return f(args[: i - 1] + (m.mult(args[i - 1], args[i]),) + args[i + 1 :])

        return (fn_elt_of(cod_word, value),)

    return CartMap(K.hom_obj(dom_word, carrier), K.hom_obj(cod_word, carrier), fn=transform)


def hochschild_oracle_codegeneracy(m, K, n: int, i: int, carrier):
    """The classical codegeneracy: insert the monoid unit in slot i+1."""
    dom_word = K.odot_power(carrier, n + 1)
    cod_word = K.odot_power(carrier, n)

    def transform(t):
        (f_el,) = t
        f = fn_eval(f_el)

        def value(args):
            return f(args[:i] + (m.unit,) + args[i:])

        return (fn_elt_of(cod_word, value),)

    return CartMap(K.hom_obj(dom_word, carrier), K.hom_obj(cod_word, carrier), fn=transform)


def hochschild_oracle_cases(A: MultOperad, m, K, carrier, levels):
    """(label, constructed map, oracle map) for the cofaces out of each level
    n and the codegeneracies into level n - 1; `oracle_witness` reads a label."""
    for n in levels:
        for i in range(n + 2):
            yield ("d", i, n), coface(A, n, i), hochschild_oracle_coface(m, K, n, i, carrier=carrier)
        for i in range(n):
            yield ("s", i, n - 1), codegeneracy(A, n - 1, i), hochschild_oracle_codegeneracy(m, K, n - 1, i, carrier)


def oracle_witness(label):
    return "{}_{} at level {}".format(*label)


def _probe_function(n: int):
    """A formal function element: wraps its n arguments in fresh separators."""
    def call(args):
        word = (f"<{n}:0>",)
        for k, a in enumerate(args):
            word = word + tuple(a) + (f"<{n}:{k + 1}>",)
        return (word,)

    return FnElt(call, label=f"probe{n}")


def _probe_point(k: int):
    return tuple((f"g{j}",) for j in range(1, k + 1))


def certify_cosimplicial_generic(N: int = 4) -> CheckReport:
    """Exact generic certificate for the cosimplicial identities of End_M.

    Every structure map here is a single-evaluation substitution operator:
    its value at (f, args) is a product of argument variables and one
    f-evaluation.  Evaluating both sides of an identity over the free word
    monoid, at a formal function whose arguments are wrapped in fresh
    separators and at pairwise distinct generator arguments, therefore
    decides the identity for every monoid and every f at once: the resulting
    words expose the full substitution patterns.
    """
    from .monoids import FreeWordMonoid

    D = CartesianFinSet()
    K = CartesianSelfEnriched(D)
    free = FreeWordMonoid()
    M = k_monoid_from_monoid(free, K)
    A = multiplicative_from_k_monoid(M, bound=N + 2)
    rep = CheckReport(f"generic cosimplicial certificate (levels <= {N + 1}, all monoids)")

    def value(map_):
        """map_ at the probe function of its domain's arity, with the function
        it gives read at as many distinct generators as its codomain's arity."""
        (letter_in,), (letter_out,) = map_.dom, map_.cod
        out_el = map_.apply((_probe_function(len(letter_in.dom_word)),))[0]
        return fn_eval(out_el)(_probe_point(len(letter_out.dom_word)))

    def same_value(lhs, rhs):
        return value(lhs) == value(rhs)

    scope = f"levels <= {N + 1}"
    for (name, text), cases in zip(_IDENTITY_ROWS, _identity_cases(cosimplicial_from_multiplicative(A, N), N)):
        rep.add_law(f"{name} (generic)", cases, same_value, scope, lambda w: text.format(*w))
    # the constructed maps against the classical oracle, generically
    cases = hochschild_oracle_cases(A, free, K, M.carrier, range(N + 1))
    rep.add_law("construction agrees with the classical oracle (generic)", cases, same_value, scope, oracle_witness)
    return rep


@dataclass
class CosimplicialObject:
    D: object  # the instance of the maps; None for a weight system, whose maps are dicts
    levels: dict  # n -> object
    cofaces: dict  # (n, i) -> map level n -> level n+1; a `Memo` built on first use, or a dict
    codegeneracies: dict  # (n, i) -> map level n+1 -> level n; likewise
    N: int
    name: str = "cosimplicial"

    def __post_init__(self):
        """`pools` maps (level, fiber key) to a point pool: a list of values and
        a dict from each value to its position, its id, so a point is hashed
        once, when `intern` adds it (hash-consing).  `coface_images` and
        `codegeneracy_images` map (n, i, fiber key, point id) to the id of its
        image under d^i or s^i at level n; equal images are one stored value.
        All three fill on first use and live as long as this object, so every
        totalization of it applies each map once per point.  An image holding
        an `FnElt` raises `SizeError`."""
        D, name = self.D, self.name  # not self, so that the memos make no cycle
        pools = self.pools = Memo(lambda key: ([], {}))

        def image(maps, shift, key):
            n, i, fiber, x = key
            y = D.apply_at(maps[n, i], fiber, pools[n + 1 - shift, fiber][0][x])
            if isinstance(y, tuple) and any(isinstance(e, FnElt) for e in y):  # an FnElt compares by identity
                raise SizeError(f"level {n + shift} of {name} holds lazy function elements, not values")
            return intern(pools[n + shift, fiber], y)

        self.coface_images = Memo(lambda key, maps=self.cofaces: image(maps, 1, key))
        self.codegeneracy_images = Memo(lambda key, maps=self.codegeneracies: image(maps, 0, key))

    def level(self, n):
        return self.levels[n]

    def d(self, n, i):
        return self.cofaces[(n, i)]

    def s(self, n, i):
        return self.codegeneracies[(n, i)]


def intern(pool, value):
    """The id of value in a point pool, adding it when it is new."""
    values, ids = pool
    i = ids.setdefault(value, len(values))
    if i == len(values):
        values.append(value)
    return i


def cosimplicial_from_multiplicative(A: MultOperad, N: int) -> CosimplicialObject:
    """The cosimplicial object of A to level N + 1.  Each coface and
    codegeneracy is built on first use and kept; a key (n, i) with n > N,
    or i out of range, raises `KeyError`."""
    if N + 1 > A.base.bound:
        raise ValueError(f"level {N + 1} exceeds operad bound {A.base.bound}")

    def maps(build, top):
        def build_once(key):
            n, i = key
            if not (0 <= n <= N and 0 <= i <= n + top):
                raise KeyError(key)
            return build(A, n, i)

        return Memo(build_once)

    levels = {n: A.base.component(n) for n in range(N + 2)}
    return CosimplicialObject(A.D, levels, maps(coface, 1), maps(codegeneracy, 0), N, name=A.name)


# the rows of the cosimplicial identities, with the text of a label (j, i, n)
_IDENTITY_ROWS = (
    ("coface identities", "d_{} d_{} at level {}"),
    ("codegeneracy identities", "s_{} s_{} at level {}"),
    ("mixed identities", "s_{} d_{} at level {}"),
)


def _identity_cases(X: CosimplicialObject, N: int):
    """One stream of (label, lhs, rhs) per row of `_IDENTITY_ROWS`, over the
    cosimplicial identities whose composites stay within level N+1."""
    D = X.D
    cofaces = (
        ((j, i, n), chain(D, X.d(n, i), X.d(n + 1, j)), chain(D, X.d(n, j - 1), X.d(n + 1, i)))
        for n in range(N)
        for j in range(n + 3)
        for i in range(j)
    )
    codegeneracies = (
        ((j, i, n), chain(D, X.s(n + 1, i), X.s(n, j)), chain(D, X.s(n + 1, j + 1), X.s(n, i)))
        for n in range(N)
        for i in range(n + 1)
        for j in range(i, n + 1)
    )

    def mixed():
        for n in range(N + 1):
            for i in range(n + 2):
                for j in range(n + 1):
                    if i == j or i == j + 1:
                        rhs = D.identity(X.level(n))
                    elif i < j:
                        rhs = chain(D, X.s(n - 1, j - 1), X.d(n - 1, i))
                    else:
                        rhs = chain(D, X.s(n - 1, j), X.d(n - 1, i - 1))
                    yield (j, i, n), chain(D, X.d(n, i), X.s(n, j)), rhs

    return cofaces, codegeneracies, mixed()


def check_cosimplicial_identities(X: CosimplicialObject) -> CheckReport:
    """All cosimplicial identities whose composites stay within level X.N+1.

    Identities whose domains are not enumerable (huge function spaces) are
    skipped and counted in the scope; the generic word-monoid certificate is
    the exact check covering those.
    """
    N = X.N
    rep = CheckReport(f"cosimplicial identities: {X.name} (levels <= {N + 1})")
    for (name, text), cases in zip(_IDENTITY_ROWS, _identity_cases(X, N)):
        failing, checked, skipped = evaluate(cases, X.D.maps_equal)
        scope = f"levels <= {N + 1}; {checked} checked"
        if skipped:
            scope += f", {skipped} skipped (non-enumerable domains)"
        rep.add(name, failing is None, scope, "" if failing is None else text.format(*failing))
    return rep
