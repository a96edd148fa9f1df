"""The five workloads: set-up, the timed check, and the checks of its output.

Each workload runs in a fresh child process (see child.py).  `setup` builds
the inputs, `run` is the timed part, and `verify` compares the output with
results computed apart from the program (oracle.py), or with a property
the method must have.  Every entry `verify` returns is one operation; the
number of entries never depends on the seed, so a run's failed share does
not either.  The seed only picks the sampled re-checks.
"""

from __future__ import annotations

import random
import re

import oracle
from duoidal_kit import colored_trees, kcat, operads
from duoidal_kit.center import (
    constant_weights,
    duoid_on_center,
    equalizer_center,
    mult0_variants,
    ordinal_weights,
    reversed_ordinal_weights,
    totalize,
)
from duoidal_kit.duoidal import check_duoid_axioms
from duoidal_kit.fincat import identity_functor
from duoidal_kit.finset import CartesianFinSet
from duoidal_kit.instances import (
    additive_instance,
    bool_lattice_instance,
    bz2_cat,
    cat_one,
    functor_pair_corpus,
    parallel_pair_cat,
)
from duoidal_kit.monoids import cyclic, monoid_corpus
from duoidal_kit.spans import Globe
from duoidal_kit.tamarkin import cat_valued_functor, monoid_from_factorization, tamarkin_fiber
from duoidal_kit.two_operads import check_two_operad, end2

SAMPLES = 32  # sampled re-checks per run, where a workload has them
LEAVES = 2  # tree_operad's leaf bound
MAX_ASSOC_TOTAL = 1  # end_operad and span_operad: inner total of the associativity shapes


def _rows(*reports):
    return [(f"row: {item.name}", item.passed) for rep in reports for item in rep.items]


def _scope_count(report, row, pattern):
    for item in report.items:
        if item.name == row:
            found = re.search(pattern, item.scope)
            return tuple(int(g) for g in found.groups()) if found else None
    return None


class Contraction:
    """contract(graft(t, s, i)) == graft(contract t, contract s, i) on every
    triple within a combined vertex bound (colored_trees)."""

    def __init__(self, max_vertices=6):
        self.max_vertices = max_vertices

    def setup(self):
        pass  # the check builds its own pools

    def run(self):
        self.checked, self.failures = colored_trees.check_contraction_operad_map(self.max_vertices)

    def cases(self):
        return self.checked

    def verify(self, seed):
        V = self.max_vertices
        out = [
            ("no failing triple", self.failures == []),
            ("triple count equals sum of L(vt) B(vs)", self.checked == oracle.contraction_triples(V)),
        ]
        counts, _ = oracle.binary_tree_counts(V)
        rng = random.Random(seed)
        btrees = colored_trees.BinaryForest()
        atrees = colored_trees.AlternatingForest()
        cmap = colored_trees.ContractionMap(btrees, atrees)
        for k in range(SAMPLES):
            while True:
                vt = rng.randrange(1, V + 1)
                t = oracle.random_binary_tree(rng, vt, counts)
                if oracle.leaf_count(t):
                    break
            s = oracle.random_binary_tree(rng, rng.randrange(0, V - vt + 1), counts)
            i = rng.randrange(1, oracle.leaf_count(t) + 1)
            want = oracle.render(oracle.normal_form(oracle.graft(t, s, i)))
            via_images = oracle.graft(oracle.normal_form(t), oracle.normal_form(s), i)
            pt = colored_trees.parse_term(btrees, oracle.render(t))
            ps = colored_trees.parse_term(btrees, oracle.render(s))
            lhs = atrees.render(cmap.contract(btrees.graft(pt, ps, i)))
            rhs = atrees.render(atrees.graft(cmap.contract(pt), cmap.contract(ps), i))
            ok = lhs == want and rhs == want and oracle.render(oracle.normal_form(via_images)) == want
            out.append((f"sampled triple {k}", ok))
        return out


class TreeOperad:
    """The endomorphism tree operads of criterion 7, over the boolean lattice
    and over additive Z/2 (trees, two_operads, fincat)."""

    ordinal_bound = 3  # check_two_operad's default

    def setup(self):
        self.operads = [
            end2(bool_lattice_instance(), "1"),
            end2(additive_instance(cyclic(2)), "*", name="end2_additive"),
        ]

    def run(self):
        self.reports = [check_two_operad(A, max_leaves=LEAVES, tuple_cap=16) for A in self.operads]

    def _pairs(self, report):
        return _scope_count(report, "(*) associativity", r"(\d+)/(\d+) composable pairs") or (0, 0)

    def cases(self):
        return sum(self._pairs(rep)[0] for rep in self.reports)

    def verify(self, seed):
        want = oracle.composable_pairs(LEAVES, self.ordinal_bound)
        out = _rows(*self.reports)
        for A, rep in zip(self.operads, self.reports):
            aligned, pairs = self._pairs(rep)
            out.append((f"{A.name}: composable pairs equal the brute-force count", pairs == want))
            out.append((f"{A.name}: aligned pairs are composable pairs", 0 < aligned <= pairs))
        return out


def _one_operad_verify(reports, bound):
    """Every row passes, and the associativity row covers the shapes the
    benchmark enumerates itself (counting any it reports as skipped)."""
    evaluated, skipped = _assoc_counts(reports[0])
    want = oracle.associativity_shapes(bound, MAX_ASSOC_TOTAL)
    return _rows(*reports) + [("associativity shapes equal the enumeration", evaluated + skipped == want)]


def _operad_cases(*reports):
    """The associativity shapes the check evaluated, plus one for each other row."""
    return sum(
        _assoc_counts(rep)[0] if item.name == "associativity" else 1 for rep in reports for item in rep.items
    )


def _assoc_counts(report):
    (evaluated,) = _scope_count(report, "associativity", r"(\d+) shapes") or (0,)
    (skipped,) = _scope_count(report, "associativity", r"(\d+) skipped") or (0,)
    return evaluated, skipped


class EndOperad:
    """End(z2) in cartesian finite sets: the operad and multiplicative checks
    of check-operad --monoid z2 (operads, finset, kcat)."""

    def __init__(self, bound=2):
        self.bound = bound

    def setup(self):
        self.monoid = cyclic(2)
        K = kcat.CartesianSelfEnriched(CartesianFinSet())
        # built to arity 2 at least, so the sampled gamma(2; 1, 1) exists at every check bound
        self.mult = operads.multiplicative_from_k_monoid(
            kcat.k_monoid_from_monoid(self.monoid, K), bound=max(2, self.bound)
        )

    def run(self):
        self.report = operads.check_one_operad(self.mult.base, bound=self.bound, max_assoc_total=MAX_ASSOC_TOTAL)
        self.mult_report = operads.check_multiplicative(self.mult, bound=self.bound)

    def cases(self):
        return _operad_cases(self.report, self.mult_report)

    def verify(self, seed):
        out = _one_operad_verify((self.report, self.mult_report), self.bound)
        # gamma(2; 1, 1) against direct substitution, at seeded points
        A = self.mult.base
        x = A.component(1)[0].dom_word
        gamma = A.gamma(2, (1, 1))
        elems = self.monoid.elements
        rng = random.Random(seed)
        for k in range(SAMPLES):
            f1 = {(a,): rng.choice(elems) for a in elems}
            f2 = {(a,): rng.choice(elems) for a in elems}
            g = {(a, b): rng.choice(elems) for a in elems for b in elems}
            (h,) = gamma.apply((_fn_elt(f1, x), _fn_elt(f2, x), _fn_elt(g, x + x)))
            got = {args: value for args, (value,) in h}
            want = oracle.substitute(g, [{a: f1[(a,)] for a in elems}, {a: f2[(a,)] for a in elems}])
            out.append((f"sampled substitution {k}", got == want))
        return out


def _fn_elt(table, word):
    """The program's function element for a table keyed by argument tuples."""
    return kcat.fn_elt_of(word, lambda args: (table[args],))


class SpanOperad:
    """The end operad of the factorization monoid of the one-object bz2
    functor, over the span instance (spans, tamarkin, operads)."""

    def __init__(self, bound=2):
        self.bound = bound

    def setup(self):
        self.M = _span_monoid("one")
        self.J = self.M.K
        self.operad = operads.end_operad(self.J, self.M.carrier, bound=max(2, self.bound))

    def run(self):
        self.report = operads.check_one_operad(self.operad, bound=self.bound, max_assoc_total=MAX_ASSOC_TOTAL)

    def cases(self):
        return _operad_cases(self.report)

    def verify(self, seed):
        out = _one_operad_verify((self.report,), self.bound)
        J, D, O = self.J, self.J.D, self.J.O
        gamma = self.operad.gamma(2, (1, 1))
        points = [(globe, el) for globe in D.support(gamma.dom) for el in D.fiber(gamma.dom, globe)]
        rng = random.Random(seed)
        m2 = J.odot(self.M.carrier, self.M.carrier)
        for k in range(SAMPLES):
            globe, el = points[rng.randrange(len(points))]
            want = _family_substitution(J, O, m2, globe, el)
            out.append((f"sampled substitution {k}", gamma.apply(globe, el) == want))
        return out


def _family_substitution(J, O, m2, globe, el):
    """gamma(2; 1, 1) at one element, by substituting the two inner graph
    families into the outer one along the globe's arrows."""
    (g_stack, g_out), comps = el
    (g1, g2), inner = comps[0]
    fam1 = {pair: dict(rows) for pair, rows in inner[0]}
    fam2 = {pair: dict(rows) for pair, rows in inner[1]}
    psi = {pair: dict(rows) for pair, rows in comps[1]}
    f1, q1, q2 = O.map_of(g1.f), O.map_of(g1.g), O.map_of(g2.g)
    expected = []
    for a1 in O.set_of(globe.a):
        for a2 in O.set_of(globe.a):
            rows = []
            for path, parts in J.word_fiber(m2, globe.a, a1, a2):
                mid = path[1]
                left = fam1[(a1, mid)][((a1, mid), (parts[0],))]
                right = fam2[(mid, a2)][((mid, a2), (parts[1],))]
                shifted = ((f1[a1], q1[mid], q2[a2]), (left[1][0], right[1][0]))
                rows.append(((path, parts), psi[(f1[a1], q2[a2])][shifted]))
            expected.append(((a1, a2), tuple(rows)))
    return tuple(expected)


def _span_monoid(base_name):
    bz2 = bz2_cat()
    if base_name == "one":
        return monoid_from_factorization(cat_valued_functor(cat_one(), {"*": bz2}, {}, name="pt"))
    F = cat_valued_functor(
        parallel_pair_cat(),
        {"0": bz2, "1": bz2},
        {"u": identity_functor(bz2), "w": identity_functor(bz2)},
        name="pp",
    )
    return monoid_from_factorization(F)


class Centers:
    """Centers and weighted totalizations of the 20 corpus monoids, the
    generic cosimplicial certificate, the center duoids of two span monoids
    and the Tamarkin fibers of the functor-pair corpus (center, operads,
    finset, kcat, spans, tamarkin, duoidal)."""

    WEIGHTS = (constant_weights, ordinal_weights, reversed_ordinal_weights)

    def __init__(self, levels=3, certificate_levels=4):
        self.N = levels
        self.cert_levels = certificate_levels

    def setup(self):
        self.D = CartesianFinSet()
        K = kcat.CartesianSelfEnriched(self.D)
        self.monoids = []
        for m in monoid_corpus():
            A = operads.multiplicative_from_k_monoid(kcat.k_monoid_from_monoid(m, K), bound=self.N + 1)
            self.monoids.append((m, A, operads.cosimplicial_from_multiplicative(A, self.N)))
        self.span_operads = [
            operads.multiplicative_from_k_monoid(_span_monoid(b), bound=3) for b in ("one", "parallel")
        ]
        par = parallel_pair_cat()
        self.pairs = [
            (F0, G0, cat_valued_functor(par, {"0": F0.src, "1": F0.tgt}, {"u": F0, "w": G0}, name="p"))
            for F0, G0 in functor_pair_corpus()
        ]

    def run(self):
        D = self.D
        self.centers = []
        for m, A, X in self.monoids:
            cen = equalizer_center(A)
            tots = [totalize(D, X, w(), N=self.N) for w in self.WEIGHTS]
            self.centers.append((m, cen, tots))
        self.certificate = operads.certify_cosimplicial_generic(self.cert_levels)
        self.duoids = []
        for A in self.span_operads:
            duoid, cen = duoid_on_center(A, name="Z")
            axioms = check_duoid_axioms(A.D, duoid)
            variants = mult0_variants(A, cen)
            same = all(A.D.maps_equal(variants[(0, 0)], v) for v in variants.values())
            self.duoids.append((axioms, same))
        globe = Globe("0", "1", "u", "w")
        self.fibers = []
        for F0, G0, FV in self.pairs:
            const, _ = tamarkin_fiber(FV, globe, N=2, bound=3)
            ordinal, _ = tamarkin_fiber(FV, globe, weights=ordinal_weights(), N=2, bound=3)
            self.fibers.append((F0, G0, const, ordinal))

    def cases(self):
        """The center elements and totalization families the checks computed,
        the certified identities, the duoid axioms and the Tamarkin families."""
        return (
            sum(len(cen.fibers[None]) + sum(tot.family_count() for tot in tots) for _, cen, tots in self.centers)
            + len(self.certificate.items)
            + sum(len(axioms.items) for axioms, _ in self.duoids)
            + sum(len(const) + len(ordinal) for _, _, const, ordinal in self.fibers)
        )

    def verify(self, seed):
        out = []
        for m, cen, (const, ordinal, reverse) in self.centers:
            brute = oracle.monoid_center(m.elements, m.mult)
            out.append((f"{m.name}: equalizer center", _values(cen.fibers[None]) == brute))
            out.append((f"{m.name}: constant weights project to the center", _projection(const) == brute))
            for tot in (ordinal, reverse):
                # the ordinal weights are represented by [0], so Tot = X^0 = M
                whole = tot.family_count() == len(m.elements) and _projection(tot) == set(m.elements)
                out.append((f"{m.name}: {tot.weights} weights give M", whole))
            for tot in (const, ordinal, reverse):
                out.append((f"{m.name}: {tot.weights} stabilizes from level 1", tot.stabilized_from == 1))
        out.append(("generic certificate", self.certificate.all_passed))
        for k, (axioms, same) in enumerate(self.duoids):
            out.append((f"span center duoid {k}: axioms", axioms.all_passed))
            out.append((f"span center duoid {k}: coface independence", same))
        for F0, G0, const, ordinal in self.fibers:
            arrows = F0.tgt.arrows.values()

            def hom(x, y):
                return [a.name for a in arrows if (a.src, a.tgt) == (x, y)]

            nat = oracle.natural_transformations(
                F0.src.objects,
                {a.name: (a.src, a.tgt) for a in F0.src.arrows.values()},
                hom,
                F0.tgt.compose,
                F0.obj_map,
                F0.arr_map,
                G0.obj_map,
                G0.arr_map,
            )
            out.append((f"{F0.name},{G0.name}: constant weights give Nat(f, g)", _decode(const) == nat))
            unnatural = 1
            for a in F0.src.objects:
                unnatural *= len(hom(F0.obj_map[a], G0.obj_map[a]))
            out.append((f"{F0.name},{G0.name}: ordinal weights give all families", len(ordinal) == unnatural))
        return out


def _values(level0):
    """Monoid values of level-0 elements: constant maps () -> M."""
    return {z[0][0][1][0] for z in level0}


def _projection(tot):
    return _values(fam[0][0] for fam in tot.families[None])


def _decode(families):
    """Natural-transformation candidates read off constant-weight families:
    the component at a is the arrow its identity globe's graph picks."""
    out = set()
    for fam in families:
        alpha = []
        for (a1, a2), graph in fam[0][0]:
            if a1 == a2 and graph:
                ((_, value),) = graph
                alpha.append((a1, value[1][0]))
        out.add(tuple(sorted(alpha)))
    return out


WORKLOADS = {
    "contraction": Contraction,
    "tree_operad": TreeOperad,
    "end_operad": EndOperad,
    "span_operad": SpanOperad,
    "centers": Centers,
}
