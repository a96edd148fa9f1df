"""Command-line front end: load instances, run constructions, emit reports.

Exit codes: 0 all checks passed, 1 a check failed (or a totalization did
not stabilize), 2 input or validation error.  Output is deterministic:
no timestamps, canonical ordering everywhere.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys

from . import instances, jsonio
from .fincat import ValidationError
from .finset import CartesianFinSet, atom_letter
from .report import CheckReport, SizeError, sorted_elements

# the --builtin choices, each built when chosen
BUILTIN_INSTANCES = {**instances.TABLE_INSTANCES, "cartesian": CartesianFinSet}


def _load_instance(args):
    """The --instance file if one is given, else the --builtin instance (which
    has a default)."""
    if args.instance:
        return jsonio.table_duoidal_from_doc(jsonio.load_document(args.instance))
    return BUILTIN_INSTANCES[args.builtin]()


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader has gone: the rest of the output goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report_exit(args, report: CheckReport) -> int:
    if getattr(args, "format", "text") == "json":
        doc = {
            "title": report.title,
            "all_passed": report.all_passed,
            "items": [
                {"name": i.name, "passed": i.passed, "scope": i.scope, "witness": i.witness}
                for i in report.items
            ],
        }
        _emit(args, jsonio.dumps(doc).rstrip("\n"))
    else:
        _emit(args, report.render())
    return 0 if report.all_passed else 1


def _monoid_from(args):
    doc = jsonio.load_document(args.monoid)
    return jsonio.monoid_from_doc(doc)


def _k_monoid(monoid):
    from .kcat import CartesianSelfEnriched, k_monoid_from_monoid

    D = CartesianFinSet()
    K = CartesianSelfEnriched(D)
    return k_monoid_from_monoid(monoid, K)


def _center_elements(monoid):
    from .center import equalizer_center
    from .operads import multiplicative_from_k_monoid

    M = _k_monoid(monoid)
    A = multiplicative_from_k_monoid(M, bound=3)
    cen = equalizer_center(A)
    return sorted((str(z[0][0][1][0]) for z in cen.fibers[None]))


# -- subcommands ------------------------------------------------------------


def cmd_check_duoidal(args):
    letters = []
    for spec in args.sample or ["x:2", "y:2"]:
        name, _, size = spec.partition(":")
        if not (size or "2").isdecimal():
            raise ValidationError(f"--sample {spec!r}: the size must be a non-negative integer")
        letters.append((atom_letter(name, list(range(int(size or 2)))),))
    D = _load_instance(args)
    objects = None
    if D.objects() is None:
        objects = [D.e, D.v, *letters]
    elif args.sample is not None:
        raise ValidationError(f"--sample: the instance {D.name} lists its objects, so it takes no sample")
    from .duoidal import check_duoidal_axioms, derived_unit_comparison

    rep = check_duoidal_axioms(D, objects=objects)
    rep.add("derived unit comparison equals iota", D.maps_equal(derived_unit_comparison(D), D.iota()))
    return _report_exit(args, rep)


def cmd_check_duoid(args):
    D = _load_instance(args)
    from .duoidal import check_duoid_axioms, v_as_duoid

    if args.duoid:
        doc = jsonio.load_document(args.duoid)
        duoid = jsonio.duoid_from_doc(doc, D)
    else:
        duoid = v_as_duoid(D)
    return _report_exit(args, check_duoid_axioms(D, duoid))


def cmd_check_operad(args):
    from .operads import check_multiplicative, check_one_operad, eass, fass, multiplicative_from_k_monoid

    # the unit lives in arity 1, so the operad is built to at least arity 1
    # whatever the checked bound
    built = max(args.bound, 1)
    if args.monoid:
        monoid = _monoid_from(args)
        mult = multiplicative_from_k_monoid(_k_monoid(monoid), bound=built)
        rep = check_one_operad(mult.base, bound=min(args.bound, 3), max_assoc_total=min(args.bound, 3))
        rep2 = check_multiplicative(mult, bound=min(args.bound, 3))
        rep.items.extend(rep2.items)
        rep.title += " + multiplicative structure"
        return _report_exit(args, rep)
    if args.operad:
        D = _load_instance(args)
        doc = jsonio.load_document(args.operad)
        A = jsonio.table_operad_from_doc(doc, D)
        return _report_exit(args, check_one_operad(A, bound=min(args.bound, A.bound)))
    D = _load_instance(args)
    A = fass(D, bound=built) if args.named == "fass" else eass(D, bound=built)
    return _report_exit(args, check_one_operad(A, bound=min(args.bound, 3), max_assoc_total=min(args.bound, 3)))


def cmd_cosimplicial_verify(args):
    from .finset import word_size
    from .operads import (
        certify_cosimplicial_generic,
        check_cosimplicial_identities,
        cosimplicial_from_multiplicative,
        hochschild_oracle_cases,
        multiplicative_from_k_monoid,
        oracle_witness,
    )

    monoid = _monoid_from(args)
    rep = certify_cosimplicial_generic(args.levels)
    M = _k_monoid(monoid)
    A = multiplicative_from_k_monoid(M, bound=args.levels + 2)

    # extensional confirmation on every level whose function space enumerates
    checked = [n for n in range(args.levels + 1) if (word_size(A.base.component(n)) or 10**9) <= 20000]
    rep.add_law(
        f"extensional oracle agreement for {monoid.name}",
        hochschild_oracle_cases(A, monoid, M.K, M.carrier, checked),
        M.K.D.maps_equal,
        f"levels {checked} (enumerable function spaces)",
        oracle_witness,
    )
    # extensional identity depth bounded by the component sizes; the generic
    # certificate above is the exact check at every level
    ext_n = 0
    while ext_n < min(args.levels, 2) and (word_size(A.base.component(ext_n + 2)) or 10**9) <= 5000:
        ext_n += 1
    X = cosimplicial_from_multiplicative(A, ext_n)
    rep2 = check_cosimplicial_identities(X)
    rep.items.extend(rep2.items)
    return _report_exit(args, rep)


def cmd_center(args):
    monoid = _monoid_from(args)
    elems = _center_elements(monoid)
    _emit(args, "Z(M) = {" + ",".join(elems) + "}")
    return 0


def cmd_delta_center(args):
    from .center import (
        constant_weights,
        duoid_on_center,
        ordinal_weights,
        reversed_ordinal_weights,
        totalize,
    )
    from .operads import cosimplicial_from_multiplicative, multiplicative_from_k_monoid

    monoid = _monoid_from(args)
    M = _k_monoid(monoid)
    A = multiplicative_from_k_monoid(M, bound=max(3, args.levels + 1))
    weights = {
        "const": constant_weights,
        "ordinals": ordinal_weights,
        "lax": ordinal_weights,
        "colax": reversed_ordinal_weights,
    }[args.delta](args.levels)
    X = cosimplicial_from_multiplicative(A, args.levels)
    tot = totalize(A.D, X, weights, N=args.levels)
    lines = [f"delta-center of {monoid.name} with {weights.name} weights (N = {args.levels})"]
    fams = tot.families[None]
    proj = sorted_elements({f[0][0][0][0][1][0] for f in fams})
    lines.append(f"families: {len(fams)}")
    lines.append("level-0 projection: {" + ",".join(str(x) for x in proj) + "}")
    lines.append(f"stabilized: {tot.stabilized} (from level {tot.stabilized_from})")
    if args.delta == "const":
        duoid, cen = duoid_on_center(A, name=f"Z({monoid.name})")
        lines.append("duoid on the center: all axioms pass")
    _emit(args, "\n".join(lines))
    return 0 if tot.stabilized else 1


def cmd_tamarkin(args):
    from .center import constant_weights, ordinal_weights
    from .spans import Globe
    from .tamarkin import tamarkin_fiber

    doc = jsonio.load_document(args.functor)
    F = jsonio.cat_valued_functor_from_doc(doc)
    f_name, _, g_name = args.globe.partition(",")
    base = F.base
    if f_name not in base.arrows or g_name not in base.arrows:
        raise ValidationError(f"globe arrows {f_name!r}, {g_name!r} not in the base category")
    fa, ga = base.arrows[f_name], base.arrows[g_name]
    if (fa.src, fa.tgt) != (ga.src, ga.tgt):
        raise ValidationError("globe arrows must be parallel")
    globe = Globe(fa.src, fa.tgt, f_name, g_name)
    weights = (constant_weights if args.delta == "const" else ordinal_weights)(args.levels)
    fams, tot = tamarkin_fiber(F, globe, weights=weights, N=args.levels, bound=max(3, args.levels + 1))
    lines = [
        f"tamarkin fiber of {F.name} over ({fa.src},{fa.tgt},{f_name},{g_name}) with {weights.name} weights",
        f"families: {len(fams)}",
        f"stabilized: {tot.stabilized} (from level {tot.stabilized_from})",
    ]
    _emit(args, "\n".join(lines))
    return 0 if tot.stabilized else 1


def _required(args, flag):
    """The value of a flag that the chosen action needs."""
    value = getattr(args, flag)
    if value is None:
        raise ValidationError(f"{args.command} {args.action} needs --{flag}")
    return value


def _parse_tree(P, args, flag):
    """The 2-tree of a flag written n>m:i1,...,in; n>m: has no images."""
    head, _, tail = _required(args, flag).partition(":")
    try:
        n, m = map(int, head.split(">"))
        images = tuple(int(x) for x in tail.split(",")) if tail else ()
    except ValueError:
        raise ValidationError(f"--{flag} must be n>m:i1,...,in with integer entries") from None
    return P.two_tree(n, m, images)


def _integers(args, flag):
    """The comma-separated integers of a flag; () when it is not given."""
    text = getattr(args, flag)
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValidationError(f"--{flag} must be comma-separated integers") from None


def cmd_trees(args):
    from .trees import TreePool

    P = TreePool()
    if args.action == "enumerate":
        trees = P.enumerate_two_trees(args.leaves)
        _emit(args, "\n".join(P.render(t) for t in trees))
        return 0
    if args.action == "prune":
        pruned, incl = P.prune(_parse_tree(P, args, "tree"))
        _emit(args, f"pruned: {P.render(pruned)}\ninclusion: {P.render(incl)}")
        return 0
    T = _parse_tree(P, args, "source")
    S = _parse_tree(P, args, "target")
    sigma = P.two_map(T, S, _integers(args, "sigma1"), _integers(args, "sigma2"))
    lines = []
    for fib in P.fibers[sigma]:
        lines.append(f"position {fib.position} (height-{fib.height} leaf {fib.leaf}): {P.render(fib.tree)}")
    _emit(args, "\n".join(lines) if lines else "(no leaves, no fibers)")
    return 0


def _object_of(D, args):
    """The --x object: one of the objects that the instance lists."""
    x = _required(args, "x")
    if x not in (D.objects() or ()):
        raise ValidationError(f"--x {x!r} is not a listed object of the instance {D.name}")
    return x


def cmd_two_operad(args):
    from .trees import TreePool
    from .two_operads import ass2, check_two_operad, end2

    D = _load_instance(args)
    if args.action == "check":
        A = end2(D, _object_of(D, args)) if args.x else ass2()
        rep = check_two_operad(A, max_leaves=args.leaves, tuple_cap=args.cap)
        return _report_exit(args, rep)
    P = TreePool()
    A = end2(D, _object_of(D, args)).over(P)
    lines = []
    for t in P.enumerate_two_trees(args.leaves):
        lines.append(f"{P.render(t)}: component of size {len(A.component(t))}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_btree(args):
    from .colored_trees import AlternatingForest, BinaryForest, ContractionMap, parse_term

    bp = BinaryForest()
    ap = AlternatingForest()
    if args.action == "contract":
        t = parse_term(bp, _required(args, "term"))
        out = ContractionMap(bp, ap).contract(t)
        _emit(args, ap.render(out))
        return 0
    pool = bp if args.tree_kind == "btree" else ap
    trees = pool.enumerate_exact(args.leaves, args.max_vertices)
    _emit(args, "\n".join(pool.render(t) for t in trees) if trees else "(none)")
    return 0


def cmd_selftest(args):
    import random

    seed = int(os.environ.get("DUOIDAL_KIT_SEED", "0"))
    rng = random.Random(seed)
    from .monoids import monoid_corpus
    from .operads import certify_cosimplicial_generic

    rep = certify_cosimplicial_generic(3)
    picks = rng.sample(monoid_corpus(), 4)
    cases = ((m.name, _center_elements(m), sorted(str(z) for z in m.center())) for m in picks)
    scope = f"monoids {[m.name for m in picks]}"
    rep.add_law(f"sampled centers match brute force (seed {seed})", cases, operator.eq, scope, witness=None)
    return _report_exit(args, rep)


def non_negative(text):
    """A bound argument: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def build_parser():
    p = argparse.ArgumentParser(prog="duoidal-kit", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    def add_instance_flags(q):
        g = q.add_mutually_exclusive_group()
        g.add_argument("--instance", help="a duoidal_table JSON file")
        g.add_argument("--builtin", choices=BUILTIN_INSTANCES, default="bool_lattice")

    q = sub.add_parser("check-duoidal", help="run the coherence checker on an instance")
    add_instance_flags(q)
    q.add_argument("--sample", nargs="*", help="sample objects name:size for virtual instances")
    q.set_defaults(fn=cmd_check_duoidal)

    q = sub.add_parser("check-duoid", help="check duoid axioms (default: v as a duoid)")
    add_instance_flags(q)
    q.add_argument("--duoid", help="a duoid JSON file over the instance")
    q.set_defaults(fn=cmd_check_duoid)

    q = sub.add_parser("check-operad", help="check operad axioms")
    add_instance_flags(q)
    q.add_argument("--monoid", help="build the endomorphism operad of this monoid")
    q.add_argument("--operad", help="a one_operad JSON file over the instance")
    q.add_argument("--named", choices=("fass", "eass"), default="fass")
    q.add_argument("--bound", type=non_negative, default=4)
    q.set_defaults(fn=cmd_check_operad)

    q = sub.add_parser("cosimplicial-verify", help="cosimplicial identities and the classical oracle")
    q.add_argument("--monoid", required=True)
    q.add_argument("--levels", type=non_negative, default=4)
    q.set_defaults(fn=cmd_cosimplicial_verify)

    q = sub.add_parser("center", help="the center of a monoid")
    q.add_argument("--monoid", required=True)
    q.set_defaults(fn=cmd_center)

    q = sub.add_parser("delta-center", help="weighted centers of a monoid")
    q.add_argument("--monoid", required=True)
    q.add_argument("--delta", choices=("const", "ordinals", "lax", "colax"), default="const")
    q.add_argument("--levels", type=non_negative, default=3)
    q.set_defaults(fn=cmd_delta_center)

    q = sub.add_parser("tamarkin", help="the totalized hom complex of a category-valued functor")
    q.add_argument("--functor", required=True, help="a cat_valued_functor JSON file")
    q.add_argument("--delta", choices=("const", "ordinals"), default="const")
    q.add_argument("--globe", required=True, help="two parallel arrow names, comma separated")
    q.add_argument("--levels", type=non_negative, default=2)
    q.set_defaults(fn=cmd_tamarkin)

    q = sub.add_parser("trees", help="level-tree utilities")
    q.add_argument("action", choices=("enumerate", "fibers", "prune"))
    q.add_argument("--leaves", type=non_negative, default=4)
    q.add_argument("--tree", help="a 2-tree, e.g. 2>3:1,3")
    q.add_argument("--source", help="source 2-tree of a map")
    q.add_argument("--target", help="target 2-tree of a map")
    q.add_argument("--sigma1")
    q.add_argument("--sigma2")
    q.set_defaults(fn=cmd_trees)

    q = sub.add_parser("two-operad", help="tree-indexed operads")
    q.add_argument("action", choices=("check", "end"))
    add_instance_flags(q)
    q.add_argument("--x", help="the object whose endomorphism operad to build")
    q.add_argument("--leaves", type=non_negative, default=3)
    q.add_argument("--cap", type=non_negative, default=16)
    q.set_defaults(fn=cmd_two_operad)

    q = sub.add_parser("btree", help="bicolored binary trees and contraction")
    q.add_argument("action", choices=("contract", "enumerate"))
    q.add_argument("--term", help="a tree term, e.g. w(b(l,l),l)")
    q.add_argument("--tree-kind", choices=("btree", "atree"), default="btree")
    q.add_argument("--leaves", type=non_negative, default=2)
    q.add_argument("--max-vertices", type=non_negative, default=3)
    q.set_defaults(fn=cmd_btree)

    q = sub.add_parser("selftest", help="seeded spot checks (DUOIDAL_KIT_SEED)")
    q.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, SizeError, ValueError, FileNotFoundError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
