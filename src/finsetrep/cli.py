"""Deterministic command-line surface.

Exit codes: 0 on success (and passing property checks), 1 when a requested
property check fails, 2 on usage errors or malformed input text.  Identical
inputs and seeds produce byte-identical output; numeric output is always
exact rationals.

Subcommands: hom, compose, lift, simple, doldkan, fit, char, invariants,
replicate, arnold, verify.  Module-consuming commands read the catmod/1 text
form from a file argument or stdin (``-``), so emitters pipe into consumers::

    finsetrep simple Ck --k 2 --max 4 | finsetrep fit charpoly --d 2 --fit 1..3 --test 4

A module read this way is certified by the defining relations of its
category first (:func:`finsetrep.repmod.check_relations`); one that fails
them exits 1 with ``check failed:``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, arnold, catcore, chars, doldkan, invariants, repmod
from .catcore import ParseError, category_tag
from .exactla import format_matrix
from .repmod import FunctorialityError
from .simples import make_simple


class _UsageError(Exception):
    pass


def _parse_range(text):
    """``a..b`` (inclusive) or a single integer."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise _UsageError("bad range %r" % text) from None
        if lo > hi:
            raise _UsageError("empty range %r" % text)
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise _UsageError("bad range %r" % text) from None


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise _UsageError(str(e)) from None


def _read_module(path):
    """The module in a catmod/1 file, certified by its defining relations."""
    module = repmod.read_module(_read_text(path))
    repmod.check_relations(module)
    return module


def _emit(payload, fmt, render):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render)


# ---------------------------------------------------------------------------
# handlers

def _cmd_hom(args):
    cat = category_tag(args.cat)
    count = catcore.hom_count(cat, args.src, args.dst)
    if args.list:
        for mor in catcore.enumerate_hom(cat, args.src, args.dst):
            print(catcore.format_mor(mor))
        return 0
    _emit({"category": str(cat), "from": args.src, "to": args.dst, "count": count},
          args.format, str(count))
    return 0


def _cmd_compose(args):
    cat = category_tag(args.cat)
    f = catcore.parse_mor(cat, args.f)
    g = catcore.parse_mor(cat, args.g)
    print(catcore.format_mor(catcore.compose_in(cat, g, f)))
    return 0


def _cmd_lift(args):
    # every mode computes the same lift; --mode only restricts what it accepts
    sm = catcore.parse_setmap(args.map)
    if args.mode == "injection" and not sm.is_injective():
        raise _UsageError("injection lift of a non-injective map %r" % (sm.values,))
    if args.mode == "delta" and not sm.is_monotone():
        raise _UsageError("delta lift of a non-monotone map %r" % (sm.values,))
    print(catcore.format_mor(catcore.lift(sm)))
    return 0


def _cmd_simple(args):
    if args.which == "Ck" and args.k is None:
        raise _UsageError("simple Ck requires --k")
    module = make_simple(args.which, args.max, k=args.k)
    sys.stdout.write(repmod.write_module(module))
    return 0


def _cmd_doldkan(args):
    if args.action == "conormalize":
        module = _to_delta(_read_module(args.file))
        sys.stdout.write(doldkan.write_complex(doldkan.conormalize(module)))
        return 0
    if args.action == "realize":
        complex_ = doldkan.read_complex(_read_text(args.file))
        sys.stdout.write(repmod.write_module(doldkan.realize(complex_, args.max)))
        return 0
    module = _to_delta(_read_module(args.file))
    print(str(doldkan.dim_polynomial(module)))
    return 0


def _to_delta(module):
    """Restrict canonically down to Delta so every emitted module pipes in."""
    if module.category is catcore.F:
        module = repmod.restrict(module, "phi")
    if module.category is catcore.N:
        module = repmod.restrict(module, "psi")
    if module.category is not catcore.DELTA:
        raise _UsageError("cannot restrict an %s module to Delta" % module.category)
    return module


def _cmd_fit(args):
    if args.action == "charpoly":
        if args.fit is None or args.test is None:
            raise _UsageError("fit charpoly requires --fit and --test")
        module = _read_module(args.file)
        outcome = chars.fit_character_polynomial(
            module, args.d, _parse_range(args.fit), _parse_range(args.test))
    else:
        if args.values is None:
            raise _UsageError("fit dimpoly requires --values")
        try:
            seq = [int(tok) for tok in args.values.split()]
        except ValueError:
            raise _UsageError("bad --values list") from None
        outcome = chars.fit_dimension_polynomial(seq, args.d)
    if not outcome.ok:
        _emit({"ok": False, "witness": str(outcome.witness)}, args.format,
              "inconsistent at %s" % (outcome.witness,))
        return 1
    _emit({"ok": True, "polynomial": str(outcome.polynomial)}, args.format,
          str(outcome.polynomial))
    return 0


def _cmd_char(args):
    module = _read_module(args.file)
    table = chars.character(module, args.n)
    rows = [(",".join(str(p) for p in lam), str(value)) for lam, value in table.items()]
    if args.format == "json":
        print(json.dumps({"n": args.n, "values": rows}, sort_keys=True))
    else:
        for lam, value in rows:
            print("%s: %s" % (lam, value))
    return 0


def _cmd_invariants(args):
    module = _read_module(args.file)
    levels = _parse_range(args.range)
    report = invariants.monotonicity_check(module, levels)
    payload = {"levels": list(report.levels), "dims": list(report.dims),
               "nondecreasing": report.passed}
    _emit(payload, args.format, str(report))
    return 0 if report.passed else 1


def _cmd_replicate(args):
    module = _read_module(args.file)
    report = invariants.replication_iso_check(module, args.n, args.m)
    payload = {"n": report.n, "m": report.m, "source_dim": report.source_dim,
               "target_dim": report.target_dim, "isomorphism": report.passed,
               "matrix": format_matrix(report.matrix)}
    _emit(payload, args.format, str(report))
    return 0 if report.passed else 1


def _cmd_arnold(args):
    if args.action == "dims":
        values = [arnold.arnold_dim(args.i, n) for n in range(1, args.max + 1)]
        _emit({"i": args.i, "dims": values}, args.format, " ".join(str(v) for v in values))
        return 0
    if args.action == "act":
        if args.map is None:
            raise _UsageError("arnold act requires --map")
        sm = catcore.parse_setmap(args.map)
        module = arnold.arnold_module(args.i, max(sm.dom, sm.cod, 1))
        basis = arnold.admissible_basis(sm.dom, args.i)
        cols = module.columns(sm)
        target = arnold.admissible_basis(sm.cod, args.i)
        for word, col in zip(basis, cols):
            if col:
                image = " + ".join("%s * %s" % (c, arnold.format_word(target[r])) for r, c in col)
            else:
                image = "0"
            print("%s -> %s" % (arnold.format_word(word), image))
        return 0
    if args.action == "char":
        if args.n is None:
            raise _UsageError("arnold char requires --n")
        module = arnold.arnold_module(args.i, args.n)
        table = chars.character(module, args.n)
        for lam, value in table.items():
            print("%s: %s" % (",".join(str(p) for p in lam), value))
        return 0
    module = arnold.arnold_module(args.i, args.max)
    sys.stdout.write(repmod.write_module(module))
    return 0


def _cmd_verify(args):
    results = acceptance.run_all(args.seed)
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "criteria": [
                {"index": r.index, "title": r.title, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(acceptance.render_report(results, args.seed))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finsetrep",
        description="exact workbench for matrix representations of finite-set categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="count (or list) morphisms [m] -> [n]")
    p.add_argument("--cat", required=True, choices=["Delta", "N", "F", "FI"])
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print the morphisms instead of the count")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_hom)

    p = sub.add_parser("compose", help="compose two morphisms (g after f)")
    p.add_argument("--cat", default="N", choices=["Delta", "N", "F", "FI"])
    p.add_argument("--g", required=True)
    p.add_argument("--f", required=True)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("lift", help="lift a set map to ordered fibers")
    p.add_argument("--map", required=True)
    p.add_argument("--mode", default="canonical", choices=["canonical", "delta", "injection"])
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("simple", help="emit a simple module as catmod/1 text")
    p.add_argument("which", choices=["Ck", "D0", "D1"])
    p.add_argument("--k", type=int)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_simple)

    p = sub.add_parser("doldkan", help="normalize or realize")
    p.add_argument("action", choices=["conormalize", "realize", "dimpoly"])
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--max", type=int, default=8, help="truncation level for realize")
    p.set_defaults(handler=_cmd_doldkan)

    p = sub.add_parser("fit", help="fit exact character or dimension polynomials")
    p.add_argument("action", choices=["charpoly", "dimpoly"])
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--fit")
    p.add_argument("--test")
    p.add_argument("--values", help="dimension sequence for dimpoly, space separated, n = 1..")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("char", help="character table of a module level")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("invariants", help="invariant dimensions and monotonicity")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--range", required=True, help="levels, e.g. 1..6")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("replicate", help="block-collapse isomorphism check on invariants")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_replicate)

    p = sub.add_parser("arnold", help="the planar configuration cohomology model")
    p.add_argument("action", choices=["dims", "act", "char", "module"])
    p.add_argument("--i", type=int, required=True, help="cohomological degree")
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--map", help="set map text for `act`")
    p.add_argument("--n", type=int, help="level for `char`")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_arnold)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv):
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.handler(args)
    except (_UsageError, ParseError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except FunctorialityError as e:
        print("check failed: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
