"""Batch front end: check fixtures, build complexes, compute tables, pair.

Every command prints an aligned text report to stdout and can also write
a machine-readable JSON report via --output.  Exit code 0 means every
requested check or assertion passed; 1 means a check failed; 2 means the
input could not be parsed or validated, or an output could not be written.
"""

import argparse
import functools
import json
import sys

from .fields import QQ, field_by_name
from .linalg import Matrix, CertificateFailure
from .hopf import (AlgebraData, HopfAlgebraData, ModuleAlgebra,
                   ModuleCoalgebra, ComoduleAlgebra, ComoduleCoalgebra,
                   ModComodule, EquivariantPairing, ModularPair, HopfMismatch,
                   check_structure, check_sayd, modular_pair_module,
                   trivial_modcomodule)
from .cyclic import (check_axioms, cyc_algebra, cyc_coalgebra,
                     hopf_cyclic_complex, hopf_cocyclic_comodule_algebra,
                     hopf_cyclic_comodule_coalgebra, NotSAYD, DescentFailure,
                     InvertibilityFailure)
from .homology import (mixed_of_cyclic, cohomology_table, compare_models,
                       IdentityFailure)
from .pairings import (alpha, beta, xi, star, invariant_traces,
                       cyclic_cocycles, cm_char_map, cup_with_trace,
                       crossed_cocup_with_invariant,
                       diag_tensor_epi_check, AgreementFailure)
from . import fixtures as fx
from . import io as hio

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    """The command line asks for something the inputs cannot give."""


# ---------------------------------------------------------------------------
# shipped fixture library


def fixture_library(field=QQ):
    """The shipped fixtures, as an ordered list of (file name, object)."""
    h2 = fx.group_algebra(field, 2)
    h3 = fx.group_algebra(field, 3)
    sw = fx.sweedler_hopf(field)
    items = [
        ("trivial-hopf.json", fx.trivial_hopf(field)),
        ("hopf-kz2.json", h2),
        ("hopf-kz3.json", h3),
        ("hopf-sweedler.json", sw),
        ("module-algebra-dual-numbers.json", fx.dual_numbers_module_algebra(h2)),
        ("module-coalgebra-kz2-regular.json", fx.regular_module_coalgebra(h2)),
        ("module-coalgebra-sweedler-regular.json", fx.regular_module_coalgebra(sw)),
        ("comodule-algebra-kz2.json", fx.regular_comodule_algebra(h2)),
        ("comodule-coalgebra-functions-kz2.json",
         fx.function_comodule_coalgebra(h2)),
        ("modcomodule-trivial-kz2.json", trivial_modcomodule(h2)),
        ("modcomodule-modular-pair-kz2.json",
         modular_pair_module(h2, ModularPair({1: field.one},
                                             {0: field.one, 1: field.one}))),
        ("modcomodule-modular-pair-sweedler.json",   # (eps, g): SAYD
         modular_pair_module(sw, ModularPair({1: field.one},
                                             {0: field.one, 1: field.one}))),
        ("pairing-action-kz2.json",
         fx.action_pairing(fx.regular_module_coalgebra(h2),
                           fx.dual_numbers_module_algebra(h2))),
    ]
    return items


# ---------------------------------------------------------------------------
# report plumbing


def _unwritable(path, e):
    return "cannot write %s: %s" % (path, e.strerror or e)


def _emit(report, output):
    if output:
        with open(output, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2, default=str)
                     + "\n")


def _dims_row(mod):
    return {str(n): mod.spaces[n] for n in sorted(mod.spaces)}


def _print_dims(label, mod):
    degs = sorted(mod.spaces)
    print("%-28s %s" % (label, "  ".join("%d:%d" % (n, mod.spaces[n])
                                         for n in degs)))


# ---------------------------------------------------------------------------
# commands


def cmd_check(args):
    paths = list(args.files)
    objs = []
    if args.fixtures or not paths:
        objs = [("fixture:" + name, obj)
                for name, obj in fixture_library(args.field_obj)]
    width = max(len(name) for name in [name for name, _ in objs] + paths)
    details, ok = [], True
    for path in paths:
        try:
            objs.append((path, _load(path, args, validate=False)))
        except hio.ParseError as e:
            print("%-*s PARSE ERROR: %s" % (width, path, e))
            return EXIT_USAGE, {"ok": False, "error": str(e)}
    for name, obj in objs:
        report = check_structure(obj)
        status = "ok" if not report else "; ".join(report)
        ok = ok and not report
        details.append({"input": name, "kind": type(obj).__name__,
                        "failures": report})
        print("%-*s %s" % (width, name, status))
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "checks": details}


def _load(path, args, validate=True):
    """An input file; a --field given on the command line must be its field."""
    obj = hio.parse_input(path, validate=validate)
    if args.field is not None and obj.field != args.field_obj:
        raise UsageError("%s is over %r, but --field %s was given"
                         % (path, obj.field, args.field))
    return obj


def _coefficients(args):
    """The --coefficients file, or None when it is not given."""
    if not args.coefficients:
        return None
    m = _load(args.coefficients, args)
    if not isinstance(m, ModComodule):
        raise UsageError("--coefficients must be a modcomodule file")
    return m


def _refuse_buffer_if_sayd(args, m):
    """C of SAYD coefficients is the coinvariants of the degree-N cover:
    no J is closed, so no buffer is read."""
    if args.buffer_given and not check_sayd(m):
        raise UsageError("--buffer is read only for coefficients that are "
                         "not SAYD, whose C closes J on a deeper cover")


def _complexes(args, main=False):
    """(label, module) for each complex the input file supports, or with
    main only the one whose cohomology it asks for.  A flag those
    complexes do not read is refused."""
    obj, N = _load(args.file, args), args.degree
    classical = isinstance(obj, (HopfAlgebraData, AlgebraData))
    if args.coefficients and classical:
        raise UsageError("--coefficients is read only for module and "
                         "comodule (co)algebra inputs")
    if args.buffer_given and not isinstance(obj, (ModuleAlgebra,
                                                  ModuleCoalgebra)):
        raise UsageError("--buffer is read only for module (co)algebra "
                         "inputs, which build a cover")
    if isinstance(obj, HopfAlgebraData):
        out = [("Cyc(algebra)", cyc_algebra(obj.algebra, N))]
        return out if main else out + [("Cyc(coalgebra)",
                                        cyc_coalgebra(obj.coalgebra, N))]
    if classical:
        return [("Cyc(algebra)", cyc_algebra(obj, N))]
    if not isinstance(obj, (ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra,
                            ComoduleCoalgebra)):
        raise UsageError("cannot build complexes from kind %r"
                         % type(obj).__name__)
    m = _coefficients(args)
    if m is None:
        raise UsageError("this input kind needs --coefficients MODFILE")
    _refuse_buffer_if_sayd(args, m)
    if isinstance(obj, ComoduleAlgebra):
        return [("C(B,M) colinear", hopf_cocyclic_comodule_algebra(obj, m, N))]
    if isinstance(obj, ComoduleCoalgebra):
        return [("C(Z,M) colinear", hopf_cyclic_comodule_coalgebra(obj, m, N))]
    out = [("C (Hopf-cyclic)", hopf_cyclic_complex(obj, m, N, buffer=args.buffer))]
    t = out[0][1]   # the root of C's quotient tower: the cover, degrees 0..N
    while "parent" in t.meta:
        t = t.meta["parent"]
    return out if main else [("T (cover)", t)] + out


def cmd_build(args):
    details, ok = [], True
    for label, mod in _complexes(args):
        report = check_axioms(mod)
        _print_dims(label, mod)
        status = "axioms ok" if not report else "; ".join(report)
        print("%-28s %s" % ("", status))
        ok = ok and not report
        details.append({"module": label, "dims": _dims_row(mod),
                        "failures": report})
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "modules": details}


def _require_stable(stable_range):
    """A table with no degree in its stable range certifies nothing."""
    if stable_range < 0:
        raise UsageError("--degree is too small: no cohomology degree is in "
                         "the stable range (n <= %d)" % stable_range)


def _compare(mod):
    """Print both models' tables and their verdict; (exit code, report)."""
    res = compare_models(mod)
    _require_stable(res["stable_range"])
    print(res["bicomplex"].text())
    print()
    print(res["mixed"].text())
    verdict = "agree" if res["agree"] else "DISAGREE"
    print("\nmodels %s in the stable range (n <= %d)"
          % (verdict, res["stable_range"]))
    rep = {"ok": res["agree"], "bicomplex": res["bicomplex"].as_dict(),
           "mixed": res["mixed"].as_dict()}
    return (EXIT_OK if res["agree"] else EXIT_FAIL), rep


def cmd_cohomology(args):
    [(_, mod)] = _complexes(args, main=True)
    if args.model == "both":
        return _compare(mod)
    table = cohomology_table(mod, args.model)
    _require_stable(table.stable_range)
    print(table.text())
    return EXIT_OK, {"ok": True, "table": table.as_dict()}


def cmd_compare(args):
    [(_, mod)] = _complexes(args, main=True)
    if args.corrupt_b:
        # negative-control hook: damage one B entry, then re-check the
        # mixed-complex identities, which must name the failure
        mixed = mixed_of_cyclic(mod)
        f = mixed.field
        # pick an interior degree: boundary-degree damage can fall outside
        # every checkable identity square
        degs = [n for n in sorted(mixed.B) if mixed.B[n].rows]
        deg = degs[1] if len(degs) > 1 else degs[0]
        mat = mixed.B[deg]
        mixed.B[deg] = mat + Matrix(f, mat.rows, mat.cols, {(0, 0): f.one})
        bad = mixed.violations()
        if not bad:
            raise UsageError("--degree %d is too small for --corrupt-b: the "
                             "damaged B enters no checkable identity"
                             % args.degree)
        for line in bad:
            print("corrupted B detected: %s" % line)
        return EXIT_FAIL, {"ok": False, "failures": bad}
    return _compare(mod)


def _class_rep(cls):
    return {str(k): {str(i): str(v) for i, v in sorted(comp.items())}
            for k, comp in sorted(cls.components.items()) if comp}


def cmd_char_map(args):
    pairing = _load(args.file, args)
    if not isinstance(pairing, EquivariantPairing):
        raise UsageError("char-map needs a pairing file")
    m = _coefficients(args)
    if m is None:
        m = modular_pair_module(pairing.hopf,
                                fx.trivial_modular_pair(pairing.hopf))
    _refuse_buffer_if_sayd(args, m)
    p = args.degree
    N = max(2, p) + 1
    am = alpha(pairing, m, N, buffer=args.buffer)
    y = am.target.meta["y"]
    traces = invariant_traces(y)
    if not traces:
        print("no invariant trace exists for this fixture")
        return EXIT_FAIL, {"ok": False, "error": "no invariant trace"}
    trace = traces[0]
    x = am.target.meta["x"]
    classes = cyclic_cocycles(x, p)
    print("invariant traces: %d (using the first)" % len(traces))
    print("degree-%d Hopf-cyclic cocycles: %d" % (p, len(classes)))
    details = []
    for i, cls in enumerate(classes):
        try:
            out = cm_char_map(trace, pairing, cls, alpha_mor=am)
        except AgreementFailure as e:
            print("cocycle %d: AGREEMENT FAILURE: %s" % (i, e))
            return EXIT_FAIL, {"ok": False, "error": str(e)}
        rep = _class_rep(out)
        print("cocycle %d -> class on Cyc(A): %s" % (i, rep or "0"))
        details.append(rep)
    print("both computation routes agreed on every representative")
    return EXIT_OK, {"ok": True, "degree": p, "classes": details}


def _scenario_modules(field):
    h = fx.group_algebra(field, 2)
    m = modular_pair_module(h, fx.trivial_modular_pair(h))
    return h, m


# the --degree values a pair scenario honours: trace-cup takes its class
# degree as min(--degree, 2) and crossed, cocrossed and star run at
# truncation 2; epi checks degrees 0..--degree (default 2)
PAIR_DEGREES = {"trace-cup": (1, 2), "crossed": (2,), "cocrossed": (2,),
                "star": (2,)}


def cmd_pair(args):
    if args.via != "epi" and args.buffer_given:   # the rest are SAYD
        raise UsageError("pair --via %s does not use --buffer" % args.via)
    if args.drop_factor and args.via != "epi":
        raise UsageError("--drop-factor is the negative control of --via epi "
                         "only")
    honoured = PAIR_DEGREES.get(args.via)
    if args.degree_given and honoured and args.degree not in honoured:
        raise UsageError("pair --via %s runs at --degree %s only, not %d"
                         % (args.via, " or ".join(map(str, honoured)),
                            args.degree))
    field = args.field_obj
    h, m = _scenario_modules(field)
    details = {}
    if args.via == "trace-cup":
        pairing = fx.action_pairing(fx.regular_module_coalgebra(h),
                                    fx.dual_numbers_module_algebra(h))
        p = min(args.degree, 2)
        am = alpha(pairing, m, p + 1)
        trace = invariant_traces(am.target.meta["y"])[0]
        classes = cyclic_cocycles(am.target.meta["x"], p)
        if not classes:
            print("degree-%d Hopf-cyclic cocycles: 0" % p)
        for i, cls in enumerate(classes):
            via_cup = cup_with_trace(cls, trace, am)
            via_gamma = cm_char_map(trace, pairing, cls, alpha_mor=am)
            same = via_cup == via_gamma
            print("class %d: cup == char-map: %s" % (i, same))
            if not same:
                return EXIT_FAIL, {"ok": False}
            details["class %d" % i] = _class_rep(via_cup)
    elif args.via == "crossed":
        ma = fx.dual_numbers_module_algebra(h)
        ca = fx.regular_comodule_algebra(h)
        bm = beta(ma, ca, m, 2)
        bad = bm.verify()
        print("beta commutation: %s" % ("ok" if not bad else "; ".join(bad)))
        if bad:
            return EXIT_FAIL, {"ok": False, "failures": bad}
        trace = invariant_traces(bm.target.meta["y"])[0]
        cls = cyclic_cocycles(bm.source, 0)[0]
        out = cup_with_trace(cls, trace, bm)
        print("degree-0 crossed cup class: %s" % (_class_rep(out) or "0"))
        details["crossed cup"] = _class_rep(out)
    elif args.via == "cocrossed":
        zc = fx.function_comodule_coalgebra(h)
        mc = fx.regular_module_coalgebra(h)
        xm = xi(zc, mc, m, 2)
        bad = xm.verify()
        print("xi commutation: %s" % ("ok" if not bad else "; ".join(bad)))
        if bad:
            return EXIT_FAIL, {"ok": False, "failures": bad}
        for p in range(3):
            for i, cls in enumerate(cyclic_cocycles(xm.source, p)):
                out = crossed_cocup_with_invariant(cls, {0: field.one}, xm)
                details["p=%d class %d" % (p, i)] = _class_rep(out)
        print("cocrossed evaluations: %d classes" % len(details))
    elif args.via == "star":
        zc = fx.function_comodule_coalgebra(h)
        st = star(zc, zc, m, m, 2)
        bad = st.verify()
        print("star commutation: %s" % ("ok" if not bad else "; ".join(bad)))
        if bad:
            return EXIT_FAIL, {"ok": False, "failures": bad}
    elif args.via == "epi":
        ma = fx.dual_numbers_module_algebra(h)
        tm = trivial_modcomodule(h)
        n = args.degree if args.degree_given else 2
        rep = diag_tensor_epi_check(ma, ma, tm, tm, n, buffer=args.buffer,
                                    drop_factor=args.drop_factor)
        for n, row in sorted(rep["degrees"].items()):
            print("degree %d: rank %d of %d" % (n, row["rank"],
                                                row["target_dim"]))
        if not rep["surjective"]:
            print("FAILED: reshuffling map is not surjective"
                  + (" (dropped factor)" if rep["corrupted"] else ""))
            return EXIT_FAIL, {"ok": False, "report": rep}
        print("reshuffling map surjective in every checked degree")
        details = rep
    else:
        raise UsageError("unknown --via %r" % args.via)
    return EXIT_OK, {"ok": True, "via": args.via, "details": details}


def cmd_fixtures(args):
    import os
    outdir = args.output or "fixtures"
    args.output = None  # --output names the directory, not a report file
    lib = fixture_library(args.field_obj)
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, obj in lib:
            hio.save(obj, os.path.join(outdir, name))
    except OSError as e:
        raise UsageError(_unwritable(e.filename or outdir, e))
    for name, _ in lib:
        print(os.path.join(outdir, name))
    return EXIT_OK, {"ok": True, "written": [name for name, _ in lib]}


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache   # built on the first main call, then reused
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field",
                        help="ground field: Q or a prime (default Q); an "
                             "input file must be over this field")
    common.add_argument("--output", help="write a JSON report to this path")
    # only the commands that build complexes read these two
    complexes = argparse.ArgumentParser(add_help=False)
    complexes.add_argument("--degree", type=int,
                           help="truncation N, or class degree for char-map "
                                "(default 4)")
    complexes.add_argument("--buffer", type=int,
                           help="extra degrees for saturation, read only "
                                "where J is closed (default 2)")
    p = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="exact cyclic and Hopf-cyclic cohomology engine")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    c = add("check", help="validate structure files or fixtures")
    c.add_argument("files", nargs="*")
    c.add_argument("--fixtures", action="store_true",
                   help="check the shipped fixture library")

    b = add("build", complexes, help="construct complexes and check axioms")
    b.add_argument("file")
    b.add_argument("--coefficients", help="modcomodule file")

    co = add("cohomology", complexes, help="cyclic cohomology table")
    co.add_argument("file")
    co.add_argument("--coefficients")
    co.add_argument("--model", choices=["bicomplex", "mixed", "both"],
                    default="both")

    cm = add("compare", complexes, help="bicomplex vs (b,B) model comparison")
    cm.add_argument("file")
    cm.add_argument("--coefficients")
    cm.add_argument("--corrupt-b", action="store_true",
                    help="negative control: damage B and require detection")

    ch = add("char-map", complexes, help="characteristic map, both routes")
    ch.add_argument("file", help="pairing file")
    ch.add_argument("--coefficients", help="modcomodule file (default k_(1,eps))")

    pr = add("pair", complexes, help="run a pairing scenario on the fixtures")
    pr.add_argument("--via", required=True,
                    choices=["trace-cup", "crossed", "cocrossed", "star", "epi"])
    pr.add_argument("--drop-factor", action="store_true",
                    help="negative control for --via epi")

    add("fixtures", help="write the shipped fixture library")
    return p


COMMANDS = {"check": cmd_check, "build": cmd_build,
            "cohomology": cmd_cohomology, "compare": cmd_compare,
            "char-map": cmd_char_map, "pair": cmd_pair,
            "fixtures": cmd_fixtures}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if "degree" in args:
        args.degree_given = args.degree is not None
        args.buffer_given = args.buffer is not None
        args.degree = 4 if args.degree is None else args.degree
        args.buffer = 2 if args.buffer is None else args.buffer
        for flag, value in (("--degree", args.degree), ("--buffer", args.buffer)):
            if value < 1:
                print("%s must be at least 1" % flag, file=sys.stderr)
                return EXIT_USAGE
    try:
        args.field_obj = QQ if args.field is None else field_by_name(args.field)
    except ValueError as e:
        print("unknown field %r: %s" % (args.field, e), file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report = COMMANDS[args.command](args)
        report["command"] = args.command
    except (hio.ParseError, hio.ValidationError, UsageError, HopfMismatch) as e:
        print(str(e), file=sys.stderr)
        code, report = EXIT_USAGE, {"ok": False, "error": str(e)}
    except (NotSAYD, DescentFailure, CertificateFailure, IdentityFailure,
            InvertibilityFailure) as e:
        # a certificate failed on valid input: name the identity, exit 1
        error = "%s: %s" % (type(e).__name__, e)
        print(error, file=sys.stderr)
        code, report = EXIT_FAIL, {"ok": False, "error": error}
    try:
        _emit(report, args.output)
    except OSError as e:
        print(_unwritable(args.output, e), file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
