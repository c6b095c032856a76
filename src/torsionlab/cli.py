"""Command-line interface.

Exit codes: 0 = computation completed with positive verdicts, 1 =
computation completed with a negative verdict (violation or witness
emitted), 2 = invalid input (an ``InputError``), 70 = internal fault
(any other escape), 141 = stdout closed by its reader (128 + SIGPIPE).
Identical argv produces identical output bytes.
"""

import argparse
import functools
import json
import os
import random
import sys

from . import __version__
from .classify import classify, commutative_collapse
from .delta import (_delta_equiv, _delta_plan, _FiberTable, delta_from_doc,
                    random_reducible_delta, reduce_delta)
from .errors import InputError, InvariantError, ReductionError, RingSpecError
from .kernels import backend
from .modules import (module_corpus, module_from_table, power_module,
                      quotient_module, regular_module, submodule_closure)
from .rings import (all_left_ideals, format_quasiidentity, is_two_sided,
                    left_ideal_closure)
from .ringspec import builtin_rings, parse_ring_spec, read_int, read_json
from .torsion import (TorsionNotion, check_torsion_axioms,
                      enumerate_torsion_notions, principal_generator,
                      rcm_verify, relative_closure, weak_extension_witness)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as a writer killed by SIGPIPE, and
        # point stdout at the null device so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        # a falsified internal consequence: neither a negative verdict nor
        # bad input, so it gets its own exit code
        print(f"internal hard fault: {exc}", file=sys.stderr)
        return 70
    except Exception as exc:  # any other escape is a bug: neither a verdict nor bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


def _positive_int(text):
    """argparse type for ``--bound`` and ``--max-order``: a corpus bound
    below 1 holds no module and a maximum order below 1 no ring, so every
    verdict over them would be vacuous."""
    try:
        value = read_int(text)
    except RingSpecError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# -- shared helpers -------------------------------------------------------

def _ideal_str(ideal):
    ring = ideal.ring
    gens = ",".join(ring.element_name(g) for g in ideal.generators)
    elems = ",".join(ring.element_name(i) for i in ideal)
    return f"({gens}) = {{{elems}}}"


def _read_tokens(literal, read):
    """``read`` of each nonblank comma-separated token of ``literal``."""
    return [read(tok) for tok in literal.split(",") if tok.strip()]


def _parse_filter(ring, literal):
    literal = literal.strip()
    return [left_ideal_closure(ring, _read_tokens(part, ring.resolve))
            for part in literal.split(";")] if literal else []


def _parse_module(ring, spec):
    spec = spec.strip()
    if spec in ("", "regular"):
        return regular_module(ring)
    if spec.startswith("power:"):
        k = read_int(spec[6:])
        if k < 1:
            raise RingSpecError("power:k requires k >= 1")
        return power_module(ring, k)
    if spec.startswith("quot:"):
        reg = regular_module(ring)
        sub = submodule_closure(reg, _read_tokens(spec[5:], ring.resolve))
        return quotient_module(reg, sub, name=f"R/({spec[5:]})")
    if spec.startswith("file:"):
        return module_from_table(read_json(spec[5:], "module table"), ring, name=spec)
    raise RingSpecError(f"unknown module spec {spec!r}")


def _parse_sub(module, ring, literal, module_spec):
    regular = module_spec.strip() in ("", "regular")
    gens = _read_tokens(literal, ring.resolve if regular else read_int)
    for g in gens:
        if not 0 <= g < module.order:
            raise RingSpecError(f"module element index {g} out of range")
    return submodule_closure(module, gens)


def _emit(doc, args, text_lines):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- commands --------------------------------------------------------------

def _cmd_ring_info(args):
    ring = parse_ring_spec(args.ring)
    named = {name: idx for name, idx in ring._names.items()}
    doc = {"ring": ring.name, "order": ring.order, "zero": ring.zero,
           "one": ring.one, "commutative": ring.is_commutative(),
           "element_names": named}
    lines = [f"ring {ring.name}: order {ring.order}",
             f"  zero = {ring.zero}, one = {ring.one}",
             f"  commutative: {'yes' if ring.is_commutative() else 'no'}"]
    if named:
        names = ", ".join(f"{k}={v}" for k, v in sorted(named.items()))
        lines.append(f"  named elements: {names}")
    _emit(doc, args, lines)
    return 0


def _cmd_ideals(args):
    ring = parse_ring_spec(args.ring)
    ideals = all_left_ideals(ring)
    doc = {"ring": ring.name,
           "ideals": [dict(a.to_json(), two_sided=is_two_sided(a)) for a in ideals]}
    lines = [f"ring {ring.name}: {len(ideals)} left ideals"]
    for a in ideals:
        tag = " (two-sided)" if is_two_sided(a) else ""
        lines.append(f"  {_ideal_str(a)}{tag}")
    _emit(doc, args, lines)
    return 0


def _cmd_torsion_check(args):
    ring, notion = _require_notion(args)
    if notion is None:
        return 1
    doc = {"ring": ring.name, "valid": True, "ideals": [a.to_json() for a in notion.ideals]}
    _emit(doc, args, [f"VALID torsion notion with {len(notion)} ideals",
                      *(f"  {_ideal_str(a)}" for a in notion.ideals)])
    return 0


def _cmd_torsion_enum(args):
    ring = parse_ring_spec(args.ring)
    notions = enumerate_torsion_notions(ring)
    doc = {"ring": ring.name, "count": len(notions),
           "notions": [[a.to_json() for a in f.ideals] for f in notions]}
    lines = [f"ring {ring.name}: {len(notions)} torsion notions"]
    for f in notions:
        lines.append("  {" + "; ".join(_ideal_str(a) for a in f.ideals) + "}")
    _emit(doc, args, lines)
    return 0


def _require_notion(args):
    """The ring ``args.ring`` and the torsion notion ``args.filter`` names
    over it, or None after emitting the violated axiom: under ``--json``
    the document ``{"ring", "valid": false, "violation"}``, else a line."""
    ring = parse_ring_spec(args.ring)
    result = check_torsion_axioms(ring, _parse_filter(ring, args.filter))
    if isinstance(result, TorsionNotion):
        return ring, result
    doc = {"ring": ring.name, "valid": False, "violation": result.to_json()}
    _emit(doc, args, [f"AXIOM {result.axiom} VIOLATED: {result.message}"])
    return ring, None


def _cmd_closure(args):
    ring, notion = _require_notion(args)
    if notion is None:
        return 1
    module = _parse_module(ring, args.module)
    sub = _parse_sub(module, ring, args.sub, args.module)
    closed = relative_closure(notion, module, sub)
    doc = {"ring": ring.name, "module": module.name, "order": module.order,
           "sub": sorted(sub.elements()), "closure": sorted(closed.elements())}
    _emit(doc, args, [f"module {module.name} (order {module.order})",
                      f"  submodule: {sorted(sub.elements())}",
                      f"  closure:   {sorted(closed.elements())} "
                      f"({len(closed)} elements)"])
    return 0


def _cmd_wep(args):
    ring, notion = _require_notion(args)
    if notion is None:
        return 1
    module = _parse_module(ring, args.module)
    witness = weak_extension_witness(notion, module)
    if witness is None:
        _emit({"ring": ring.name, "module": module.name, "wep": True},
              args, [f"module {module.name}: weak extension principle holds"])
        return 0
    s, t = witness
    doc = {"ring": ring.name, "module": module.name, "wep": False,
           "witness": {"s": sorted(s.elements()), "t": sorted(t.elements())}}
    _emit(doc, args, [f"module {module.name}: WEP FAILS",
                      f"  S = {sorted(s.elements())}",
                      f"  T = {sorted(t.elements())}"])
    return 1


def _cmd_rcm(args):
    ring, notion = _require_notion(args)
    if notion is None:
        return 1
    report = rcm_verify(notion, args.bound)
    doc = dict(report.to_json(), ring=ring.name)
    lines = [f"ring {ring.name}, filter {notion.describe()}",
             f"  modules checked: {report.modules_checked}",
             f"  all lattices modular: {report.all_modular}",
             f"  all WEP pass: {report.all_wep}"]
    for e in report.failures():
        lines.append(f"  FAIL {e['module']}: modular={e['modular']} wep={e['wep']}")
    _emit(doc, args, lines)
    return 0 if report.passed else 1


def _cmd_delta_reduce(args):
    axiom = delta_from_doc(read_json(args.path, "delta axiom"), None)
    ring = axiom.ring
    try:
        red = reduce_delta(axiom)
    except ReductionError as exc:
        out = {"ring": ring.name, "reduced": False, "row": exc.row,
               "coefficient": exc.coefficient, "message": str(exc)}
        _emit(out, args, [f"NOT REDUCIBLE: {exc}"])
        return 1
    rows_doc = [{"a": a, "c": list(c)} for a, c in red.rows]
    out = {"ring": ring.name, "reduced": True, "rows": rows_doc,
           "ideal": red.ideal.to_json(),
           "quasiidentity": format_quasiidentity(red.ideal)}
    lines = [f"ring {ring.name}: reduced {len(red.rows)} rows"]
    for a, c in red.rows:
        terms = [f"{ring.element_name(a)}*X"]
        terms += [f"{ring.element_name(ci)}*U{i}" for i, ci in enumerate(c)]
        lines.append("  E(X,U) = " + " + ".join(terms))
    lines.append(f"  encoding ideal: {_ideal_str(red.ideal)}")
    lines.append(f"  quasiidentity: {format_quasiidentity(red.ideal)}")
    _emit(out, args, lines)
    return 0


def _cmd_classify(args):
    ring = parse_ring_spec(args.ring)
    quasis = [_read_tokens(lit, ring.resolve) for lit in args.quasi]
    idents = [_read_tokens(lit, ring.resolve) for lit in args.ident]
    verdict = classify(ring, quasis, idents, bound=args.bound)
    doc = verdict.to_json()
    lines = [f"ring {ring.name}: {'RCM' if verdict.rcm else 'NOT RCM'}",
             f"  I = {_ideal_str(verdict.annihilator_ideal)}",
             f"  quotient order: {verdict.quotient.order}",
             "  filter (preimages):"]
    lines += [f"    {_ideal_str(a)}" for a in verdict.filter_preimages]
    lines.append(f"  is_variety: {verdict.is_variety}, is_trivial: {verdict.is_trivial}")
    lines.append(f"  corpus checked: {verdict.corpus_modules} modules "
                 f"(bound {verdict.bound})")
    if verdict.violation is not None:
        lines.append(f"  violation: axiom {verdict.violation.axiom}: "
                     f"{verdict.violation.message}")
    _emit(doc, args, lines)
    return 0 if verdict.rcm else 1


# budget picks the instances that run, so it fixes delta_instances: re-pin stdout to change it
def _delta_sweep(ring, seed, corpus, axioms=10, budget=200000):
    """Draw, reduce and plan ``axioms`` reducible delta axioms, then
    evaluate on each corpus module every one within ``budget``
    (m**(2+u+z) tuples).  Each module's instances run as one batch, with
    one ``_FiberTable`` and one dict of quasiidentity verdicts by ideal
    bitset, both dropped before the next module: each fiber and each
    (module, ideal) verdict is built once per batch, and every instance
    is compared with its ideal's verdict."""
    rng = random.Random(f"{seed}/{ring.name}")
    drawn = []
    for _ in range(axioms):
        axiom = random_reducible_delta(ring, rng)
        drawn.append((axiom, reduce_delta(axiom), _delta_plan(axiom),
                      2 + axiom.u_arity + axiom.z_arity))
    instances = 0
    for module in corpus:
        table, verdicts = _FiberTable(module), {}
        for axiom, red, plan, cost_exp in drawn:
            if module.order ** cost_exp <= budget:
                _delta_equiv(module, axiom, red, plan, table, verdicts)
                instances += 1
    return instances


def _cmd_census(args):
    specs = args.specs
    builtin = not specs or specs == ["builtin"]
    pairs = builtin_rings(args.max_order) if builtin else [(spec, None) for spec in specs]
    entries = []
    bad = 0
    negative = 0
    for spec, ring in pairs:
        try:
            ring = ring or parse_ring_spec(spec)  # None: a spec not yet parsed
        except InputError as exc:
            entries.append({"spec": spec, "error": str(exc)})
            bad += 1
            continue
        notions = enumerate_torsion_notions(ring)
        per_notion = []
        for notion in notions:
            report = rcm_verify(notion, args.bound)
            if not report.passed:
                negative += 1
            minimal, quasi = principal_generator(notion)
            entry = {"ideals": [list(a.generators) for a in notion.ideals],
                     "principal": list(minimal.generators),
                     "quasiidentity": quasi,
                     "rcm_pass": report.passed,
                     "modules_checked": report.modules_checked}
            if ring.is_commutative():
                trace = commutative_collapse(ring, notion)
                entry["collapse"] = trace.to_json()
            per_notion.append(entry)
        entry = {"spec": spec, "order": ring.order,
                 "commutative": ring.is_commutative(),
                 "notions": len(notions), "per_notion": per_notion}
        if args.seed is not None:
            corpus = module_corpus(ring, args.bound)
            entry["delta_instances"] = _delta_sweep(ring, args.seed, corpus)
        entries.append(entry)
    # the backend tag stays out of the JSON document so reports are
    # byte-identical across environments, not just across runs
    doc = {"bound": args.bound, "entries": entries}
    lines = [f"census over {len(entries)} entries (backend: {backend()})"]
    for e in entries:
        if "error" in e:
            lines.append(f"  {e['spec']}: ERROR {e['error']}")
            continue
        tags = ", commutative" if e["commutative"] else ""
        lines.append(f"  {e['spec']} (order {e['order']}{tags}): {e['notions']} notions")
        for pn in e["per_notion"]:
            gens = "; ".join(",".join(map(str, g)) for g in pn["ideals"])
            lines.append(f"    {{{gens}}} rcm_pass={pn['rcm_pass']} "
                         f"({pn['modules_checked']} modules)")
        if "delta_instances" in e:
            lines.append(f"    delta sweep: {e['delta_instances']} instances agreed")
    _emit(doc, args, lines)
    if bad:
        return 2
    return 1 if negative else 0


# -- parser ----------------------------------------------------------------

def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as its arguments."""
    return flags, kwargs


_RING = _arg("ring", help="ring spec, e.g. Z(4), UT2(2), prod(Z(2),Z(2))")
_JSON = _arg("--json", action="store_true", help="emit a JSON report")

# each command: its function, its help line and its arguments, in order
_COMMANDS = {
    "ring-info": (_cmd_ring_info, "order, units, and element names of a ring", [_RING, _JSON]),
    "ideals": (_cmd_ideals, "list every left ideal", [_RING, _JSON]),
    "torsion-check": (_cmd_torsion_check, "check the five torsion axioms", [
        _RING, _JSON,
        _arg("--filter", required=True,
             help="semicolon-separated generator lists, e.g. 'e11,e12;1'")]),
    "torsion-enum": (_cmd_torsion_enum, "enumerate all torsion notions", [_RING, _JSON]),
    "closure": (_cmd_closure, "relative closure of a submodule", [
        _RING, _JSON, _arg("--filter", required=True),
        _arg("--module", default="regular", help="regular | power:k | quot:g1,g2,... | file:PATH"),
        _arg("--sub", default="", help="generators of the submodule")]),
    "wep": (_cmd_wep, "weak extension principle over one module", [
        _RING, _JSON, _arg("--filter", required=True), _arg("--module", default="regular")]),
    "rcm": (_cmd_rcm, "modularity + weak extension over the corpus", [
        _RING, _JSON, _arg("--filter", required=True),
        _arg("--bound", type=_positive_int, default=2, help="corpus bound (default 2)")]),
    "delta-reduce": (_cmd_delta_reduce, "reduce a delta-axiom file", [
        _arg("path", help="JSON delta-axiom file"), _arg("--json", action="store_true")]),
    "classify": (_cmd_classify, "classify a quasiidentity-defined class", [
        _RING, _JSON,
        _arg("--quasi", action="append", default=[],
             help="generator list of one quasiidentity (repeatable)"),
        _arg("--ident", action="append", default=[],
             help="coefficient list of one linear identity (repeatable)"),
        _arg("--bound", type=_positive_int, default=2)]),
    "census": (_cmd_census, "aggregate report over a ring corpus", [
        _arg("specs", nargs="*", help="ring specs; 'builtin' or empty = builtin corpus"),
        _arg("--max-order", type=_positive_int, default=16),
        _arg("--bound", type=_positive_int, default=2),
        _arg("--seed", type=int, default=None,
             help="also run a seeded random delta-axiom sweep per ring"),
        _arg("--json", action="store_true")]),
}


@functools.cache
def _parser(command=None):
    """The argument parser with the subparser of ``command`` alone, or
    of every command when it is None (for ``-h``, ``--version`` and
    unknown commands).  Each is built at the first ``main`` call that
    needs it and reused by later calls: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion filters and RCM classification over finite rings")
    parser.add_argument("--version", action="version",
                        version=f"torsionlab {__version__} (backend: {backend()})")
    # a parser for one command names every command in its usage line, as
    # the full one does, so that the errors it reports read the same
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in _COMMANDS if command is None else (command,):
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


if __name__ == "__main__":
    sys.exit(main())
