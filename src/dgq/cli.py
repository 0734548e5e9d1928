"""Command-line surface.

Exit codes: 0 success, 1 the mathematics failed (axiom violated, not vacant,
sequence not exact, ...), 2 malformed input, unsupported configuration or
output that cannot be written (a closed pipe, a full disk).
Reports are deterministic; ``--format machine`` emits a single JSON object
with sorted keys and no timestamps, written key by key (the pairs of
``cocycles enumerate`` one at a time).

Every command and option is declared once, in ``COMMANDS``.  ``_parse``
reads a plain command line from that table; argparse, which ``make_parser``
builds from the same table, is loaded only to print help or a usage error.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

# cocycles, cohomology and wha are imported inside the commands that run
# them, so that each command loads only its own modules.  They are bound as
# module objects, never as names copied here, so a function replaced on its
# module (as the benchmark's tracer does) is the one called.
from . import double as dbl
from . import io as dio
from . import matched as mtd
from .errors import (FactorizationError, FormatError, InternalConsistencyError,
                     ResourceBudgetError, StructureError, TruncationError,
                     UnembeddableError, UnsupportedFeatureError, VacancyError)
from .fields import FieldSpec
from .groupoids import validate_groupoid

MATH_FAILURE = 1
BAD_INPUT = 2


def _field_from_args(args) -> FieldSpec:
    p, zeta = args.p, args.zeta
    if zeta is not None and p:
        zeta %= p
    return FieldSpec(p, args.m, zeta)


def _as_double(doc: dio.Document) -> dbl.DoubleGroupoid:
    if doc.kind == "double_groupoid":
        return doc.payload
    if doc.kind == "matched_pair":
        return mtd.to_vacant_double(doc.payload)
    raise FormatError(f"need a double_groupoid or matched_pair document, "
                      f"got {doc.kind}")


class Output:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.data: dict = {}
        self.lines: list[str] = []

    def put(self, key, value, line=None):
        self.data[key] = value
        self.lines.append(line if line is not None else f"{key}: {value}")

    def note(self, line: str) -> None:
        """A line of text output only; machine output does not carry it."""
        self.lines.append(line)

    def flush(self, command: str, ok: bool) -> None:
        """Print the text lines, or the machine object key by key in sorted
        order: the bytes of ``json.dumps(data, sort_keys=True)``.  A value
        given as an iterator of JSON texts is written as the array of those
        texts, one text at a time, so that it is never held whole."""
        if self.fmt != "machine":
            for line in self.lines:
                print(line)
            print("result: " + ("pass" if ok else "FAIL"))
            return
        self.data["command"] = command
        self.data["ok"] = ok
        write = sys.stdout.write
        sep = "{"
        for key in sorted(self.data):
            write(f"{sep}{json.dumps(key)}: ")
            sep = ", "
            value = self.data[key]
            if isinstance(value, Iterator):
                write("[")
                for i, text in enumerate(value):
                    write(", " + text if i else text)
                write("]")
            else:
                write(json.dumps(value, sort_keys=True))
        write("}\n")


def _note_checked(out: Output, rep) -> None:
    """The tuples examined per rule, in text output only; a rule that
    examined none is flagged, since its pass is vacuous."""
    if rep.checked:
        out.note("tuples checked:\n" + "\n".join(
            f"  {rule}: {k}" + ("" if k else " (vacuous)")
            for rule, k in rep.checked.items()))


def _report_failures(out: Output, rep) -> None:
    out.put("failures",
            [{"rule": f.rule, "witness": list(f.witness), "message": f.message}
             for f in rep.failures],
            "failures:\n" + "\n".join(f"  {f}" for f in rep.failures[:25])
            if rep.failures else "failures: none")


# -- subcommands ---------------------------------------------------------


def cmd_validate(args, out: Output) -> int:
    doc = dio.load_path(args.path)
    if args.against is not None and doc.kind != "cocycle_pair":
        raise FormatError(f"--against binds a cocycle_pair document, "
                          f"not a {doc.kind}")
    out.put("kind", doc.kind)
    if doc.kind == "groupoid":
        rep = validate_groupoid(doc.payload)
    elif doc.kind == "double_groupoid":
        rep = dbl.validate_double_groupoid(doc.payload)
    elif doc.kind == "matched_pair":
        rep = mtd.validate_matched_pair(doc.payload)
    elif doc.kind == "cocycle_pair" and args.against is not None:
        from . import cocycles as ccy
        t = _as_double(dio.load_path(args.against))
        cp = dio.cocycle_pair_for(t, doc.payload)
        rep = ccy.validate_cocycle_pair(t, cp)
        _note_checked(out, rep)
    else:
        out.put("note", "structurally well-formed; nothing further to check")
        return 0
    _report_failures(out, rep)
    return 0 if rep.ok else MATH_FAILURE


def cmd_vacant(args, out: Output) -> int:
    doc = dio.load_path(args.path)
    if doc.kind == "matched_pair":
        # a matched pair that fails its axioms has no double groupoid to
        # build; its failures are reported as validate reports them
        rep = mtd.validate_matched_pair(doc.payload)
        if not rep.ok:
            _report_failures(out, rep)
            return MATH_FAILURE
    t = _as_double(doc)
    rep = dbl.validate_double_groupoid(t)
    if not rep.ok:
        _report_failures(out, rep)
        return MATH_FAILURE
    verdict = dbl.is_vacant(t)
    out.put("vacant", verdict.vacant)
    if not verdict.vacant:
        cond, corner, fillers = verdict.witness
        out.put("witness", {"condition": cond, "corner": list(corner),
                            "fillers": list(fillers)},
                f"witness: corner {corner} has fillers {list(fillers)}")
        return MATH_FAILURE
    return 0


def cmd_convert(args, out: Output) -> int:
    doc = dio.load_path(args.path)
    if args.to == "double_groupoid":
        if doc.kind != "matched_pair":
            raise FormatError("convert --to double_groupoid needs a matched_pair")
        t = mtd.to_vacant_double(doc.payload)
        dbl.require_vacant(t)   # as that of a valid matched pair must be
        result = dio.Document("double_groupoid", t)
    elif args.to == "matched_pair":
        t = _as_double(doc)
        result = dio.Document("matched_pair", mtd.from_vacant_double(t))
    else:
        raise FormatError(f"cannot convert to {args.to!r}")
    text = dio.emit(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.put("written", args.output)
    else:
        out.put("document", json.loads(text), text.rstrip("\n"))
    return 0


def _build_wha(args):
    from . import wha
    t = _as_double(dio.load_path(args.path))
    fs = _field_from_args(args)
    cp = None
    if args.cocycle:
        cdoc = dio.load_path(args.cocycle)
        if cdoc.kind != "cocycle_pair":
            raise FormatError("--cocycle expects a cocycle_pair document")
        from . import cocycles as ccy
        cp = dio.cocycle_pair_for(t, cdoc.payload)
        bad = ccy.validate_cocycle_pair(t, cp)
        if not bad.ok:
            raise StructureError(f"cocycle pair invalid: {bad.failures[0]}")
    return t, wha.build(t, cp, fs)


def cmd_wha_build(args, out: Output) -> int:
    from . import wha
    t, w = _build_wha(args)
    out.put("dimension", w.dim)
    out.put("points", t.n_points)
    out.put("twisted", w.is_twisted())
    out.put("hopf", wha.is_hopf(w))
    out.put("involutory", wha.check_involutory(w))
    if not w.is_twisted():
        _put_blocks(out, w)
    out.put("unit_object_simple", wha.unit_object_simple(t))
    return 0


def _put_blocks(out: Output, w) -> None:
    from . import wha
    bs = wha.block_structure(w)
    for key, blocks in (("algebra_blocks", bs.algebra_blocks),
                        ("coalgebra_blocks", bs.coalgebra_blocks)):
        out.put(key, [{"base": b, "group_order": o, "matrix_size": n}
                      for b, o, n in blocks])


def cmd_wha_verify(args, out: Output) -> int:
    from . import wha
    t, w = _build_wha(args)
    rep = wha.verify_axioms(w)
    involutory = wha.check_involutory(w)
    out.put("dimension", w.dim)
    out.put("involutory", involutory)
    _note_checked(out, rep)
    _report_failures(out, rep)
    return 0 if rep.ok and involutory else MATH_FAILURE


def cmd_cocycles_enumerate(args, out: Output) -> int:
    from . import cocycles as ccy
    t = _as_double(dio.load_path(args.path))
    pairs = ccy.enumerate_cocycle_pairs(t, args.m, args.budget)
    out.put("modulus", args.m)
    out.put("count", len(pairs))
    out.put("pairs", dio.cocycle_texts(t, pairs),
            f"pairs: {len(pairs)} (machine format lists them)")
    return 0


def cmd_cocycles_classes(args, out: Output) -> int:
    from . import cocycles as ccy
    t = _as_double(dio.load_path(args.path))
    out.put("modulus", args.m)
    out.put("classes", ccy.count_modulo_gauge(t, args.m))
    return 0


def cmd_cohomology(args, out: Output) -> int:
    from . import cohomology as coh
    doc = dio.load_path(args.path)
    if doc.kind != "groupoid":
        raise FormatError("cohomology expects a groupoid document")
    coeff = "Z" if args.integral else ("Fp", args.p)
    rep = coh.groupoid_cohomology(doc.payload, args.degree, coeff)
    out.put("coefficients", rep.coefficients)
    for n, grp in enumerate(rep.groups):
        if isinstance(grp, coh.FpGroup):
            out.put(f"H{n}", grp.dim, f"H^{n}: dimension {grp.dim}")
        else:
            out.put(f"H{n}", {"rank": grp.rank, "torsion": list(grp.torsion)},
                    f"H^{n}: {grp}")
    return 0


def cmd_kac(args, out: Output) -> int:
    from . import cohomology as coh
    t = _as_double(dio.load_path(args.path))
    normalization = "strict" if args.strict_normalization == "on" else "literal"
    rep = coh.kac_report(t, args.p, normalization=normalization)
    for label, dim in rep.paper_groups():
        out.put(label, dim)
    out.put("kes_aux", {str(k): v for k, v in rep.kes_aux.items()})
    out.put("edge_splitting", {str(k): v for k, v in rep.tot_e_split.items()})
    out.put("nodes", [{"label": n.label, "dim": n.dim, "rank_in": n.rank_in,
                       "rank_out": n.rank_out, "exact": n.exact}
                      for n in rep.nodes],
            "nodes:\n" + "\n".join(
                f"  {n.label}: dim={n.dim} in={n.rank_in} out={n.rank_out} "
                f"{'exact' if n.exact else 'NOT EXACT'}" for n in rep.nodes))
    out.put("exact", rep.exact, "sequence: " + ("exact" if rep.exact else "NOT exact"))
    return 0 if rep.exact else MATH_FAILURE


def cmd_blocks(args, out: Output) -> int:
    from . import wha
    t = _as_double(dio.load_path(args.path))
    w = wha.build(t)
    out.put("dimension", w.dim)
    _put_blocks(out, w)
    return 0


class _Option:
    """One ``add_argument`` call of the table: its flags and keyword
    arguments, the mutually exclusive group it joins (each such group is
    required), and the dest and default argparse gives it."""

    def __init__(self, *flags, group=None, **kwargs):
        self.flags, self.group, self.kwargs = flags, group, kwargs
        self.dest = kwargs.get("dest") or next(
            f for f in flags if f.startswith("--"))[2:].replace("-", "_")
        self.default = kwargs.get(
            "default", False if kwargs.get("action") == "store_true" else None)


GLOBAL_OPTIONS = (
    _Option("--format", choices=("text", "machine"), default="text"),
    _Option("--threads", type=int, default=1,
            help="accepted for interface stability; computation is "
                 "sequential and output never depends on it"),
)
_WHA_OPTIONS = (
    _Option("--p", type=int, default=0, help="field characteristic"),
    _Option("--m", type=int, default=1, help="twist modulus"),
    _Option("--zeta", type=int, default=None,
            help="designated root of unity (default: smallest)"),
    _Option("--cocycle", help="cocycle_pair document"),
)
_M = _Option("--m", type=int, required=True)

# Every command, in the order argparse adds it: its words, its handler
# (None for a word that only groups subcommands), the help argparse lists
# it under (None: none given) and its options.  Every command takes one
# positional path, added before its options.
COMMANDS = (
    (("validate",), cmd_validate, "check the axioms of a document", (
        _Option("--against", help="double groupoid to bind a cocycle_pair to"),
    )),
    (("vacant",), cmd_vacant, "decide vacancy of a double groupoid", ()),
    (("convert",), cmd_convert, "matched pair <-> double groupoid", (
        _Option("--to", required=True,
                choices=("double_groupoid", "matched_pair")),
        _Option("-o", "--output"),
    )),
    (("wha",), None, "box algebra construction/verification", ()),
    (("wha", "build"), cmd_wha_build, None, _WHA_OPTIONS),
    (("wha", "verify"), cmd_wha_verify, None, _WHA_OPTIONS),
    (("cocycles",), None, "enumerate twists / gauge classes", ()),
    (("cocycles", "enumerate"), cmd_cocycles_enumerate, None, (
        _M,
        _Option("--budget", type=int, default=10 ** 6,
                help="most pairs to write; the pairs are walked one at a "
                     "time, so it bounds the output, not memory"),
    )),
    (("cocycles", "classes"), cmd_cocycles_classes, None, (_M,)),
    (("cohomology",), cmd_cohomology, "groupoid cohomology", (
        _Option("--p", group="coefficients", type=int,
                help="prime field coefficients"),
        _Option("--integral", group="coefficients", action="store_true",
                help="integer coefficients (Smith normal form)"),
        _Option("--degree", type=int, default=2),
    )),
    (("kac",), cmd_kac, "long-exact-sequence report", (
        _Option("--p", type=int, required=True),
        _Option("--strict-normalization", choices=("on", "off"), default="on",
                dest="strict_normalization",
                help="off switches to the asymmetric degeneracy thresholds "
                     "(experimental; the grid may fail d.d = 0)"),
    )),
    (("blocks",), cmd_blocks, "matrix blocks of the untwisted algebra", ()),
)
_BY_WORDS = {words: (fn, options) for words, fn, _, options in COMMANDS}


def make_parser():
    """The argparse parser of ``COMMANDS``.  Only help and usage errors
    need it, so argparse is imported here."""
    import argparse

    def add_options(parser, options):
        groups = {}
        for opt in options:
            target = parser
            if opt.group is not None:
                if opt.group not in groups:
                    groups[opt.group] = parser.add_mutually_exclusive_group(
                        required=True)
                target = groups[opt.group]
            target.add_argument(*opt.flags, **opt.kwargs)

    parser = argparse.ArgumentParser(
        prog="dgq",
        description="exact computations with finite double groupoids and "
                    "their box algebras")
    add_options(parser, GLOBAL_OPTIONS)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, fn, summary, options in COMMANDS:
        kwargs = {} if summary is None else {"help": summary}
        p = subparsers[words[:-1]].add_parser(words[-1], **kwargs)
        if fn is None:
            subparsers[words] = p.add_subparsers(dest="subcommand",
                                                 required=True)
            continue
        p.set_defaults(fn=fn)
        p.add_argument("path")
        add_options(p, options)
    return parser


def _long_flags(options):
    return {f: opt for opt in options for f in opt.flags if f.startswith("--")}


def _parse(argv):
    """The attributes ``make_parser().parse_args(argv)`` gives, read without
    argparse, or None for an argv outside this grammar: ``--format`` and
    ``--threads`` (at least 1) first, then the command's words, then its
    path (not starting with ``-``) and its options, each named in full and
    followed by a separate value not starting with ``-``, ``store_true``
    flags alone.  Help, abbreviations, ``--opt=value``, short flags, and
    every argv that argparse refuses get None, and argparse then parses
    the argv itself."""
    options = _long_flags(GLOBAL_OPTIONS)
    given = {}
    words = ()
    fn = command_options = None
    paths = []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            opt = options.get(token)
            if opt is None:
                return None
            if opt.kwargs.get("action") == "store_true":
                given[opt.dest] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = opt.kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value not in opt.kwargs.get("choices", (value,)):
                return None
            given[opt.dest] = value
        elif fn is None:
            words += (token,)
            if words not in _BY_WORDS:
                return None
            fn, command_options = _BY_WORDS[words]
            options = _long_flags(command_options)
        else:
            paths.append(token)
    if fn is None or len(paths) != 1:
        return None
    values = {"fn": fn, "command": words[0], "path": paths[0]}
    if len(words) > 1:
        values["subcommand"] = words[1]
    for opt in GLOBAL_OPTIONS + command_options:
        if opt.dest in given:
            values[opt.dest] = given[opt.dest]
        elif opt.kwargs.get("required"):
            return None
        else:
            values[opt.dest] = opt.default
    for group in {opt.group for opt in command_options} - {None}:
        # argparse counts an option of a group only if its value is not the
        # default object itself
        picked = [opt for opt in command_options
                  if opt.group == group and opt.dest in given]
        if [values[opt.dest] is not opt.default for opt in picked] != [True]:
            return None
    if values["threads"] < 1:
        return None
    return SimpleNamespace(**values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        parser = make_parser()
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error("--threads must be >= 1")
    out = Output(args.format)
    try:
        code = args.fn(args, out)
    except (FormatError, StructureError, TruncationError, ResourceBudgetError,
            UnembeddableError, UnsupportedFeatureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (VacancyError, FactorizationError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return MATH_FAILURE
    except InternalConsistencyError as exc:
        # two internal routes to one result disagree: a fault of this
        # program, not of the input, so it exits 1
        print(f"failed: {exc}", file=sys.stderr)
        return MATH_FAILURE
    try:
        out.flush(_command_name(args), code == 0)
        sys.stdout.flush()
    except OSError as exc:
        # what is still buffered would fail again at exit, so it goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return BAD_INPUT
    return code


def _command_name(args) -> str:
    name = args.command
    if getattr(args, "subcommand", None):
        name += " " + args.subcommand
    return name


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
