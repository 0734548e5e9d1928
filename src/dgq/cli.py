"""Command-line surface.

Exit codes: 0 success, 1 the mathematics failed (axiom violated, not vacant,
sequence not exact, ...), 2 malformed input, unsupported configuration or
output that cannot be written (a closed pipe, a full disk).
Reports are deterministic; ``--format machine`` emits a single JSON object
with sorted keys and no timestamps, written key by key (the pairs of
``cocycles enumerate`` one at a time).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator

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
    out.put("kind", doc.kind)
    if doc.kind == "groupoid":
        rep = validate_groupoid(doc.payload)
    elif doc.kind == "double_groupoid":
        rep = dbl.validate_double_groupoid(doc.payload)
    elif doc.kind == "matched_pair":
        rep = mtd.validate_matched_pair(doc.payload)
    elif doc.kind == "cocycle_pair" and args.against:
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
    t = _as_double(dio.load_path(args.path))
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
        result = dio.Document("double_groupoid", mtd.to_vacant_double(doc.payload))
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgq",
        description="exact computations with finite double groupoids and "
                    "their box algebras")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; computation "
                             "is sequential and output never depends on it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check the axioms of a document")
    p.add_argument("path")
    p.add_argument("--against", help="double groupoid to bind a cocycle_pair to")

    p = add("vacant", cmd_vacant, help="decide vacancy of a double groupoid")
    p.add_argument("path")

    p = add("convert", cmd_convert, help="matched pair <-> double groupoid")
    p.add_argument("path")
    p.add_argument("--to", required=True,
                   choices=("double_groupoid", "matched_pair"))
    p.add_argument("-o", "--output")

    wha_parser = sub.add_parser("wha", help="box algebra construction/verification")
    wha_sub = wha_parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("build", cmd_wha_build), ("verify", cmd_wha_verify)):
        p = wha_sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("path")
        p.add_argument("--p", type=int, default=0, help="field characteristic")
        p.add_argument("--m", type=int, default=1, help="twist modulus")
        p.add_argument("--zeta", type=int, default=None,
                       help="designated root of unity (default: smallest)")
        p.add_argument("--cocycle", help="cocycle_pair document")

    cc_parser = sub.add_parser("cocycles", help="enumerate twists / gauge classes")
    cc_sub = cc_parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("enumerate", cmd_cocycles_enumerate),
                     ("classes", cmd_cocycles_classes)):
        p = cc_sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("path")
        p.add_argument("--m", type=int, required=True)
        if name == "enumerate":
            p.add_argument("--budget", type=int, default=10 ** 6,
                           help="most pairs to write; the pairs are walked "
                                "one at a time, so it bounds the output, "
                                "not memory")

    p = add("cohomology", cmd_cohomology, help="groupoid cohomology")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, help="prime field coefficients")
    group.add_argument("--integral", action="store_true",
                       help="integer coefficients (Smith normal form)")
    p.add_argument("--degree", type=int, default=2)

    p = add("kac", cmd_kac, help="long-exact-sequence report")
    p.add_argument("path")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--strict-normalization", choices=("on", "off"),
                   default="on", dest="strict_normalization",
                   help="off switches to the asymmetric degeneracy thresholds "
                        "(experimental; the grid may fail d.d = 0)")

    p = add("blocks", cmd_blocks, help="matrix blocks of the untwisted algebra")
    p.add_argument("path")
    return parser


def run(argv=None) -> int:
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
