"""Seeded inputs, command lists and correctness checks of the workloads.

A seed relabels the points and boxes of every instance by seeded
permutations, built through the public ``Groupoid``, ``DoubleGroupoid`` and
``MatchedPair`` constructors, and picks the gauge functions that make the
twist documents.  Edge and arrow indices keep their corpus order: the F_p
and Smith eliminations pivot in the order the arrows give the nerves, and
their cost depends on it several-fold (``kac`` took 21.7 to 47.1 s over five
arrow relabellings, the integral cohomology of S3 more than 30 s against
6.8 s), so relabelling arrows would make the work differ from seed to seed.

Every command's output that does not depend on the labelling must equal the
one recorded in ``golden.json`` byte for byte; the output that lists boxes
must equal it once the relabelling is undone.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from dgq import cocycles, double, io, matched
from dgq.groupoids import UNDEF, Groupoid
from dgq.matched import MatchedPair

GOLDEN_PATH = Path(__file__).with_name("golden.json")

def _z(rank, *torsion):
    return {"rank": rank, "torsion": list(torsion)}


# Cohomology of S3 (and of the diagonal groupoid of product_s3_x21, which is
# equivalent to it) from degree 0 up: over Z it is Z, 0, Z/2, 0, ..., over
# F_2 one-dimensional in every degree, over F_3 1, 0, 0, 1, 1, ...
S3_INTEGRAL = [_z(1), _z(0), _z(0, 2), _z(0)]
S3_MOD2 = [1] * 5
S3_MOD3 = [1, 0, 0, 1, 1]


@dataclass
class Command:
    """One CLI invocation; ``argv`` names documents by their input name."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)   # key -> required value
    # The output lists boxes of this input, so it depends on the seed; the
    # golden value is then a digest taken with the relabelling undone.
    lists_boxes_of: str | None = None


def _cmd(argv, expect, **kwargs):
    return Command(" ".join(argv), argv, expect, **kwargs)


def _verify(name, *extra):
    return _cmd(["wha", "verify", name, *extra],
                {"failures": [], "involutory": True})


def _kac(name, p):
    return _cmd(["kac", name, "--p", str(p)], {"exact": True})


def _cohomology(name, coefficients, groups):
    return _cmd(["cohomology", name, *coefficients, "--degree",
                 str(len(groups) - 1)],
                {f"H{n}": g for n, g in enumerate(groups)})


def _classes(name, m, classes):
    return _cmd(["cocycles", "classes", name, "--m", str(m)],
                {"classes": classes})


# Each pass takes a few seconds, so that a run repeats it and sums over the
# passes: on a shared host one command can take twice as long as the same
# command a minute later, and one long pass per run would carry that whole.
# That leaves out single commands of 7-20 s (kac product_s3_x21, wha verify
# X_{2,4} over Q, the integral cohomology of S3 to degree 4) and commands
# that repeat another's work (classes of x23 repeats its enumeration).  The
# hot path of the first stays in through the diagonal groupoid of
# product_s3_x21.
WORKLOADS = {
    # The wha n^3 axiom scans over Q (Fraction arithmetic) dominate;
    # cohomology, linalg and cocycles do no work, and no F_p arithmetic runs.
    "verify": [_verify("x22"), _verify("x23"), _verify("union_x22_s3"),
               _verify("product_s3_x21")],
    # Nerve and complex assembly and F_p elimination dominate; wha does no
    # work.
    "kac": [_kac("x23", 2), _kac("x23", 3), _kac("s3_matched_pair", 2),
            _kac("union_x22_s3", 3),
            _cohomology("s3_group", ["--p", "2"], S3_MOD2),
            _cohomology("s3_group", ["--p", "3"], S3_MOD3),
            _cohomology("diag_product_s3_x21", ["--p", "2"], S3_MOD2[:3])],
    # The same layers used differently: Smith form over Z, twisted wha over
    # F_p (the only F_p arithmetic of the three workloads), one cocycle
    # validation per enumerated pair, megabytes of output.
    "twists": [
        _cmd(["cocycles", "enumerate", "x23", "--m", "2"], {"count": 1024},
             lists_boxes_of="x23"),
        _classes("union_x22_s3", 2, 1), _classes("product_s3_x21", 2, 2),
        _cohomology("s3_group", ["--integral"], S3_INTEGRAL),
        _verify("x23", "--p", "3", "--m", "2", "--cocycle", "twist_x23"),
    ],
}


def _corpus(stem):
    return lambda root: io.load_path(root / "corpus" / f"{stem}.json")


def _diagonal(root):
    t = _corpus("product_s3_x21")(root).payload
    return io.Document("groupoid", matched.diagonal_groupoid(
        matched.from_vacant_double(t)).groupoid)


# Input name -> how to make its document before relabelling.
SOURCES = {
    **{stem: _corpus(stem) for stem in
       ("x22", "x23", "union_x22_s3", "product_s3_x21", "s3_matched_pair",
        "s3_group")},
    "diag_product_s3_x21": _diagonal,
}
# Twist documents: name -> (instance it binds to, modulus).
TWISTS = {"twist_x23": ("x23", 2)}


def input_names(workload: str) -> list[str]:
    """Every document a workload's commands name, instances before twists."""
    names = []
    for cmd in WORKLOADS[workload]:
        for arg in cmd.argv:
            if (arg in TWISTS or arg in SOURCES) and arg not in names:
                names.append(arg)
    return sorted(names, key=lambda n: n in TWISTS)


# -- relabelling -------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _inverse(p):
    inv = [0] * len(p)
    for old, new in enumerate(p):
        inv[new] = old
    return inv


def relabel_groupoid(g: Groupoid, obj) -> Groupoid:
    """The isomorphic groupoid with object i renamed obj[i]."""
    identity = [0] * g.n_objects
    for x in range(g.n_objects):
        identity[obj[x]] = g.identity[x]
    return Groupoid(g.n_objects, [obj[x] for x in g.source],
                    [obj[x] for x in g.target], identity, g.compose)


def relabel_double(t: double.DoubleGroupoid, pts, box):
    """The isomorphic double groupoid with point p renamed pts[p] and box a
    renamed box[a]."""
    back = _inverse(box)
    n = t.n_boxes

    def comp(table):
        return [[UNDEF if table[back[i]][back[j]] == UNDEF
                 else box[table[back[i]][back[j]]]
                 for j in range(n)] for i in range(n)]

    return double.DoubleGroupoid(
        relabel_groupoid(t.horiz, pts), relabel_groupoid(t.vert, pts),
        [t.top[back[i]] for i in range(n)],
        [t.bottom[back[i]] for i in range(n)],
        [t.left[back[i]] for i in range(n)],
        [t.right[back[i]] for i in range(n)],
        [box[a] for a in t.vid], [box[a] for a in t.hid],
        comp(t.vcomp), comp(t.hcomp))


def relabel_matched(mp: MatchedPair, pts) -> MatchedPair:
    """The isomorphic matched pair with point p renamed pts[p]."""
    return MatchedPair(relabel_groupoid(mp.vert, pts),
                       relabel_groupoid(mp.horiz, pts),
                       mp.act_left, mp.act_right)


def _relabel(obj, rng: random.Random):
    """Seeded permutations of the points and, for a double groupoid, of the
    boxes; returns the relabelled payload and the box permutation."""
    pts = _perm(rng, obj.n_objects if isinstance(obj, Groupoid)
                else obj.n_points)
    if isinstance(obj, Groupoid):
        return relabel_groupoid(obj, pts), None
    if isinstance(obj, MatchedPair):
        return relabel_matched(obj, pts), None
    box = _perm(rng, obj.n_boxes)
    return relabel_double(obj, pts, box), box


@dataclass
class Inputs:
    """Generated documents of one workload and the box permutations used."""

    paths: dict[str, Path]
    box_perm: dict[str, list[int]]
    instances: dict[str, object]


def generate(root: Path, workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write the seeded documents of ``workload`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, box_perm, instances = {}, {}, {}
    for name in input_names(workload):
        rng = random.Random(f"{seed}/{name}")
        if name in TWISTS:
            base, m = TWISTS[name]
            t = instances[base]
            psi = [0 if (t.is_vid(a) or t.is_hid(a)) else rng.randrange(m)
                   for a in t.boxes()]
            # The zero pair is the first enumerated pair; its gauge orbit is
            # the trivial twist class.
            cp = cocycles.gauge_transform(t, cocycles.zero_pair(t, m), psi)
            doc = io.Document("cocycle_pair", io.cocycle_document(t, cp))
        else:
            doc = SOURCES[name](root)
            obj = doc.payload
            obj, perm = _relabel(obj, rng)
            if perm:
                box_perm[name] = perm
            doc = io.Document(doc.kind, obj)
            instances[name] = obj
        paths[name] = out_dir / f"{name}.json"
        io.save_path(paths[name], doc)
    return Inputs(paths, box_perm, instances)


def validate_argvs(inputs: Inputs) -> list[list[str]]:
    """``dgq validate`` invocations covering every generated document."""
    out = []
    for name, path in inputs.paths.items():
        argv = ["validate", str(path)]
        if name in TWISTS:
            argv += ["--against", str(inputs.paths[TWISTS[name][0]])]
        out.append(argv)
    return out


def concrete_argv(cmd: Command, inputs: Inputs) -> list[str]:
    return ["--format", "machine"] + [str(inputs.paths.get(a, a))
                                      for a in cmd.argv]


# -- correctness ---------------------------------------------------------------


def canonical_pairs_digest(stdout: str, box_perm) -> str:
    """Digest of an enumerated pair list with the box relabelling undone, so
    it is the same for every seed."""
    back = _inverse(box_perm)
    pairs = sorted(
        (sorted([back[a], back[b], v] for a, b, v in p["sigma"]),
         sorted([back[a], back[b], v] for a, b, v in p["tau"]))
        for p in json.loads(stdout)["pairs"])
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_value(cmd: Command, stdout: str, inputs: Inputs) -> str:
    """What ``golden.json`` records for a command: its stdout, or for a
    seed-dependent one the digest that undoes the relabelling."""
    if cmd.lists_boxes_of:
        return canonical_pairs_digest(stdout,
                                      inputs.box_perm[cmd.lists_boxes_of])
    return stdout


def check(cmd: Command, code: int, stdout: str, inputs: Inputs,
          golden: dict) -> list[str]:
    """Reasons the command's result is wrong; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON object: {exc}"]
    problems = [] if out.get("ok") is True else ['"ok" is not true']
    for key, want in cmd.expect.items():
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, expected {want!r}")
    if golden_value(cmd, stdout, inputs) != golden.get(cmd.label):
        problems.append("output differs from golden.json")
    return problems


# -- bases computed from the inputs ---------------------------------------------


def wha_bases(workload: str, inputs: Inputs) -> dict[str, int]:
    """Boxes, scanned triples n^3 and vertically composable triples, summed
    over the workload's ``wha verify`` commands."""
    boxes = triples = composable = 0
    for cmd in WORKLOADS[workload]:
        if cmd.argv[0] != "wha":
            continue
        t = inputs.instances[cmd.argv[2]]
        n = t.n_boxes
        boxes += n
        triples += n ** 3
        ending = [0] * t.horiz.n_arrows     # boxes with bottom edge x
        starting = [0] * t.horiz.n_arrows   # boxes with top edge x
        for a in t.boxes():
            ending[t.bottom[a]] += 1
            starting[t.top[a]] += 1
        # (a, b, c) with bottom(a) = top(b) and bottom(b) = top(c)
        composable += sum(ending[t.top[b]] * starting[t.bottom[b]]
                          for b in t.boxes())
    return {"wha.boxes": boxes, "wha.triples": triples,
            "wha.triples_composable": composable}
