"""Per-layer spans and counts recorded from outside the library.

``Tracer.install()`` replaces each traced function at the binding its caller
uses (for example ``dgq.cohomology.rank_fp``, the name ``cohomology`` calls)
with a wrapper that records a span: name, start, end, parent and the index of
the command it belongs to.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus the parts their child spans
cover.  The wrappers' own bookkeeping runs inside ``trace.hooks`` spans, so
it is charged to no layer.

FieldSpec calls are too many and too short to wrap in a timed run: on the
``verify`` workload they number millions, and a counting wrapper inside the
spans would be charged to ``wha.verify``.  ``FieldOpCounter`` counts them in
a replay of its own, whose times are not used.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# span name -> the bindings ("module:attribute" or "module:Class.method")
SPANS = {
    "io.load": ["dgq.io:load_path", "dgq.io:cocycle_pair_for"],
    "io.emit": ["dgq.io:cocycle_document", "dgq.cli:Output.flush"],
    "double.validate": ["dgq.double:validate_double_groupoid",
                        "dgq.wha:validate_double_groupoid"],
    "double.vacancy": ["dgq.double:require_vacant", "dgq.double:is_vacant",
                       "dgq.wha:require_vacant", "dgq.matched:require_vacant"],
    "wha.build": ["dgq.wha:build"],
    "wha.verify": ["dgq.wha:verify_axioms", "dgq.wha:check_involutory"],
    "matched.diagonal": ["dgq.cohomology:diagonal_groupoid"],
    "matched.convert": ["dgq.cohomology:from_vacant_double",
                        "dgq.matched:to_vacant_double"],
    "cohomology.groupoid": ["dgq.cohomology:groupoid_cohomology"],
    "cohomology.complex": ["dgq.cohomology:build_double_complex",
                           "dgq.cohomology:total_matrix"],
    "cohomology.sequence": ["dgq.cohomology:kac_report",
                            "dgq.cohomology:total_cohomology"],
    "cocycles.enumerate": ["dgq.cocycles:enumerate_cocycle_pairs"],
    "cocycles.validate": ["dgq.cocycles:validate_cocycle_pair"],
    "cocycles.gauge": ["dgq.cocycles:count_modulo_gauge"],
}

# binding -> (span name, positions of the matrix arguments, modulus position)
# The modulus is part of an F_p reduction's identity; a Smith form is not.
LINALG = {
    "dgq.cohomology:rank_fp": ("linalg.fp", (0,), 1),
    "dgq.cohomology:nullity_fp": ("linalg.fp", (0,), 2),
    "dgq.cohomology:nullspace_fp": ("linalg.fp", (0,), 2),
    "dgq.cohomology:SubquotientFp": ("linalg.fp", (1, 2), 3),
    "dgq.linalg:SubquotientFp.coords": ("linalg.fp", (), None),
    "dgq.cohomology:rank_z": ("linalg.z", (0,), None),
    "dgq.cohomology:elementary_divisors": ("linalg.z", (0,), None),
    "dgq.cocycles:count_solutions_mod_m": ("linalg.z", (0,), None),
    "dgq.cocycles:solutions_mod_m": ("linalg.z", (0,), None),
    "dgq.cohomology:matmul": ("linalg.matmul", (0, 1), None),
    "dgq.cohomology:is_zero_matrix": ("linalg.matmul", (0,), None),
}

FIELD_OPS = ("add", "sub", "neg", "mul", "inv")

HOOKS = "trace.hooks"


def _resolve(binding):
    module, _, attr = binding.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _matrix_digest(rows) -> int:
    return hash((len(rows), tuple(
        hash(frozenset(r.items())) if isinstance(r, dict) else hash(tuple(r))
        for r in rows)))


def _cells_nnz(rows) -> tuple[int, int]:
    cells = nnz = 0
    for r in rows:
        if isinstance(r, dict):
            nnz += sum(1 for v in r.values() if v)
            cells += len(r)
        else:
            cells += len(r)
            nnz += len(r) - r.count(0)
    return cells, nnz


class Patches:
    """Functions replaced at their bindings, and how to put them back."""

    def __init__(self):
        self._undo = []

    def patch(self, binding, make) -> None:
        owner, attr = _resolve(binding)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class FieldOpCounter:
    """Counts FieldSpec add, sub, neg, mul and inv calls over Q and over F_p."""

    def __init__(self):
        self.ops = [0, 0]        # [over Q, over F_p]
        self._patched = Patches()

    def start_command(self) -> None:
        pass

    def end_command(self) -> None:
        pass

    def _counted(self, fn):
        ops = self.ops

        def op(fs, *args):
            ops[fs.characteristic != 0] += 1
            return fn(fs, *args)
        return op

    def install(self) -> None:
        for op in FIELD_OPS:
            self._patched.patch(f"dgq.fields:FieldSpec.{op}", self._counted)

    def uninstall(self) -> None:
        self._patched.undo()


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []          # [command, name, start, end, parent]
        self._stack = []
        self._root = -1          # the open command's root span
        self.command = -1
        self.counts = Counter()
        self.maxima = Counter()
        self._seen = set()       # reductions already made in this command
        self._keep = []          # objects whose id() is in _seen
        self._patched = Patches()

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.command, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def start_command(self) -> None:
        """Open the command's root span, named ``cli``."""
        self.command += 1
        self._seen.clear()
        self._keep.clear()
        self._root = self.open("cli")

    def end_command(self) -> None:
        self.close(self._root)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = tracer.open(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    yield value
            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return wrapper

    def _linalg(self, fn, binding, name, mat_pos, mod_pos):
        tracer = self
        spanned = self._spanned(fn, name)
        from_cohomology = binding.startswith("dgq.cohomology:")
        reduces = name != "linalg.matmul"

        def wrapper(*args, **kwargs):
            i = tracer.open(HOOKS)
            mats = [args[k] for k in mat_pos]
            tracer.counts[name + ".calls"] += 1
            if reduces:
                if mat_pos:
                    key = (name, args[mod_pos] if mod_pos is not None else None,
                           tuple(_matrix_digest(m) for m in mats))
                else:                          # a method: the object is the matrix
                    key = (name, id(args[0]))
                    tracer._keep.append(args[0])
                if key in tracer._seen:
                    tracer.counts[name + ".repeats"] += 1
                tracer._seen.add(key)
            if from_cohomology:
                in_groupoid = any(tracer.spans[j][1] == "cohomology.groupoid"
                                  for j in tracer._stack)
                for m in mats:
                    cells, nnz = _cells_nnz(m)
                    tracer.counts["cohomology.cells"] += cells
                    tracer.counts["cohomology.nnz"] += nnz
                    dim = max(len(m), max((len(r) for r in m), default=0))
                    tracer.maxima["cohomology.basis_max"] = max(
                        tracer.maxima["cohomology.basis_max"], dim)
                    if in_groupoid:
                        tracer.maxima["cohomology.nerve_max"] = max(
                            tracer.maxima["cohomology.nerve_max"], dim)
            tracer.close(i)
            return spanned(*args, **kwargs)
        return wrapper

    def _double_complex(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            spec = fn(*args, **kwargs)
            i = tracer.open(HOOKS)
            size = max((len(b) for b in spec.basis.values()), default=0)
            tracer.maxima["cohomology.bidegree_max"] = max(
                tracer.maxima["cohomology.bidegree_max"], size)
            tracer.close(i)
            return spec
        return wrapper

    def _enumerate(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            pairs = fn(*args, **kwargs)
            tracer.counts["cocycles.pairs"] += len(pairs)
            return pairs
        return wrapper

    def install(self) -> None:
        patch = self._patched.patch
        for name, bindings in SPANS.items():
            for binding in bindings:
                patch(binding, lambda fn, n=name: self._spanned(fn, n))
        patch("dgq.cohomology:build_double_complex", self._double_complex)
        patch("dgq.cocycles:enumerate_cocycle_pairs", self._enumerate)
        for binding, (name, mat_pos, mod_pos) in LINALG.items():
            patch(binding, lambda fn, b=binding, n=name, mp=mat_pos,
                  mo=mod_pos: self._linalg(fn, b, n, mp, mo))

    def uninstall(self) -> None:
        self._patched.undo()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (_, name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for cmd, name, start, end, parent in self.spans:
                fh.write(json.dumps({"command": cmd, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
