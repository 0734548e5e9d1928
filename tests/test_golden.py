"""Byte-for-byte ``--format machine`` outputs of CLI commands over the corpus.

Each command's stdout is stored in ``tests/golden/<name>.out`` and its exit
code in ``tests/golden/exit.json``.  A refactor that must not change results
leaves every file unchanged.  Re-record (only on purpose, from the code whose
output is to be pinned) with::

    PYTHONPATH=src python tests/test_golden.py

``wha verify`` is pinned over Q on every double groupoid and matched pair of
the corpus, and on x23 over F_3 (with modulus 1 and 2).  ``kac`` with the
literal normalization (``--strict-normalization off``) is pinned on x11,
where it passes, and on x22 and x23, where d.d != 0 and it exits 2 with no
stdout.  ``convert`` runs both ways.  ``cocycles enumerate`` runs with
``--m`` 2, 3, 4 and 6 on x22 and s3_matched_pair, and with 12 on
s3_matched_pair, whose values take two digits; the composite moduli pin
the order in which non-unit pivots yield their pairs.  Two enumerations too
long to store are pinned by the length and sha256 of their output: x23 at
``--m 3`` and s3_matched_pair at ``--m 257``, the least modulus whose values
do not fit a byte.  ``cocycles classes
--m 2`` runs on every double groupoid and matched pair, with ``--m 3`` on
x23 and product_s3_x21, with the composite ``--m`` 4, 6 and 30 on x22,
x23, union_x22_s3 and product_s3_x21, and with ``--m 4295229443`` on x22.  ``cohomology`` runs on each groupoid to degree
3 over F_2, F_3 and Z, and on s3_group to degree 7 over F_2 and 6 over F_3
and Z.  Left out for time: ``kac`` on product_s3_x21.

The help and usage text of the parser is pinned too, so that a change to
the parser can be judged byte for byte: the ``--help`` of ``dgq`` and of
every command and subcommand; six usage errors (a missing required option,
the two coefficient options together, ``--threads 0``, an unknown format
and an unknown command); and one abbreviation that argparse accepts
(``--deg`` for ``--degree``), whose command runs.  They are recorded with
``COLUMNS`` fixed.  Their stdout (help, or the command's text output) or
stderr (usage error) is in
``tests/golden/<name>.out`` and their exit codes in
``tests/golden/help.json``, with the Python version they were recorded
under: argparse's layout changes between versions, so the bytes are
compared only under that version.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dgq.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GROUPOIDS = ("coarse3_group", "s3_group", "z2_group")
DOUBLES = ("commuting_squares_z2", "product_s3_x21", "s3_double",
           "s3_matched_pair", "union_x22_s3", "x11", "x22", "x23")


def _commands():
    """(name, argv) for every pinned command; paths are relative to ROOT."""
    out = []
    for stem in sorted(GROUPOIDS + DOUBLES):
        out.append((f"validate-{stem}", ["validate", f"corpus/{stem}.json"]))
    for stem in DOUBLES:
        path = f"corpus/{stem}.json"
        out.append((f"vacant-{stem}", ["vacant", path]))
        out.append((f"blocks-{stem}", ["blocks", path]))
        out.append((f"wha-build-{stem}", ["wha", "build", path]))
        out.append((f"wha-verify-{stem}", ["wha", "verify", path]))
        if stem != "product_s3_x21":
            for p in ("2", "3"):
                out.append((f"kac-p{p}-{stem}", ["kac", path, "--p", p]))
        out.append((f"classes-m2-{stem}",
                    ["cocycles", "classes", path, "--m", "2"]))
    for stem in ("x23", "product_s3_x21"):
        out.append((f"classes-m3-{stem}",
                    ["cocycles", "classes", f"corpus/{stem}.json", "--m", "3"]))
    # composite moduli, and one past the trial bound of fields.prime_powers,
    # 65537 * 65539, whose cofactor is composite
    for m in ("4", "6", "30"):
        for stem in ("x22", "x23", "union_x22_s3", "product_s3_x21"):
            out.append((f"classes-m{m}-{stem}",
                        ["cocycles", "classes", f"corpus/{stem}.json", "--m",
                         m]))
    out.append(("classes-m4295229443-x22",
                ["cocycles", "classes", "corpus/x22.json", "--m",
                 "4295229443"]))
    for stem in ("x11", "x22", "x23"):
        out.append((f"kac-literal-p2-{stem}",
                    ["kac", f"corpus/{stem}.json", "--p", "2",
                     "--strict-normalization", "off"]))
    out.append(("convert-double-s3_matched_pair",
                ["convert", "corpus/s3_matched_pair.json",
                 "--to", "double_groupoid"]))
    out.append(("convert-matched-x22",
                ["convert", "corpus/x22.json", "--to", "matched_pair"]))
    for m in ("2", "3", "4", "6"):
        for stem in ("x22", "s3_matched_pair"):
            out.append((f"enumerate-m{m}-{stem}",
                        ["cocycles", "enumerate", f"corpus/{stem}.json",
                         "--m", m]))
    out.append(("enumerate-m12-s3_matched_pair",
                ["cocycles", "enumerate", "corpus/s3_matched_pair.json",
                 "--m", "12"]))
    for tag, flags in (("p3", ["--p", "3"]), ("p3-m2", ["--p", "3", "--m", "2"])):
        out.append((f"wha-verify-{tag}-x23",
                    ["wha", "verify", "corpus/x23.json", *flags]))
    for stem in GROUPOIDS:
        path = f"corpus/{stem}.json"
        for flag in (["--p", "2"], ["--p", "3"], ["--integral"]):
            tag = flag[-1] if flag[0] == "--p" else "z"
            out.append((f"cohomology-{tag}-{stem}",
                        ["cohomology", path, *flag, "--degree", "3"]))
    # s3_group further up: to degree 7 over F_2, the last whose 5^(n+1) bar
    # cells the budget allows, and to 6 over F_3 and Z
    for tag, flag, degree in (("2", ["--p", "2"], "7"),
                              ("3", ["--p", "3"], "6"),
                              ("z", ["--integral"], "6")):
        out.append((f"cohomology-{tag}-deg{degree}-s3_group",
                    ["cohomology", "corpus/s3_group.json", *flag, "--degree",
                     degree]))
    return out


COMMANDS = _commands()


def _run(argv):
    buf = io.StringIO()
    args = ["--format", "machine"] + [str(ROOT / a) if a.startswith("corpus/")
                                      else a for a in argv]
    with redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[n for n, _ in COMMANDS])
def test_machine_output_matches_golden(name, argv):
    exits = json.loads((GOLDEN / "exit.json").read_text())
    code, stdout = _run(argv)
    assert code == exits[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


class _Digest:
    """A stdout that keeps only the length and sha256 of what it is sent."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


# name -> (argv, bytes, sha256) of the output, recorded before the writer
# filled its texts a block at a time, when every text was a %-template's
DIGESTS = {
    "enumerate-m3-x23": (
        ["cocycles", "enumerate", "corpus/x23.json", "--m", "3"], 134_395_611,
        "403ead5e931d187e478fc13bea19fdbb494fa5a40b684f092d4f6a38eb6aaa9d"),
    "enumerate-m257-s3_matched_pair": (
        ["cocycles", "enumerate", "corpus/s3_matched_pair.json", "--m",
         "257"], 24_929_089,
        "fb1f830517a7865ee2fe07bc590b8f8878a30f697e842113d5cc90fffadaa679"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_long_enumerations_match_their_digests(name):
    argv, size, sha = DIGESTS[name]
    sink = _Digest()
    with redirect_stdout(sink):
        code = run(["--format", "machine"] + [
            str(ROOT / a) if a.startswith("corpus/") else a for a in argv])
    assert code == 0
    assert (sink.size, sink.sha.hexdigest()) == (size, sha)


# (name, argv) of each pinned help or usage text; a usage error stops at
# the parser, so its path is never read
HELP_COMMANDS = (
    ("help-dgq", ["--help"]),
    ("help-cocycles", ["cocycles", "--help"]),
    ("help-cocycles-enumerate", ["cocycles", "enumerate", "--help"]),
    ("usage-cocycles-enumerate-without-m",
     ["cocycles", "enumerate", "corpus/x22.json"]),
    *((f"help-{'-'.join(words)}", [*words, "--help"]) for words in (
        ["validate"], ["vacant"], ["convert"], ["wha"], ["wha", "build"],
        ["wha", "verify"], ["cocycles", "classes"], ["cohomology"], ["kac"],
        ["blocks"])),
    ("usage-kac-without-p", ["kac", "corpus/x22.json"]),
    ("usage-cohomology-p-and-integral",
     ["cohomology", "corpus/s3_group.json", "--p", "2", "--integral"]),
    ("usage-threads-0", ["--threads", "0", "blocks", "corpus/x22.json"]),
    ("usage-format-json", ["--format", "json", "blocks", "corpus/x22.json"]),
    ("usage-unknown-command", ["frobnicate", "corpus/x22.json"]),
    # an abbreviation argparse accepts: the command runs and exits 0
    ("abbrev-cohomology-deg",
     ["cohomology", "corpus/s3_group.json", "--p", "2", "--deg", "3"]),
)
HELP_COLUMNS = "80"
PYTHON = f"{sys.version_info[0]}.{sys.version_info[1]}"


def _run_parser(argv):
    """(exit code, the one stream written) of ``dgq argv``; argparse wraps
    at the width that ``COLUMNS`` gives.  Both streams written is an
    error."""
    argv = [str(ROOT / a) if a.startswith("corpus/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert not (out.getvalue() and err.getvalue()), argv
    return code, out.getvalue() or err.getvalue()


@pytest.mark.parametrize("name,argv", HELP_COMMANDS,
                         ids=[n for n, _ in HELP_COMMANDS])
def test_help_and_usage_text_match_golden(name, argv, monkeypatch):
    recorded = json.loads((GOLDEN / "help.json").read_text())
    if recorded["python"] != PYTHON:
        pytest.skip(f"argparse's layout is version-dependent; the text was "
                    f"recorded under Python {recorded['python']}")
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    code, text = _run_parser(argv)
    assert code == recorded["exit"][name]
    assert text.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, argv in COMMANDS:
        code, stdout = _run(argv)
        exits[name] = code
        (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
        print(f"{name}: exit {code}", file=sys.stderr)
    (GOLDEN / "exit.json").write_text(json.dumps(exits, indent=1,
                                                 sort_keys=True) + "\n")
    exits = {}
    os.environ["COLUMNS"] = HELP_COLUMNS
    for name, argv in HELP_COMMANDS:
        exits[name], text = _run_parser(argv)
        (GOLDEN / f"{name}.out").write_bytes(text.encode())
        print(f"{name}: exit {exits[name]}", file=sys.stderr)
    (GOLDEN / "help.json").write_text(json.dumps(
        {"python": PYTHON, "exit": exits}, indent=1, sort_keys=True) + "\n")
