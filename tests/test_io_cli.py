import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgq import io as dio
from dgq.cli import Output, _note_checked, run
from dgq.cocycles import (_constraint_system, enumerate_cocycle_pairs,
                          validate_cocycle_pair)
from dgq.errors import FormatError, Report, ResourceBudgetError
from dgq.linalg import solutions_mod_m
from dgq.samples import s3_double, s3_matched_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"


def corpus_files():
    return sorted(CORPUS.glob("*.json"))


def test_corpus_exists():
    assert len(corpus_files()) >= 8


def test_corpus_matches_builders():
    # shipped files are exactly the canonical emissions of the builders
    from dgq.groupoids import coarse_groupoid, one_object_group
    from dgq.samples import (build_Xrs, commuting_squares_z2, corpus_product,
                             corpus_union, cyclic_table, s3_matched_pair,
                             symmetric_table)
    expected = {
        "s3_matched_pair": dio.Document("matched_pair", s3_matched_pair()),
        "s3_double": dio.Document("double_groupoid", s3_double()),
        "x11": dio.Document("double_groupoid", build_Xrs(1, 1)),
        "x22": dio.Document("double_groupoid", build_Xrs(2, 2)),
        "x23": dio.Document("double_groupoid", build_Xrs(2, 3)),
        "commuting_squares_z2": dio.Document("double_groupoid",
                                             commuting_squares_z2()),
        "union_x22_s3": dio.Document("double_groupoid", corpus_union()),
        "product_s3_x21": dio.Document("double_groupoid", corpus_product()),
        "s3_group": dio.Document("groupoid",
                                 one_object_group(symmetric_table(3)[0])),
        "z2_group": dio.Document("groupoid", one_object_group(cyclic_table(2))),
        "coarse3_group": dio.Document("groupoid", coarse_groupoid(3)),
    }
    on_disk = {p.stem for p in corpus_files()}
    assert on_disk == set(expected)
    for name, doc in expected.items():
        assert (CORPUS / f"{name}.json").read_text() == dio.emit(doc), name


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_round_trip_idempotent(path):
    text = path.read_text()
    doc = dio.parse(text)
    emitted = dio.emit(doc)
    assert dio.emit(dio.parse(emitted)) == emitted
    # shipped files are already canonical
    assert emitted == text


def test_unknown_kind_rejected():
    with pytest.raises(FormatError, match="kind"):
        dio.parse('{"kind": "mystery", "version": "1"}')


def test_version_mismatch_rejected():
    doc = json.loads((CORPUS / "z2_group.json").read_text())
    doc["version"] = "2"
    with pytest.raises(FormatError, match="version"):
        dio.parse(json.dumps(doc))


def test_duplicate_json_key_rejected():
    text = '{"kind": "field_spec", "kind": "field_spec", "version": "1"}'
    with pytest.raises(FormatError, match="duplicate"):
        dio.parse(text)


def test_unknown_field_rejected():
    doc = json.loads((CORPUS / "z2_group.json").read_text())
    doc["extra"] = 1
    with pytest.raises(FormatError, match="unknown keys"):
        dio.parse(json.dumps(doc))


def test_out_of_range_source_rejected():
    doc = json.loads((CORPUS / "z2_group.json").read_text())
    doc["source"][0] = doc["n_objects"]
    with pytest.raises(FormatError, match="out of range"):
        dio.parse(json.dumps(doc))


def test_duplicate_composition_entry_rejected():
    doc = json.loads((CORPUS / "z2_group.json").read_text())
    doc["compose"].append(doc["compose"][0])
    with pytest.raises(FormatError, match="duplicate entry"):
        dio.parse(json.dumps(doc))


def test_tampered_inverse_table_rejected():
    doc = json.loads((CORPUS / "z2_group.json").read_text())
    doc["inverse"] = [1, 0]    # wrong for the cyclic group of order two
    with pytest.raises(FormatError, match="inverse"):
        dio.parse(json.dumps(doc))


def test_cocycle_document_binding():
    t = s3_double()
    cp = list(enumerate_cocycle_pairs(t, 2))[-1]
    doc = dio.Document("cocycle_pair", dio.cocycle_document(t, cp))
    text = dio.emit(doc)
    parsed = dio.parse(text)
    assert dio.cocycle_pair_for(t, parsed.payload) == cp


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_cocycle_texts_are_the_emitted_bodies(vacant_corpus, m):
    # oracle: the object route, the body emit writes without kind and version
    for name, t in vacant_corpus.items():
        try:
            pairs = enumerate_cocycle_pairs(t, m, budget=2000)
        except ResourceBudgetError:
            continue
        texts = list(dio.cocycle_texts(t, pairs))
        assert len(texts) == len(pairs), name
        for cp, text in zip(pairs, texts):
            body = json.loads(dio.emit(
                dio.Document("cocycle_pair", dio.cocycle_document(t, cp))))
            del body["kind"], body["version"]
            assert text == json.dumps(body, sort_keys=True), name
            doc = dio.parse(json.dumps({"kind": "cocycle_pair",
                                        "version": dio.FORMAT_VERSION,
                                        **json.loads(text)}))
            assert dio.cocycle_pair_for(t, doc.payload) == cp, name


def test_cocycle_domain_mismatch_rejected():
    t = s3_double()
    cp = list(enumerate_cocycle_pairs(t, 2))[0]
    doc = dio.cocycle_document(t, cp)
    bad = dio.CocycleDocument(doc.modulus, doc.sigma[1:], doc.tau)
    with pytest.raises(FormatError, match="cover"):
        dio.cocycle_pair_for(t, bad)


# -- CLI ------------------------------------------------------------------------


def test_cli_validate_matched_pair(capsys):
    assert run(["validate", str(CORPUS / "s3_matched_pair.json")]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_vacant_control_fails(capsys):
    code = run(["vacant", str(CORPUS / "commuting_squares_z2.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_cli_kac_s3(capsys):
    code = run(["kac", "--p", "2", str(CORPUS / "s3_matched_pair.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact" in out
    assert "H1(diagonal)" in out


def _falsify(table):
    """The table with its 0s and 1s written as JSON false and true."""
    return [_falsify(v) if isinstance(v, list) else bool(v) if v in (0, 1) else v
            for v in table]


def _corpus_doc(stem, **changes):
    return {**json.loads((CORPUS / f"{stem}.json").read_text()), **changes}


def _x22_zero_pair(modulus, value):
    t = dio.load_path(CORPUS / "x22.json").payload
    vp, hp, _, _ = t.pair_domains()
    return {"kind": "cocycle_pair", "version": dio.FORMAT_VERSION,
            "modulus": modulus, "sigma": [[a, b, value] for a, b in vp],
            "tau": [[a, b, value] for a, b in hp]}


def _field(**changes):
    return {"kind": "field_spec", "version": dio.FORMAT_VERSION,
            "characteristic": 3, "modulus": 1, "zeta": 1, **changes}


# per document kind, a document and the same one with integers that equal
# 0 or 1 written as JSON booleans; json.loads gives bool, a subclass of int
BOOLEAN_INTEGERS = {
    "groupoid-n_objects": (_corpus_doc("z2_group"),
                           _corpus_doc("z2_group", n_objects=True)),
    "groupoid-compose": (_corpus_doc("z2_group"),
                         _corpus_doc("z2_group", compose=_falsify(
                             _corpus_doc("z2_group")["compose"]))),
    "double_groupoid-n_points": (_corpus_doc("x11"),
                                 _corpus_doc("x11", n_points=True)),
    "double_groupoid-top": (_corpus_doc("x11"),
                            _corpus_doc("x11", top=_falsify(
                                _corpus_doc("x11")["top"]))),
    "matched_pair-n_points": (_corpus_doc("s3_matched_pair"),
                              _corpus_doc("s3_matched_pair", n_points=True)),
    "cocycle_pair": (_x22_zero_pair(1, 0), _x22_zero_pair(True, False)),
    "field_spec": (_field(), _field(modulus=True, zeta=True)),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_INTEGERS))
def test_cli_validate_rejects_booleans_for_integers(case, tmp_path, capsys):
    argv = ["--against", str(CORPUS / "x22.json")] if case == "cocycle_pair" else []
    codes = []
    for name, doc in zip(("good", "bad"), BOOLEAN_INTEGERS[case]):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        codes.append(run(["validate", str(path), *argv]))
    out, err = capsys.readouterr()
    assert codes == [0, 2]
    assert "integer" in err.splitlines()[-1]


def test_cli_rejects_a_duplicate_key(tmp_path, capsys):
    """x11 validates; with a key repeated at top level, or inside its horiz
    groupoid, it exits 2 naming the duplicate key."""
    doc = _corpus_doc("x11")
    text = json.dumps(doc)
    cases = {
        "good": text,
        "top": text.replace("{", '{"n_points": %d, ' % doc["n_points"], 1),
        "payload": text.replace('"horiz": {', '"horiz": {"n_objects": %d, '
                                % doc["horiz"]["n_objects"], 1),
    }
    for name, case in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(case)
        assert run(["validate", str(path)]) == (0 if name == "good" else 2)
        err = capsys.readouterr().err
        assert ("duplicate key" in err) == (name != "good"), name


def test_cli_malformed_file_exit2(tmp_path, capsys):
    """Malformed JSON, nesting deeper than the parser recurses, an integer
    literal longer than the interpreter converts, and a missing file each
    exit 2 with one error line."""
    texts = {"bad": "{not json", "nested": "[" * 100_000,
             "long_int": "7" * 5000}
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    for name in [*texts, "missing"]:
        assert run(["validate", str(tmp_path / f"{name}.json")]) == 2, name
        out, err = capsys.readouterr()
        assert out == "", name
        _assert_one_error_line(err)


def test_cli_wha_verify_corpus(capsys):
    assert run(["wha", "verify", str(CORPUS / "x22.json")]) == 0


def test_cli_wha_verify_twisted(capsys):
    assert run(["wha", "verify", str(CORPUS / "s3_matched_pair.json"),
                "--p", "3", "--m", "2"]) == 0


def test_cli_cocycles(capsys):
    assert run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / "x22.json"), "--m", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 8
    assert run(["cocycles", "classes", str(CORPUS / "x22.json"), "--m", "2"]) == 0


def test_cli_classes_counts_without_a_gauge_budget(capsys):
    # product_s3_x21 has 6**10 normalized gauges; the count lists none of them
    assert run(["--format", "machine", "cocycles", "classes",
                str(CORPUS / "product_s3_x21.json"), "--m", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == 6


@pytest.mark.parametrize("sub", ["classes", "enumerate"])
@pytest.mark.parametrize("m", ["0", "-2"])
def test_cli_cocycles_rejects_a_modulus_below_one(sub, m, capsys):
    code = run(["--format", "machine", "cocycles", sub,
                str(CORPUS / "x22.json"), "--m", m])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "modulus must be >= 1" in err


@pytest.mark.parametrize("stem", ["x22", "commuting_squares_z2"])
def test_cli_enumerate_rejects_a_negative_budget(stem, capsys):
    # bad input before the vacancy check: commuting_squares_z2 is not vacant
    code = run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / f"{stem}.json"), "--m", "2", "--budget", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "budget must be >= 0" in err


def test_cli_enumerate_budget_bounds_the_pairs_written(capsys):
    code = run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / "x22.json"), "--m", "2", "--budget", "7"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "8 cocycle pairs exceed the budget of 7 pairs to write" in err
    assert run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / "x22.json"), "--m", "2", "--budget", "8"]) == 0


def test_cli_validate_cocycle_reports_tuples_checked(tmp_path, capsys):
    t = dio.load_path(CORPUS / "x22.json").payload
    cp = list(enumerate_cocycle_pairs(t, 2))[-1]
    path = tmp_path / "pair.json"
    dio.save_path(path, dio.Document("cocycle_pair", dio.cocycle_document(t, cp)))
    argv = ["validate", str(path), "--against", str(CORPUS / "x22.json")]
    assert run(argv) == 0
    out = capsys.readouterr().out
    checked = validate_cocycle_pair(t, cp).checked
    assert set(checked) == {"sigma-normalization", "tau-normalization",
                            "sigma-cocycle", "tau-cocycle", "compatibility",
                            "sigma-symmetry", "tau-symmetry"}
    assert all(checked.values())
    assert "tuples checked:\n" + "\n".join(
        f"  {rule}: {k}" for rule, k in checked.items()) in out
    assert run(["--format", "machine", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "validate", "failures": [], "kind": "cocycle_pair", "ok": True}


def test_tuples_checked_flags_a_vacuous_rule():
    out = Output("text")
    rep = Report("r")
    rep.count("busy", 3)
    rep.count("idle", 0)
    _note_checked(out, rep)
    assert out.lines == ["tuples checked:\n  busy: 3\n  idle: 0 (vacuous)"]
    out = Output("text")
    _note_checked(out, Report("nothing counted"))
    assert out.lines == []


def test_cli_cohomology(capsys):
    assert run(["cohomology", str(CORPUS / "z2_group.json"), "--p", "2",
                "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "H^1: dimension 1" in out
    assert run(["cohomology", str(CORPUS / "coarse3_group.json"), "--p", "5",
                "--degree", "2"]) == 0


@pytest.mark.parametrize("argv,message", [
    (["--p", "4", "--degree", "1"], "prime characteristic"),
    (["--p", "1", "--degree", "1"], "prime characteristic"),
    (["--p", "3", "--degree", "-1"], "degree must be nonnegative"),
    (["--integral", "--degree", "-1"], "degree must be nonnegative"),
])
def test_cli_cohomology_rejects_bad_coefficients_and_degrees(argv, message,
                                                             capsys):
    # a composite p once left the eliminator spinning: it inverts by Fermat
    code = run(["--format", "machine", "cohomology",
                str(CORPUS / "s3_group.json"), *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


def test_cli_convert_round_trip(tmp_path, capsys):
    out_path = tmp_path / "converted.json"
    assert run(["convert", str(CORPUS / "s3_matched_pair.json"),
                "--to", "double_groupoid", "-o", str(out_path)]) == 0
    doc = dio.load_path(out_path)
    assert doc.kind == "double_groupoid"
    assert doc.payload == s3_double()
    back = tmp_path / "back.json"
    assert run(["convert", str(out_path), "--to", "matched_pair",
                "-o", str(back)]) == 0
    assert dio.load_path(back).payload == s3_matched_pair()


def test_machine_format_deterministic(capsys):
    args = ["--format", "machine", "kac", "--p", "3", str(CORPUS / "x22.json")]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(["--threads", "4"] + args[:]) == 0
    third = capsys.readouterr().out
    assert third == first
    assert "time" not in first


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=6), st.text(),
       st.booleans())
def test_machine_flush_is_json_dumps(data, command, ok):
    out = Output("machine")
    for key, value in data.items():
        out.put(key, value)
    buf = io.StringIO()
    with redirect_stdout(buf):
        out.flush(command, ok)
    expected = json.dumps({**data, "command": command, "ok": ok},
                          sort_keys=True)
    assert buf.getvalue() == expected + "\n"


class _CountingSink:
    """A stdout that counts the bytes written to it and keeps none."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)

    def flush(self):
        pass


def test_cli_enumerate_streams_its_pairs():
    # the 1,024 pairs of x23 at m = 2 print 2,330,710 bytes; walked and
    # written one pair at a time they are never held whole.  The peak is
    # about 0.5 MB; holding the pair list read 2.0 MB, holding the texts
    # whole 4.6 MB, and the dict-and-list route 22 MB.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = run(["--format", "machine", "cocycles", "enumerate",
                        str(CORPUS / "x23.json"), "--m", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.bytes == 2_330_710
    assert peak < 2 ** 20


def test_solutions_mod_m_hold_one_solution_at_a_time():
    # x23's constraint system has 1,024 solutions mod 2 and 59,049 mod 3;
    # held whole, those mod 3 would take tens of megabytes
    t = dio.load_path(CORPUS / "x23.json").payload
    rows, ncols, _, _ = _constraint_system(t)
    peaks = {}
    for m, count in ((2, 1024), (3, 59049)):
        tracemalloc.start()
        try:
            total, solutions = solutions_mod_m(rows, ncols, m)
            walked = sum(1 for _ in solutions)
            _, peaks[m] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == walked == count
    assert peaks[3] < 1.5 * peaks[2]


def test_every_corpus_file_validates_and_verifies(capsys):
    # every shipped instance parses, validates, and (for vacant double
    # groupoids and matched pairs) passes the full axiom suite
    for path in corpus_files():
        doc = dio.parse(path.read_text())
        assert run(["validate", str(path)]) == 0, path.stem
        capsys.readouterr()
        if doc.kind == "matched_pair":
            assert run(["wha", "verify", str(path)]) == 0, path.stem
            capsys.readouterr()
        elif doc.kind == "double_groupoid":
            vacant = run(["vacant", str(path)]) == 0
            capsys.readouterr()
            if vacant:
                assert run(["wha", "verify", str(path)]) == 0, path.stem
                capsys.readouterr()


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dgq.cli", "blocks", str(CORPUS / "x22.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "matrix_size" in proc.stdout


def _assert_one_error_line(stderr):
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_cli_closed_pipe_is_an_output_error():
    """A reader that closes stdout early gets exit 2 and one error line, and
    the output still buffered is not written again at exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "dgq.cli", "--format", "machine", "cocycles",
         "enumerate", str(CORPUS / "x23.json"), "--m", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.read(20) == '{"command": "cocycle'
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 2
    _assert_one_error_line(stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_full_disk_is_an_output_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "dgq.cli", "blocks", str(CORPUS / "x22.json")],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each command is a fresh interpreter, and importing ``dataclasses``
    (which loads ``inspect``) and generating record methods took about a
    quarter of a ``verify`` command.  Nor does ``dgq.cli`` load a module that
    only some commands run: those commands import it.  ``-S`` keeps
    site-wide imports out."""
    unused = {"dataclasses", "inspect", "fractions", "decimal", "dgq.cocycles",
              "dgq.cohomology", "dgq.wha", "dgq.linalg"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import dgq.cli, sys; "
         f"print(sorted({unused!r} & sys.modules.keys()))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv,unused", [
    (["kac", "x23.json", "--p", "2"],
     {"fractions", "decimal", "dgq.cocycles", "dgq.wha"}),
    (["cohomology", "s3_group.json", "--p", "3"],
     {"fractions", "decimal", "dgq.cocycles", "dgq.wha"}),
    # over Q division needs fractions, which wha loads on first use
    (["wha", "verify", "x22.json"], set()),
], ids=["kac", "cohomology", "wha-verify"])
def test_cli_command_loads_only_its_modules(argv, unused):
    """A command run in a fresh interpreter (``-S``: no site-wide imports)
    passes and loads none of the modules it does not use; the modules left
    unloaded are printed to stderr after the command's output."""
    argv = [str(CORPUS / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; from dgq.cli import run; "
         "code = run(sys.argv[2:]); "
         "print(sorted(set(sys.argv[1].split()) & sys.modules.keys()), "
         "file=sys.stderr); sys.exit(code)",
         " ".join(sorted(unused)), "--format", "machine", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    assert proc.stderr == "[]\n"
