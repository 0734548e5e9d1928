import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgq import io as dio
from dgq.cli import (COMMANDS, GLOBAL_OPTIONS, Output, _note_checked, _parse,
                     make_parser, run)
from dgq.cocycles import (_constraint_system, enumerate_cocycle_pairs,
                          validate_cocycle_pair)
from dgq.cohomology import aut_and_opext
from dgq.errors import (FormatError, InternalConsistencyError, Report,
                        ResourceBudgetError, StructureError)
from dgq.fields import prime_powers
from dgq.linalg import solutions_mod_m
from dgq.samples import s3_double, s3_matched_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
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


@pytest.mark.parametrize("bad", [2, 255, 256, -1])
def test_cocycle_texts_refuse_a_value_out_of_range(bad):
    """The writer reads each block's values as bytes: a value of m or more,
    or one that is no byte, stops it before that block is written."""
    t = s3_double()
    pairs = enumerate_cocycle_pairs(t, 2)
    blocks = [list(block) for block in pairs.blocks()]
    sol = blocks[0][-1]
    blocks[0][-1] = (bad,) + sol[1:]
    texts = dio.cocycle_texts(t, SimpleNamespace(
        modulus=2, system=pairs.system, blocks=lambda: iter(blocks)))
    with pytest.raises(InternalConsistencyError, match="outside 0..1"):
        next(texts)


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


@pytest.mark.parametrize("against", [str(CORPUS / "x23.json"), ""])
def test_cli_validate_against_needs_a_cocycle_pair(against, capsys):
    """``--against`` binds a cocycle pair to a double groupoid; with any
    other document, or an empty path, it is refused, not ignored."""
    argv = ["validate", str(CORPUS / "x22.json"), "--against", against]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    _assert_one_error_line(err)


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


def _cli(*argv):
    return lambda: run(["--format", "machine", *argv])


S3_GROUP, X22 = str(CORPUS / "s3_group.json"), str(CORPUS / "x22.json")
MERSENNE, PAST = str(2 ** 61 - 1), str(10 ** 30)

# (call, result) around primes far past trial division: 10**14 + 31 and
# 2**61 - 1 on the commands that take --p, and 10**30, past the bound of the
# primality test, which is refused
LARGE_PRIMES = {
    "prime_powers": (lambda: prime_powers(10 ** 14 + 31),
                     [(10 ** 14 + 31, 1)]),
    "aut_and_opext": (lambda: [grp.divisors for grp in aut_and_opext(
        dio.load_path(X22).payload, 2 ** 61 - 1)], [(2 ** 61 - 1,), ()]),
    "cohomology-1e14": (_cli("cohomology", S3_GROUP, "--p",
                             str(10 ** 14 + 31), "--degree", "2"), 0),
    "cohomology-mersenne": (_cli("cohomology", S3_GROUP, "--p", MERSENNE,
                                 "--degree", "2"), 0),
    "kac-mersenne": (_cli("kac", X22, "--p", MERSENNE), 0),
    "wha-mersenne": (_cli("wha", "verify", X22, "--p", MERSENNE), 0),
    "cohomology-past": (_cli("cohomology", S3_GROUP, "--p", PAST,
                             "--degree", "2"), 2),
    "kac-past": (_cli("kac", X22, "--p", PAST), 2),
    "wha-past": (_cli("wha", "verify", X22, "--p", PAST), 2),
}


@pytest.mark.parametrize("case", sorted(LARGE_PRIMES))
def test_large_primes_are_decided_within_a_second(case, capsys):
    """Primality is a Miller-Rabin test and factoring stops at the trial
    bound, so none of these waits on trial division up to a square root."""
    call, expected = LARGE_PRIMES[case]
    start = time.perf_counter()
    assert call() == expected
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert ("bound of the primality test" in err) == (expected == 2)


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
    # written a block of 32 pairs at a time they are never held whole.  The
    # peak is about 0.3 MB (0.5 MB when the pairs were written one at a
    # time); holding the pair list read 2.0 MB, holding the texts whole
    # 4.6 MB, and the dict-and-list route 22 MB.
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
    rows, ncols, _ = _constraint_system(t)
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


def test_cli_enumerate_at_a_modulus_past_a_machine_word(capsys):
    # m = 2**70 needs lanes of ten bytes; x11 has no free column, and its
    # one pair prints as it did under the per-pair check
    m = 2 ** 70
    code = run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / "x11.json"), "--m", str(m)])
    assert code == 0
    assert capsys.readouterr().out == (
        f'{{"command": "cocycles enumerate", "count": 1, "modulus": {m}, '
        f'"ok": true, "pairs": [{{"modulus": {m}, "sigma": [[0, 0, 0]], '
        f'"tau": [[0, 0, 0]]}}]}}\n')


def test_cli_enumerate_refuses_holes_out_of_column_order(monkeypatch,
                                                        capsys):
    # the texts fill the template's holes with the solution columns in
    # turn; a map whose free entries take them in another order must stop
    # the command before it writes.  The check walk reads the map first,
    # so two of its entries are swapped only once enumerate_cocycle_pairs
    # has returned.
    from dgq import cocycles
    enumerate_pairs = cocycles.enumerate_cocycle_pairs

    def enumerate_then_swap(*args):
        pairs = enumerate_pairs(*args)
        where = pairs.system[2]
        i, j = where.index(0), where.index(1)
        where[i], where[j] = 1, 0
        return pairs
    monkeypatch.setattr(cocycles, "enumerate_cocycle_pairs",
                        enumerate_then_swap)
    code = run(["--format", "machine", "cocycles", "enumerate",
                str(CORPUS / "x22.json"), "--m", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "do not take the solution columns in order" in err


def test_the_check_walk_holds_one_block_of_bytes():
    # enumerate_cocycle_pairs on x23 mod 3 checks its 59,049 pairs a block
    # of bytes at a time: about 127 KiB at the peak, with the constraint
    # system, its Howell form and the compiled check (137 KiB when the
    # solutions were packed one at a time), against 189 KiB for the
    # per-pair residual sweep it replaced; wider blocks, or temporaries
    # held across rows, push it past 295 KiB
    t = dio.load_path(CORPUS / "x23.json").payload
    # the pair domains and the identity table are built once, on first use
    enumerate_cocycle_pairs(t, 2)
    tracemalloc.start()
    try:
        pairs = enumerate_cocycle_pairs(t, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 59049
    assert peak < 192 * 2 ** 10


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


def _x22_with_a_wrong_hcomp(tmp_path):
    """x22 with the horizontal composite of boxes 1 and 3 moved to box 2."""
    doc = json.loads((CORPUS / "x22.json").read_text())
    doc["hcomp"][doc["hcomp"].index([1, 3, 3])] = [1, 3, 2]
    return doc


def _matched_pair_with_an_action_off_its_domain(tmp_path):
    """x22 as a matched pair, with 0 |> 0 sent to a vertical edge that does
    not start at the source of horizontal edge 0."""
    mp = tmp_path / "mp.json"
    assert run(["convert", str(CORPUS / "x22.json"), "--to", "matched_pair",
                "-o", str(mp)]) == 0
    doc = json.loads(mp.read_text())
    doc["act_left"][doc["act_left"].index([0, 0, 0])] = [0, 0, 2]
    return doc


def _a_pair_of_x22(tmp_path):
    """A valid cocycle pair of the unedited x22, modulo 2, as a file."""
    t = dio.load_path(CORPUS / "x22.json").payload
    cp = list(enumerate_cocycle_pairs(t, 2))[-1]
    path = tmp_path / "pair.json"
    path.write_text(dio.emit(dio.Document("cocycle_pair",
                                          dio.cocycle_document(t, cp))))
    return str(path)


# exit codes of validate, vacant, convert, kac, cocycles enumerate,
# cocycles classes, wha verify, validate <pair> --against and wha verify
# --cocycle <pair>
@pytest.mark.parametrize("edit,convert_to,codes", [
    (_x22_with_a_wrong_hcomp, "matched_pair", (1, 1, 2, 2, 2, 2, 2, 2, 2)),
    (_matched_pair_with_an_action_off_its_domain, "double_groupoid",
     (1, 1, 2, 2, 2, 2, 2, 2, 2)),
], ids=["x22_hcomp", "matched_pair_act_left"])
def test_cli_refuses_an_edited_table_without_a_traceback(
        edit, convert_to, codes, tmp_path, capsys):
    """A table that fails the axioms is reported by validate and vacant
    with exit 1, and refused by the other commands with exit 2 and one
    error line, never computed on or crashed over."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(tmp_path)))
    pair = _a_pair_of_x22(tmp_path)
    capsys.readouterr()
    p = str(path)
    commands = (["validate", p], ["vacant", p],
                ["convert", p, "--to", convert_to,
                 "-o", str(tmp_path / "out.json")],
                ["kac", p, "--p", "2"], ["cocycles", "enumerate", p, "--m", "2"],
                ["cocycles", "classes", p, "--m", "2"], ["wha", "verify", p],
                ["validate", pair, "--against", p],
                ["wha", "verify", p, "--p", "3", "--m", "2", "--cocycle", pair])
    for argv, code in zip(commands, codes):
        assert run(argv) == code, argv
        err = capsys.readouterr().err
        if code == 2:
            _assert_one_error_line(err)
        else:
            assert err == "", argv
    assert not (tmp_path / "out.json").exists()


def test_vacant_and_validate_agree_on_every_action_edit(tmp_path, capsys):
    """Each of the 224 single action edits of x22's matched pair, an entry
    of act_left or act_right sent to another arrow of its edge groupoid,
    fails the matched-pair axioms: vacant reports it as validate does, with
    exit 1 and the failures, not with exit 2."""
    mp = tmp_path / "mp.json"
    assert run(["convert", str(CORPUS / "x22.json"), "--to", "matched_pair",
                "-o", str(mp)]) == 0
    doc = json.loads(mp.read_text())
    path = tmp_path / "edited.json"
    edits = 0
    for key, edge in (("act_left", "vert"), ("act_right", "horiz")):
        for i, (x, g, y) in enumerate(doc[key]):
            for z in range(len(doc[edge]["source"])):
                if z == y:
                    continue
                doc[key][i] = [x, g, z]
                path.write_text(json.dumps(doc))
                capsys.readouterr()
                codes = [run(["--format", "machine", command, str(path)])
                         for command in ("validate", "vacant")]
                out, err = capsys.readouterr()
                assert codes == [1, 1] and err == "", (key, x, g, z)
                validated, vacant = map(json.loads, out.splitlines())
                assert vacant["failures"] == validated["failures"]
                edits += 1
            doc[key][i] = [x, g, y]
    assert edits == 224


def test_squarefree_counts_take_no_smith_form(monkeypatch, capsys):
    """The integral cohomology of S3 (order 6) and the cocycle counts mod 2
    come from ranks over F_p with the Smith form made to raise, and the
    count mod 4 of x22 from Howell forms."""
    from dgq import linalg

    def refuse(rows, ncols):
        raise AssertionError("a Smith form ran")
    monkeypatch.setattr(linalg, "smith_diagonal", refuse)
    for argv in (["cohomology", CORPUS / "s3_group.json", "--integral",
                  "--degree", "4"],
                 ["cocycles", "enumerate", CORPUS / "x23.json", "--m", "2"],
                 ["cocycles", "classes", CORPUS / "product_s3_x21.json",
                  "--m", "2"],
                 ["cocycles", "classes", CORPUS / "x22.json", "--m", "4"]):
        assert run(["--format", "machine", *map(str, argv)]) == 0, argv
    capsys.readouterr()


def test_the_routines_that_assume_the_axioms_refuse_an_edited_table(tmp_path):
    """The edited x22 is refused by the library calls that rest on the
    axioms, not only by the commands."""
    from dgq.cocycles import zero_pair
    from dgq.cohomology import aut_and_opext
    t = dio.parse(json.dumps(_x22_with_a_wrong_hcomp(tmp_path))).payload
    refusal = "double groupoid: 7 check"
    with pytest.raises(StructureError, match=refusal):
        validate_cocycle_pair(t, zero_pair(t, 2))
    with pytest.raises(StructureError, match=refusal):
        aut_and_opext(t, 2)


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


# argparse (with gettext and locale) loads only to print help or a usage
# error; a plain command reads its argv from the command table
PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each command is a fresh interpreter, and importing ``dataclasses``
    (which loads ``inspect``) and generating record methods took about a
    quarter of a ``verify`` command.  Nor does ``dgq.cli`` load a module that
    only some commands run, matched pairs included: those commands import
    it.  ``-S`` keeps site-wide imports out."""
    unused = {"dataclasses", "inspect", "fractions", "decimal", "dgq.cocycles",
              "dgq.cohomology", "dgq.wha", "dgq.linalg",
              "dgq.matched"} | PARSER_MODULES
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
    # over Q the antipode scalars invert only 1 and -1: no fractions
    (["wha", "verify", "x22.json"],
     {"fractions", "decimal", "dgq.cohomology", "dgq.matched"}),
    (["blocks", "x22.json"],
     {"fractions", "decimal", "dgq.cohomology", "dgq.matched"}),
    # a double groupoid document needs no matched pair code
    (["cocycles", "enumerate", "x22.json", "--m", "2"],
     {"fractions", "decimal", "dgq.cohomology", "dgq.wha", "dgq.matched"}),
], ids=["kac", "cohomology", "wha-verify", "blocks", "enumerate"])
def test_cli_command_loads_only_its_modules(argv, unused):
    """A command run in a fresh interpreter (``-S``: no site-wide imports)
    passes and loads none of the modules it does not use; the modules left
    unloaded are printed to stderr after the command's output."""
    unused = unused | PARSER_MODULES
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


def test_cli_help_in_a_fresh_interpreter_prints_the_pinned_text():
    """``--help`` still goes through argparse: in a fresh interpreter
    (``-S``) it exits 0 with the text pinned in ``tests/golden``."""
    recorded = json.loads((GOLDEN / "help.json").read_text())
    if recorded["python"] != f"{sys.version_info[0]}.{sys.version_info[1]}":
        pytest.skip("argparse's layout is version-dependent")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "dgq.cli", "--help"],
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        capture_output=True)
    assert proc.returncode == recorded["exit"]["help-dgq"] == 0
    assert proc.stdout == (GOLDEN / "help-dgq.out").read_bytes()


# -- the table parser against argparse ----------------------------------------

# tokens argparse reads otherwise than the table grammar, or refuses
JUNK = ("-h", "--help", "--", "-", "-o", "-1", "--p=2", "extra", "", "--zz")
BAD_VALUES = ("-1", "-x", "x", "1.5", "", "json", "--p")
# ways to take a valid argv off the table grammar; some argparse still reads
MUTATIONS = ("junk", "abbreviation", "equals", "short", "no value",
             "bad value", "no path", "two paths", "dash path", "few words",
             "unknown command", "drop an option")


@st.composite
def _option_tokens(draw, opt, form):
    """The tokens that give ``opt``, spelt in ``form`` (``exact`` or one of
    the option ``MUTATIONS``)."""
    kw = opt.kwargs
    if kw.get("action") == "store_true":
        value = []
    elif form == "bad value":
        value = [draw(st.sampled_from(BAD_VALUES))]
    elif "choices" in kw:
        value = [draw(st.sampled_from(kw["choices"]))]
    elif kw.get("type") is int:
        value = [str(draw(st.integers(0, 4)))]
    else:
        value = [draw(st.sampled_from(("out.json", "a b")))]
    flag = opt.flags[-1]
    if form == "abbreviation":
        return [flag[:-1], *value]
    if form == "equals":
        return [f"{flag}={''.join(value) or 1}"]
    if form == "short":
        return [opt.flags[0], *value]
    if form == "no value":
        return [flag]
    return [flag, *value]


@st.composite
def _argvs(draw):
    """An argv of a command drawn from the table: global options, the
    command's words, a path and its options (required ones, one of each
    group, and up to two more, repeats allowed) in any order, taken off the
    grammar by up to two ``MUTATIONS``."""
    words, _, _, options = draw(st.sampled_from(
        [row for row in COMMANDS if row[1] is not None]))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    head = draw(st.lists(st.sampled_from(GLOBAL_OPTIONS), max_size=2))
    picked = [opt for opt in options if opt.kwargs.get("required")]
    for group in {opt.group for opt in options} - {None}:
        picked.append(draw(st.sampled_from(
            [opt for opt in options if opt.group == group])))
    if options:
        picked += draw(st.lists(st.sampled_from(options), max_size=2))
    if "drop an option" in mutations and picked:
        picked.pop(draw(st.integers(0, len(picked) - 1)))
    forms = ["exact"] * (len(head) + len(picked))
    for form in mutations:
        if form in ("abbreviation", "equals", "short", "no value",
                    "bad value") and forms:
            forms[draw(st.integers(0, len(forms) - 1))] = form
    units = [draw(_option_tokens(opt, form))
             for opt, form in zip(head + picked, forms)]
    head_tokens = [t for unit in units[:len(head)] for t in unit]
    paths = [] if "no path" in mutations else [["x.json"]]
    if "two paths" in mutations:
        paths.append(["kac"])
    if "dash path" in mutations:
        paths = [["-"]]
    if "junk" in mutations:
        paths.append([draw(st.sampled_from(JUNK))])
    if "few words" in mutations:
        words = words[:-1]
    if "unknown command" in mutations:
        words = ("nonsense",)
    body = draw(st.permutations(units[len(head):] + paths))
    return head_tokens + list(words) + [t for unit in body for t in unit]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_parse_agrees_with_argparse(argv):
    """Where the table parser reads an argv, argparse reads the same
    attributes from it; where argparse refuses it (exit 2), or ``run``
    would (``--threads`` below 1), the table parser returns None."""
    ns = _parse(argv)
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            expected = vars(make_parser().parse_args(argv))
    except SystemExit as exc:
        assert ns is None
        assert exc.code in (0, 2)
        return
    if expected["threads"] < 1:
        assert ns is None
    if ns is not None:
        assert vars(ns) == expected


def test_parse_reads_the_plain_grammar():
    """Each command with its options spelt out in full goes round argparse;
    a valid argv the table grammar leaves out gets None."""
    cases = [
        ["--format", "machine", "--threads", "2", "kac", "x.json", "--p", "3",
         "--strict-normalization", "off"],
        ["cohomology", "--integral", "x.json"],
        ["convert", "x.json", "--to", "matched_pair", "--output", "y.json"],
        ["wha", "verify", "x.json", "--p", "3", "--m", "2", "--zeta", "2",
         "--cocycle", "c.json"],
        ["cocycles", "enumerate", "x.json", "--m", "2", "--budget", "8"],
    ]
    for argv in cases:
        assert vars(_parse(argv)) == vars(make_parser().parse_args(argv))
    for argv in (["cohomology", "x.json", "--p", "2", "--deg", "3"],
                 ["convert", "x.json", "--to", "matched_pair", "-o", "y"],
                 ["kac", "x.json", "--p=2"], ["kac", "-", "--p", "2"]):
        assert _parse(argv) is None
        make_parser().parse_args(argv)
    # argparse takes a value that starts with "-" for an option: exit 2
    assert _parse(["validate", "x.json", "--against", "-x"]) is None
