"""End-to-end command line coverage via main(argv)."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkg import canonicalize_document, parse_flat, parse_gkg, parse_rules, serialize_gkg
from gkg import cli
from gkg.cli import main

from .support import WORKED_TEXT

RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
ESSENTIAL ont:Birth
CARD ont:Birth ONE
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
"""

FLAT_A = "RogerWaters\tbornIn\tGreat Bookham\nRogerWaters\tbornOn\t01/08/1955\n"
FLAT_B = "GeorgeRogerWaters\tbornIn\tGreat Bookham\nGeorgeRogerWaters\tbornOn\t01/08/1955\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "rules.rules").write_text(RULES, encoding="utf-8")
    (tmp_path / "a.flat").write_text(FLAT_A, encoding="utf-8")
    (tmp_path / "b.flat").write_text(FLAT_B, encoding="utf-8")
    (tmp_path / "worked.gkg").write_text(WORKED_TEXT, encoding="utf-8")
    return tmp_path


def canonicalize(workspace, flat_name, out_name, revision="0"):
    code = main(
        [
            "canonicalize",
            "--rules", str(workspace / "rules.rules"),
            "--flat", str(workspace / flat_name),
            "--revision", revision,
            "-o", str(workspace / out_name),
        ]
    )
    assert code == 0
    return workspace / out_name


class TestValidate:
    def test_ok(self, workspace, capsys):
        assert main(["validate", str(workspace / "worked.gkg")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok\t")

    def test_validation_failure_exit_1(self, workspace, capsys):
        bad = workspace / "bad.gkg"
        bad.write_text("N ex:a C core:T\nE ex:a dep ex:ghost\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "dangling-reference" in out

    def test_syntax_error_exit_2(self, workspace, capsys):
        bad = workspace / "bad.gkg"
        bad.write_text("WHAT is this\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_3(self, workspace):
        assert main(["validate", str(workspace / "missing.gkg")]) == 3


class TestCanonicalize:
    def test_writes_document_and_report(self, workspace, capsys):
        out = canonicalize(workspace, "a.flat", "a.gkg")
        captured = capsys.readouterr()
        assert "events_created\t1" in captured.out
        assert "events_coalesced\t1" in captured.out
        text = out.read_text(encoding="utf-8")
        assert text.startswith("T core:Entity -\n")
        assert main(["validate", str(out)]) == 0

    def test_stdout_when_no_output_file(self, workspace, capsys):
        code = main(
            [
                "canonicalize",
                "--rules", str(workspace / "rules.rules"),
                "--flat", str(workspace / "a.flat"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "N ent:" in captured.out
        assert "events_created" in captured.err  # report moved aside

    def test_byte_stable_across_runs(self, workspace):
        first = canonicalize(workspace, "a.flat", "run1.gkg").read_text(encoding="utf-8")
        second = canonicalize(workspace, "a.flat", "run2.gkg").read_text(encoding="utf-8")
        assert first == second

    def test_malformed_flat_exit_2(self, workspace, capsys):
        (workspace / "bad.flat").write_text("no tabs here\n", encoding="utf-8")
        code = main(
            [
                "canonicalize",
                "--rules", str(workspace / "rules.rules"),
                "--flat", str(workspace / "bad.flat"),
            ]
        )
        assert code == 2


class TestUndecodableInput:
    """A byte that is not UTF-8 in any input file gives exit 2 and one
    ``gkg:`` line naming the file and the line of the byte."""

    @pytest.mark.parametrize(
        "argv, good",
        [
            (["validate", "{bad}"], "a.gkg"),
            (["canonicalize", "--rules", "{bad}", "--flat", "{ws}/a.flat"], "rules.rules"),
            (["canonicalize", "--rules", "{ws}/rules.rules", "--flat", "{bad}"], "a.flat"),
            (["align", "{ws}/a.gkg", "{bad}"], "a.gkg"),
            (["align", "{ws}/a.gkg", "{ws}/a.gkg", "--provider", "file", "--vectors", "{bad}", "--dim", "3"],
             "vectors.txt"),
            (["merge", "{ws}/a.gkg", "{ws}/a.gkg", "--alignment", "{bad}"], "aa.align"),
        ],
    )
    def test_exit_2_names_the_file(self, workspace, capsys, argv, good):
        """The bad file is a good one with a comment line holding 0xff."""
        canonicalize(workspace, "a.flat", "a.gkg")
        (workspace / "vectors.txt").write_text("roger 1 0 0\n", encoding="utf-8")
        (workspace / "aa.align").write_text("", encoding="utf-8")
        capsys.readouterr()
        target = workspace / "bad.txt"
        target.write_bytes((workspace / good).read_bytes() + b"# \xff\n")
        lines = target.read_bytes().count(b"\n")
        code = main([arg.format(ws=workspace, bad=target) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"gkg: line {lines}: {target} is not UTF-8 text\n"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of any input file is dropped:
    each command writes what it writes for the file without the mark."""

    BOM = "\ufeff".encode("utf-8")

    @pytest.fixture
    def ready(self, workspace):
        canonicalize(workspace, "a.flat", "a.gkg")
        canonicalize(workspace, "b.flat", "b.gkg")
        assert main(["align", str(workspace / "a.gkg"), str(workspace / "b.gkg"), "-o",
                     str(workspace / "ab.align")]) == 0
        (workspace / "vectors.txt").write_text("2 3\nroger 1 0 0\nwaters 0 1 0\n", encoding="utf-8")
        return workspace

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["canonicalize", "--rules", "{ws}/rules.rules", "--flat", "{in}", "-o", "{out}"], "a.flat"),
            (["canonicalize", "--rules", "{in}", "--flat", "{ws}/a.flat", "-o", "{out}"], "rules.rules"),
            (["validate", "{in}"], "a.gkg"),
            (["render", "{in}", "-o", "{out}"], "worked.gkg"),
            (["merge", "{ws}/a.gkg", "{ws}/b.gkg", "--alignment", "{in}", "-o", "{out}"], "ab.align"),
            (["align", "{ws}/a.gkg", "{ws}/b.gkg", "--provider", "file", "--vectors", "{in}", "--dim", "3",
              "-o", "{out}"], "vectors.txt"),
        ],
    )
    def test_same_output_with_and_without_the_mark(self, ready, capsys, argv, source):
        data = (ready / source).read_bytes()
        results = []
        for name, prefix in (("plain", b""), ("marked", self.BOM)):
            target, out = ready / f"{name}.in", ready / f"{name}.out"
            target.write_bytes(prefix + data)
            capsys.readouterr()
            code = main([arg.format(ws=ready, out=out, **{"in": target}) for arg in argv])
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            results.append((code, captured.out, captured.err, written))
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_flat_subject_after_the_mark_is_one_entity(self, workspace, capsys):
        (workspace / "marked.flat").write_bytes(self.BOM + "Ada\tbornIn\tLondon\nAda\tbornOn\t1815\n".encode())
        canonicalize(workspace, "marked.flat", "marked.gkg")
        report = capsys.readouterr().out
        assert "events_created\t1\n" in report and "entity_nodes_created\t1\n" in report
        labels = [line for line in (workspace / "marked.gkg").read_text(encoding="utf-8").splitlines()
                  if line.startswith("L ")]
        assert [line.split(" ", 3)[3] for line in labels] == ["Ada"]

    def test_undecodable_byte_after_the_mark_keeps_its_line(self, workspace, capsys):
        target = workspace / "bad.flat"
        target.write_bytes(self.BOM + FLAT_A.encode() + b"# \xff\n")
        code = main(["canonicalize", "--rules", str(workspace / "rules.rules"), "--flat", str(target)])
        assert (code, capsys.readouterr().err) == (2, f"gkg: line 3: {target} is not UTF-8 text\n")

    def test_only_a_leading_mark_is_dropped(self, workspace, capsys):
        """A second mark stays part of the first subject's label."""
        (workspace / "twice.flat").write_bytes(self.BOM * 2 + FLAT_A.encode())
        canonicalize(workspace, "twice.flat", "twice.gkg")
        assert "entity_nodes_created\t2\n" in capsys.readouterr().out
        labels = (workspace / "twice.gkg").read_text(encoding="utf-8")
        assert " en \ufeffRogerWaters\n" in labels and " en RogerWaters\n" in labels


class TestAlignAndMerge:
    def test_align_writes_match_row(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        doc_b = canonicalize(workspace, "b.flat", "b.gkg")
        out = workspace / "ab.tsv"
        code = main(["align", str(doc_a), str(doc_b), "--seed", "42", "-o", str(out)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1
        fields = rows[0].split("\t")
        assert fields[3] == "MATCH"
        assert 0.93 <= float(fields[2]) <= 0.97

    def test_align_file_provider_requires_vectors(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        code = main(["align", str(doc_a), str(doc_a), "--provider", "file"])
        assert code == 2
        assert capsys.readouterr().err == "gkg: --vectors is required with --provider file\n"

    @pytest.mark.parametrize(
        "option",
        [
            ["--threshold", "2"],
            ["--threshold", "0"],
            ["--ambiguity-band", "-0.1"],
            ["--ambiguity-band", "nan"],
            ["--threshold", "nan"],
            ["--dim", "0"],
            ["--provider", "file", "--vectors", "unused.txt", "--dim", "-3"],
            ["--ambiguity-band", "0.9"],
            ["--threshold", "0.5", "--ambiguity-band", "1"],
            ["--dim", "10000000000000"],
        ],
    )
    def test_align_bad_numeric_option_exit_2(self, workspace, capsys, option):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()
        assert main(["align", str(doc_a), str(doc_a), *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gkg: ") and captured.err.count("\n") == 1

    def test_align_non_finite_vector_file_exit_2(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()
        vectors = workspace / "vectors.txt"
        vectors.write_text("roger nan 0 0\n", encoding="utf-8")
        code = main(
            ["align", str(doc_a), str(doc_a), "--provider", "file", "--vectors", str(vectors), "--dim", "3"]
        )
        assert code == 2
        assert capsys.readouterr().err == "gkg: line 1: non-finite component for 'roger'\n"

    def test_merge_folds_b_into_a(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        doc_b = canonicalize(workspace, "b.flat", "b.gkg")
        tsv = workspace / "ab.tsv"
        assert main(["align", str(doc_a), str(doc_b), "-o", str(tsv)]) == 0
        merged = workspace / "merged.gkg"
        code = main(["merge", str(doc_a), str(doc_b), "--alignment", str(tsv), "-o", str(merged)])
        assert code == 0
        report = capsys.readouterr().out
        assert "merged\t1" in report
        assert merged.read_text(encoding="utf-8") == doc_a.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "score, code",
        [("1e999", 2), ("inf", 2), ("-inf", 2), ("nan", 2), ("-7", 2), ("1.5", 2), ("-0.0001", 2), ("1.00001", 2),
         ("0", 0), ("0.0000", 0), ("1", 0), ("1.0000", 0), ("0.9512", 0)],
    )
    def test_merge_refuses_score_outside_unit_interval(self, workspace, capsys, score, code):
        """A score ``format_alignment_tsv`` could not have written (align's
        scores are means of clamped cosines) is refused, naming its line."""
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        doc_b = canonicalize(workspace, "b.flat", "b.gkg")
        tsv = workspace / "ab.tsv"
        assert main(["align", str(doc_a), str(doc_b), "-o", str(tsv)]) == 0
        id_a, id_b, _score, status = tsv.read_text(encoding="utf-8").rstrip("\n").split("\t")
        tsv.write_text(f"# edited\n{id_a}\t{id_b}\t{score}\t{status}\n", encoding="utf-8")
        capsys.readouterr()
        merged = workspace / "merged.gkg"
        assert main(["merge", str(doc_a), str(doc_b), "--alignment", str(tsv), "-o", str(merged)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err == f"gkg: line 2: score {score!r} is not a number in [0, 1]\n"
            assert not merged.exists()

    def test_merge_missing_alignment_file_exit_3(self, workspace):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        code = main(["merge", str(doc_a), str(doc_a), "--alignment", str(workspace / "no.tsv")])
        assert code == 3


class TestRenderAndIsocheck:
    def test_render_tsv(self, workspace, capsys):
        assert main(["render", str(workspace / "worked.gkg"), "--lang", "en"]) == 0
        out = capsys.readouterr().out
        assert "ex:rw\tRoger Waters" in out
        assert "participantIn" in out

    def test_isocheck_same_document(self, workspace, capsys):
        path = str(workspace / "worked.gkg")
        assert main(["isocheck", path, path]) == 0
        assert capsys.readouterr().out == "ISOMORPHIC\n"

    def test_isocheck_different_documents(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()  # discard the canonicalize report
        assert main(["isocheck", str(workspace / "worked.gkg"), str(doc_a)]) == 1
        assert capsys.readouterr().out.startswith("NOT_ISOMORPHIC\t")


class TestEval:
    def test_eval_flat_smoke(self, capsys):
        assert main(["eval", "flat", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "band\trelation_renamed" in out
        assert "band_delta" in out

    def test_eval_grounded_smoke(self, capsys):
        assert main(["eval", "grounded"]) == 0
        out = capsys.readouterr().out
        assert "mutant\trenamed_entity" in out
        assert "NO_MATCH" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "flat", "--dim", "0"],
            ["eval", "flat", "--trials", "0"],
            ["eval", "grounded", "--dim", "0"],
            ["eval", "grounded", "--threshold", "1.5"],
            ["eval", "flat", "--dim", "10000000000000"],
            ["eval", "grounded", "--dim", "10000000000000"],
        ],
    )
    def test_eval_bad_numeric_option_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gkg: ") and captured.err.count("\n") == 1

    def test_eval_output_deterministic(self, capsys):
        main(["eval", "flat", "--trials", "5"])
        first = capsys.readouterr().out
        main(["eval", "flat", "--trials", "5"])
        assert capsys.readouterr().out == first


# --- fuzzing the .gkg parser through the command line ------------------------

# Id tokens: valid ones that repeat across records, and hostile ones with
# information separators (which split() treats as blanks), non-ASCII text,
# empty parts, missing or extra colons.
_GOOD_IDS = ("ex:a", "ex:b", "ex:c", "ex:d", "ex:e", "t:T", "core:Entity")
_ID_CHARS = "ab:_#-\x1c\x1d\x1e\x1f\x0b\x85\xa0é "
_hostile_ids = st.one_of(
    st.sampled_from((":a", "a:", ":", "ex", "ex:café", "ex:a:b", "ex:\x1cb", "é:x")),
    st.text(alphabet=_ID_CHARS, min_size=1, max_size=6),
)
_id_tokens = st.one_of(st.sampled_from(_GOOD_IDS), _hostile_ids)
_relations = st.sampled_from(("dep", "inst", "hasProp", "hasValue", "participantIn", "isA", "eq", "bogus"))

# A valid document to start from: two people, a birth with one FUNCTIONAL
# slot, declarations and labels.
_SKELETON = (
    "N ex:a C t:Human",
    "N ex:e C t:Human",
    "N ex:b O t:Birth",
    "N ex:c A t:Place",
    "E ex:b participantIn ex:a",
    "E ex:b participantIn ex:e",
    "E ex:c hasProp ex:b",
    "E ex:c hasValue ex:d",
    "L ex:a en Roger",
    "ESSENTIAL t:Birth",
    "CARD t:Birth ONE",
    "ATTRDECL t:Birth t:Place FUNCTIONAL",
)


@st.composite
def _records(draw):
    ident = draw(_id_tokens)
    other = draw(_id_tokens)
    return draw(
        st.sampled_from(
            (
                f"N {ident} {draw(st.sampled_from('COAVX'))} {other}",
                f"N {ident} V {other} {draw(st.text(max_size=4))}",
                f"E {ident} {draw(_relations)} {other}",
                f"T {ident} {draw(st.sampled_from((other, '-')))}",
                f"L {ident} {draw(st.sampled_from(('en', 'fr')))} {draw(st.text(max_size=4))}",
                f"G {draw(st.sampled_from(('-', 'src', 'é')))} {draw(st.sampled_from(('0', '1', '-1', 'x')))}",
                f"ESSENTIAL {ident}",
                f"CARD {ident} {draw(st.sampled_from(('ONE', 'MANY', 'TWO')))}",
                f"ATTRDECL {ident} {other} {draw(st.sampled_from(('FUNCTIONAL', 'MULTI')))}",
                f"ROLE R BASE {ident} VIA {draw(_relations)} EVENT {other}",
                draw(st.text(max_size=8)),
            )
        )
    )


@st.composite
def _documents(draw):
    """The skeleton at some revision and birthplace; half the time with
    records dropped and a few fuzzed records in between."""
    lines = [
        draw(st.sampled_from(("G src 1", "G src 2", "G - 0"))),
        f"N ex:d V t:Village {draw(st.sampled_from(('Great Bookham', 'Cambridge')))}",
        *_SKELETON,
    ]
    if draw(st.booleans()):
        lines = [line for line in lines if draw(st.integers(0, 4))]
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_records()))
        if lines and draw(st.booleans()):
            # A record, a bad id included, again on a later line.
            lines.append(draw(st.sampled_from(lines)))
    return "".join(line + "\n" for line in lines)


@st.composite
def _alignments(draw):
    """MATCH rows over the skeleton's ids, sometimes one hostile row."""
    ids = st.sampled_from(("ex:a", "ex:e", "ex:b"))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        pairs.append((draw(_id_tokens), draw(_id_tokens)))
    return "".join(f"{a}\t{b}\t1.0000\tMATCH\n" for a, b in pairs)


def _run_quietly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


class TestFuzzedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(_documents())
    def test_validate_ends_in_documented_exit_code(self, text):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "doc.gkg"
            path.write_text(text, encoding="utf-8")
            code, err = _run_quietly(["validate", str(path)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(_documents(), _documents(), _alignments())
    def test_merge_ends_in_documented_exit_code(self, text_a, text_b, rows):
        with tempfile.TemporaryDirectory() as work:
            paths = [Path(work) / name for name in ("a.gkg", "b.gkg", "ab.align")]
            for path, text in zip(paths, (text_a, text_b, rows)):
                path.write_text(text, encoding="utf-8")
            code, err = _run_quietly(["merge", str(paths[0]), str(paths[1]), "--alignment", str(paths[2])])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


# --- fuzzing the vector-file parser through the command line -----------------

_VECTOR_FIELDS = (
    "roger", "waters", "human", "2", "3", "1", "0", "-2.5", "1e308", "-1e200", "1e-200", "1e-160", "5e-324",
    "nan", "-inf", "x", "1_0", "0x1",
)


@st.composite
def _vector_files(draw):
    """Rows and header-like lines of 3-dimension vectors over the worked
    document's tokens, with extreme components, sometimes a line of raw
    bytes (not always UTF-8), under one of the three newline conventions."""
    lines = [" ".join(draw(st.lists(st.sampled_from(_VECTOR_FIELDS), max_size=5))).encode()
             for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.binary(max_size=6)))
    newline = draw(st.sampled_from((b"\n", b"\r\n", b"\r")))
    return b"".join(line + newline for line in lines)


class TestFuzzedVectorFiles:
    @settings(max_examples=200, deadline=None)
    @given(_vector_files())
    def test_align_ends_in_documented_exit_code(self, data):
        """No traceback and no numpy warning: exit 0 and a quiet stderr, or
        one ``gkg:`` line."""
        with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
            warnings.simplefilter("error")
            doc, vectors = Path(work) / "worked.gkg", Path(work) / "vectors.txt"
            doc.write_text(WORKED_TEXT, encoding="utf-8")
            vectors.write_bytes(data)
            code, err = _run_quietly(
                ["align", str(doc), str(doc), "--provider", "file", "--vectors", str(vectors), "--dim", "3"]
            )
        if code == 0:
            assert err == ""
        else:
            assert code in (1, 2, 3)
            assert err.startswith("gkg: ") and err.count("\n") == 1


# --- fuzzing the rules and flat-triple parsers through the command line -------

_RULE_LINES = tuple(RULES.splitlines()) + (
    "RULE worksFor EVENT ont:Employment SUBJ hasAgent OBJ PARTICIPANT hasObject",
    "ROLE Employee BASE core:Entity VIA hasAgent EVENT ont:Employment",
    "CARD ont:Employment MANY",
)
_rel_names = st.sampled_from(("bornIn", "born_in", "BornOn", "works-for", "livesIn", "b", "é", "x:y"))
_rule_ids = st.one_of(
    st.sampled_from(("ont:Birth", "ont:Location", "ont:Village", "core:Entity")),
    st.sampled_from(("ont:Time", "ont:Date", "ont:Employment")),
    _id_tokens,
)


@st.composite
def _rule_records(draw):
    ident, other = draw(_rule_ids), draw(_rule_ids)
    rel, role = draw(_rel_names), draw(_relations)
    return draw(
        st.sampled_from(
            (
                f"RULE {rel} EVENT {ident} SUBJ {role} OBJ ATTR {other} {draw(_rule_ids)}",
                f"RULE {rel} EVENT {ident} SUBJ {role} OBJ PARTICIPANT {draw(_relations)}",
                f"RULE {rel} EVENT {ident} SUBJ {role} OBJ {draw(st.sampled_from(('ATTR', 'PARTICIPANT', 'X')))}",
                f"RULE {rel} EVENT {ident}",
                f"ESSENTIAL {ident}",
                f"CARD {ident} {draw(st.sampled_from(('ONE', 'MANY', 'TWO')))}",
                f"ATTRDECL {ident} {other} {draw(st.sampled_from(('FUNCTIONAL', 'MULTI', 'x')))}",
                f"ROLE R BASE {ident} VIA {role} EVENT {other}",
                draw(st.text(max_size=8)),
            )
        )
    )


@st.composite
def _rules_texts(draw):
    """The test rules, half the time with records dropped and fuzzed
    records in between."""
    lines = list(_RULE_LINES)
    if draw(st.booleans()):
        lines = [line for line in lines if draw(st.integers(0, 4))]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_rule_records()))
    return "".join(line + "\n" for line in lines)


# Labels with characters at which str.splitlines() also ends a line.
_labels = st.one_of(
    st.sampled_from(("RogerWaters", "Roger Waters", "Great Bookham", "01/08/1955", "PinkFloyd", " ")),
    st.text(alphabet="aZ é#:\x1f\xa0\x85\u2028", min_size=1, max_size=5),
)


# Labels with whitespace, or a character str.isspace() accepts, put before
# or after them.
_spaced_labels = st.tuples(
    st.sampled_from(("", "", " ", "\xa0", "\x1f")), _labels, st.sampled_from(("", "", " ", "\x1f"))
).map("".join)


@st.composite
def _flat_texts(draw, labels=_labels):
    """Triples over a few subjects with respelled and unknown relation
    names, sometimes an empty field, a stray carriage return or a line
    with the wrong number of fields."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(labels), draw(st.one_of(_rel_names, labels)), draw(labels)]
        fault = draw(st.integers(0, 11))
        if fault == 0:
            fields = fields[: draw(st.integers(0, 2))] if draw(st.booleans()) else fields + [draw(_labels)]
        elif fault == 1:
            fields[draw(st.integers(0, 2))] = draw(st.sampled_from(("", "a\rb")))
        lines.append("\t".join(fields))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("# comment", "", "  "))))
    return "".join(line + "\n" for line in lines)


# Header options: plain, empty, "-", with blanks or line separators, non-ASCII.
_source_ids = st.one_of(
    st.sampled_from(("", "census", "-", "a b", "#x", "s-1")),
    st.text(alphabet="a-#é \t\x1c\x85\u2028\x00", max_size=4),
)
_revisions = st.one_of(st.integers(-2, 3), st.integers(-(2**70), 2**70))


class TestFuzzedCanonicalize:
    @settings(max_examples=150, deadline=None)
    @given(_rules_texts(), _flat_texts())
    def test_canonicalize_ends_in_documented_exit_code(self, rules, flat):
        with tempfile.TemporaryDirectory() as work:
            paths = [Path(work) / name for name in ("r.rules", "f.tsv")]
            for path, text in zip(paths, (rules, flat)):
                path.write_text(text, encoding="utf-8")
            code, err = _run_quietly(["canonicalize", "--rules", str(paths[0]), "--flat", str(paths[1])])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(_rules_texts(), _flat_texts(_spaced_labels), _source_ids, _revisions)
    def test_what_canonicalize_writes_reads_back(self, rules, flat, source_id, revision):
        """Wherever ``gkg canonicalize`` exits 0, ``gkg validate`` accepts
        its output and the document survives a serialize/parse round trip."""
        with tempfile.TemporaryDirectory() as work:
            paths = [Path(work) / name for name in ("r.rules", "f.tsv", "out.gkg")]
            for path, text in zip(paths, (rules, flat)):
                path.write_text(text, encoding="utf-8")
            argv = ["canonicalize", "--rules", str(paths[0]), "--flat", str(paths[1]), "-o", str(paths[2]),
                    f"--source-id={source_id}", f"--revision={revision}"]
            code, _err = _run_quietly(argv)
            if code != 0:
                return
            written = paths[2].read_text(encoding="utf-8")
            code, err = _run_quietly(["validate", str(paths[2])])
        assert (code, err) == (0, "")
        doc = parse_gkg(written)
        assert serialize_gkg(doc) == written
        rule_list, declarations = parse_rules(rules)
        canonical, _report = canonicalize_document(
            parse_flat(flat), rule_list, declarations=declarations, source_id=source_id, revision=revision
        )
        assert parse_gkg(serialize_gkg(canonical)) == canonical == doc
        assert (doc.graph.source_id, doc.graph.revision) == (source_id, revision)


class TestCanonicalizeOptions:
    """Header options that a graph document could not carry back are
    refused before any file is read."""

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--source-id", "a b", "source id must be one token"),
            ("--source-id", "a\tb", "source id must be one token"),
            ("--source-id", "-", "source id must be one token"),
            ("--revision", "-1", "revision must be non-negative"),
        ],
    )
    def test_rejected_with_exit_2(self, workspace, capsys, option, value, message):
        out = workspace / "out.gkg"
        argv = ["canonicalize", "--rules", str(workspace / "missing.rules"),
                "--flat", str(workspace / "a.flat"), f"{option}={value}", "-o", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"gkg: {message}")
        assert not out.exists()


# --- the command line reader ---------------------------------------------------

# Command words, the reader's table and words outside it.
_COMMAND_WORDS = [[name] for name in cli._COMMANDS] + [["eval", name] for name in cli._SUITES]
_COMMAND_WORDS += [["eval"], ["frobnicate"], []]
_VALUES = ["", "-1", "nan", "0x10", "nope", "3", "0.5", " 7 ", "1e3", "hash", "file", "fr", "a.gkg"]


def _takes(option, word):
    """Whether the option takes the word as its value."""
    try:
        value = word if option.type is None else option.type(word)
    except ValueError:
        return False
    return not word.startswith("-") and (option.choices is None or value in option.choices)


@st.composite
def _argvs(draw, words):
    """A command line: the command words, then positionals and options
    spelled in full, each with a value, in any order; often also odd
    words: an abbreviated option, ``--flag=value``, an unknown option, one
    without its value, ``-h``, ``--`` or ``-``."""
    table = cli._SUITES if words[:1] == ["eval"] else cli._COMMANDS
    command = table.get(words[-1]) if words else None
    options = command.options if command else ()
    wanted = len(command.positionals) if command else 1
    value = st.sampled_from(_VALUES)
    pieces = [[draw(value)] for _ in range(draw(st.sampled_from([wanted] * 6 + [0, 1, 2, 3])))]
    for option in options:
        # Most values are ones the option takes, so that whole lines of
        # good values come up often.
        good = st.sampled_from([word for word in _VALUES if _takes(option, word)])
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if option.required else [0, 0, 1, 2]))):
            pieces.append([draw(st.sampled_from(option.flags)), draw(st.one_of(good, good, value))])
    long_flags = [flag for option in options for flag in option.flags if flag.startswith("--")] or ["--lang"]
    flag = st.sampled_from(long_flags)
    odd = st.one_of(
        st.tuples(flag.map(lambda f: f[:-1]), value),
        st.tuples(st.builds("{}={}".format, flag, value)),
        st.tuples(flag),
        st.tuples(st.sampled_from(["-h", "--help", "--", "--nope", "-"])),
    )
    pieces += [list(draw(odd)) for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2])))]
    return words + [word for piece in draw(st.permutations(pieces)) for word in piece]


def _parsed_by_argparse(argv):
    """``vars(build_parser().parse_args(argv))``, or None when argparse
    refuses argv or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _comparable(attrs):
    # repr tells 3 from 3.0 and reads nan as equal to nan.
    return {name: repr(value) for name, value in attrs.items()}


class TestCommandLineReader:
    """main reads a plain command line itself, to the same attributes
    argparse would set, and leaves every other argv to argparse."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_COMMAND_WORDS).flatmap(_argvs))
    @example(["align", "a.gkg", "b.gkg", "--provider", "nope"])
    @example(["canonicalize", "--flat", "a.tsv", "-o", "a.gkg"])
    @example(["merge", "a.gkg", "b.gkg"])
    @example(["eval", "flat", "--trials", "0x10"])
    @example(["render", "a.gkg", "b.gkg"])
    @example(["isocheck", "--lang", "-1", "a.gkg", "b.gkg"])
    @example(["render", "a.gkg", "--lan", "fr"])
    def test_declines_or_agrees_with_argparse(self, argv):
        read = cli._read_command_line(argv)
        if read is not None:
            parsed = _parsed_by_argparse(argv)
            assert parsed is not None, "the reader accepted what argparse refuses"
            assert _comparable(read) == _comparable(parsed)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "a.gkg"],
            ["canonicalize", "--rules", "r.txt", "--flat", "a.tsv", "--source-id", "left",
             "--revision", "2", "-o", "a.gkg"],
            ["align", "a.gkg", "--dim", "16", "b.gkg", "--provider", "file", "--vectors", "v.txt",
             "--seed", "3", "--threshold", "0.8", "--ambiguity-band", "0.05", "--pivot-lang", "fr",
             "--output", "ab.align"],
            ["merge", "a.gkg", "b.gkg", "--alignment", "ab.align", "-o", "x", "-o", "ab.gkg"],
            ["render", "a.gkg", "--lang", ""],
            ["isocheck", "--lang", "fr", "a.gkg", "b.gkg"],
            ["eval", "flat", "--seed", "3", "--dim", "16", "--trials", "37"],
            ["eval", "grounded", "--threshold", "nan"],
        ],
        ids=lambda argv: "_".join(argv[:2]),
    )
    def test_reads_plain_command_lines_as_argparse_does(self, argv):
        read = cli._read_command_line(argv)
        assert read is not None
        assert _comparable(read) == _comparable(_parsed_by_argparse(argv))

    def test_runs_the_command_function_found_at_call_time(self, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: ran.append(args.document) or 0)
        assert main(["validate", "plain.gkg"]) == 0
        assert main(["validate", "--", "argparse.gkg"]) == 0
        assert ran == ["plain.gkg", "argparse.gkg"]

    def test_a_plain_command_leaves_argparse_unloaded(self, workspace):
        code = "import sys, gkg.cli; print(gkg.cli.main(sys.argv[1:]), 'argparse' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for argv, loaded in ([str(workspace / "worked.gkg")], "False"), (["--", str(workspace / "worked.gkg")], "True"):
            out = subprocess.run([sys.executable, "-c", code, "validate", *argv], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out.splitlines()[-1] == f"0 {loaded}"


CORPUS = Path(__file__).parent / "data" / "cli_corpus"


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


def _spy(monkeypatch, name, seen, raises=None):
    """Replace ``gkg.cli.<name>`` by a wrapper that notes whether the
    collector runs when it is called, then raises ``raises`` or calls the
    original."""
    original = getattr(cli, name)

    def spy(*args):
        seen.append(gc.isenabled())
        if raises is not None:
            raise raises
        return original(*args)

    monkeypatch.setattr(cli, name, spy)


class TestCollector:
    """Commands run with the cyclic collector paused, put it back as they
    found it, and leave it the same garbage whatever the input's size."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, outcome",
        [
            (["validate", "{w}/worked.gkg"], 0),
            (["validate", "{w}/dangling.gkg"], 1),
            (["validate", "{w}/syntax.gkg"], 2),
            (["validate", "{w}/missing.gkg"], 3),
            (["validate"], SystemExit),
            (["--help"], SystemExit),
            (["render", "{w}/worked.gkg"], RuntimeError),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3", "usage-error", "help", "raised"],
    )
    def test_paused_for_the_command_and_put_back(self, workspace, monkeypatch, capsys, collector,
                                                 collecting, argv, outcome):
        (workspace / "dangling.gkg").write_text("N ex:a C core:T\nE ex:a dep ex:ghost\n", encoding="utf-8")
        (workspace / "syntax.gkg").write_text("WHAT is this\n", encoding="utf-8")
        seen: list = []
        _spy(monkeypatch, "build_parser", seen)
        _spy(monkeypatch, "_read", seen)
        if outcome is RuntimeError:
            _spy(monkeypatch, "render", seen, raises=RuntimeError("out of a command"))
        if collecting:
            gc.enable()
        else:
            gc.disable()
        argv = [arg.format(w=workspace) for arg in argv]
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is collecting
        assert seen and not any(seen), "the collector ran inside the command"

    @staticmethod
    def _garbage(argv):
        """(collector passes that ran before the command's garbage was
        counted, unreachable objects found from the command's start to a
        full collection after it)."""
        found: list = []

        def on_pass(phase, info):
            if phase == "stop":
                found.append(info["collected"])

        gc.collect()
        gc.callbacks.append(on_pass)
        try:
            code, err = _run_quietly(argv)
            gc.collect()
        finally:
            gc.callbacks.remove(on_pass)
        assert code == 0, err
        return len(found) - 1, sum(found)

    def test_commands_leave_the_same_garbage_at_any_size(self, tmp_path, collector):
        """The only cycles a command makes are argparse's, so the count
        does not grow with the input; and no collector pass runs while a
        command does, except the one that re-enabling may start."""
        gc.enable()
        found = {}
        for copies in (1, 5):
            work = tmp_path / str(copies)
            work.mkdir()
            for side in ("a", "b"):
                rows = (CORPUS / f"{side}.tsv").read_text(encoding="utf-8").splitlines()
                (work / f"{side}.tsv").write_text(
                    "".join(
                        row.replace("\t", f" {copy}\t", 1) + "\n" if copy else row + "\n"
                        for copy in range(copies)
                        for row in rows
                    ),
                    encoding="utf-8",
                )
            found[copies] = [
                self._garbage([arg.format(w=work, c=CORPUS) for arg in argv])
                for argv in (
                    ["canonicalize", "--rules", "{c}/rules.txt", "--flat", "{w}/a.tsv", "-o", "{w}/a.gkg"],
                    ["canonicalize", "--rules", "{c}/rules.txt", "--flat", "{w}/b.tsv", "-o", "{w}/b.gkg"],
                    ["align", "{w}/a.gkg", "{w}/b.gkg", "-o", "{w}/ab.align"],
                    ["merge", "{w}/a.gkg", "{w}/b.gkg", "--alignment", "{w}/ab.align", "-o", "{w}/ab.gkg"],
                )
            ]
        assert all(passes <= 1 for passes, _ in found[1] + found[5]), found
        assert [count for _, count in found[1]] == [count for _, count in found[5]], found
