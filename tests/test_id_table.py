"""One record memo per ``gkg`` command that reads two documents.

While ``align``, ``merge`` or ``isocheck`` reads its documents A and B,
each E or N line of B that repeats one of A's takes the ``Edge`` or
``Node`` A's read built; every other line, and every id token, B reads
itself.  The memo may not change anything a command writes or any error
it reports, and must not outlive the two reads: the command's own work
and library calls read without it, and each read keeps an id memo of its
own.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkg import ROOT_TYPE, Edge, NodeId, PrimitiveRelation, cli, model, parse_alignment_tsv, parse_gkg, serialize_gkg
from gkg.cli import main
from gkg.errors import GkgSyntaxError, ValidationFailedError
from gkg.model import NodeKind

from .support import WORKED_TEXT, gkg_id_tokens, random_document

CORPUS = Path(__file__).parent / "data" / "cli_corpus"
EXPECTED = CORPUS / "expected"

# (document A, document B, alignment of A to B) from the golden corpus: a
# census revision and the one before it, a document and itself, and two
# sources about the same people.
GOLDEN_PAIRS = {
    "revision": (EXPECTED / "canon_rev1.gkg", EXPECTED / "canon_rev2.gkg", CORPUS / "rev1_rev2.align"),
    "self": (EXPECTED / "canon_rev1.gkg", EXPECTED / "canon_rev1.gkg", CORPUS / "rev1_self.align"),
    "canon_a_b": (EXPECTED / "canon_a.gkg", EXPECTED / "canon_b.stdout", EXPECTED / "align_a_b.tsv"),
}


def _run(argv):
    """(exit code, stdout, stderr) of ``gkg <argv>``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _without_the_memo(monkeypatch):
    """Run later commands as if they had no record memo: ``cli._load_pair``
    opens it on a stand-in for ``gkg.model``, so no read takes another's
    records."""
    monkeypatch.setattr(cli, "model", SimpleNamespace())


def _identity_alignment(text_a: str, text_b: str) -> str:
    """MATCH rows pairing each continuant id of both documents with itself."""
    def continuants(text):
        return {line.split()[1] for line in text.splitlines() if line.startswith("N ") and line.split()[2] == "C"}

    shared = sorted(continuants(text_a) & continuants(text_b))
    return "".join(f"{token}\t{token}\t1.0000\tMATCH\n" for token in shared)


_WORDS = ("alpha", "beta", "gamma", "delta")


def _revision(text: str, seed: int) -> str:
    """A revision of a valid document's text: some edges and labels
    dropped, some value literals changed and a few continuants added."""
    rng = random.Random(seed)
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if fields[0] in ("E", "L") and rng.random() < 0.3:
            continue
        if fields[0] == "N" and fields[2] == "V" and rng.random() < 0.3:
            line = " ".join(fields[:4] + [rng.choice(_WORDS)])
        lines.append(line)
    type_token = next(line.split()[3] for line in lines if line.startswith("N "))
    lines.extend(f"N x:new{i} C {type_token}" for i in range(rng.randint(0, 2)))
    return "\n".join(lines) + "\n"


def _root_objects(doc) -> set:
    """The objects equal to ``ROOT_TYPE`` that a document's hierarchy and
    node types hold."""
    held = [*doc.hierarchy.types, *(node.inst_of for node in doc.graph.nodes.values())]
    return {id(type_id) for type_id in held if type_id == ROOT_TYPE}


def _record_reuse(text_a: str, text_b: str, doc_a, doc_b) -> set:
    """For each E and N line the texts of A and B share, whether B holds
    the very record A holds for it."""
    edges_a = {edge: edge for edge in doc_a.graph.edges}
    edges_b = {edge: edge for edge in doc_b.graph.edges}
    found = set()
    for line in set(text_a.splitlines()) & set(text_b.splitlines()):
        head, *fields = line.split(None, 4)
        if head == "N":
            node_id = NodeId.parse(fields[0])
            found.add(doc_b.graph.nodes[node_id] is doc_a.graph.nodes[node_id])
        elif head == "E":
            edge = Edge(NodeId.parse(fields[0]), PrimitiveRelation(fields[1]), NodeId.parse(fields[2]))
            found.add(edges_b[edge] is edges_a[edge])
    return found


class _Capture:
    """What a command handed to ``merge_documents``."""

    def __init__(self, monkeypatch):
        self.calls: list = []
        original = cli.merge_documents

        def spy(*args):
            self.calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "merge_documents", spy)


def _write_pair(tmp_path, text_a, text_b, alignment):
    paths = []
    for name, text in (("a.gkg", text_a), ("b.gkg", text_b), ("ab.align", alignment)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    return paths


def _commands(a, b, ab, out):
    return {
        "merge": ["merge", a, b, "--alignment", ab, "-o", out],
        "align": ["align", a, b, "-o", out],
        "isocheck": ["isocheck", a, b, "--lang", "fr"],
    }


def _outcomes(a, b, ab, out):
    """Each command's exit code, stdout, stderr and -o file."""
    found = {}
    for name, argv in _commands(a, b, ab, out).items():
        Path(out).unlink(missing_ok=True)
        found[name] = (*_run(argv), Path(out).read_bytes() if Path(out).exists() else None)
    return found


def _with_a_comment(text: str) -> str:
    """The text with one ``#`` comment line more: the same document, in
    text that is not the same."""
    return text + "# the same document\n"


def _malformed_records(text_a: str, text_b: str):
    """Malformed records for B that read ids A parsed fine first."""
    node_lines = [line for line in text_a.splitlines() if line.startswith("N ")]
    node_a, type_a = node_lines[0].split()[1], node_lines[0].split()[3]
    nodes_b = [line for line in text_b.splitlines() if line.startswith("N ")]
    duplicate = nodes_b[0]
    # A node of B declared a type: the last from a line A holds too, if any,
    # so the N lines before it are ones B takes from A's records.
    collision = next((line for line in reversed(nodes_b) if line in node_lines), duplicate).split()[1]
    return [
        f"E {node_a} frob {node_a}",
        f"E {node_a} dep {node_a} {node_a}",
        f"E {node_a} dep no-colon",
        f"N {node_a} C",
        f"N {node_a} Q {type_a}",
        f"N {type_a} C {type_a} a literal",
        f"L {node_a} en",
        f"T {type_a} bad type",
        f"CARD {type_a} SOME",
        f"ATTRDECL {type_a} x: FUNCTIONAL",
        f"T {collision} -",
        duplicate,
    ]


def check_pair(tmp_path, monkeypatch, text_a, text_b, alignment, seed=0):
    a, b, ab = _write_pair(tmp_path, text_a, text_b, alignment)
    out = str(tmp_path / "out")

    # Both inputs read inside one command equal each read alone.
    with monkeypatch.context() as patch:
        capture = _Capture(patch)
        shared = _outcomes(a, b, ab, out)
    doc_a, doc_b, read_alignment = capture.calls[0]
    assert doc_a == parse_gkg(text_a)
    assert doc_b == parse_gkg(text_b)
    assert serialize_gkg(doc_b) == serialize_gkg(parse_gkg(text_b))
    # B's E and N lines that repeat A's hold A's records.
    assert _record_reuse(text_a, text_b, doc_a, doc_b) <= {True}
    assert read_alignment == parse_alignment_tsv(alignment)
    # Each document's root type is ROOT_TYPE itself.
    assert _root_objects(doc_a) == _root_objects(doc_b) == {id(ROOT_TYPE)}

    # Every command writes the same bytes, reports and exit code without
    # the memo, and then no record is shared.  A B whose text is A's is
    # A's document, so a copy with a comment line more stands in for it.
    if text_b == text_a:
        Path(b).write_text(_with_a_comment(text_b), encoding="utf-8")
    with monkeypatch.context() as patch:
        _without_the_memo(patch)
        capture = _Capture(patch)
        assert _outcomes(a, b, ab, out) == shared
    assert _record_reuse(text_a, text_b, *capture.calls[0][:2]) <= {False}

    # A malformed record in B, right after tokens A parsed fine, fails
    # on the line it fails on when B is read alone.
    lines_b = text_b.splitlines()
    rng = random.Random(seed)
    for record in _malformed_records(text_a, text_b):
        at = rng.randint(0, len(lines_b))
        bad_b = "\n".join([*lines_b[:at], record, *lines_b[at:]]) + "\n"
        with pytest.raises(GkgSyntaxError) as alone:
            parse_gkg(bad_b)
        Path(b).write_text(bad_b, encoding="utf-8")
        for argv in _commands(a, b, ab, out).values():
            code, _, err = _run(argv)
            assert (code, err) == (2, f"gkg: {alone.value}\n"), (record, argv[0])
    Path(b).write_text(text_b, encoding="utf-8")


class TestOverlappingInputs:
    @pytest.mark.parametrize("pair", sorted(GOLDEN_PAIRS))
    def test_golden_pairs(self, tmp_path, monkeypatch, pair):
        a, b, ab = (path.read_text(encoding="utf-8") for path in GOLDEN_PAIRS[pair])
        check_pair(tmp_path, monkeypatch, a, b, ab)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), revised=st.booleans(), revision_seed=st.integers(0, 10**6))
    @example(seed=0, revised=False, revision_seed=0)
    @example(seed=3, revised=True, revision_seed=1)
    def test_a_document_with_itself_or_a_revision(self, tmp_path_factory, seed, revised, revision_seed):
        text_a = serialize_gkg(random_document(seed))
        text_b = _revision(text_a, revision_seed) if revised else text_a
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_pair(tmp_path_factory.mktemp("pair"), monkeypatch, text_a, text_b,
                       _identity_alignment(text_a, text_b), seed)


def _parse_calls(monkeypatch):
    """The tokens of every ``NodeId.parse`` call from now on."""
    calls: list = []
    parse = NodeId.parse

    def recording(token):
        calls.append(token)
        return parse(token)

    monkeypatch.setattr(NodeId, "parse", staticmethod(recording))
    return calls


def _refuse(*args):
    raise RuntimeError("out of a command")


class TestOnePerCommand:
    """A command that reads two documents has one record memo while it
    reads them, and the memo never outlives the reads."""

    @pytest.fixture
    def workspace(self, tmp_path):
        (tmp_path / "worked.gkg").write_text(WORKED_TEXT, encoding="utf-8")
        (tmp_path / "dangling.gkg").write_text("N ex:a C core:T\nE ex:a dep ex:ghost\n", encoding="utf-8")
        (tmp_path / "syntax.gkg").write_text("N ex:a C core:T\nWHAT is this\n", encoding="utf-8")
        (tmp_path / "self.align").write_text(_identity_alignment(WORKED_TEXT, WORKED_TEXT), encoding="utf-8")
        (tmp_path / "unknown.align").write_text("ex:nobody\tex:nobody\t1.0000\tMATCH\n", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize(
        "argv, outcome, pair",
        [
            (["merge", "{w}/worked.gkg", "{w}/worked.gkg", "--alignment", "{w}/self.align"], 0, True),
            (["merge", "{w}/worked.gkg", "{w}/dangling.gkg", "--alignment", "{w}/self.align"], 1, True),
            (["merge", "{w}/worked.gkg", "{w}/worked.gkg", "--alignment", "{w}/unknown.align"], 1, True),
            (["align", "{w}/worked.gkg", "{w}/syntax.gkg"], 2, True),
            (["merge", "{w}/worked.gkg", "{w}/worked.gkg"], SystemExit, False),
            (["isocheck", "{w}/worked.gkg", "{w}/missing.gkg"], 3, True),
            (["isocheck", "{w}/worked.gkg", "{w}/worked.gkg"], RuntimeError, True),
            (["render", "{w}/worked.gkg"], 0, False),
        ],
        ids=["exit-0", "exit-1-validation", "exit-1-alignment-mismatch", "exit-2-syntax", "exit-2-usage",
             "exit-3-io", "raised", "one-document"],
    )
    def test_a_library_read_after_a_command_parses_afresh(self, workspace, monkeypatch, argv, outcome, pair):
        argv = [arg.format(w=workspace) for arg in argv]
        memos, parse_memos, work_memos = [], [], []
        read, parse = cli._read, cli.parse_gkg

        def spy(path):
            memos.append(model._command_records)
            return read(path)

        def parse_spy(text):
            parse_memos.append(model._command_records)
            return parse(text)

        def noting(func):
            def call(*args):
                work_memos.append(model._command_records)
                return func(*args)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", spy)
            patch.setattr(cli, "parse_gkg", parse_spy)
            for name in ("align", "merge_documents", "render"):
                patch.setattr(cli, name, noting(getattr(cli, name)))
            if outcome is RuntimeError:
                patch.setattr(cli, "check_isomorphic", _refuse)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if isinstance(outcome, int):
                    assert main(argv) == outcome
                else:
                    with pytest.raises(outcome) as exc:
                        main(argv)
                    assert outcome is not SystemExit or exc.value.code == 2
        if "unknown.align" in argv[-1]:
            assert "not a continuant" in stderr.getvalue()
        if pair and argv[1] == argv[2]:
            # A's text twice is parsed once, without the memo.
            assert parse_memos == [None]
        elif pair:
            # Else the record memo is open for the document parses alone.
            assert parse_memos[0] is not None and parse_memos == [parse_memos[0]] * len(parse_memos)
        else:
            assert all(found is None for found in parse_memos)
        # Reads after the documents' (the alignment's) run without it.
        assert all(found is None for found in memos[2:])
        assert all(found is None for found in work_memos)
        assert model._command_records is None
        calls = _parse_calls(monkeypatch)
        for _ in range(2):
            calls.clear()
            parse_gkg(WORKED_TEXT)
            assert sorted(calls) == sorted(gkg_id_tokens(WORKED_TEXT))

    def test_library_reads_keep_a_memo_each(self, monkeypatch):
        calls = _parse_calls(monkeypatch)
        first, second = parse_gkg(WORKED_TEXT), parse_gkg(WORKED_TEXT)
        assert len(calls) == 2 * len(gkg_id_tokens(WORKED_TEXT))
        assert first == second
        assert not any(node_id is other for node_id, other in zip(first.graph.nodes, second.graph.nodes)
                       if first.graph.nodes[node_id].kind is not NodeKind.TYPE_NODE)
        assert _record_reuse(WORKED_TEXT, WORKED_TEXT, first, second) == {False}


class TestRecordMemo:
    """A line of B that takes A's record still gets B's own checks."""

    @pytest.mark.parametrize(
        "node_line, at",
        [("N ex:rw C core:Human", 0), ("N ex:rw C core:Human", 3), ("N ex:rw C core:Human", 13),
         ("N ex:rw C core:Thing", 0)],
        ids=["copy-first", "copy-between", "copy-last", "other-text-first"],
    )
    def test_a_shared_node_twice_in_b(self, tmp_path, node_line, at):
        """B holds A's line ``N ex:rw C core:Human`` and one more N line
        for ex:rw, which fails on the second of the two."""
        lines = WORKED_TEXT.splitlines()
        text_b = "\n".join([*lines[:at], node_line, *lines[at:]]) + "\n"
        second = [line_no for line_no, line in enumerate(text_b.splitlines(), 1) if line.startswith("N ex:rw ")][1]
        with pytest.raises(GkgSyntaxError) as alone:
            parse_gkg(text_b)
        assert alone.value.line_no == second
        a, b, ab = _write_pair(tmp_path, WORKED_TEXT, text_b, _identity_alignment(WORKED_TEXT, WORKED_TEXT))
        for argv in _commands(a, b, ab, str(tmp_path / "out")).values():
            assert _run(argv)[::2] == (2, f"gkg: {alone.value}\n"), argv[0]

    def test_shared_edge_lines_without_their_nodes_fail_validation(self, tmp_path):
        text_b = "".join(f"{line}\n" for line in WORKED_TEXT.splitlines() if not line.startswith("N ex:v"))
        with pytest.raises(ValidationFailedError) as alone:
            parse_gkg(text_b)
        a, b, ab = _write_pair(tmp_path, WORKED_TEXT, text_b, _identity_alignment(WORKED_TEXT, WORKED_TEXT))
        for argv in _commands(a, b, ab, str(tmp_path / "out")).values():
            assert _run(argv) == (1, alone.value.report.to_tsv(), "gkg: validation failed\n"), argv[0]

    def test_a_shared_node_line_that_collides_with_a_type_in_b(self, tmp_path):
        """B takes both N lines from A and declares one of their ids a type:
        the error names that node's line, as B's read alone does."""
        text_a = "N ex:y C ex:T\nN ex:x C ex:T\n"
        text_b = text_a + "T ex:x -\n"
        with pytest.raises(GkgSyntaxError) as alone:
            parse_gkg(text_b)
        assert str(alone.value) == "line 2: node ex:x collides with a declared type"
        a, b, ab = _write_pair(tmp_path, text_a, text_b, _identity_alignment(text_a, text_a))
        for argv in _commands(a, b, ab, str(tmp_path / "out")).values():
            assert _run(argv)[::2] == (2, f"gkg: {alone.value}\n"), argv[0]


class TestIdenticalTexts:
    """A B whose text is A's is A's document: one parse, no memo, and the
    same output, report, error and exit code as the memo's path."""

    @pytest.fixture(params=["worked", "revision"])
    def text(self, request):
        return WORKED_TEXT if request.param == "worked" else GOLDEN_PAIRS["revision"][0].read_text(encoding="utf-8")

    def _three_ways(self, tmp_path, text):
        """(A, B) path pairs: one path twice, a byte-identical copy, and a
        copy with a comment line more, which takes the memo's path."""
        a, b, commented = (tmp_path / name for name in ("a.gkg", "b.gkg", "c.gkg"))
        a.write_text(text, encoding="utf-8")
        b.write_bytes(a.read_bytes())
        commented.write_text(_with_a_comment(text), encoding="utf-8")
        return [(str(a), str(a)), (str(a), str(b)), (str(a), str(commented))]

    def test_one_path_a_copy_and_a_commented_copy_agree(self, tmp_path, text):
        ab = tmp_path / "ab.align"
        ab.write_text(_identity_alignment(text, text), encoding="utf-8")
        found = [_outcomes(a, b, str(ab), str(tmp_path / "out")) for a, b in self._three_ways(tmp_path, text)]
        assert found[0] == found[1] == found[2]
        assert {name: outcome[0] for name, outcome in found[0].items()} == {"merge": 0, "align": 0, "isocheck": 0}

    def test_identical_texts_are_parsed_once(self, tmp_path, monkeypatch, text):
        ab = tmp_path / "ab.align"
        ab.write_text(_identity_alignment(text, text), encoding="utf-8")
        parse = cli.parse_gkg
        for (a, b), parses in zip(self._three_ways(tmp_path, text), (1, 1, 2)):
            for name, argv in _commands(a, b, str(ab), str(tmp_path / "out")).items():
                docs = []

                def spy(read_text):
                    docs.append(parse(read_text))
                    return docs[-1]

                with monkeypatch.context() as patch:
                    patch.setattr(cli, "parse_gkg", spy)
                    capture = _Capture(patch)
                    assert _run(argv)[0] == 0
                assert len(docs) == parses, (name, b)
                if name == "merge":
                    doc_a, doc_b, _ = capture.calls[0]
                    # One document, or B holding A's records for every shared line.
                    assert (doc_b is doc_a) == (parses == 1)
                    assert _record_reuse(text, text, doc_a, doc_b) == {True}

    @pytest.mark.parametrize(
        "text_a, b_is, code, message",
        [
            ("WHAT is this\n", "missing", 2, "gkg: line 1: unknown record 'WHAT'\n"),
            ("WHAT is this\n", "same-size-not-utf8", 2, "gkg: line 1: unknown record 'WHAT'\n"),
            ("WHAT is this\n", "a", 2, "gkg: line 1: unknown record 'WHAT'\n"),
            (WORKED_TEXT, "missing", 3, "gkg: [Errno 2] No such file or directory: '{b}'\n"),
            (WORKED_TEXT, "same-size-not-utf8", 2, "gkg: line 1: {b} is not UTF-8 text\n"),
        ],
        ids=["a-malformed-b-missing", "a-malformed-b-not-utf8", "a-malformed-twice", "b-missing",
             "b-not-utf8"],
    )
    def test_errors_come_in_order_a_then_b(self, tmp_path, text_a, b_is, code, message):
        """A's read, then A's parse, then B's read, then B's parse."""
        a, b = tmp_path / "a.gkg", tmp_path / "b.gkg"
        a.write_text(text_a, encoding="utf-8")
        if b_is == "same-size-not-utf8":
            b.write_bytes(b"\xff" * a.stat().st_size)
        elif b_is == "a":
            b = a
        for argv in _commands(str(a), str(b), str(tmp_path / "ab.align"), str(tmp_path / "out")).values():
            assert _run(argv)[::2] == (code, message.format(b=b)), argv[0]


class TestBadTokens:
    def test_a_bad_token_is_never_stored(self):
        """So it fails again with the line number of each record it is on."""
        ids, node_id_of = model._id_reader()
        assert node_id_of("ex:a", 1) is ids["ex:a"]
        for line_no in (3, 7):
            with pytest.raises(GkgSyntaxError) as exc:
                node_id_of("no-colon", line_no)
            assert exc.value.line_no == line_no
        assert list(ids) == ["core:Entity", "ex:a"] and ids["core:Entity"] is ROOT_TYPE
