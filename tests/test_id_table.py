"""One id table per ``gkg`` command that reads two documents.

The documents, declarations and alignment TSV that ``align``, ``merge``
or ``isocheck`` reads parse their id tokens through one table, so a
token they share is parsed once and is one ``NodeId`` object in all of
them.  While the two documents are read, a record memo lets each E or N
line of B that repeats one of A's take the ``Edge`` or ``Node`` A's read
built.  Neither may change anything a command writes or any error it
reports.  The table must not outlive the command, nor the memo the two
reads: library calls outside a command start a fresh id memo each and
share no records.
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


def _without_the_table(monkeypatch):
    """Run later commands as if they had no id table or record memo:
    ``main`` and ``cli._load_pair`` open them on a stand-in for
    ``gkg.model``, so every reader starts its own id memo and no read
    takes another's records."""
    monkeypatch.setattr(cli, "model", SimpleNamespace(_command_ids=None))


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


def _id_objects(doc) -> dict:
    """id token -> the NodeId objects of a document, wherever it holds one."""
    found: dict = {}
    graph = doc.graph

    def note(node_id):
        found.setdefault(str(node_id), set()).add(id(node_id))

    for node_id, node in graph.nodes.items():
        note(node_id)
        note(node.id)
        if node.inst_of is not None:
            note(node.inst_of)
    for edge in graph.edges:
        note(edge.subject)
        note(edge.obj)
    for type_id in doc.hierarchy.types:
        note(type_id)
    for parents in doc.hierarchy.parents.values():
        for parent in parents:
            note(parent)
    for node_id, _ in doc.labels.entries:
        note(node_id)
    for type_id in doc.declarations.referenced_types():
        note(type_id)
    return found


def _alignment_objects(alignment) -> dict:
    found: dict = {}
    for id_a, id_b, _ in alignment.matches:
        for node_id in (id_a, id_b):
            found.setdefault(str(node_id), set()).add(id(node_id))
    for id_a, candidates in alignment.ambiguous:
        found.setdefault(str(id_a), set()).add(id(id_a))
        for id_b, _ in candidates:
            found.setdefault(str(id_b), set()).add(id(id_b))
    return found


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


def _assert_shared(ids_a, ids_b) -> None:
    """Ids of one spelling in both collections are one object."""
    by_token = {str(node_id): node_id for node_id in ids_a}
    for node_id in ids_b:
        assert by_token.get(str(node_id), node_id) is node_id, node_id


class _Capture:
    """What a command handed to the functions it calls after reading."""

    def __init__(self, monkeypatch):
        self.calls: dict = {}
        for name in ("merge_documents", "align", "render"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, self._spy(name, original))

    def _spy(self, name, original):
        def spy(*args):
            self.calls.setdefault(name, []).append(args)
            return original(*args)

        return spy


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


def _malformed_records(text_a: str, text_b: str):
    """Malformed records for B that read ids A parsed fine first."""
    node_lines = [line for line in text_a.splitlines() if line.startswith("N ")]
    node_a, type_a = node_lines[0].split()[1], node_lines[0].split()[3]
    duplicate = next(line for line in text_b.splitlines() if line.startswith("N "))
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
        duplicate,
    ]


def check_pair(tmp_path, monkeypatch, text_a, text_b, alignment, seed=0):
    a, b, ab = _write_pair(tmp_path, text_a, text_b, alignment)
    out = str(tmp_path / "out")

    # Both inputs read inside one command equal each read alone, and the
    # ids A, B and the alignment share are one object each.
    with monkeypatch.context() as patch:
        capture = _Capture(patch)
        shared = _outcomes(a, b, ab, out)
    doc_a, doc_b, read_alignment = capture.calls["merge_documents"][0]
    assert doc_a == parse_gkg(text_a)
    assert doc_b == parse_gkg(text_b)
    assert serialize_gkg(doc_b) == serialize_gkg(parse_gkg(text_b))
    # B's E and N lines that repeat A's hold A's records.
    assert _record_reuse(text_a, text_b, doc_a, doc_b) <= {True}
    assert read_alignment == parse_alignment_tsv(alignment)
    objects_a, objects_b = _id_objects(doc_a), _id_objects(doc_b)
    objects_ab = _alignment_objects(read_alignment)
    # One object per spelling across A, B and the alignment, the root type
    # included.
    for token in objects_a.keys() | objects_b.keys() | objects_ab.keys():
        objects = objects_a.get(token, set()) | objects_b.get(token, set()) | objects_ab.get(token, set())
        assert len(objects) == 1, token
    assert objects_a[str(ROOT_TYPE)] == {id(ROOT_TYPE)}
    for graph_a, graph_b in (capture.calls["align"][0][:2], [call[0] for call in capture.calls["render"]]):
        _assert_shared(graph_a.nodes, graph_b.nodes)

    # Every command writes the same bytes, reports and exit code without
    # the table and the memo, and then no record is shared.
    with monkeypatch.context() as patch:
        _without_the_table(patch)
        capture = _Capture(patch)
        assert _outcomes(a, b, ab, out) == shared
    assert _record_reuse(text_a, text_b, *capture.calls["merge_documents"][0][:2]) <= {False}

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
    """A command that reads two documents has one table while it runs, and
    the table never outlives it."""

    @pytest.fixture
    def workspace(self, tmp_path):
        (tmp_path / "worked.gkg").write_text(WORKED_TEXT, encoding="utf-8")
        (tmp_path / "dangling.gkg").write_text("N ex:a C core:T\nE ex:a dep ex:ghost\n", encoding="utf-8")
        (tmp_path / "syntax.gkg").write_text("N ex:a C core:T\nWHAT is this\n", encoding="utf-8")
        (tmp_path / "self.align").write_text(_identity_alignment(WORKED_TEXT, WORKED_TEXT), encoding="utf-8")
        (tmp_path / "unknown.align").write_text("ex:nobody\tex:nobody\t1.0000\tMATCH\n", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize(
        "argv, outcome, table",
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
    def test_a_library_read_after_a_command_parses_afresh(self, workspace, monkeypatch, argv, outcome, table):
        argv = [arg.format(w=workspace) for arg in argv]
        tables, memos, work_memos = [], [], []
        read = cli._read

        def spy(path):
            tables.append(model._command_ids)
            memos.append(model._command_records)
            return read(path)

        def noting(func):
            def call(*args):
                work_memos.append(model._command_records)
                return func(*args)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", spy)
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
        if table:
            assert tables and tables[0] is not None and all(found is tables[0] for found in tables)
            # The record memo is open for the two document reads alone.
            assert memos[0] is not None and memos[:2] == [memos[0]] * 2
            assert all(found is None for found in memos[2:])
        else:
            assert all(found is None for found in tables + memos)
        assert all(found is None for found in work_memos)
        assert model._command_ids is None and model._command_records is None
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


class TestBadTokens:
    @pytest.mark.parametrize("table", [None, {}], ids=["library", "command"])
    def test_a_bad_token_is_never_stored(self, monkeypatch, table):
        """So it fails again with the line number of each record it is on."""
        monkeypatch.setattr(model, "_command_ids", table)
        ids, node_id_of = model._id_reader()
        assert ids is table or table is None
        assert node_id_of("ex:a", 1) is ids["ex:a"]
        for line_no in (3, 7):
            with pytest.raises(GkgSyntaxError) as exc:
                node_id_of("no-colon", line_no)
            assert exc.value.line_no == line_no
        assert list(ids) == ["core:Entity", "ex:a"] and ids["core:Entity"] is ROOT_TYPE


class TestOneParsePerToken:
    """``gkg merge a b --alignment ab`` parses each distinct id token of
    both documents and the alignment once."""

    @pytest.mark.parametrize("pair", sorted(GOLDEN_PAIRS))
    def test_merge(self, tmp_path, monkeypatch, pair):
        a, b, ab = GOLDEN_PAIRS[pair]
        tokens = gkg_id_tokens(a.read_text(encoding="utf-8")) | gkg_id_tokens(b.read_text(encoding="utf-8"))
        for line in ab.read_text(encoding="utf-8").splitlines():
            tokens.update(line.split("\t")[:2])
        calls = _parse_calls(monkeypatch)
        assert _run(["merge", str(a), str(b), "--alignment", str(ab), "-o", str(tmp_path / "ab.gkg")])[0] == 0
        assert sorted(calls) == sorted(tokens)
