"""Flat-triple, document and rule parsing plus canonical serialization."""

import copy
import os
import pickle
import re
import string
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkg
from gkg import (
    DuplicateRuleError,
    FlatTriple,
    GkgDocument,
    GkgSyntaxError,
    MalformedLineError,
    NodeId,
    NodeKind,
    ROOT_TYPE,
    UnknownRoleError,
    ValidationFailedError,
    canonicalize_document,
    parse_flat,
    parse_gkg,
    parse_rules,
    serialize_gkg,
)
from gkg.formats import (
    _KIND_CODES,
    _DeclarationCollector,
    _content_lines,
    _relation,
    validate_document,
)
from gkg.model import (
    PARTICIPANT_RELATIONS,
    Edge,
    GroundedGraph,
    IssueKind,
    Node,
    PrimitiveRelation,
    RoleConceptDef,
    TypeHierarchy,
    ValidationIssue,
    ValidationReport,
)
from gkg.errors import CycleError
from gkg.multilingual import LabelTable
from gkg.schema import AttrMode, AttrSlot, Cardinality, SchemaDeclarations

from .support import WORKED_TEXT, checked_id, gkg_id_tokens, random_document

# The characters at which str.splitlines() ends a line.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

_BIRTH_RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
CARD ont:Birth ONE
"""


class TestFlatTriples:
    def test_basic_parse(self):
        triples = parse_flat("RogerWaters\tbornIn\tGreat Bookham\n")
        assert triples == (FlatTriple("RogerWaters", "bornIn", "Great Bookham"),)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\na\tr\tb\n   \n# tail\n"
        assert len(parse_flat(text)) == 1

    def test_malformed_line_number(self):
        with pytest.raises(MalformedLineError) as exc:
            parse_flat("a\tr\tb\nbroken line\n")
        assert exc.value.line_no == 2

    def test_too_many_fields(self):
        with pytest.raises(MalformedLineError):
            parse_flat("a\tr\tb\textra\n")

    def test_triple_rejects_embedded_tab(self):
        with pytest.raises(ValueError):
            FlatTriple("a", "r", "b\tc")

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("ch", "\t" + _LINE_BREAKS)
    def test_triple_rejects_tab_or_line_break(self, ch, field):
        """A graph document is read with ``str.splitlines``, so a field that
        holds any character it breaks at could not be read back."""
        values = ["Ann Lee", "bornIn", "Oslo"]
        values[field] += f"{ch}X"
        name = ("e1", "r", "e2")[field]
        with pytest.raises(ValueError, match=f"^flat triple field {name} contains a tab or a line break$"):
            FlatTriple(*values)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("surrogate", ["\ud800", "\udbff", "\udc80", "\udfff"])
    def test_triple_rejects_lone_surrogate(self, surrogate, field):
        """Ids hash a field's UTF-8 bytes, and a lone surrogate has none:
        such a field is refused as the triple is made, not when an id is
        hashed."""
        values = ["Ann Lee", "bornIn", "Oslo"]
        values[field] = surrogate + values[field]
        name = ("e1", "r", "e2")[field]
        with pytest.raises(ValueError, match=f"^flat triple field {name} contains a lone surrogate$"):
            FlatTriple(*values)
        with pytest.raises(MalformedLineError) as exc:
            parse_flat("a\tr\tb\n" + "\t".join(values) + "\n")
        assert exc.value.line_no == 2

    def test_astral_and_unprintable_fields_canonicalize(self):
        """Astral characters and other unprintable ones that are no line
        break still make triples that canonicalize."""
        triples = (FlatTriple("Ann \U0001d11e Lee", "bornIn", "Oslo\x1f"), FlatTriple("Bo\u200b", "bornOn", "1900"))
        rules, declarations = parse_rules(_BIRTH_RULES)
        doc, report = canonicalize_document(triples, rules, declarations=declarations)
        assert report.entity_nodes_created == 2
        assert parse_gkg(serialize_gkg(doc)) == doc

    def test_line_breaks_are_those_of_splitlines(self):
        breaks = {chr(code) for code in range(0x110000) if len(f"a{chr(code)}b".splitlines()) > 1}
        assert breaks == set(_LINE_BREAKS)
        assert not any(ch.isprintable() for ch in "\t" + _LINE_BREAKS)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="aZ é\x1f\x85\u2028\x1c\x0b\r", min_size=1, max_size=5),
                st.sampled_from(("bornIn", "bornOn", "born\x85In", "unmapped")),
                st.text(alphabet="aZ 1/\xa0\x85\u2029\x1e\x0c\n", min_size=1, max_size=5),
            ),
            max_size=4,
        )
    )
    def test_canonicalized_triples_read_back(self, rows):
        """A field that a graph document could not carry is refused as the
        triple is made; any other triples canonicalize to a document that
        reads back equal."""
        try:
            triples = tuple(FlatTriple(*row) for row in rows)
        except ValueError as exc:
            assert str(exc).startswith("flat triple field ")
            return
        rules, declarations = parse_rules(_BIRTH_RULES)
        doc, _report = canonicalize_document(triples, rules, declarations=declarations)
        assert parse_gkg(serialize_gkg(doc)) == doc

    @pytest.mark.parametrize(
        "line, message",
        [
            ("Ada\tbornIn\t ", "field e2 is blank"),
            ("Ada\tbornIn\t London", "field e2 starts with whitespace"),
            ("\xa0Ada\tbornIn\tLondon", "field e1 starts with whitespace"),
            ("Ada\t\x1fbornIn\tLondon", "field r starts with whitespace"),
        ],
    )
    def test_blank_or_leading_whitespace_field_rejected(self, line, message):
        """A graph document drops a label's or literal's leading
        whitespace, so such a field could not be written back."""
        with pytest.raises(MalformedLineError) as exc:
            parse_flat(f"a\tr\tb\n{line}\n")
        assert exc.value.line_no == 2
        assert message in str(exc.value)

    def test_inner_and_trailing_whitespace_kept(self):
        assert parse_flat("Ada L\tbornIn\tGreat Bookham \n") == (FlatTriple("Ada L", "bornIn", "Great Bookham "),)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_parser_total(self, text):
        """Any input either parses or raises a positioned syntax error."""
        try:
            parse_flat(text)
        except MalformedLineError as exc:
            assert exc.line_no >= 1


# --- parse_flat against the per-line reader it replaced -----------------------

def oracle_parse_flat(text: str):
    """``parse_flat`` as it read one line at a time, kept as the oracle for
    the whole-text reader: copied as it was, with its line filter
    ``_content_lines`` written inline."""
    triples = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        try:
            triples.append(FlatTriple(*fields))
        except ValueError as exc:
            raise MalformedLineError(line_no, str(exc)) from None
    return tuple(triples)


# Field text: plain letters, inner spaces, "#", astral and unprintable
# characters that are no line break, Unicode spaces and a lone surrogate.
_FIELD_CHARS = "aZ #\xa0\u3000\x1f\x00\u200b\U0001d11e\ud800"
# Where a random field may start: nothing, a space, NBSP, U+3000 or U+001F
# (all whitespace), or "#".
_FIELD_LEADS = ("", "", "", " ", "\xa0", "\u3000", "\x1f", "#")
_SEPARATORS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028")
_INDENTS = ("", " ", "\t", "\xa0", "\u3000", " \t")


# One flaw per line: (field index, what the field becomes from a good one).
_FLAWS = (
    lambda field: "",
    lambda field: " \u3000",
    lambda field: " " + field,
    lambda field: "\xa0" + field,
    lambda field: "\u3000" + field,
    lambda field: "\x1f" + field,
    lambda field: f"{field[0]}\ud800{field[1:]}",
    lambda field: field + "\t",  # a fourth field, or an empty one
    lambda field: field + "\tx",
)


@st.composite
def _flat_texts(draw):
    """Texts mixing good triple lines, lines with one flaw (an empty,
    leading-whitespace or lone surrogate field, a wrong field count, a
    trailing tab), lines of random fields, indented ``#`` comments, blank
    and whitespace-only lines, every kind of line break, and an optional
    final one."""
    good_field = st.tuples(st.sampled_from("aZ#\x00\u200b\U0001d11e"),
                           st.text(alphabet=_FIELD_CHARS.replace("\ud800", ""), max_size=3)).map("".join)
    good_fields = st.lists(good_field, min_size=3, max_size=3)
    flawed_line = st.tuples(good_fields, st.integers(0, 2), st.sampled_from(_FLAWS)).map(
        lambda parts: "\t".join(parts[2](f) if k == parts[1] else f for k, f in enumerate(parts[0]))
    )
    field = st.tuples(st.sampled_from(_FIELD_LEADS), st.text(alphabet=_FIELD_CHARS, max_size=3)).map("".join)
    random_line = st.lists(field, min_size=1, max_size=4).map("\t".join)
    comment_line = st.tuples(st.sampled_from(_INDENTS), st.text(alphabet=_FIELD_CHARS + "\t", max_size=4))
    line = st.one_of(
        good_fields.map("\t".join),
        good_fields.map("\t".join),
        flawed_line,
        random_line,
        comment_line.map(lambda parts: f"{parts[0]}#{parts[1]}"),
        st.sampled_from(_INDENTS),
    )
    lines = draw(st.lists(line, max_size=6))
    separators = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + sep for line, sep in zip(lines, separators))
    return text[: -len(separators[-1])] if lines and draw(st.booleans()) else text


_REFUSALS = ("tab-separated fields", "is empty", "is blank", "starts with whitespace", "lone surrogate")


def _flat_outcome(reader, text):
    """The triples ``reader`` returns, or the line and message it refuses."""
    try:
        triples = reader(text)
    except MalformedLineError as exc:
        return exc.line_no, str(exc)
    assert type(triples) is tuple and all(type(triple) is FlatTriple for triple in triples)
    return triples


class TestParseFlatAgainstOracle:
    @settings(max_examples=600, deadline=None)
    @given(_flat_texts())
    def test_same_triples_or_error(self, text):
        assert _flat_outcome(parse_flat, text) == _flat_outcome(oracle_parse_flat, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "a\tr\tb",
            "a\tr\tb\r\nc\tr\td\r\n",
            "a\tr\tb\t\n",
            "\ta\tr\n",
            "a\t\tb\n",
            "a\tr\t\xa0b\n",
            "\u3000a\tr\tb\n",
            " # comment\na\tr\tb\n",
            "a\tr\tb\n \t \n\u3000\nc\tr\td\n",
            "a\tr\tb\x85c\tr\td\u2028e\tr\tf",
            "a\tr\tb\x0bc\tr\x1cd\tr\te\n",
            "a\tr\tb\ud800\n",
            "# \ud800\na\tr\tb\n",
            "a\tr\tb\nc\n#d\te\tf\n",
            "a\x00\tr\u200b\tb\U0001d11e\n",
        ],
    )
    def test_examples(self, text):
        assert _flat_outcome(parse_flat, text) == _flat_outcome(oracle_parse_flat, text)

    def test_draws_reach_every_outcome(self):
        """The strategy meets texts that parse to triples, and each refusal."""
        seen = set()

        @settings(max_examples=600, deadline=None, database=None, derandomize=True)
        @given(_flat_texts())
        def record(text):
            outcome = _flat_outcome(oracle_parse_flat, text)
            if outcome and isinstance(outcome[0], FlatTriple):
                seen.add("triples")
            elif outcome:
                seen.add(next(word for word in _REFUSALS if word in outcome[1]))

        record()
        assert seen == {"triples", *_REFUSALS}


class TestFlatTripleRecord:
    """FlatTriple is a tuple record: parse_flat's triples, built with
    ``tuple.__new__``, are the same values the checking constructor makes."""

    def test_a_tuple_equal_only_to_its_own_type(self):
        triple = FlatTriple("Ada", "bornIn", "London")
        (parsed,) = parse_flat("Ada\tbornIn\tLondon\n")
        assert isinstance(triple, tuple) and tuple(triple) == ("Ada", "bornIn", "London")
        assert parsed == triple and not parsed != triple and type(parsed) is FlatTriple
        assert (triple.e1, triple.r, triple.e2) == ("Ada", "bornIn", "London")
        assert triple != ("Ada", "bornIn", "London") and ("Ada", "bornIn", "London") != triple
        assert triple != namedtuple("Twin", FlatTriple._fields)(*triple)
        assert FlatTriple("Ada", "bornIn", "Paris") != triple

    def test_hash_is_the_tuple_hash(self):
        triple = FlatTriple("Ada", "bornIn", "London")
        assert hash(triple) == hash(("Ada", "bornIn", "London")) == hash(parse_flat("Ada\tbornIn\tLondon")[0])
        assert len({triple, FlatTriple("Ada", "bornIn", "London"), FlatTriple("Ada", "bornOn", "1815")}) == 2

    def test_repr_and_pickle_round_trip(self):
        (triple,) = parse_flat("Ada L\tbornIn\tGreat Bookham \n")
        assert repr(triple) == "FlatTriple(e1='Ada L', r='bornIn', e2='Great Bookham ')"
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(triple, protocol))
            assert type(again) is FlatTriple and again == triple
        assert copy.deepcopy(triple) == triple and type(copy.copy(triple)) is FlatTriple

    def test_fields_are_read_only(self):
        triple = FlatTriple("Ada", "bornIn", "London")
        for name in ("e1", "r", "e2", "extra"):
            with pytest.raises(AttributeError):
                setattr(triple, name, "x")


class TestParseGkg:
    def test_worked_document(self, worked_doc):
        graph = worked_doc.graph
        occurrents = [n for n in graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
        attrs = [n for n in graph.nodes.values() if n.kind is NodeKind.ATTRIBUTE_INSTANCE]
        values = [n for n in graph.nodes.values() if n.kind is NodeKind.VALUE_LITERAL]
        assert len(occurrents) == 1
        assert len(attrs) == 2
        assert len(values) == 2
        assert worked_doc.labels.get(NodeId("ex", "rw"), "en") == "Roger Waters"

    def test_undeclared_types_fall_under_root(self, worked_doc):
        human = NodeId("core", "Human")
        assert human in worked_doc.hierarchy.types
        assert worked_doc.hierarchy.is_subtype(human, ROOT_TYPE)

    def test_root_only_document(self):
        doc = parse_gkg("T core:Entity -\n")
        assert doc.hierarchy.types == frozenset({ROOT_TYPE})
        assert [n for n in doc.graph.nodes.values() if n.kind is not NodeKind.TYPE_NODE] == []

    def test_empty_text(self):
        doc = parse_gkg("")
        assert doc.hierarchy.types == frozenset({ROOT_TYPE})

    def test_is_a_from_continuant_fails_validation(self):
        text = "N ex:a C core:Thing\nE ex:a isA core:Thing\n"
        with pytest.raises(ValidationFailedError):
            parse_gkg(text)

    def test_dangling_edge_fails_validation(self):
        with pytest.raises(ValidationFailedError) as exc:
            parse_gkg("N ex:a C core:Thing\nE ex:a dep ex:ghost\n")
        assert not exc.value.report.ok

    def test_value_literal_required(self):
        with pytest.raises(GkgSyntaxError) as exc:
            parse_gkg("N ex:v V ont:Date\n")
        assert exc.value.line_no == 1

    def test_literal_on_continuant_rejected(self):
        with pytest.raises(GkgSyntaxError):
            parse_gkg("N ex:c C core:Thing stray literal\n")

    def test_duplicate_node_rejected(self):
        with pytest.raises(GkgSyntaxError) as exc:
            parse_gkg("N ex:a C core:Thing\nN ex:a C core:Thing\n")
        assert exc.value.line_no == 2

    def test_unknown_record_head(self):
        with pytest.raises(GkgSyntaxError):
            parse_gkg("Q what is this\n")

    def test_unknown_relation_in_edge(self):
        with pytest.raises(GkgSyntaxError):
            parse_gkg("N ex:a C core:T\nN ex:b C core:T\nE ex:a knows ex:b\n")

    def test_hierarchy_cycle_reported(self):
        with pytest.raises(ValidationFailedError):
            parse_gkg("T a:X a:Y\nT a:Y a:X\n")

    def test_duplicate_label_rejected(self):
        text = "N ex:a C core:T\nL ex:a en One\nL ex:a en Two\n"
        with pytest.raises(GkgSyntaxError) as exc:
            parse_gkg(text)
        assert exc.value.line_no == 3

    def test_header_carries_source_and_revision(self):
        doc = parse_gkg("G wiki 3\nT core:Entity -\n")
        assert doc.graph.source_id == "wiki"
        assert doc.graph.revision == 3

    def test_duplicate_header_rejected(self):
        with pytest.raises(GkgSyntaxError):
            parse_gkg("G a 1\nG b 2\n")

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_parser_total(self, text):
        try:
            parse_gkg(text)
        except GkgSyntaxError as exc:
            assert exc.line_no >= 1
        except ValidationFailedError:
            pass


def oracle_parse_gkg(text: str) -> GkgDocument:
    """``parse_gkg`` before its record loop was tightened: every line goes
    through ``_content_lines`` and each field through its checked parse."""
    type_pairs: list = []
    node_records: list = []
    edge_records: list = []
    label_entries: dict = {}
    declarations = _DeclarationCollector(checked_id)
    source_id = ""
    revision = 0
    saw_header = False
    seen_node_lines: dict = {}
    parse_id = NodeId.parse
    ids: dict = {}

    def node_id_of(token: str, line_no: int) -> NodeId:
        found = ids.get(token)
        if found is None:
            try:
                found = ids[token] = parse_id(token)
            except ValueError as exc:
                raise GkgSyntaxError(line_no, str(exc)) from None
        return found

    for line_no, line in _content_lines(text):
        fields = line.split()
        head = fields[0]
        if head == "G":
            if saw_header:
                raise GkgSyntaxError(line_no, "duplicate G header")
            if len(fields) != 3:
                raise GkgSyntaxError(line_no, "G takes a source id and a revision")
            saw_header = True
            source_id = "" if fields[1] == "-" else fields[1]
            try:
                revision = int(fields[2])
            except ValueError:
                raise GkgSyntaxError(line_no, f"bad revision {fields[2]!r}") from None
            if revision < 0:
                raise GkgSyntaxError(line_no, "revision must be non-negative")
        elif head == "T":
            if len(fields) != 3:
                raise GkgSyntaxError(line_no, "T takes a type id and a parent id or -")
            type_id = node_id_of(fields[1], line_no)
            parent = None if fields[2] == "-" else node_id_of(fields[2], line_no)
            type_pairs.append((type_id, parent))
        elif head == "N":
            parts = line.split(None, 4)
            if len(parts) < 4:
                raise GkgSyntaxError(line_no, "N takes a node id, a kind code and a type id")
            node_id = node_id_of(parts[1], line_no)
            kind = _KIND_CODES.get(parts[2])
            if kind is None:
                raise GkgSyntaxError(line_no, f"bad node kind {parts[2]!r}")
            type_id = node_id_of(parts[3], line_no)
            literal = parts[4] if len(parts) == 5 else None
            if kind is NodeKind.VALUE_LITERAL:
                if literal is None:
                    raise GkgSyntaxError(line_no, "value node needs a literal")
            elif literal is not None:
                raise GkgSyntaxError(line_no, "literal on a non-value node")
            if node_id in seen_node_lines:
                raise GkgSyntaxError(line_no, f"duplicate node {node_id}")
            seen_node_lines[node_id] = line_no
            node_records.append((line_no, node_id, kind, type_id, literal))
        elif head == "E":
            if len(fields) != 4:
                raise GkgSyntaxError(line_no, "E takes a subject, a relation and an object")
            subject = node_id_of(fields[1], line_no)
            relation = _relation(fields[2], line_no)
            obj = node_id_of(fields[3], line_no)
            edge_records.append(Edge(subject, relation, obj))
        elif head == "L":
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise GkgSyntaxError(line_no, "L takes a node id, a language tag and a label")
            node_id = node_id_of(parts[1], line_no)
            lang = parts[2]
            key = (node_id, lang)
            if key in label_entries:
                raise GkgSyntaxError(line_no, f"duplicate label for {node_id} [{lang}]")
            label_entries[key] = parts[3]
        elif declarations.handles(head):
            declarations.take(fields, line_no)
        else:
            raise GkgSyntaxError(line_no, f"unknown record {head!r}")

    schema = declarations.build()
    referenced = {record[3] for record in node_records}
    referenced.update(schema.referenced_types())
    declared = {pair[0] for pair in type_pairs}
    for type_id in sorted(referenced - declared, key=str):
        type_pairs.append((type_id, None))
    try:
        hierarchy = TypeHierarchy.from_edges(type_pairs)
    except CycleError as exc:
        issue = ValidationIssue(IssueKind.HIERARCHY_MISMATCH, "hierarchy", str(exc))
        raise ValidationFailedError(ValidationReport((issue,))) from None
    nodes: dict = {type_id: Node(type_id, NodeKind.TYPE_NODE) for type_id in hierarchy.types}
    for line_no, node_id, kind, type_id, literal in node_records:
        if node_id in nodes and nodes[node_id].kind is NodeKind.TYPE_NODE:
            raise GkgSyntaxError(line_no, f"node {node_id} collides with a declared type")
        nodes[node_id] = Node(node_id, kind, inst_of=type_id, literal=literal)
    graph = GroundedGraph(nodes, frozenset(edge_records), source_id, revision)
    doc = GkgDocument(hierarchy, graph, LabelTable(label_entries), schema)
    report = validate_document(doc)
    if not report.ok:
        raise ValidationFailedError(report)
    return doc


def _outcome(parser, text: str):
    """What ``parser`` makes of ``text``: the document, or the error's type,
    message, line number and validation report."""
    try:
        return parser(text)
    except (GkgSyntaxError, ValidationFailedError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "report", None)


_EDGE_BASE = "N ex:a C t:Human\nN ex:b O t:Birth\n"

# E lines against known and unknown ids, then blank and comment lines; the
# bad records come both before any N line and after the ids are known.
_EDGE_CASES = [
    "E ex:b participantIn",
    "E ex:b participantIn ex:a extra",
    "E ex:b bogus ex:a",
    "E ex:b PARTICIPANTIN ex:a",
    "E ex:b participantIn ex a",
    "E ex:b participantIn :a",
    "E é:b participantIn ex:a",
    "E ex:b participantIn ex:z",
    "E ex:z participantIn ex:a",
    "E ex:b participantIn ex:a",
    "E ex:b participantIn ex:a # trailing",
    "E",
    "#E ex:b bogus ex:a",
    "   # E ex:b bogus ex:a",
    "\t#",
    "  \t ",
    "\x1f",
    "\xa0",
    "E\x1fex:b\x1fparticipantIn\x1fex:a",
    "E ex:b participantIn\u3000ex:a",
]


# Well-formed records over node ids that repeat or name a type, and types
# that T records may put in a cycle: duplicate nodes, labels, headers and
# declarations, collisions, cycles and failed validation all arise.
_ORACLE_IDS = st.sampled_from(("ex:a", "ex:b", "ex:c", "ex:d", "t:A", "core:Entity"))
_ORACLE_TYPES = st.sampled_from(("t:A", "t:B", "t:C", "core:Entity"))
_ORACLE_RECORDS = {
    # Value nodes carry a literal of two words or with inner or trailing spaces.
    "N": st.one_of(
        st.tuples(_ORACLE_IDS, st.sampled_from(("C", "O", "A")), _ORACLE_TYPES),
        st.tuples(_ORACLE_IDS, st.just("V"), _ORACLE_TYPES, st.sampled_from(("1955", "x  ", "a  b "))),
        st.tuples(_ORACLE_IDS, st.just("V"), _ORACLE_TYPES, st.just("Great"), st.just("Bookham")),
    ),
    "E": st.tuples(
        _ORACLE_IDS,
        st.sampled_from(("participantIn", "hasAgent", "hasProp", "hasValue", "inst", "isA", "eq")),
        st.one_of(_ORACLE_IDS, _ORACLE_TYPES),
    ),
    "T": st.tuples(_ORACLE_TYPES, st.one_of(st.just("-"), _ORACLE_TYPES)),
    "L": st.tuples(
        st.one_of(_ORACLE_IDS, _ORACLE_TYPES), st.sampled_from(("en", "fr")), st.sampled_from(("Ann", "A  b "))
    ),
    "G": st.tuples(st.sampled_from(("src", "-")), st.sampled_from(("0", "3"))),
    "ESSENTIAL": st.tuples(_ORACLE_TYPES),
    "CARD": st.tuples(_ORACLE_TYPES, st.sampled_from(("ONE", "MANY"))),
    "ATTRDECL": st.tuples(_ORACLE_TYPES, _ORACLE_TYPES, st.sampled_from(("FUNCTIONAL", "MULTI"))),
    "ROLE": st.tuples(
        st.sampled_from(("Founder", "Member")),
        st.just("BASE"),
        _ORACLE_TYPES,
        st.just("VIA"),
        st.sampled_from(("hasAgent", "participantIn")),
        st.just("EVENT"),
        _ORACLE_TYPES,
    ),
    "#": st.sampled_from(((), ("N", "ex:a", "C", "t:A"), ("bogus",))),
    "": st.just(()),
}

# Records that fail on their own: a bad field, or one field short or too many.
_MALFORMED_RECORDS = (
    "N ex:a c t:A", "N ex:a T t:A", "N ex:a V t:A", "N ex:a C t:A x", "N ex:a C", "N ex C t:A", "N ex:a O é:x",
    "E ex:a participantIn", "E ex:a nope ex:b", "E ex: hasAgent ex:a", "E ex:a hasAgent ex:b ex:c",
    "T t:A", "T t:A t:B t:C", "T t -",
    "L ex:a en", "L ex en Ann",
    "G src", "G src x", "G src -1", "G src 1.5", "G a b c",
    "ESSENTIAL", "ESSENTIAL t", "CARD t:A SOME", "CARD t:A", "ATTRDECL t:A t:B", "ATTRDECL t:A t:B SOMETIMES",
    "ROLE R BASE t:A VIA isA EVENT t:B", "ROLE R BASE t:A", "ROLE R BASE t:A VIA hasAgent EVENT t",
    "X ex:a", "n ex:a C t:A",
)


@st.composite
def _any_record(draw):
    """A well-formed record, a comment or a blank line, or now and then a
    malformed record, with its fields separated by any whitespace."""
    if draw(st.integers(0, 15)):
        head = draw(st.sampled_from(["N", "E"] * 3 + sorted(_ORACLE_RECORDS)))
        fields = [head, *draw(_ORACLE_RECORDS[head])] if head else []
    else:
        fields = draw(st.sampled_from(_MALFORMED_RECORDS)).split()
    separator = draw(st.sampled_from((" ", " ", " ", "\t", "\x1f", "\u3000", "  ")))
    indent = draw(st.sampled_from(("", "", "", " ", "\t")))
    return indent + separator.join(fields)


class TestParseGkgAgainstOracle:
    @pytest.mark.parametrize("line", _EDGE_CASES)
    def test_edge_and_skipped_lines(self, line):
        for text in (
            _EDGE_BASE + line + "\n",
            line + "\n" + _EDGE_BASE,
            "E ex:b hasAgent ex:a\n" + line + "\n" + _EDGE_BASE + "E ex:b participantIn ex:a\n",
            _EDGE_BASE + "E ex:b hasAgent ex:a\n" + line + "\nE ex:b participantIn ex:a\n",
        ):
            assert _outcome(parse_gkg, text) == _outcome(oracle_parse_gkg, text)

    def test_first_collision_in_record_order(self):
        text = "T t:A -\nT t:B -\nN t:B C t:A\nN ex:a C t:A\nN t:A C t:B\n"
        assert _outcome(parse_gkg, text) == _outcome(oracle_parse_gkg, text)
        with pytest.raises(GkgSyntaxError, match=r"^line 3: node t:B collides with a declared type$"):
            parse_gkg(text)

    def test_first_collision_past_skipped_lines_and_other_line_ends(self):
        """The collision's line is found again past blank and comment lines,
        an E record on a colliding id and other line ends; the first
        collision's id sorts after the other's."""
        text = (
            "T t:A -\nT t:B t:A\n\n# N t:A C t:B\nE t:B dep ex:a\nN ex:a C t:A\r\n"
            "N t:B C t:A\u2028N t:A O t:B\n"
        )
        assert _outcome(parse_gkg, text) == _outcome(oracle_parse_gkg, text)
        with pytest.raises(GkgSyntaxError, match=r"^line 7: node t:B collides with a declared type$"):
            parse_gkg(text)

    def test_bad_edges_keep_their_messages(self):
        text = _EDGE_BASE + "E ex:b participantIn ex:a\nE ex:b bogus ex:a\n"
        with pytest.raises(GkgSyntaxError, match=r"^line 4: unknown primitive relation: 'bogus'$"):
            parse_gkg(text)
        with pytest.raises(GkgSyntaxError, match=r"^line 3: E takes a subject, a relation and an object$"):
            parse_gkg(_EDGE_BASE + "E ex:b participantIn ex:a ex:a\n")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGE_CASES),
                st.sampled_from(("N ex:a C t:Human", "N ex:b O t:Birth", "N ex:c A t:Place", "N ex:d V t:V x")),
                st.builds(
                    "E {} {} {}".format,
                    st.sampled_from(("ex:a", "ex:b", "ex:c", "ex:d", "ex:", "ex")),
                    st.sampled_from(("participantIn", "hasProp", "hasValue", "dep", "isA", "nope")),
                    st.sampled_from(("ex:a", "ex:b", "ex:c", "ex:d", "t:Human", "x")),
                ),
                st.text(alphabet="E ex:ab#\t\x1f\r", max_size=12),
            ),
            max_size=10,
        )
    )
    def test_any_edge_heavy_text(self, lines):
        text = "".join(line + "\n" for line in lines)
        assert _outcome(parse_gkg, text) == _outcome(oracle_parse_gkg, text)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_any_record(), max_size=12), st.sampled_from(("\n", "\n", "\r\n", "\u2028")))
    def test_any_record_text(self, lines, end):
        text = "".join(line + end for line in lines)
        outcome = _outcome(parse_gkg, text)
        assert outcome == _outcome(oracle_parse_gkg, text)
        # The records leave no node issue open: a parsed document fails
        # validation only on its edges or on a cycle among T records.
        if isinstance(outcome, tuple) and outcome[0] is ValidationFailedError:
            assert {issue.kind for issue in outcome[3].issues} <= {
                IssueKind.DANGLING_REFERENCE, IssueKind.SIGNATURE_VIOLATION, IssueKind.HIERARCHY_MISMATCH,
            }


class TestNodeIdParseCalls:
    """``model.nodeid_parse_calls`` in a traced benchmark run counts the
    calls ``parse_gkg`` makes through ``NodeId.parse``, wrapped on the class
    as ``gkgbench/replay.py`` wraps it: one per distinct id token of the
    records and declarations, which share one memo."""

    @pytest.mark.parametrize("seed", [None, *range(12)])
    def test_one_call_per_distinct_record_token(self, monkeypatch, seed):
        text = WORKED_TEXT if seed is None else serialize_gkg(random_document(seed))
        self.check(monkeypatch, text)

    @pytest.mark.parametrize("seed", [None, *range(12)])
    def test_edges_before_nodes(self, monkeypatch, seed):
        """E records first: their ids are new tokens, read by the checked
        path, and the N records then find them read."""
        text = WORKED_TEXT if seed is None else serialize_gkg(random_document(seed))
        self.check(monkeypatch, "".join(sorted(text.splitlines(True), key=lambda line: not line.startswith("E "))))

    @staticmethod
    def check(monkeypatch, text):
        calls = []
        parse = NodeId.parse

        def recording(token):
            calls.append(token)
            return parse(token)

        monkeypatch.setattr(NodeId, "parse", staticmethod(recording))
        doc = parse_gkg(text)
        assert sorted(calls) == sorted(gkg_id_tokens(text))
        monkeypatch.undo()
        assert parse_gkg(text) == doc


def oracle_serialize_gkg(doc: GkgDocument) -> str:
    """``serialize_gkg`` before it wrote ids from their parts: every field
    goes through ``str(NodeId)`` or an enum's ``.value``.  It predates the
    header checks, so it is only asked about headers that read back."""
    lines = []
    graph = doc.graph

    if graph.source_id or graph.revision:
        if any(ch.isspace() for ch in graph.source_id):
            raise ValueError(f"source id contains whitespace: {graph.source_id!r}")
        lines.append(f"G {graph.source_id or '-'} {graph.revision}")

    type_lines = []
    for type_id in doc.hierarchy.types:
        parents = doc.hierarchy.parents.get(type_id)
        if not parents:
            type_lines.append(f"T {type_id} -")
        else:
            type_lines.extend(f"T {type_id} {parent}" for parent in parents)
    lines.extend(sorted(type_lines))

    node_lines = []
    for node_id, (_, kind, inst_of, literal) in graph.nodes.items():
        if kind is NodeKind.TYPE_NODE:
            continue
        if inst_of is None:
            raise ValueError(f"cannot serialize untyped node {node_id}")
        record = f"N {node_id} {kind.value} {inst_of}"
        if kind is NodeKind.VALUE_LITERAL:
            if not literal:
                raise ValueError(f"cannot serialize value node {node_id} without a literal")
            record += f" {literal}"
        elif literal is not None:
            raise ValueError(f"cannot serialize literal on non-value node {node_id}")
        node_lines.append(record)
    lines.extend(sorted(node_lines))

    lines.extend(
        sorted(f"E {subject} {relation.value} {obj}" for subject, relation, obj in graph.edges)
    )

    lines.extend(
        sorted(f"L {node_id} {lang} {label}" for (node_id, lang), label in doc.labels.entries.items())
    )

    decl_lines = []
    decls = doc.declarations
    decl_lines.extend(f"ESSENTIAL {type_id}" for type_id in decls.essential)
    decl_lines.extend(
        f"CARD {type_id} {card.value}" for type_id, card in decls.cardinality.items()
    )
    decl_lines.extend(
        f"ATTRDECL {event_type} {attr_type} {mode.value}"
        for (event_type, attr_type), mode in decls.attr_modes.items()
    )
    decl_lines.extend(
        f"ROLE {role.role_name} BASE {role.base_type} VIA {role.via.value} EVENT {role.occurrent_type}"
        for role in decls.roles
    )
    lines.extend(sorted(decl_lines))

    return "".join(line + "\n" for line in lines)


def _serialized(serializer, doc: GkgDocument):
    """The text ``serializer`` writes for ``doc``, or its ValueError message."""
    try:
        return serializer(doc)
    except ValueError as exc:
        return "ValueError", str(exc)


# Namespaces and locals hold ".", "-" and "!", which sort below ":" and
# the space, and ":", which a local may hold after the first colon.
_FUZZ_IDS = st.builds(
    NodeId,
    st.text(alphabet="ab.-!", min_size=1, max_size=3),
    st.text(alphabet="ab.-!:1", min_size=1, max_size=3),
)
_FUZZ_TEXTS = st.text(alphabet="ab .-", min_size=1, max_size=6).filter(lambda text: not text[0].isspace())
# Labels and literals that may start with whitespace, which a record
# would not carry back, and tags that are empty or more than one token.
_FUZZ_TEXTS_ANY = st.text(alphabet="ab .-\t\u3000", min_size=1, max_size=6)
# Labels as ``_FUZZ_TEXTS_ANY``, or empty, which an L record cannot carry.
_FUZZ_LABELS = st.one_of(_FUZZ_TEXTS_ANY, st.just(""))
_FUZZ_TAGS = st.one_of(st.sampled_from(("en", "fr", "de", "zh-Hant")),
                       st.sampled_from(("", "de fr", "en\t", " en", "\u3000")))


def _unwritable(doc: GkgDocument) -> bool:
    """Whether ``doc`` holds a language tag that is empty or holds
    whitespace, an empty label, or a label or non-type node literal that
    starts with whitespace: text that ``serialize_gkg`` must refuse."""
    entries = doc.labels.entries
    return (
        any(lang.split() != [lang] for _, lang in entries)
        or any(not label or label[:1].isspace() for label in entries.values())
        or any(node.literal and node.literal[0].isspace()
               for node in doc.graph.nodes.values() if node.kind is not NodeKind.TYPE_NODE)
    )


@st.composite
def _fuzzed_documents(draw):
    """A document that need not validate: several parents per type, nodes
    with and without a type or literal, edges under any relation, labels
    in several languages, declarations, and a header or none."""
    types = draw(st.lists(_FUZZ_IDS, unique=True, max_size=5))
    pairs = []
    for i, type_id in enumerate(types):
        parents = draw(st.lists(st.sampled_from(types[:i]), unique=True, max_size=3)) if i else []
        pairs.extend((type_id, parent) for parent in parents or [None])
    hierarchy = TypeHierarchy.from_edges(pairs)
    type_ids = sorted(hierarchy.types)

    nodes = {}
    for node_id in draw(st.lists(_FUZZ_IDS.filter(lambda i: i not in hierarchy), unique=True, max_size=6)):
        kind = draw(st.sampled_from(sorted(_KIND_CODES.values())))
        inst_of = draw(st.one_of(st.sampled_from(type_ids), st.none())) if draw(st.booleans()) else type_ids[0]
        if kind is NodeKind.VALUE_LITERAL:
            literal = draw(st.one_of(_FUZZ_TEXTS, _FUZZ_TEXTS_ANY, st.sampled_from(("", None))))
        else:
            literal = draw(st.one_of(st.none(), st.none(), _FUZZ_TEXTS, _FUZZ_TEXTS_ANY))
        nodes[node_id] = Node(node_id, kind, inst_of, literal)

    all_ids = list(nodes) + type_ids
    edges = draw(st.frozensets(st.builds(Edge, st.sampled_from(all_ids), st.sampled_from(list(PrimitiveRelation)),
                                         st.sampled_from(all_ids)), max_size=8))
    labels = draw(st.dictionaries(st.tuples(st.sampled_from(all_ids), _FUZZ_TAGS),
                                  st.one_of(_FUZZ_TEXTS, _FUZZ_LABELS), max_size=6))
    declarations = SchemaDeclarations(
        essential=draw(st.frozensets(st.sampled_from(type_ids), max_size=2)),
        cardinality=draw(st.dictionaries(st.sampled_from(type_ids), st.sampled_from(list(Cardinality)), max_size=2)),
        attr_modes=draw(st.dictionaries(st.tuples(st.sampled_from(type_ids), st.sampled_from(type_ids)),
                                        st.sampled_from(list(AttrMode)), max_size=2)),
        roles=tuple(draw(st.lists(st.builds(RoleConceptDef, st.sampled_from(("Founder", "Member")),
                                            st.sampled_from(type_ids), st.sampled_from(sorted(PARTICIPANT_RELATIONS)),
                                            st.sampled_from(type_ids)), max_size=2))),
    )
    source_id = draw(st.sampled_from(("", "src", "a.b-c!", "a b", "a\tb")))
    revision = draw(st.sampled_from((0, 1, 12)))
    return GkgDocument(hierarchy, GroundedGraph(nodes, edges, source_id, revision), LabelTable(labels), declarations)


_REFUSED_TEXT = (
    r"^cannot serialize (empty language tag|language tag with whitespace|empty label|label that starts with whitespace"
    r"|literal that starts with whitespace) on "
)


class TestSerializeGkgAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_fuzzed_documents())
    def test_fuzzed_documents(self, doc):
        """The oracle writes any tag, label and literal; text that would not
        read back is refused instead, by this or an earlier check."""
        if _unwritable(doc):
            with pytest.raises(ValueError):
                serialize_gkg(doc)
        else:
            assert _serialized(serialize_gkg, doc) == _serialized(oracle_serialize_gkg, doc)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 999), st.data())
    def test_accepted_documents_read_back(self, seed, data):
        """A valid document with drawn labels and literals is either refused
        for one of them or satisfies ``parse(serialize(d)) == d``."""
        doc = random_document(seed)
        nodes = dict(doc.graph.nodes)
        for node_id in data.draw(st.lists(st.sampled_from(sorted(nodes)), max_size=2)):
            if nodes[node_id].kind is NodeKind.VALUE_LITERAL:
                nodes[node_id] = nodes[node_id]._replace(literal=data.draw(_FUZZ_TEXTS_ANY))
        labels = dict(doc.labels.entries)
        labels.update(data.draw(st.dictionaries(st.tuples(st.sampled_from(sorted(nodes)), _FUZZ_TAGS),
                                                _FUZZ_LABELS, max_size=3)))
        doc = GkgDocument(doc.hierarchy, GroundedGraph(nodes, doc.graph.edges, doc.graph.source_id,
                                                       doc.graph.revision), LabelTable(labels), doc.declarations)
        if _unwritable(doc):
            with pytest.raises(ValueError, match=_REFUSED_TEXT):
                serialize_gkg(doc)
        else:
            assert parse_gkg(serialize_gkg(doc)) == doc

    @pytest.mark.parametrize("seed", range(60))
    def test_generated_documents(self, seed):
        doc = random_document(seed)
        assert serialize_gkg(doc) == oracle_serialize_gkg(doc)


# Every ASCII punctuation character, ":" only in local parts.
_PUNCTUATED_IDS = st.builds(
    NodeId,
    st.text(alphabet="ab" + string.punctuation.replace(":", ""), min_size=1, max_size=3),
    st.text(alphabet="ab" + string.punctuation, min_size=1, max_size=4),
).filter(lambda node_id: node_id != ROOT_TYPE)


def _renamed(doc: GkgDocument, new) -> GkgDocument:
    """``doc`` with every id ``node_id`` written ``new(node_id)``."""
    hierarchy = TypeHierarchy.from_edges(
        (new(type_id), new(parent)) for type_id, parents in doc.hierarchy.parents.items() for parent in parents
    )
    graph = doc.graph
    nodes = {
        new(node_id): Node(new(node_id), kind, inst_of and new(inst_of), literal)
        for node_id, (_, kind, inst_of, literal) in graph.nodes.items()
    }
    edges = frozenset(Edge(new(subject), relation, new(obj)) for subject, relation, obj in graph.edges)
    labels = LabelTable({(new(node_id), lang): label for (node_id, lang), label in doc.labels.entries.items()})
    decls = doc.declarations
    declarations = SchemaDeclarations(
        essential=frozenset(map(new, decls.essential)),
        cardinality={new(type_id): card for type_id, card in decls.cardinality.items()},
        attr_modes={(new(event), new(attr)): mode for (event, attr), mode in decls.attr_modes.items()},
        roles=tuple(RoleConceptDef(role.role_name, new(role.base_type), role.via, new(role.occurrent_type))
                    for role in decls.roles),
    )
    return GkgDocument(hierarchy, GroundedGraph(nodes, edges, graph.source_id, graph.revision), labels, declarations)


class TestPunctuatedIdsReadBack:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 999), st.data())
    def test_local_parts_with_colons_and_punctuation(self, seed, data):
        """``parse(serialize(d)) == d`` for a valid document whose ids (all
        but the root type's) are drawn anew, with colons and any other
        ASCII punctuation in their local parts."""
        doc = random_document(seed)
        old = sorted({*doc.graph.nodes, *(node_id for node_id, _ in doc.labels.entries)} - {ROOT_TYPE})
        fresh = data.draw(st.lists(_PUNCTUATED_IDS, min_size=len(old), max_size=len(old), unique=True))
        mapping = {**dict(zip(old, fresh)), ROOT_TYPE: ROOT_TYPE}
        renamed = _renamed(doc, mapping.__getitem__)
        assert parse_gkg(serialize_gkg(renamed)) == renamed


class TestGkgDocument:
    def test_missing_hierarchy_types_become_type_nodes(self):
        """The graph gains a node per hierarchy type it lacks; the caller's
        node table is left as it was."""
        node = Node(NodeId("ex", "a"), NodeKind.CONTINUANT, ROOT_TYPE)
        nodes = {node.id: node}
        doc = GkgDocument(TypeHierarchy.from_edges(()), GroundedGraph(nodes))
        assert doc.graph.nodes == {node.id: node, ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE)}
        assert nodes == {node.id: node}

    def test_graph_with_every_type_node_is_kept(self):
        graph = GroundedGraph({ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE)})
        assert GkgDocument(TypeHierarchy.from_edges(()), graph).graph is graph

    def test_type_node_absent_from_the_hierarchy_is_refused(self):
        stray = NodeId("t", "Stray")
        graph = GroundedGraph({stray: Node(stray, NodeKind.TYPE_NODE)})
        with pytest.raises(ValueError, match=r"^graph type node t:Stray is absent from the hierarchy$"):
            GkgDocument(TypeHierarchy.from_edges(()), graph)

    def test_stray_type_node_with_a_hierarchy_type_missing_is_refused(self):
        """The graph holds as many type nodes as the hierarchy has types,
        but one is stray and one type is missing: the count must not be
        fooled."""
        stray, missing = NodeId("t", "Stray"), NodeId("t", "Missing")
        hierarchy = TypeHierarchy.from_edges([(missing, None)])
        graph = GroundedGraph({ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE), stray: Node(stray, NodeKind.TYPE_NODE)})
        assert len(graph.nodes) == len(hierarchy.types)
        with pytest.raises(ValueError, match=r"^graph type node t:Stray is absent from the hierarchy$"):
            GkgDocument(hierarchy, graph)

    def test_stray_type_node_is_named_before_a_collision(self):
        stray = NodeId("t", "Stray")
        graph = GroundedGraph(
            {ROOT_TYPE: Node(ROOT_TYPE, NodeKind.CONTINUANT, ROOT_TYPE), stray: Node(stray, NodeKind.TYPE_NODE)}
        )
        with pytest.raises(ValueError, match=r"^graph type node t:Stray is absent from the hierarchy$"):
            GkgDocument(TypeHierarchy.from_edges(()), graph)

    def test_node_on_a_hierarchy_type_is_refused(self):
        graph = GroundedGraph({ROOT_TYPE: Node(ROOT_TYPE, NodeKind.CONTINUANT, ROOT_TYPE)})
        with pytest.raises(ValueError, match=r"^node core:Entity collides with a hierarchy type$"):
            GkgDocument(TypeHierarchy.from_edges(()), graph)

    def test_collision_names_the_smallest_id_under_any_hash_seed(self):
        """Of several ids that collide, the smallest is named, whatever
        order ``PYTHONHASHSEED`` gives the hierarchy's type set."""
        code = (
            "from gkg.formats import GkgDocument\n"
            "from gkg.model import GroundedGraph, Node, NodeId, NodeKind, ROOT_TYPE, TypeHierarchy\n"
            "ids = [NodeId('t', name) for name in 'ABC']\n"
            "graph = GroundedGraph({i: Node(i, NodeKind.CONTINUANT, ROOT_TYPE) for i in ids})\n"
            "try:\n"
            "    GkgDocument(TypeHierarchy.from_edges((i, None) for i in ids), graph)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(gkg.__file__).resolve().parents[1])
        messages = [
            subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                           check=True, capture_output=True, text=True).stdout
            for seed in "1234"
        ]
        assert messages == ["node t:A collides with a hierarchy type\n"] * 4

    def test_parsed_document_holds_exactly_its_hierarchy_types_as_type_nodes(self):
        """Declared, referenced and declaration-only types alike become type
        nodes, and no other node is one."""
        doc = parse_gkg("T ex:Person -\nN ex:a C ex:Person\nN ex:b C ex:Place\nESSENTIAL ex:Birth\n")
        type_ids = {NodeId.parse(text) for text in ("core:Entity", "ex:Person", "ex:Place", "ex:Birth")}
        assert doc.hierarchy.types == type_ids
        assert {node_id for node_id, node in doc.graph.nodes.items() if node.kind is NodeKind.TYPE_NODE} == type_ids
        assert all(doc.graph.nodes[type_id] == Node(type_id, NodeKind.TYPE_NODE) for type_id in type_ids)


class TestSerializeGkg:
    def test_canonical_round_trip_bytes(self):
        text = serialize_gkg(parse_gkg(WORKED_TEXT))
        assert serialize_gkg(parse_gkg(text)) == text

    def test_permuted_records_serialize_identically(self):
        lines = WORKED_TEXT.strip().splitlines()
        permuted = "\n".join(reversed(lines)) + "\n"
        assert serialize_gkg(parse_gkg(permuted)) == serialize_gkg(parse_gkg(WORKED_TEXT))

    def test_empty_document_is_root_line(self):
        assert serialize_gkg(GkgDocument(TypeHierarchy.from_edges(()), GroundedGraph())) == "T core:Entity -\n"

    def test_document_without_records_is_empty_text(self):
        doc = GkgDocument(TypeHierarchy(), GroundedGraph())
        assert serialize_gkg(doc) == oracle_serialize_gkg(doc) == ""

    @pytest.mark.parametrize(
        "source_id, revision, message",
        [
            ("-", 0, "source id '-' would read back as no source id"),
            ("-", 2, "source id '-' would read back as no source id"),
            ("x", -1, "revision must be non-negative, got -1"),
            ("", -3, "revision must be non-negative, got -3"),
        ],
    )
    def test_header_that_would_not_read_back_is_refused(self, source_id, revision, message):
        doc = GkgDocument(TypeHierarchy.from_edges(()), GroundedGraph(source_id=source_id, revision=revision))
        with pytest.raises(ValueError) as caught:
            serialize_gkg(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize("ch", _LINE_BREAKS)
    def test_literal_or_label_with_a_line_break_is_refused(self, ch):
        """Such text would be read back as two records, or fail to read."""
        doc = parse_gkg(WORKED_TEXT)
        value_id = NodeId("ex", "v1")
        nodes = dict(doc.graph.nodes)
        nodes[value_id] = nodes[value_id]._replace(literal=f"Oslo{ch}X")
        with_literal = GkgDocument(doc.hierarchy, GroundedGraph(nodes, doc.graph.edges), doc.labels)
        with pytest.raises(ValueError, match=r"^cannot serialize literal with a line break on value node ex:v1$"):
            serialize_gkg(with_literal)
        labels = doc.labels.with_label(NodeId("ex", "rw"), "fr", f"Roger{ch}X")
        with pytest.raises(ValueError, match=r"^cannot serialize label with a line break on ex:rw \[fr\]$"):
            serialize_gkg(GkgDocument(doc.hierarchy, doc.graph, labels))

    @pytest.mark.parametrize(
        "lang, label, message",
        [
            ("de fr", "Roger", "cannot serialize language tag with whitespace on ex:rw ['de fr']"),
            ("en\t", "Roger", "cannot serialize language tag with whitespace on ex:rw ['en\\t']"),
            ("", "Roger", "cannot serialize empty language tag on ex:rw"),
            ("fr", " Roger", "cannot serialize label that starts with whitespace on ex:rw [fr]"),
            ("fr", "\u3000Roger", "cannot serialize label that starts with whitespace on ex:rw [fr]"),
            ("fr", "", "cannot serialize empty label on ex:rw [fr]"),
        ],
    )
    def test_tag_or_label_that_would_not_read_back_is_refused(self, lang, label, message):
        """``L ex:rw de fr Roger`` would read back as the tag ``de`` and the
        label ``fr Roger``, a label's leading whitespace is lost, and
        ``L ex:rw fr `` does not read back at all.  The table is built from
        a dict, as ``with_label`` refuses an empty label."""
        doc = parse_gkg(WORKED_TEXT)
        labels = LabelTable({**doc.labels.entries, (NodeId("ex", "rw"), lang): label})
        with pytest.raises(ValueError) as caught:
            serialize_gkg(GkgDocument(doc.hierarchy, doc.graph, labels))
        assert str(caught.value) == message

    @pytest.mark.parametrize("literal", [" 1955", "\t1955", " "])
    def test_literal_that_starts_with_whitespace_is_refused(self, literal):
        doc = parse_gkg(WORKED_TEXT)
        value_id = NodeId("ex", "v1")
        nodes = dict(doc.graph.nodes)
        nodes[value_id] = nodes[value_id]._replace(literal=literal)
        with pytest.raises(ValueError, match=r"^cannot serialize literal that starts with whitespace on value node ex:v1$"):
            serialize_gkg(GkgDocument(doc.hierarchy, GroundedGraph(nodes, doc.graph.edges), doc.labels))

    def test_trailing_whitespace_reads_back(self):
        doc = parse_gkg(WORKED_TEXT)
        value_id = NodeId("ex", "v1")
        nodes = dict(doc.graph.nodes)
        nodes[value_id] = nodes[value_id]._replace(literal="1955 \t")
        labels = doc.labels.with_label(NodeId("ex", "rw"), "fr", "Roger ")
        edited = GkgDocument(doc.hierarchy, GroundedGraph(nodes, doc.graph.edges), labels)
        assert parse_gkg(serialize_gkg(edited)) == edited

    def test_header_omitted_at_defaults(self):
        assert "G " not in serialize_gkg(parse_gkg("T core:Entity -\n"))
        assert serialize_gkg(parse_gkg("G wiki 2\n")).startswith("G wiki 2\n")

    def test_sections_are_sorted(self, worked_doc):
        text = serialize_gkg(worked_doc)
        heads = [line.split()[0] for line in text.splitlines()]
        order = {"T": 0, "N": 1, "E": 2, "L": 3}
        ranks = [order[h] for h in heads if h in order]
        assert ranks == sorted(ranks)

    def test_ids_below_space_sort_by_line_not_by_id(self):
        r"""``ex:a\x01`` follows ``ex:a`` as an id, but its record lines sort
        first, because ``\x01`` sorts below the space that ends ``ex:a``."""
        text = (
            "T t:T\x01 core:Entity\nT t:T core:Entity\nT t:T t:T\x01\n"
            "N ex:a C t:T\nN ex:a\x01 C t:T\x01\nN ex:e O t:T\n"
            "E ex:e participantIn ex:a\nE ex:e participantIn ex:a\x01\n"
            "L ex:a en A\nL ex:a\x01 en B\n"
        )
        serialized = serialize_gkg(parse_gkg(text))
        assert serialized == (
            "T core:Entity -\nT t:T\x01 core:Entity\nT t:T core:Entity\nT t:T t:T\x01\n"
            "N ex:a\x01 C t:T\x01\nN ex:a C t:T\nN ex:e O t:T\n"
            "E ex:e participantIn ex:a\nE ex:e participantIn ex:a\x01\n"
            "L ex:a\x01 en B\nL ex:a en A\n"
        )
        assert parse_gkg(serialized) == parse_gkg(text)
        assert serialize_gkg(parse_gkg(serialized)) == serialized

    @pytest.mark.parametrize("seed", range(60))
    def test_generated_documents_round_trip(self, seed):
        doc = random_document(seed)
        text = serialize_gkg(doc)
        reparsed = parse_gkg(text)
        assert reparsed == doc  # structure identity
        assert serialize_gkg(reparsed) == text  # byte identity


RULES_TEXT = """\
# two wordings, one event type
RULE startedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE formedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE memberOf EVENT ont:Membership SUBJ hasAgent OBJ PARTICIPANT hasObject
ESSENTIAL ont:Formation
CARD ont:Membership MANY
ATTRDECL ont:Formation ont:Location FUNCTIONAL
ROLE Founder BASE core:Human VIA hasAgent EVENT ont:Formation
"""


class TestParseRules:
    def test_rules_in_file_order(self):
        rules, decls = parse_rules(RULES_TEXT)
        assert [r.rel_name for r in rules] == ["startedIn", "formedIn", "memberOf"]
        assert rules[0].event_type == NodeId("ont", "Formation")
        assert isinstance(rules[0].object_slot, AttrSlot)
        assert decls.card_of(NodeId("ont", "Membership")) is Cardinality.MANY
        assert decls.mode_of(NodeId("ont", "Formation"), NodeId("ont", "Location")) is AttrMode.FUNCTIONAL
        assert [r.role_name for r in decls.roles] == ["Founder"]

    def test_duplicate_relation_rejected(self):
        text = (
            "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:City\n"
            "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date\n"
        )
        with pytest.raises(DuplicateRuleError):
            parse_rules(text)

    def test_shadowed_synonym_rejected(self):
        """born_in and bornIn normalize to the same tokens, so the second
        rule could never fire; that is a mistake worth failing loudly."""
        text = (
            "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:City\n"
            "RULE born_in EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date\n"
        )
        with pytest.raises(DuplicateRuleError):
            parse_rules(text)

    def test_non_participant_subject_role_rejected(self):
        text = "RULE bornIn EVENT ont:Birth SUBJ isA OBJ ATTR ont:Location ont:City\n"
        with pytest.raises(UnknownRoleError):
            parse_rules(text)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(GkgSyntaxError) as exc:
            parse_rules("RULE bornIn EVENT\n")
        assert exc.value.line_no == 1


class TestReadmeRecordTable:
    def test_role_row_is_the_form_read_and_written(self):
        """README's ROLE row: its shape puts the keywords where the reader
        wants them, and its example reads and serializes back as written."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        row = next(line for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith("| `ROLE`"))
        shape, example = re.findall(r"`(ROLE [^`]*)`", row)
        assert shape.split()[::2] == example.split()[::2] == ["ROLE", "BASE", "VIA", "EVENT"]
        assert serialize_gkg(parse_gkg(example + "\n")).splitlines()[-1] == example
