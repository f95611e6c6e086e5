"""Text formats: flat triples, GKG v1 documents, reification rule files.

GKG v1 is line-oriented; fields are whitespace-separated and the last
field of N and L records is greedy so labels and literals may contain
spaces.  ``#`` starts a comment line, blank lines are ignored.

Records::

    G <sourceId|-> <revision>
    T <typeId> <parentTypeId|->
    N <nodeId> <C|O|A|V> <typeId> [literal...]
    E <subjId> <rel> <objId>
    L <nodeId> <lang> <label...>
    ESSENTIAL <eventTypeId>
    CARD <eventTypeId> <ONE|MANY>
    ATTRDECL <eventTypeId> <attrTypeId> <FUNCTIONAL|MULTI>
    ROLE <roleName> BASE <typeId> VIA <rel> EVENT <typeId>

The optional ``G`` header carries the graph's source id and revision and
is omitted when both are at their defaults.  Type ids referenced by N
records or declarations but never declared with a T record are
auto-registered under the root, which is how the compact worked examples
stay parseable.

Canonical serialization emits sections in the order G, T, N, E, L,
declarations, each section sorted lexicographically, one ``\\n`` per
record, so equal documents produce byte-identical text.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import countOf, itemgetter
from typing import List, NamedTuple, Optional, Tuple

from . import model
from .embedding import tokenize
from .errors import (
    CycleError,
    DuplicateRuleError,
    GkgSyntaxError,
    MalformedLineError,
    UnknownRoleError,
    ValidationFailedError,
)
from .model import (
    Edge,
    GroundedGraph,
    IssueKind,
    Node,
    NodeKind,
    PrimitiveRelation,
    RoleConceptDef,
    TypeHierarchy,
    ValidationIssue,
    ValidationReport,
    _equal_to_own_type,
    _Frozen,
    _id_reader,
    _NON_TYPE,
    _set_field,
    validate_graph,
)
from .multilingual import LabelTable
from .schema import (
    AttrMode,
    AttrSlot,
    Cardinality,
    ParticipantSlot,
    ReificationRule,
    SchemaDeclarations,
)

_RELATIONS = {relation.value: relation for relation in PrimitiveRelation}

_KIND_CODES = {kind.value: kind for kind in _NON_TYPE}
# Each node kind's and relation's field in a record, with the spaces
# around it.
_KIND_FIELD = {kind: f" {code} " for code, kind in _KIND_CODES.items()}
_RELATION_FIELD = {relation: f" {code} " for code, relation in _RELATIONS.items()}


class _FlatFields(NamedTuple):
    e1: str
    r: str
    e2: str


@_equal_to_own_type
class FlatTriple(_FlatFields):
    """One conventional KG triple: three non-empty labels that hold no tab,
    end no line for ``str.splitlines`` and do not start with whitespace (a
    graph document could not carry such a label or literal back).

    A tuple record, a ``NamedTuple`` as ``Node`` and ``Edge`` are, equal
    only to its own type.  The constructor checks the fields;
    :func:`parse_flat` checks a whole text at once and builds its triples
    with ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, e1: str, r: str, e2: str) -> "FlatTriple":
        for name, value in (("e1", e1), ("r", r), ("e2", e2)):
            if not value:
                raise ValueError(f"flat triple field {name} is empty")
            # Tabs, line breaks and lone surrogates are unprintable, so one
            # call clears a printable field.  Text is read with splitlines(),
            # which sets where a line ends; ids hash a field's UTF-8 bytes,
            # which a lone surrogate has none of.
            if not value.isprintable():
                if "\t" in value or value.splitlines() != [value]:
                    raise ValueError(f"flat triple field {name} contains a tab or a line break")
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"flat triple field {name} contains a lone surrogate") from None
            if value[0].isspace():
                blank = "is blank" if value.isspace() else "starts with whitespace"
                raise ValueError(f"flat triple field {name} {blank}")
        return tuple.__new__(cls, (e1, r, e2))


class GkgDocument(_Frozen):
    """A hierarchy, a graph, display labels and schema declarations.

    On construction the graph is synchronized with the hierarchy, and
    only here are type nodes made: every hierarchy type the graph lacks
    gains one, a graph type node the hierarchy does not know is rejected,
    and then a node of another kind on a hierarchy type (the smallest such
    id is named).  Missing labels and declarations are empty ones.
    """

    __slots__ = _fields = ("hierarchy", "graph", "labels", "declarations")

    def __init__(
        self,
        hierarchy: TypeHierarchy,
        graph: GroundedGraph,
        labels: Optional[LabelTable] = None,
        declarations: Optional[SchemaDeclarations] = None,
    ):
        nodes = graph.nodes
        types = hierarchy.types
        type_node = NodeKind.TYPE_NODE
        held = types & nodes.keys()
        collisions = [type_id for type_id in held if nodes[type_id].kind is not type_node]
        # Type nodes are counted, not walked: one is stray exactly when the
        # graph holds more type nodes than hierarchy types held as type
        # nodes.  Only then are the nodes walked, to name the first.
        if countOf(map(itemgetter(1), nodes.values()), type_node) != len(held) - len(collisions):
            for node_id, (_, kind, _, _) in nodes.items():
                if kind is type_node and node_id not in types:
                    raise ValueError(f"graph type node {node_id} is absent from the hierarchy")
        if collisions:
            raise ValueError(f"node {min(collisions)} collides with a hierarchy type")
        if len(held) != len(types):
            nodes = dict(nodes)
            nodes.update((type_id, Node(type_id, type_node)) for type_id in types - held)
            graph = GroundedGraph(nodes, graph.edges, graph.source_id, graph.revision)
        _set_field(self, "hierarchy", hierarchy)
        _set_field(self, "graph", graph)
        _set_field(self, "labels", LabelTable() if labels is None else labels)
        _set_field(self, "declarations", SchemaDeclarations() if declarations is None else declarations)


def validate_document(doc: GkgDocument) -> ValidationReport:
    """Graph validation plus a check that declarations only reference
    hierarchy types."""
    report = validate_graph(doc.graph, doc.hierarchy)
    extra = [
        ValidationIssue(
            IssueKind.UNKNOWN_TYPE_TARGET,
            "declarations",
            f"declared type {type_id} not in hierarchy",
        )
        for type_id in sorted(doc.declarations.referenced_types() - doc.hierarchy.types)
    ]
    if extra:
        report = ValidationReport(tuple(sorted(report.issues + tuple(extra))))
    return report


def _read_text(path, error) -> str:
    """The text of the UTF-8 file at ``path``, after a leading byte-order
    mark, which marks the encoding and is no part of the text.  A byte that
    is not UTF-8 raises ``error``, a :class:`GkgSyntaxError` class, with the
    line of the byte as ``str.splitlines`` counts the lines."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands for the bad byte, so a line end just before it starts its line.
        line_no = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise error(line_no, f"{path} is not UTF-8 text") from None
    return text.removeprefix("\ufeff")


# Patterns over "\n" + the lines joined by "\n" + "\n".  A blank or
# comment line, with the "\n" before it; and a field that is empty or
# starts with whitespace, since a field starts after a tab or at a line
# start, and "\t" and "\n" are whitespace.  Within a line, "\s" matches
# exactly the characters str.isspace() and str.strip() take.  The field
# check is two patterns, each led by one literal character that the
# regex engine scans for directly.  The re module compiles each on first
# use, so a command that reads no flat file compiles none.
_SKIPPED_LINE = r"\n[^\S\n]*(?:#[^\n]*)?(?=\n)"
_BLANK_AFTER_TAB = r"\t\s"
_BLANK_AT_LINE_START = r"\n\s"
_LONE_SURROGATE = r"[\ud800-\udfff]"


def parse_flat(text: str) -> Tuple[FlatTriple, ...]:
    """Parse tab-separated triples, one per line of ``str.splitlines``.
    Lines must have exactly three non-empty fields; ``#`` comments and
    blank lines are skipped."""
    body = re.sub(_SKIPPED_LINE, "", "\n" + "\n".join(text.splitlines()) + "\n")
    rows = list(map(str.split, body.split("\n")[1:-1], repeat("\t")))
    # FlatTriple's checks, made once on the whole text: three fields a
    # line, none empty or led by whitespace, no lone surrogate.  A field
    # cut from these lines holds no tab or line break.  Only a text that
    # fails is walked line by line, to word its first bad line's error.
    if (
        set(map(len, rows)) <= {3}
        and not re.search(_BLANK_AFTER_TAB, body)
        and not re.search(_BLANK_AT_LINE_START, body)
        and (body.isascii() or not re.search(_LONE_SURROGATE, body))
    ):
        return tuple(map(tuple.__new__, repeat(FlatTriple), rows))
    raise _first_malformed_line(text)


def _first_malformed_line(text: str) -> MalformedLineError:
    """The error for the first line that ``parse_flat`` refuses; the text
    must hold one."""
    for line_no, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            return MalformedLineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        try:
            FlatTriple(*fields)
        except ValueError as exc:
            return MalformedLineError(line_no, str(exc))
    raise AssertionError("parse_flat refused a text without a malformed line")


def _relation(text: str, line_no: int) -> PrimitiveRelation:
    relation = _RELATIONS.get(text)
    if relation is None:
        raise GkgSyntaxError(line_no, f"unknown primitive relation: {text!r}")
    return relation


class _DeclarationCollector:
    """Accumulates declaration records shared by .gkg and rule files,
    reading their ids with ``node_id_of``, the reader of the file's
    records (see ``model._id_reader``)."""

    def __init__(self, node_id_of):
        self.node_id_of = node_id_of
        self.essential: set = set()
        self.cardinality: dict = {}
        self.attr_modes: dict = {}
        self.roles: dict = {}

    def handles(self, head: str) -> bool:
        return head in ("ESSENTIAL", "CARD", "ATTRDECL", "ROLE")

    def take(self, fields: List[str], line_no: int) -> None:
        head = fields[0]
        node_id_of = self.node_id_of
        if head == "ESSENTIAL":
            if len(fields) != 2:
                raise GkgSyntaxError(line_no, "ESSENTIAL takes exactly one type id")
            self.essential.add(node_id_of(fields[1], line_no))
        elif head == "CARD":
            if len(fields) != 3:
                raise GkgSyntaxError(line_no, "CARD takes a type id and ONE|MANY")
            event_type = node_id_of(fields[1], line_no)
            try:
                card = Cardinality(fields[2])
            except ValueError:
                raise GkgSyntaxError(line_no, f"bad cardinality {fields[2]!r}") from None
            if event_type in self.cardinality:
                raise GkgSyntaxError(line_no, f"duplicate CARD for {event_type}")
            self.cardinality[event_type] = card
        elif head == "ATTRDECL":
            if len(fields) != 4:
                raise GkgSyntaxError(line_no, "ATTRDECL takes two type ids and FUNCTIONAL|MULTI")
            event_type = node_id_of(fields[1], line_no)
            attr_type = node_id_of(fields[2], line_no)
            try:
                mode = AttrMode(fields[3])
            except ValueError:
                raise GkgSyntaxError(line_no, f"bad attribute mode {fields[3]!r}") from None
            key = (event_type, attr_type)
            if key in self.attr_modes:
                raise GkgSyntaxError(line_no, f"duplicate ATTRDECL for {event_type} / {attr_type}")
            self.attr_modes[key] = mode
        else:  # ROLE
            if len(fields) != 8 or fields[2] != "BASE" or fields[4] != "VIA" or fields[6] != "EVENT":
                raise GkgSyntaxError(line_no, "ROLE syntax: ROLE <name> BASE <type> VIA <rel> EVENT <type>")
            role_name = fields[1]
            base_type = node_id_of(fields[3], line_no)
            via = _relation(fields[5], line_no)
            occurrent_type = node_id_of(fields[7], line_no)
            if role_name in self.roles:
                raise GkgSyntaxError(line_no, f"duplicate ROLE {role_name!r}")
            try:
                self.roles[role_name] = RoleConceptDef(role_name, base_type, via, occurrent_type)
            except ValueError as exc:
                raise UnknownRoleError(line_no, str(exc)) from None

    def build(self) -> SchemaDeclarations:
        return SchemaDeclarations(
            essential=frozenset(self.essential),
            cardinality=dict(self.cardinality),
            attr_modes=dict(self.attr_modes),
            roles=tuple(self.roles[name] for name in sorted(self.roles)),
        )


# Texts are read a block of lines at a time, so no read holds a list of all
# its lines.  A block ends just after its first "\n" at or past _BLOCK
# characters: no "\r\n" is split, so its lines are the text's splitlines().
_BLOCK = 1 << 16


def _line_blocks(text: str):
    """``text.splitlines()``, one list per block of the text."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _BLOCK) + 1 or end
        yield text[start:stop].splitlines()
        start = stop


def _content_lines(text: str):
    """(line number, line) of every line neither blank nor a ``#`` comment."""
    line_no = 0
    for block in _line_blocks(text):
        for line_no, line in enumerate(block, line_no + 1):
            if line.strip() and not line.lstrip().startswith("#"):
                yield line_no, line


def parse_gkg(text: str) -> GkgDocument:
    """Parse GKG v1 text into a document.

    Malformed lines raise :class:`GkgSyntaxError` with the line number;
    well-formed text whose graph breaks the typing discipline raises
    :class:`ValidationFailedError` carrying :func:`validate_graph`'s full
    report.  :class:`GkgDocument` adds the type nodes to the N records'.
    """
    type_pairs: list = []
    nodes: dict = {}  # node records, in record order
    edge_records: list = []
    label_entries: dict = {}
    ids, node_id_of = _id_reader()
    declarations = _DeclarationCollector(node_id_of)
    source_id = ""
    revision = 0
    saw_header = False

    # Edges and nodes are NamedTuples, whose constructor is Python code;
    # tuple.__new__ builds the same objects directly.
    new_tuple = tuple.__new__
    ids_get = ids.get
    parse_id = model.NodeId.parse  # looked up per read, so a wrapper on the class sees every parse
    relations = _RELATIONS
    kind_code = _KIND_CODES.get
    value_kind = NodeKind.VALUE_LITERAL
    # The command's record memo (see model._command_records): the first
    # document read fills it, the second takes from it.
    memo = model._command_records
    fill = memo if memo == {} else None
    take = memo or None
    line_no = 0
    for block in _line_blocks(text):
        for line_no, line in enumerate(block, line_no + 1):
            if take is not None:
                record = take.pop(line, None)
                if record is not None:
                    if record.__class__ is Edge:
                        edge_records.append(record)
                    elif nodes.setdefault(record.id, record) is not record:
                        raise GkgSyntaxError(line_no, f"duplicate node {record.id}")
                    continue
            # Four fields and the rest of the line: all of an E record, and an
            # N record with its greedy literal.  Other records split again.
            fields = line.split(None, 4)
            head = fields[0] if fields else "#"  # a blank line reads as a comment
            # Edges are the most common record, so they are tested first.  Their
            # ids and relation are looked up by subscript; an unseen or
            # malformed token falls back to the checked reads, in field order.
            if head == "E":
                try:
                    _, subject, relation, obj = fields
                    edge = new_tuple(Edge, (ids[subject], relations[relation], ids[obj]))
                except ValueError:
                    raise GkgSyntaxError(line_no, "E takes a subject, a relation and an object") from None
                except KeyError:
                    edge = new_tuple(
                        Edge,
                        (node_id_of(subject, line_no), _relation(relation, line_no), node_id_of(obj, line_no)),
                    )
                edge_records.append(edge)
                if fill is not None:
                    fill[line] = edge
            elif head == "N":
                if len(fields) < 4:
                    raise GkgSyntaxError(line_no, "N takes a node id, a kind code and a type id")
                try:  # an N record's id is mostly new, so it is parsed in this frame
                    node_id = ids_get(fields[1]) or ids.setdefault(fields[1], parse_id(fields[1]))
                except ValueError as exc:
                    raise GkgSyntaxError(line_no, str(exc)) from None
                kind = kind_code(fields[2])
                if kind is None:
                    raise GkgSyntaxError(line_no, f"bad node kind {fields[2]!r}")
                type_id = ids_get(fields[3]) or node_id_of(fields[3], line_no)
                literal = fields[4] if len(fields) == 5 else None
                if kind is value_kind:
                    if literal is None:
                        raise GkgSyntaxError(line_no, "value node needs a literal")
                elif literal is not None:
                    raise GkgSyntaxError(line_no, "literal on a non-value node")
                if node_id in nodes:
                    raise GkgSyntaxError(line_no, f"duplicate node {node_id}")
                node = nodes[node_id] = new_tuple(Node, (node_id, kind, type_id, literal))
                if fill is not None:
                    fill[line] = node
            elif head[0] == "#":
                continue  # blank line or comment
            elif head == "L":
                parts = line.split(None, 3)
                if len(parts) != 4:
                    raise GkgSyntaxError(line_no, "L takes a node id, a language tag and a label")
                node_id = ids_get(parts[1]) or node_id_of(parts[1], line_no)
                lang = parts[2]
                key = (node_id, lang)
                if key in label_entries:
                    raise GkgSyntaxError(line_no, f"duplicate label for {node_id} [{lang}]")
                label_entries[key] = parts[3]
            elif head == "G":
                fields = line.split()
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
                fields = line.split()
                if len(fields) != 3:
                    raise GkgSyntaxError(line_no, "T takes a type id and a parent id or -")
                type_id = node_id_of(fields[1], line_no)
                parent = None if fields[2] == "-" else node_id_of(fields[2], line_no)
                type_pairs.append((type_id, parent))
            elif declarations.handles(head):
                declarations.take(line.split(), line_no)
            else:
                raise GkgSyntaxError(line_no, f"unknown record {head!r}")

    schema = declarations.build()
    ids.clear()  # every record is read, so the id memo's tokens go before the checks

    # Types referenced but never declared become direct children of the root.
    referenced = set(map(itemgetter(2), nodes.values()))
    referenced.update(schema.referenced_types())
    declared = {pair[0] for pair in type_pairs}
    for type_id in sorted(referenced - declared):
        type_pairs.append((type_id, None))

    try:
        hierarchy = TypeHierarchy.from_edges(type_pairs)
    except CycleError as exc:
        issue = ValidationIssue(IssueKind.HIERARCHY_MISMATCH, "hierarchy", str(exc))
        raise ValidationFailedError(ValidationReport((issue,))) from None

    collisions = hierarchy.types & nodes.keys()
    if collisions:
        # Only this error needs an N record's line number: find the first.
        for line_no, line in _content_lines(text):
            fields = line.split(None, 2)
            # By text: a line taken from A's records left its token out of ids.
            if fields[0] == "N" and fields[1] in collisions:
                raise GkgSyntaxError(line_no, f"node {fields[1]} collides with a declared type")
    graph = GroundedGraph(nodes, frozenset(edge_records), source_id, revision)
    doc = GkgDocument(hierarchy, graph, LabelTable(label_entries), schema)
    del graph, nodes, edge_records  # the document keeps what it needs; the rest goes before the check
    # Every declared type is registered above, so the graph's check is the document's.
    report = validate_graph(doc.graph, hierarchy)
    if not report.ok:
        raise ValidationFailedError(report)
    return doc


def _section(lines: List[str]) -> str:
    """``lines`` sorted, each ended by ``\\n``, as one text; empties the list, freeing them."""
    lines.sort()
    lines.append("")
    text = "\n".join(lines)
    lines.clear()
    return text


def serialize_gkg(doc: GkgDocument) -> str:
    """Render a document in canonical form (see the module docstring).
    Raises ValueError for documents that cannot be expressed, e.g. nodes
    without a type, a literal or label with a line break or leading
    whitespace, an empty label, an empty language tag or one with
    whitespace, or a header that would not read back as written."""
    sections: List[str] = []
    lines: List[str] = []
    graph = doc.graph
    source_id, revision = graph.source_id, graph.revision

    if source_id or revision:
        if any(ch.isspace() for ch in source_id):
            raise ValueError(f"source id contains whitespace: {source_id!r}")
        if source_id == "-":
            raise ValueError("source id '-' would read back as no source id")
        if revision < 0:
            raise ValueError(f"revision must be non-negative, got {revision}")
        sections.append(f"G {source_id or '-'} {revision}\n")

    # Records are joined with "+": an f-string would format each id, which
    # copies it, since an id is a str subclass.  Node kinds and relations
    # come from field tables, since reading an enum's value runs Python
    # code.  Each section's line sort alone sets the canonical order,
    # which is not id order when an id holds a character that sorts below
    # the space.
    parents_of = doc.hierarchy.parents
    for type_id in doc.hierarchy.types:
        parents = parents_of.get(type_id)
        if not parents:
            lines.append("T " + type_id + " -")
        else:
            lines.extend(map(("T " + type_id + " ").__add__, parents))
    sections.append(_section(lines))

    for node_id, (_, kind, inst_of, literal) in graph.nodes.items():
        if kind is NodeKind.TYPE_NODE:
            continue
        if inst_of is None:
            raise ValueError(f"cannot serialize untyped node {node_id}")
        record = "N " + node_id + _KIND_FIELD[kind] + inst_of
        if kind is NodeKind.VALUE_LITERAL:
            if not literal:
                raise ValueError(f"cannot serialize value node {node_id} without a literal")
            if literal.splitlines() != [literal]:
                raise ValueError(f"cannot serialize literal with a line break on value node {node_id}")
            if literal[0].isspace():
                raise ValueError(f"cannot serialize literal that starts with whitespace on value node {node_id}")
            record += " " + literal
        elif literal is not None:
            raise ValueError(f"cannot serialize literal on non-value node {node_id}")
        lines.append(record)
    sections.append(_section(lines))

    relation_field = _RELATION_FIELD
    sections.append(_section(["E " + subject + relation_field[rel] + obj for subject, rel, obj in graph.edges]))

    for (node_id, lang), label in doc.labels.entries.items():
        # The tag is one field of the record, and the label the rest of
        # the line after the whitespace that ends the tag.
        if not lang:
            raise ValueError(f"cannot serialize empty language tag on {node_id}")
        if lang.split() != [lang]:
            raise ValueError(f"cannot serialize language tag with whitespace on {node_id} [{lang!r}]")
        if not label:
            raise ValueError(f"cannot serialize empty label on {node_id} [{lang}]")
        if label.splitlines() != [label]:
            raise ValueError(f"cannot serialize label with a line break on {node_id} [{lang}]")
        if label[:1].isspace():
            raise ValueError(f"cannot serialize label that starts with whitespace on {node_id} [{lang}]")
        lines.append("L " + node_id + " " + lang + " " + label)
    sections.append(_section(lines))

    decls = doc.declarations
    lines.extend(f"ESSENTIAL {type_id}" for type_id in decls.essential)
    lines.extend(
        f"CARD {type_id} {card.value}" for type_id, card in decls.cardinality.items()
    )
    lines.extend(
        f"ATTRDECL {event_type} {attr_type} {mode.value}"
        for (event_type, attr_type), mode in decls.attr_modes.items()
    )
    lines.extend(
        f"ROLE {role.role_name} BASE {role.base_type} VIA {role.via.value} EVENT {role.occurrent_type}"
        for role in decls.roles
    )
    sections.append(_section(lines))
    return "".join(sections)


def parse_rules(text: str) -> Tuple[Tuple[ReificationRule, ...], SchemaDeclarations]:
    """Parse a reification rule file.

    RULE lines map a flat relation name onto an event pattern::

        RULE <rel> EVENT <type> SUBJ <role> OBJ ATTR <attrType> <valueType>
        RULE <rel> EVENT <type> SUBJ <role> OBJ PARTICIPANT <role>

    Declaration records (ESSENTIAL, CARD, ATTRDECL, ROLE) may ride along.
    Two rules whose relation names normalize to the same token sequence
    are rejected, since the second could never fire.
    """
    rules: list = []
    seen_keys: dict = {}
    _, node_id_of = _id_reader()
    declarations = _DeclarationCollector(node_id_of)

    for line_no, line in _content_lines(text):
        fields = line.split()
        head = fields[0]
        if head == "RULE":
            if (
                len(fields) < 8
                or fields[2] != "EVENT"
                or fields[4] != "SUBJ"
                or fields[6] != "OBJ"
            ):
                raise GkgSyntaxError(
                    line_no, "RULE syntax: RULE <rel> EVENT <type> SUBJ <role> OBJ ..."
                )
            rel_name = fields[1]
            event_type = node_id_of(fields[3], line_no)
            subject_role = _relation(fields[5], line_no)
            if fields[7] == "ATTR":
                if len(fields) != 10:
                    raise GkgSyntaxError(line_no, "OBJ ATTR takes an attribute type and a value type")
                slot = AttrSlot(node_id_of(fields[8], line_no), node_id_of(fields[9], line_no))
            elif fields[7] == "PARTICIPANT":
                if len(fields) != 9:
                    raise GkgSyntaxError(line_no, "OBJ PARTICIPANT takes one relation")
                try:
                    slot = ParticipantSlot(_relation(fields[8], line_no))
                except ValueError as exc:
                    raise UnknownRoleError(line_no, str(exc)) from None
            else:
                raise GkgSyntaxError(line_no, f"bad object slot {fields[7]!r}")
            try:
                rule = ReificationRule(rel_name, event_type, subject_role, slot)
            except ValueError as exc:
                raise UnknownRoleError(line_no, str(exc)) from None
            key = tuple(tokenize(rel_name))
            if key in seen_keys:
                raise DuplicateRuleError(rel_name)
            seen_keys[key] = rule
            rules.append(rule)
        elif declarations.handles(head):
            declarations.take(fields, line_no)
        else:
            raise GkgSyntaxError(line_no, f"unknown record {head!r}")

    return tuple(rules), declarations.build()
