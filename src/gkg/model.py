"""Core graph model.

Nodes come in five kinds (type nodes, continuants, occurrents, attribute
instances, value literals) and edges may only carry one of the thirteen
primitive relations.  Everything else that looks like a relation in source
data must be reified into typed nodes before it enters a graph.

All values are immutable.  A graph is built whole and checked by
:func:`validate_graph`, which reports issues instead of raising.

The value types' methods are written in the source, since ``dataclasses``
would generate and compile them in every process that imports gkg: a
plain record, whose constructor only stores its fields, is a
``typing.NamedTuple`` marked with :func:`_equal_to_own_type`.  A value
type whose constructor checks its input, fills in a default or keeps
state derives from :class:`_Frozen`.
"""

from __future__ import annotations

from enum import Enum
from operator import countOf, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CycleError, GkgSyntaxError, UnknownNodeError, UnknownTypeError

_set_field = object.__setattr__


class _Frozen:
    """Base of the value types that are not tuples.  A subclass names its
    fields in ``_fields`` and sets each in ``__init__`` with
    :func:`_set_field`.  Equality (with its own type only), hashing,
    ``repr``, copying and pickling read the fields in that order, as those
    of a frozen dataclass do, and assignment raises ``AttributeError``."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _tuple_eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _tuple_ne(self, other):
    equal = _tuple_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _equal_to_own_type(cls):
    """Make a ``NamedTuple`` class equal only to its own instances, as a
    frozen dataclass is: a plain tuple, or a record of another type with
    the same field values, compares unequal.  Hashing stays the tuple's."""
    cls.__eq__, cls.__ne__ = _tuple_eq, _tuple_ne
    return cls


class NodeId(str):
    """Opaque canonical key of a node, written ``namespace:local``.

    Ids carry no linguistic content by contract; human-readable labels live
    in a label table keyed by these ids.

    An id is its canonical text: a ``str`` that equals, hashes and sorts
    as ``namespace:local`` does.  The namespace holds no colon, so the
    text splits back into its parts at the first one, and two ids with one
    text are one id.
    """

    __slots__ = ()

    @property
    def namespace(self) -> str:
        """The part before the first colon."""
        return self.partition(":")[0]

    @property
    def local(self) -> str:
        """The part after the first colon."""
        return self.partition(":")[2]

    def __new__(cls, namespace: str, local: str) -> "NodeId":
        combined = f"{namespace}:{local}"
        if not namespace or not local:
            raise ValueError(f"node id needs a namespace and a local part: {combined!r}")
        # For ASCII text, str.split() breaks at exactly the characters
        # str.isspace() accepts, so one C-level call checks them all.
        if not combined.isascii() or combined.split() != [combined]:
            raise ValueError(f"node id must be ASCII without whitespace: {combined!r}")
        if ":" in namespace:
            raise ValueError(f"node id namespace must not contain a colon: {combined!r}")
        return str.__new__(cls, combined)

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Split ``namespace:local`` on the first colon."""
        namespace, sep, local = text.partition(":")
        # A valid id is built from its text at once; any other text goes
        # through the constructor, whose checks word the error.
        plain = text.isprintable() and " " not in text  # no whitespace, if ASCII
        if namespace and local and text.isascii() and (plain or text.split() == [text]):
            return str.__new__(cls, text)
        if not sep:
            raise ValueError(f"node id must contain a colon: {text!r}")
        return cls(namespace, local)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(namespace={self.namespace!r}, local={self.local!r})"

    def __getnewargs__(self) -> tuple:
        return self.namespace, self.local


ROOT_TYPE = NodeId("core", "Entity")


# The record memo of a ``gkg`` command that reads two documents, open
# only while it reads them (``gkg.cli._load_pair``), else None: E and N
# line text -> the ``Edge`` or ``Node`` built from it (``parse_gkg``).
_command_records: Optional[dict] = None


def _id_reader():
    """A memo of id tokens and the reader that fills it, new for each
    read: each distinct token is parsed once, and a token that fails is
    never stored, so it fails again with its own line number.  The memo
    holds ``ROOT_TYPE`` from the start, so the root type a document's
    records name is the object its hierarchy is built around.
    ``NodeId.parse`` is looked up here, at call time, so a wrapper set on
    the class sees every parse."""
    parse_id = NodeId.parse
    ids = {str(ROOT_TYPE): ROOT_TYPE}  # keyed by plain str, as tokens are

    def node_id_of(token: str, line_no: int) -> NodeId:
        found = ids.get(token)
        if found is None:
            try:
                found = ids[token] = parse_id(token)
            except ValueError as exc:
                raise GkgSyntaxError(line_no, str(exc)) from None
        return found

    return ids, node_id_of


class NodeKind(str, Enum):
    TYPE_NODE = "T"
    CONTINUANT = "C"
    OCCURRENT = "O"
    ATTRIBUTE_INSTANCE = "A"
    VALUE_LITERAL = "V"


class PrimitiveRelation(str, Enum):
    """The closed edge vocabulary.  Nothing else may label an edge."""

    EQ = "eq"
    IS_PART_OF = "isPartOf"
    INST = "inst"
    HAS_PROP = "hasProp"
    EXEMP = "exemp"
    DEP = "dep"
    IS_A = "isA"
    PRECEDES = "precedes"
    PARTICIPANT_IN = "participantIn"
    HAS_AGENT = "hasAgent"
    HAS_OBJECT = "hasObject"
    HAS_VALUE = "hasValue"
    REALIZES = "realizes"


#: Relations that attach a participant entity to an occurrent.  Only these
#: may appear as the ``via`` of a role-concept definition.
PARTICIPANT_RELATIONS = frozenset(
    {
        PrimitiveRelation.PARTICIPANT_IN,
        PrimitiveRelation.HAS_AGENT,
        PrimitiveRelation.HAS_OBJECT,
    }
)

_ALL_KINDS = tuple(NodeKind)
_ANY_PAIRS = frozenset((a, b) for a in _ALL_KINDS for b in _ALL_KINDS)
_SAME_KIND_PAIRS = frozenset((k, k) for k in _ALL_KINDS)
_NON_TYPE = tuple(k for k in _ALL_KINDS if k is not NodeKind.TYPE_NODE)
_C, _O, _A, _V, _T = (
    NodeKind.CONTINUANT,
    NodeKind.OCCURRENT,
    NodeKind.ATTRIBUTE_INSTANCE,
    NodeKind.VALUE_LITERAL,
    NodeKind.TYPE_NODE,
)
# Read once: a loop that reads an enum member from its class pays a slow
# class attribute lookup on every turn.
_HAS_PROP, _HAS_VALUE = PrimitiveRelation.HAS_PROP, PrimitiveRelation.HAS_VALUE

#: Admissible (subject kind, object kind) pairs per relation.  The subject
#: comes first exactly as written in an edge record, so for example a
#: participantIn edge reads "the continuant object participates in the
#: occurrent subject".
RELATION_SIGNATURES: Mapping[PrimitiveRelation, frozenset] = {
    PrimitiveRelation.EQ: _SAME_KIND_PAIRS,
    PrimitiveRelation.IS_PART_OF: frozenset({(_C, _C), (_O, _O)}),
    PrimitiveRelation.INST: frozenset((k, _T) for k in _NON_TYPE),
    PrimitiveRelation.HAS_PROP: frozenset({(_A, _C), (_A, _O)}),
    PrimitiveRelation.EXEMP: frozenset({(_C, _T), (_O, _T)}),
    PrimitiveRelation.DEP: _ANY_PAIRS,
    PrimitiveRelation.IS_A: frozenset({(_T, _T)}),
    PrimitiveRelation.PRECEDES: frozenset({(_O, _O)}),
    PrimitiveRelation.PARTICIPANT_IN: frozenset({(_O, _C)}),
    PrimitiveRelation.HAS_AGENT: frozenset({(_O, _C)}),
    PrimitiveRelation.HAS_OBJECT: frozenset({(_O, _C)}),
    PrimitiveRelation.HAS_VALUE: frozenset({(_A, _V)}),
    PrimitiveRelation.REALIZES: frozenset({(_O, _C), (_O, _A)}),
}


#: Every admissible (relation, subject kind, object kind) triple, so one
#: set lookup checks an edge.
_ADMISSIBLE = frozenset(
    (relation, subject_kind, object_kind)
    for relation, pairs in RELATION_SIGNATURES.items()
    for subject_kind, object_kind in pairs
)


class Node(NamedTuple):
    """A typed node.  ``inst_of`` names the node's type; ``literal`` holds
    the raw text of a value literal and must be absent everywhere else.

    The constructor is deliberately permissive: discipline violations
    (untyped non-type nodes, stray literals) are reported by
    :func:`validate_graph` rather than made unrepresentable.
    """

    id: NodeId
    kind: NodeKind
    inst_of: Optional[NodeId] = None
    literal: Optional[str] = None


class Edge(NamedTuple):
    """A labelled edge."""

    subject: NodeId
    relation: PrimitiveRelation
    obj: NodeId


class _ForwardLinks:
    """The participant, ``hasProp`` and ``hasValue`` links of an edge set,
    indexed one way in one pass: ``events_of`` (entity -> events),
    ``attrs_of`` (bearer -> attributes) and ``values`` (attribute ->
    values).  Each list holds one entry per edge, in edge order: an entity
    joined to one event by two relations lists the event twice.  Signing
    reads no more than this."""

    def __init__(self, edges: Iterable[Edge]):
        self.events_of, self.attrs_of, self.values = events_of, attrs_of, values = {}, {}, {}
        for subject, relation, obj in edges:
            if relation in PARTICIPANT_RELATIONS:
                events_of.setdefault(obj, []).append(subject)
            elif relation is _HAS_PROP:
                attrs_of.setdefault(obj, []).append(subject)
            elif relation is _HAS_VALUE:
                values.setdefault(subject, []).append(obj)


class RoleConceptDef(_Frozen):
    """A role concept such as Teacher: instances of ``base_type`` that stand
    in ``via`` to an occurrent of ``occurrent_type`` carry ``role_name``.

    Roles are inferred labels, never types; they must not appear in a
    hierarchy.
    """

    __slots__ = _fields = ("role_name", "base_type", "via", "occurrent_type")

    def __init__(self, role_name: str, base_type: NodeId, via: PrimitiveRelation, occurrent_type: NodeId):
        if via not in PARTICIPANT_RELATIONS:
            raise ValueError(f"role via must be a participant relation, got {via.value}")
        if not role_name or any(ch.isspace() for ch in role_name):
            raise ValueError(f"role name must be non-empty without whitespace: {role_name!r}")
        _set_field(self, "role_name", role_name)
        _set_field(self, "base_type", base_type)
        _set_field(self, "via", via)
        _set_field(self, "occurrent_type", occurrent_type)


class TypeHierarchy(_Frozen):
    """A DAG of type nodes.  Multiple parents are allowed, cycles are not,
    and ``core:Entity`` is an ancestor of every other type.

    ``parents`` holds an entry for every type (empty only for the root).
    Each type's ancestor set is computed once, on its first question, and
    kept: the hierarchy never changes, so the set never goes stale.  The
    kept sets are no field: equality, hashing and ``repr`` ignore them.
    """

    _fields = ("types", "parents")
    __slots__ = _fields + ("_ancestors",)

    def __init__(self, types: frozenset = frozenset(), parents: Optional[Mapping[NodeId, frozenset]] = None):
        _set_field(self, "types", types)
        _set_field(self, "parents", {} if parents is None else parents)
        _set_field(self, "_ancestors", {})

    def __contains__(self, type_id: NodeId) -> bool:
        return type_id in self.types

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple]) -> "TypeHierarchy":
        """Batch-load (type, parent-or-None) pairs.

        Tolerant of repeats, auto-registers referenced parents, and parents
        every otherwise parentless non-root type to the root.  Raises
        :class:`CycleError` if the result would not be a DAG.
        """
        types = {ROOT_TYPE}
        parent_sets: dict = {ROOT_TYPE: set()}
        for type_id, parent in pairs:
            types.add(type_id)
            parent_sets.setdefault(type_id, set())
            if parent is None:
                continue
            types.add(parent)
            parent_sets.setdefault(parent, set())
            parent_sets[type_id].add(parent)
        for type_id in types:
            if type_id != ROOT_TYPE and not parent_sets[type_id]:
                parent_sets[type_id].add(ROOT_TYPE)

        # Kahn's algorithm over child -> parent edges to certify acyclicity.
        out_degree = {t: len(parent_sets[t]) for t in types}
        children: dict = {t: [] for t in types}
        for child, ps in parent_sets.items():
            for parent in ps:
                children[parent].append(child)
        ready = [t for t, deg in out_degree.items() if deg == 0]
        seen = 0
        while ready:
            current = ready.pop()
            seen += 1
            for child in children[current]:
                out_degree[child] -= 1
                if out_degree[child] == 0:
                    ready.append(child)
        if seen != len(types):
            raise CycleError([t for t, deg in out_degree.items() if deg > 0])

        return cls(frozenset(types), {t: frozenset(ps) for t, ps in parent_sets.items()})

    def ancestors(self, type_id: NodeId) -> frozenset:
        """All supertypes of ``type_id`` including itself."""
        found = self._ancestors.get(type_id)
        if found is not None:
            return found
        if type_id not in self.types:
            raise UnknownTypeError(f"unknown type: {type_id}")
        closed: set = set()
        frontier = [type_id]
        while frontier:
            current = frontier.pop()
            if current in closed:
                continue
            closed.add(current)
            frontier.extend(self.parents.get(current, frozenset()))
        found = self._ancestors[type_id] = frozenset(closed)
        return found

    def is_subtype(self, sub: NodeId, sup: NodeId) -> bool:
        """Reflexive-transitive reachability over the parent edges."""
        ancestors = self.ancestors(sub)
        if sup not in self.types:
            raise UnknownTypeError(f"unknown type: {sup}")
        return sup in ancestors


class GroundedGraph(_Frozen):
    """An edge-labelled graph over typed nodes.

    ``nodes`` may include the type nodes of the companion hierarchy so that
    inst/isA/exemp edges resolve inside the graph itself.  ``source_id``
    and ``revision`` identify the originating knowledge graph and its
    version for merge conflict resolution.
    """

    __slots__ = _fields = ("nodes", "edges", "source_id", "revision")

    def __init__(self, nodes: Optional[Mapping[NodeId, Node]] = None, edges: frozenset = frozenset(),
                 source_id: str = "", revision: int = 0):
        _set_field(self, "nodes", {} if nodes is None else nodes)
        _set_field(self, "edges", edges)
        _set_field(self, "source_id", source_id)
        _set_field(self, "revision", revision)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node_id}") from None

    def continuants(self) -> Iterator[Node]:
        """The continuants in id order."""
        nodes = self.nodes
        ids = [node_id for node_id, node in nodes.items() if node.kind is NodeKind.CONTINUANT]
        for node_id in sorted(ids):
            yield nodes[node_id]


class IssueKind(str, Enum):
    DANGLING_REFERENCE = "dangling-reference"
    SIGNATURE_VIOLATION = "signature-violation"
    UNTYPED_NODE = "untyped-node"
    TYPE_NODE_TYPED = "type-node-typed"
    LITERAL_MISMATCH = "literal-mismatch"
    UNKNOWN_TYPE_TARGET = "unknown-type-target"
    HIERARCHY_MISMATCH = "hierarchy-mismatch"


@_equal_to_own_type
class ValidationIssue(NamedTuple):
    kind: IssueKind
    context: str
    message: str


@_equal_to_own_type
class ValidationReport(NamedTuple):
    issues: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def to_tsv(self) -> str:
        return "".join(
            f"issue\t{i.kind.value}\t{i.context}\t{i.message}\n" for i in self.issues
        )


def _row_issues(kind: NodeKind, inst_of: Optional[NodeId], literal: Optional[str], types: frozenset) -> Iterator:
    """Each issue (kind, message) of a node row: every node rule but a type
    node's place in the hierarchy, which its id decides."""
    if kind is _T and inst_of is not None:
        yield IssueKind.TYPE_NODE_TYPED, "type node carries inst_of"
    elif kind is not _T and inst_of is None:
        yield IssueKind.UNTYPED_NODE, "non-type node without inst_of"
    elif kind is not _T and inst_of not in types:
        yield IssueKind.UNKNOWN_TYPE_TARGET, f"inst target {inst_of} not in hierarchy"
    if kind is _V and not literal:
        yield IssueKind.LITERAL_MISMATCH, "value literal without literal text"
    elif kind is _T and literal is not None:
        yield IssueKind.LITERAL_MISMATCH, "type node carries a literal"
    elif kind is not _V and literal is not None:
        yield IssueKind.LITERAL_MISMATCH, "literal on a non-value node"


def validate_graph(graph: GroundedGraph, hierarchy: TypeHierarchy) -> ValidationReport:
    """Audit a graph against the closed relation vocabulary and the typing
    discipline.  Returns a deterministic, possibly empty report; never
    raises on content.

    A clean graph is proved clean over columns: the set of its distinct
    node rows (few, since only value literals vary much), each checked by
    :func:`_row_issues`, a count of its type nodes, and the set of its
    edge signatures.  Only the nodes or the edges whose proof fails are
    walked one by one, and that walk is where every issue is worded.  It
    visits them in no particular order: the issues are sorted at the end on
    all their fields, so the order of the walk never shows.
    """
    issues: list = []

    def report(kind: IssueKind, context, message: str) -> None:
        issues.append(ValidationIssue(kind, str(context), message))

    nodes, types = graph.nodes, hierarchy.types
    kind_of = dict(zip(nodes, map(itemgetter(1), nodes.values())))
    row_issues = {row: found for row in set(map(itemgetter(1, 2, 3), nodes.values()))
                  if (found := list(_row_issues(*row, types)))}
    # A type node outside the hierarchy shows in the count: the graph then
    # holds more type nodes than the hierarchy types it holds as type nodes.
    if row_issues or countOf(kind_of.values(), _T) != sum(kind_of[t] is _T for t in kind_of.keys() & types):
        for node_id, node in nodes.items():
            for kind, message in row_issues.get(node[1:], ()):
                report(kind, node_id, message)
            if node.kind is _T and node_id not in types:
                report(IssueKind.HIERARCHY_MISMATCH, node_id, "type node absent from hierarchy")

    # Every edge's (relation, subject kind, object kind) signature is
    # admissible; a dangling end has no kind.
    edges = graph.edges
    signatures = zip(
        map(itemgetter(1), edges),
        map(kind_of.get, map(itemgetter(0), edges)),
        map(kind_of.get, map(itemgetter(2), edges)),
    )
    if not set(signatures) <= _ADMISSIBLE:
        nodes_get = nodes.get
        for subject, relation, obj in edges:
            subject_node = nodes_get(subject)
            object_node = nodes_get(obj)
            if subject_node is None or object_node is None:
                context = f"{subject} {relation.value} {obj}"
                if subject_node is None:
                    report(IssueKind.DANGLING_REFERENCE, context, f"missing subject {subject}")
                if object_node is None:
                    report(IssueKind.DANGLING_REFERENCE, context, f"missing object {obj}")
            elif (relation, subject_node[1], object_node[1]) not in _ADMISSIBLE:
                report(
                    IssueKind.SIGNATURE_VIOLATION,
                    f"{subject} {relation.value} {obj}",
                    f"{relation.value} does not admit ({subject_node.kind.name}, {object_node.kind.name})",
                )

    return ValidationReport(tuple(sorted(issues)))


def infer_role_labels(
    graph: GroundedGraph,
    hierarchy: TypeHierarchy,
    defs: Sequence[RoleConceptDef],
) -> tuple:
    """Compute every (node id, role name) pair licensed by the definitions.

    A pair (x, R) holds iff x is typed by a subtype of R.base_type and some
    occurrent typed by a subtype of R.occurrent_type reaches x through
    R.via.  The graph is assumed valid.  Output is sorted by (id, role).
    """
    for role_def in defs:
        if role_def.base_type not in hierarchy:
            raise UnknownTypeError(f"role {role_def.role_name}: unknown base type {role_def.base_type}")
        if role_def.occurrent_type not in hierarchy:
            raise UnknownTypeError(
                f"role {role_def.role_name}: unknown occurrent type {role_def.occurrent_type}"
            )

    # Index participant edges once: via -> occurrent type -> participants.
    attachments: dict = {}
    for edge in graph.edges:
        if edge.relation not in PARTICIPANT_RELATIONS:
            continue
        subject = graph.nodes.get(edge.subject)
        if subject is None or subject.kind is not NodeKind.OCCURRENT or subject.inst_of is None:
            continue
        attachments.setdefault(edge.relation, []).append((subject.inst_of, edge.obj))

    pairs: set = set()
    for role_def in defs:
        for occurrent_type, participant in attachments.get(role_def.via, ()):
            if occurrent_type not in hierarchy:
                continue
            if not hierarchy.is_subtype(occurrent_type, role_def.occurrent_type):
                continue
            node = graph.nodes.get(participant)
            if node is None or node.inst_of not in hierarchy:
                continue
            if hierarchy.is_subtype(node.inst_of, role_def.base_type):
                pairs.add((participant, role_def.role_name))

    return tuple(sorted(pairs))
