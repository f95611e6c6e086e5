"""Core graph model.

Nodes come in five kinds (type nodes, continuants, occurrents, attribute
instances, value literals) and edges may only carry one of the thirteen
primitive relations.  Everything else that looks like a relation in source
data must be reified into typed nodes before it enters a graph.

All values are immutable.  A graph is built whole and checked by
:func:`validate_graph`, which reports issues instead of raising.

The value types' methods are written in the source, since ``dataclasses``
would generate and compile them in every process that imports gkg: a
plain record is a ``typing.NamedTuple`` marked with
:func:`_equal_to_own_type`, and any other value type derives from
:class:`_Frozen`.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CycleError, UnknownNodeError, UnknownTypeError

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


class NodeId(tuple):
    """Opaque canonical key of a node, written ``namespace:local``.

    Ids carry no linguistic content by contract; human-readable labels live
    in a label table keyed by these ids.

    An id is the tuple ``(namespace, local)``: it hashes like that tuple
    and equals it, so two ids with one string form but different parts,
    such as ``('a:b', 'c')`` and ``('a', 'b:c')``, stay unequal.  Ordering
    (``<``, ``>``, ``<=``, ``>=``, hence ``min``, ``max`` and ``sorted``)
    uses the combined string form instead.
    """

    __slots__ = ()
    namespace = property(itemgetter(0), doc="The part before the first colon.")
    local = property(itemgetter(1), doc="The part after the first colon.")

    def __new__(cls, namespace: str, local: str) -> "NodeId":
        combined = f"{namespace}:{local}"
        if not namespace or not local:
            raise ValueError(f"node id needs a namespace and a local part: {combined!r}")
        # For ASCII text, str.split() breaks at exactly the characters
        # str.isspace() accepts, so one C-level call checks them all.
        if not combined.isascii() or combined.split() != [combined]:
            raise ValueError(f"node id must be ASCII without whitespace: {combined!r}")
        return tuple.__new__(cls, (namespace, local))

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Split ``namespace:local`` on the first colon."""
        namespace, sep, local = text.partition(":")
        # A valid id is built from its parts at once; any other text goes
        # through the constructor, whose checks word the error.
        if namespace and local and text.isascii() and text.split() == [text]:
            return tuple.__new__(cls, (namespace, local))
        if not sep:
            raise ValueError(f"node id must contain a colon: {text!r}")
        return cls(namespace, local)

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(namespace={self[0]!r}, local={self[1]!r})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    # Tuple order would compare (namespace, local) part by part, which
    # differs from the string order when a namespace holds a character
    # that sorts before ":" ("a.:x" < "a:y", but ("a.", "x") > ("a", "y")).
    def __lt__(self, other: "NodeId") -> bool:
        return str(self) < str(other)

    def __gt__(self, other: "NodeId") -> bool:
        return str(self) > str(other)

    def __le__(self, other: "NodeId") -> bool:
        return str(self) <= str(other)

    def __ge__(self, other: "NodeId") -> bool:
        return str(self) >= str(other)


ROOT_TYPE = NodeId("core", "Entity")


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

    @classmethod
    def parse(cls, name: str) -> "PrimitiveRelation":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown primitive relation: {name!r}") from None


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

    def sort_key(self) -> tuple:
        subject, relation, obj = self
        return (str(subject), relation.value, str(obj))


class _ForwardLinks:
    """The participant, ``hasProp`` and ``hasValue`` links of an edge set,
    indexed one way in one pass: ``events_of`` (entity -> events),
    ``attrs_of`` (bearer -> attributes) and ``values`` (attribute ->
    values).  Each list holds one entry per edge, in edge order: an entity
    joined to one event by two relations lists the event twice.  Signing
    and merge's slot resolution read no more than this."""

    def __init__(self, edges: Iterable[Edge]):
        self._index(edges, None, None)

    def _index(self, edges: Iterable[Edge], participants: Optional[dict], bearers: Optional[dict]) -> None:
        """The one pass over ``edges``; it also fills ``participants`` and
        ``bearers`` with the links back, when they are given."""
        self.events_of, self.attrs_of, self.values = events_of, attrs_of, values = {}, {}, {}
        for subject, relation, obj in edges:
            if relation in PARTICIPANT_RELATIONS:
                events_of.setdefault(obj, []).append(subject)
                if participants is not None:
                    participants.setdefault(subject, []).append(obj)
            elif relation is PrimitiveRelation.HAS_PROP:
                attrs_of.setdefault(obj, []).append(subject)
                if bearers is not None:
                    bearers.setdefault(subject, []).append(obj)
            elif relation is PrimitiveRelation.HAS_VALUE:
                values.setdefault(subject, []).append(obj)


class Adjacency(_ForwardLinks):
    """The forward links of :class:`_ForwardLinks` and, in the same pass,
    two maps back: ``participants`` (event -> entities) and ``bearers``
    (attribute -> bearers), in edge order too."""

    def __init__(self, edges: Iterable[Edge]):
        self.participants, self.bearers = {}, {}
        self._index(edges, self.participants, self.bearers)


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
        for node_id in sorted(ids, key=str):
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

    def sort_key(self) -> tuple:
        return (self.kind.value, self.context, self.message)


class ValidationReport(_Frozen):
    __slots__ = _fields = ("issues",)

    def __init__(self, issues: tuple = ()):
        _set_field(self, "issues", issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def to_tsv(self) -> str:
        return "".join(
            f"issue\t{i.kind.value}\t{i.context}\t{i.message}\n" for i in self.issues
        )


def validate_graph(graph: GroundedGraph, hierarchy: TypeHierarchy) -> ValidationReport:
    """Audit a graph against the closed relation vocabulary and the typing
    discipline.  Returns a deterministic, possibly empty report; never
    raises on content.

    Nodes and edges are visited in no particular order: the issues are
    sorted at the end, and two issues that tie on the sort key are equal.
    """
    issues: list = []

    def report(kind: IssueKind, context, message: str) -> None:
        issues.append(ValidationIssue(kind, str(context), message))

    types = hierarchy.types
    for node_id, (_, kind, inst_of, literal) in graph.nodes.items():
        if kind is NodeKind.TYPE_NODE:
            if inst_of is not None:
                report(IssueKind.TYPE_NODE_TYPED, node_id, "type node carries inst_of")
            if literal is not None:
                report(IssueKind.LITERAL_MISMATCH, node_id, "type node carries a literal")
            if node_id not in types:
                report(IssueKind.HIERARCHY_MISMATCH, node_id, "type node absent from hierarchy")
            continue
        if inst_of is None:
            report(IssueKind.UNTYPED_NODE, node_id, "non-type node without inst_of")
        elif inst_of not in types:
            report(IssueKind.UNKNOWN_TYPE_TARGET, node_id, f"inst target {inst_of} not in hierarchy")
        if kind is NodeKind.VALUE_LITERAL:
            if not literal:
                report(IssueKind.LITERAL_MISMATCH, node_id, "value literal without literal text")
        elif literal is not None:
            report(IssueKind.LITERAL_MISMATCH, node_id, "literal on a non-value node")

    nodes_get = graph.nodes.get
    for subject, relation, obj in graph.edges:
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

    return ValidationReport(tuple(sorted(issues, key=ValidationIssue.sort_key)))


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
            if node is None or node.inst_of is None or node.inst_of not in hierarchy:
                continue
            if hierarchy.is_subtype(node.inst_of, role_def.base_type):
                pairs.add((participant, role_def.role_name))

    return tuple(sorted(pairs, key=lambda pair: (str(pair[0]), pair[1])))
