"""Reify flat triples into grounded event subgraphs.

Every mapped triple becomes (or joins) an event occurrent whose participants
and attribute instances carry what the flat relation name used to smuggle.
Node ids are derived from content (FNV-1a of labels and slot keys), so the
output graph is identical for any permutation of the input and for synonym
relation names that normalize to the same rule.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .embedding import tokenize
from .errors import IdCollisionError, UnknownTypeError
from .formats import FlatTriple, GkgDocument
from .hashing import fnv1a64_hex
from .model import (
    Edge,
    GroundedGraph,
    Node,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    ROOT_TYPE,
    TypeHierarchy,
    _equal_to_own_type,
    _Frozen,
    _set_field,
)
from .multilingual import LabelTable
from .schema import (
    AttrMode,
    Cardinality,
    ParticipantSlot,
    ReificationRule,
    SchemaDeclarations,
)

ENTITY_NAMESPACE = "ent"
EVENT_NAMESPACE = "ev"
ATTRIBUTE_NAMESPACE = "at"
VALUE_NAMESPACE = "val"
_KIND_OF = {ENTITY_NAMESPACE: NodeKind.CONTINUANT, EVENT_NAMESPACE: NodeKind.OCCURRENT,
            ATTRIBUTE_NAMESPACE: NodeKind.ATTRIBUTE_INSTANCE, VALUE_NAMESPACE: NodeKind.VALUE_LITERAL}


@_equal_to_own_type
class ValueConflict(NamedTuple):
    """A FUNCTIONAL slot received more than one distinct value in one run.
    Both values stay in the graph; the conflict is only flagged here."""

    event: NodeId
    attr_type: NodeId
    literals: Tuple[str, ...]


class CanonReport(_Frozen):
    __slots__ = _fields = (
        "events_created", "events_coalesced", "unmapped_relations", "entity_nodes_created", "value_conflicts"
    )

    def __init__(
        self,
        events_created: int = 0,
        events_coalesced: int = 0,
        unmapped_relations: FrozenSet[str] = frozenset(),
        entity_nodes_created: int = 0,
        value_conflicts: Tuple[ValueConflict, ...] = (),
    ):
        _set_field(self, "events_created", events_created)
        _set_field(self, "events_coalesced", events_coalesced)
        _set_field(self, "unmapped_relations", unmapped_relations)
        _set_field(self, "entity_nodes_created", entity_nodes_created)
        _set_field(self, "value_conflicts", value_conflicts)

    def to_tsv(self) -> str:
        lines = [
            f"events_created\t{self.events_created}",
            f"events_coalesced\t{self.events_coalesced}",
            f"entity_nodes_created\t{self.entity_nodes_created}",
        ]
        lines.extend(f"unmapped_relation\t{name}" for name in sorted(self.unmapped_relations))
        lines.extend(
            f"value_conflict\t{c.event}\t{c.attr_type}\t{'|'.join(c.literals)}"
            for c in self.value_conflicts
        )
        return "".join(line + "\n" for line in lines)


def normalize_relation_name(
    label: str, rules: Sequence[ReificationRule]
) -> Optional[ReificationRule]:
    """Return the first rule whose relation name has the same token
    sequence as ``label`` after lowercasing and camelCase/underscore/space
    splitting, or None.  ``bornIn``, ``born_in`` and ``Born In`` all meet
    the same rule."""
    return _rules_by_token_key(rules).get(tuple(tokenize(label)))


def _rules_by_token_key(rules: Sequence[ReificationRule]) -> dict:
    """``tuple(tokenize(rel_name)) -> rule``; of two rules with one token
    sequence the first wins."""
    by_key: dict = {}
    for rule in rules:
        by_key.setdefault(tuple(tokenize(rule.rel_name)), rule)
    return by_key


def canonicalize_document(
    triples: Iterable[FlatTriple],
    rules: Sequence[ReificationRule],
    declarations: Optional[SchemaDeclarations] = None,
    hierarchy: Optional[TypeHierarchy] = None,
    entity_types: Optional[Mapping[str, NodeId]] = None,
    lang: str = "en",
    source_id: str = "",
    revision: int = 0,
) -> Tuple[GkgDocument, CanonReport]:
    """Ground flat triples against reification rules into a document:
    entity labels are recorded under ``lang`` and the declarations ride
    along.

    Unmapped relation names are reported, never fatal.  All types the rules
    and the entity-type map mention must be in the hierarchy; without an
    explicit one, one is synthesized from every type the rules,
    declarations and entity-type map mention.  Raises
    :class:`IdCollisionError` when one content-derived id would stand for
    two different facts: two entity labels, two event, attribute or value
    keys, or two types or literals.
    """
    entity_types = dict(entity_types or {})
    declarations = declarations or SchemaDeclarations()
    if hierarchy is None:
        hierarchy = hierarchy_for_rules(rules, declarations, entity_types)

    for rule in rules:
        for type_id in rule.referenced_types():
            if type_id not in hierarchy:
                raise UnknownTypeError(f"rule {rule.rel_name!r} references unknown type {type_id}")
    for label, type_id in entity_types.items():
        if type_id not in hierarchy:
            raise UnknownTypeError(f"entity type for {label!r} unknown: {type_id}")
    if ROOT_TYPE not in hierarchy:
        raise UnknownTypeError(f"hierarchy lacks the root type {ROOT_TYPE}")

    nodes: dict = {t: Node(t, NodeKind.TYPE_NODE) for t in hierarchy.types}
    edges: set = set()
    # Each distinct text is hashed once per call, and each id is checked
    # against the key texts of every table: see _IdTable.
    hashes: dict = {}  # text -> fnv1a64_hex(text)
    key_texts: dict = {}  # id -> the label or key text it hashes
    tables: dict = {}  # (namespace, type) -> its _IdTable
    entities = _IdTable(ENTITY_NAMESPACE, ROOT_TYPE, hashes, key_texts, nodes, entity_types, "entity labels")

    def table(namespace: str, type_id: NodeId) -> _IdTable:
        return tables.setdefault((namespace, type_id), _IdTable(namespace, type_id, hashes, key_texts, nodes))

    def plan_of(rule: ReificationRule) -> tuple:
        """(event table, CARD ONE?, subject role, object role, value table,
        attribute table, attribute type, FUNCTIONAL?) of a rule."""
        event_type, slot = rule.event_type, rule.object_slot
        events = table(EVENT_NAMESPACE, event_type)
        one = declarations.card_of(event_type) is Cardinality.ONE
        if isinstance(slot, ParticipantSlot):
            return events, one, rule.subject_role, slot.role, None, None, None, False
        functional = declarations.mode_of(event_type, slot.attr_type) is AttrMode.FUNCTIONAL
        return (events, one, rule.subject_role, None, table(VALUE_NAMESPACE, slot.value_type),
                table(ATTRIBUTE_NAMESPACE, slot.attr_type), slot.attr_type, functional)

    rule_by_key = _rules_by_token_key(rules)
    plans: dict = {}  # raw relation name -> its rule's plan or None
    unmapped: set = set()
    mapped = 0
    # (event id, attr type) -> {literal: value id}; used for conflict flags.
    slot_values: dict = {}
    # Edge is a NamedTuple, whose constructor is Python code.
    new_tuple = tuple.__new__
    has_prop, has_value = PrimitiveRelation.HAS_PROP, PrimitiveRelation.HAS_VALUE
    for triple in triples:
        spelling = triple.r
        try:
            plan = plans[spelling]
        except KeyError:
            rule = rule_by_key.get(tuple(tokenize(spelling)))
            plan = plans[spelling] = None if rule is None else plan_of(rule)
        if plan is None:
            unmapped.add(spelling)
            continue
        mapped += 1
        events, one, subject_role, object_role, values, attrs, attr_type, functional = plan
        subject, obj = triple.e1, triple.e2
        subject_id = entities[subject]
        event_id = events[subject if one else f"{subject}\t{obj}"]
        edges.add(new_tuple(Edge, (event_id, subject_role, subject_id)))
        if object_role is not None:
            edges.add(new_tuple(Edge, (event_id, object_role, entities[obj])))
            continue

        value_id = values[obj]
        attr_id = attrs[str(event_id) if functional else f"{event_id}\t{obj}"]
        edges.add(new_tuple(Edge, (attr_id, has_prop, event_id)))
        edges.add(new_tuple(Edge, (attr_id, has_value, value_id)))
        if functional:
            slot_values.setdefault((event_id, attr_type), {})[obj] = value_id

    # An event table holds the events it created; every other mapped
    # triple coalesced into one of them.
    events_created = sum(len(t) for (namespace, _), t in tables.items() if namespace == EVENT_NAMESPACE)
    conflicts = tuple(
        ValueConflict(event_id, attr_type, tuple(sorted(values)))
        for (event_id, attr_type), values in sorted(
            slot_values.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
        if len(values) > 1
    )
    report = CanonReport(
        events_created=events_created,
        events_coalesced=mapped - events_created,
        unmapped_relations=frozenset(unmapped),
        entity_nodes_created=len(entities),
        value_conflicts=conflicts,
    )
    graph = GroundedGraph(nodes, frozenset(edges), source_id, revision)
    labels = LabelTable.from_entries(
        (node_id, lang, label) for label, node_id in sorted(entities.items(), key=lambda kv: str(kv[1]))
    )
    return GkgDocument(hierarchy, graph, labels, declarations), report


def hierarchy_for_rules(
    rules: Sequence[ReificationRule],
    declarations: Optional[SchemaDeclarations] = None,
    entity_types: Optional[Mapping[str, NodeId]] = None,
) -> TypeHierarchy:
    """Root plus every type referenced by the rules, declarations and
    entity-type map, all as direct children of the root."""
    types: set = set()
    for rule in rules:
        types.update(rule.referenced_types())
    if declarations is not None:
        types.update(declarations.referenced_types())
    if entity_types:
        types.update(entity_types.values())
    return TypeHierarchy.from_edges((t, None) for t in sorted(types, key=str))


class _IdTable(dict):
    """Label or key text -> id, for the nodes of one namespace and type
    made in one call (``types`` may give an entity another type).  A hit is
    a plain dict lookup.  A miss hashes the text through the call's memo and
    the module global ``fnv1a64_hex``, refuses an id that another text
    already holds, and adds the node."""

    __slots__ = ("namespace", "kind", "type_id", "prefix", "hashes", "key_texts", "nodes", "types", "noun")

    def __init__(self, namespace, type_id, hashes, key_texts, nodes, types=None, noun="keys"):
        self.namespace, self.kind, self.type_id = namespace, _KIND_OF[namespace], type_id
        self.prefix = "" if namespace == ENTITY_NAMESPACE else type_id.local + "#"
        self.hashes, self.key_texts, self.nodes, self.types, self.noun = hashes, key_texts, nodes, types or {}, noun

    def __missing__(self, text: str) -> NodeId:
        digest = self.hashes.get(text)
        if digest is None:
            digest = self.hashes[text] = fnv1a64_hex(text)
        # A type's local part, "#" and hex digits pass NodeId's checks.
        node_id = tuple.__new__(NodeId, (self.namespace, self.prefix + digest))
        other = self.key_texts.setdefault(node_id, text)
        if other != text:
            raise IdCollisionError(f"{self.noun} {other!r} and {text!r} share the id {node_id}")
        # Another node on the id (another type or literal, or a hierarchy
        # type) would fold two facts into one.
        literal = text if self.namespace == VALUE_NAMESPACE else None
        node = tuple.__new__(Node, (node_id, self.kind, self.types.get(text, self.type_id), literal))
        held = self.nodes.setdefault(node_id, node)
        if held != node:
            raise IdCollisionError(f"id {node_id} stands for both {_content(*held[1:])} and {_content(*node[1:])}")
        self[text] = node_id
        return node_id


def _content(kind: NodeKind, inst_of: Optional[NodeId], literal: Optional[str]) -> str:
    text = f"{kind.name} {inst_of or '-'}"
    return text if literal is None else f"{text} {literal!r}"
