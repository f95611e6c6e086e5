"""Reify flat triples into grounded event subgraphs.

Every mapped triple becomes (or joins) an event occurrent whose participants
and attribute instances carry what the flat relation name used to smuggle.
Node ids are derived from content (FNV-1a of labels and slot keys), so the
output graph is identical for any permutation of the input and for synonym
relation names that normalize to the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

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


@dataclass(frozen=True, slots=True)
class ValueConflict:
    """A FUNCTIONAL slot received more than one distinct value in one run.
    Both values stay in the graph; the conflict is only flagged here."""

    event: NodeId
    attr_type: NodeId
    literals: Tuple[str, ...]


@dataclass(frozen=True)
class CanonReport:
    events_created: int = 0
    events_coalesced: int = 0
    unmapped_relations: FrozenSet[str] = frozenset()
    entity_nodes_created: int = 0
    value_conflicts: Tuple[ValueConflict, ...] = ()

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
    entity_ids: dict = {}  # label -> NodeId
    entity_labels: dict = {}  # NodeId -> label
    events_created = 0
    events_coalesced = 0
    unmapped: set = set()
    # (event id, attr type) -> {literal: value id}; used for conflict flags.
    slot_values: dict = {}
    key_texts: dict = {}  # event, attribute or value id -> the key text it hashes
    # Each distinct text is hashed once, and each distinct key builds and
    # checks its id once: a repeated key passed the collision check the
    # first time.  fnv1a64_hex is the module global, looked up at call
    # time, so a wrapper set on this module sees every distinct text.
    hashes: dict = {}  # text -> fnv1a64_hex(text)
    keyed_ids: dict = {}  # (namespace, type, key text) -> id

    def hex_of(text: str) -> str:
        found = hashes.get(text)
        if found is None:
            found = hashes[text] = fnv1a64_hex(text)
        return found

    def keyed_id(namespace: str, type_id: NodeId, text: str) -> NodeId:
        key = (namespace, type_id, text)
        node_id = keyed_ids.get(key)
        if node_id is not None:
            return node_id
        node_id = NodeId(namespace, f"{type_id.local}#{hex_of(text)}")
        other = key_texts.setdefault(node_id, text)
        if other != text:
            raise IdCollisionError(f"keys {other!r} and {text!r} share the id {node_id}")
        keyed_ids[key] = node_id
        return node_id

    def ensure_entity(label: str) -> NodeId:
        existing = entity_ids.get(label)
        if existing is not None:
            return existing
        node_id = NodeId(ENTITY_NAMESPACE, hex_of(label))
        other = entity_labels.get(node_id)
        if other is not None:
            raise IdCollisionError(f"entity labels {other!r} and {label!r} share the id {node_id}")
        _add(nodes, node_id, NodeKind.CONTINUANT, entity_types.get(label, ROOT_TYPE))
        entity_ids[label] = node_id
        entity_labels[node_id] = label
        return node_id

    rule_by_key = _rules_by_token_key(rules)
    rule_by_spelling: dict = {}  # raw relation name -> its rule or None
    for triple in triples:
        try:
            rule = rule_by_spelling[triple.r]
        except KeyError:
            rule = rule_by_spelling[triple.r] = rule_by_key.get(tuple(tokenize(triple.r)))
        if rule is None:
            unmapped.add(triple.r)
            continue

        subject_id = ensure_entity(triple.e1)

        if declarations.card_of(rule.event_type) is Cardinality.ONE:
            event_id = keyed_id(EVENT_NAMESPACE, rule.event_type, triple.e1)
        else:
            event_id = keyed_id(EVENT_NAMESPACE, rule.event_type, f"{triple.e1}\t{triple.e2}")
        if _add(nodes, event_id, NodeKind.OCCURRENT, rule.event_type):
            events_created += 1
        else:
            events_coalesced += 1
        edges.add(Edge(event_id, rule.subject_role, subject_id))

        slot = rule.object_slot
        if isinstance(slot, ParticipantSlot):
            edges.add(Edge(event_id, slot.role, ensure_entity(triple.e2)))
            continue

        literal = triple.e2
        value_id = keyed_id(VALUE_NAMESPACE, slot.value_type, literal)
        _add(nodes, value_id, NodeKind.VALUE_LITERAL, slot.value_type, literal)
        mode = declarations.mode_of(rule.event_type, slot.attr_type)
        if mode is AttrMode.FUNCTIONAL:
            attr_id = keyed_id(ATTRIBUTE_NAMESPACE, slot.attr_type, str(event_id))
        else:
            attr_id = keyed_id(ATTRIBUTE_NAMESPACE, slot.attr_type, f"{event_id}\t{literal}")
        _add(nodes, attr_id, NodeKind.ATTRIBUTE_INSTANCE, slot.attr_type)
        edges.add(Edge(attr_id, PrimitiveRelation.HAS_PROP, event_id))
        edges.add(Edge(attr_id, PrimitiveRelation.HAS_VALUE, value_id))
        if mode is AttrMode.FUNCTIONAL:
            slot_values.setdefault((event_id, slot.attr_type), {})[literal] = value_id

    conflicts = tuple(
        ValueConflict(event_id, attr_type, tuple(sorted(values)))
        for (event_id, attr_type), values in sorted(
            slot_values.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
        if len(values) > 1
    )
    report = CanonReport(
        events_created=events_created,
        events_coalesced=events_coalesced,
        unmapped_relations=frozenset(unmapped),
        entity_nodes_created=len(entity_ids),
        value_conflicts=conflicts,
    )
    graph = GroundedGraph(nodes, frozenset(edges), source_id, revision)
    labels = LabelTable.from_entries(
        (node_id, lang, label) for node_id, label in sorted(entity_labels.items(), key=lambda kv: str(kv[0]))
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


def _add(nodes: dict, node_id: NodeId, kind: NodeKind, inst_of: NodeId, literal: Optional[str] = None):
    """Add the node unless ``node_id`` already holds it; returns whether it
    was added.  An id that holds another node (another type or literal)
    would fold two facts into one, so that raises :class:`IdCollisionError`."""
    held = nodes.get(node_id)
    if held is None:
        nodes[node_id] = Node(node_id, kind, inst_of, literal)
        return True
    if held[1:] != (kind, inst_of, literal):
        raise IdCollisionError(
            f"id {node_id} stands for both {_content(*held[1:])} and {_content(kind, inst_of, literal)}"
        )
    return False


def _content(kind: NodeKind, inst_of: Optional[NodeId], literal: Optional[str]) -> str:
    text = f"{kind.name} {inst_of or '-'}"
    return text if literal is None else f"{text} {literal!r}"
