"""Reify flat triples into grounded event subgraphs.

Every mapped triple becomes (or joins) an event occurrent whose participants
and attribute instances carry what the flat relation name used to smuggle.
Node ids are derived from content (FNV-1a of labels and slot keys), so the
output graph is identical for any permutation of the input and for synonym
relation names that normalize to the same rule.
"""

from __future__ import annotations

from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import FrozenSet, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .embedding import tokenize
from .errors import IdCollisionError
from .formats import FlatTriple, GkgDocument
from .hashing import fnv1a64_hex, fnv1a64_hex_many
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
)
from .multilingual import FALLBACK_LANG, LabelTable
from .schema import (
    AttrMode,
    Cardinality,
    ParticipantSlot,
    ReificationRule,
    SchemaDeclarations,
    ValueConflict,
)

# canonicalize_document hashes its texts in batches with fnv1a64_hex_many.
# The scalar fnv1a64_hex, which gives the same digest for one text, stays
# importable from this module, where callers that count or replace the
# hashing look it up alongside the batch function.
__all__ = [
    "ATTRIBUTE_NAMESPACE",
    "ENTITY_NAMESPACE",
    "EVENT_NAMESPACE",
    "VALUE_NAMESPACE",
    "CanonReport",
    "canonicalize_document",
    "fnv1a64_hex",
    "fnv1a64_hex_many",
    "normalize_relation_name",
]

ENTITY_NAMESPACE = "ent"
EVENT_NAMESPACE = "ev"
ATTRIBUTE_NAMESPACE = "at"
VALUE_NAMESPACE = "val"
_ENTITIES = (ENTITY_NAMESPACE, ROOT_TYPE)  # the entity id table's (namespace, type)
_KIND_OF = {ENTITY_NAMESPACE: NodeKind.CONTINUANT, EVENT_NAMESPACE: NodeKind.OCCURRENT,
            ATTRIBUTE_NAMESPACE: NodeKind.ATTRIBUTE_INSTANCE, VALUE_NAMESPACE: NodeKind.VALUE_LITERAL}


@_equal_to_own_type
class CanonReport(NamedTuple):
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
    entity_types: Optional[Mapping[str, NodeId]] = None,
    source_id: str = "",
    revision: int = 0,
) -> Tuple[GkgDocument, CanonReport]:
    """Ground flat triples against reification rules into a document:
    entity labels are recorded under ``en`` and the declarations ride
    along.  The document's hierarchy is the root plus every type the
    rules, declarations and entity-type map mention, each a direct child
    of the root.

    Unmapped relation names are reported, never fatal.  Raises
    :class:`IdCollisionError` when one content-derived id would stand for
    two different facts: two entity labels, two event, attribute or value
    keys, or two types or literals.
    """
    entity_types = dict(entity_types or {})
    declarations = declarations or SchemaDeclarations()
    types = {type_id for rule in rules for type_id in rule.referenced_types()}
    types.update(declarations.referenced_types())
    types.update(entity_types.values())
    hierarchy = TypeHierarchy.from_edges((t, None) for t in sorted(types))

    # Group the mapped triples by rule, each group in input order.  Each
    # distinct relation spelling is tokenized once.
    triples = tuple(triples)
    rule_by_key = _rules_by_token_key(rules)
    rule_of: dict = {}  # relation spelling -> its rule or None
    groups: dict = {}  # rule -> its triples
    group_of: dict = {}  # relation spelling -> its rule's triples or None
    for spelling in dict.fromkeys(map(itemgetter(1), triples)):
        rule = rule_of[spelling] = rule_by_key.get(tuple(tokenize(spelling)))
        group_of[spelling] = None if rule is None else groups.setdefault(rule, [])
    for triple in triples:
        group = group_of[triple[1]]
        if group is not None:
            group.append(triple)

    # Each rule's plan and columns: its subjects, objects and event keys.
    # An event key is the subject under CARD ONE, else subject and object.
    plans: dict = {}  # rule -> (event table, CARD ONE?, object role, value table, attribute table, FUNCTIONAL?)
    columns: list = []  # (rule, subjects, objects, event keys) of each group
    text_columns: list = []
    for rule, group in groups.items():
        event_type, slot = rule.event_type, rule.object_slot
        one = declarations.card_of(event_type) is Cardinality.ONE
        if isinstance(slot, ParticipantSlot):
            plans[rule] = (EVENT_NAMESPACE, event_type), one, slot.role, None, None, False
        else:
            functional = declarations.mode_of(event_type, slot.attr_type) is AttrMode.FUNCTIONAL
            plans[rule] = ((EVENT_NAMESPACE, event_type), one, None, (VALUE_NAMESPACE, slot.value_type),
                           (ATTRIBUTE_NAMESPACE, slot.attr_type), functional)
        subjects, _, objects = zip(*group)
        event_keys = subjects if one else list(map("\t".join, zip(subjects, objects)))
        columns.append((rule, subjects, objects, event_keys))
        text_columns += (subjects, objects, event_keys)

    # Each distinct text is hashed once, in two batches: first the labels,
    # literals and event keys; then the attribute keys, which are built
    # from event ids.  An attribute key is its event's id, plus the literal
    # in a MULTI slot.  Meanwhile each id table, keyed (namespace, type),
    # gathers its distinct texts.
    texts = list(dict.fromkeys(chain.from_iterable(text_columns)))
    digests = dict(zip(texts, fnv1a64_hex_many(texts)))
    table_texts: dict = {_ENTITIES: {}}
    attr_keys: list = []  # each group's attribute keys, or None
    for rule, subjects, objects, event_keys in columns:
        events, _, object_role, values, attrs, functional = plans[rule]
        table_texts[_ENTITIES].update(zip(subjects, repeat(None)))
        table_texts.setdefault(events, {}).update(zip(event_keys, repeat(None)))
        if object_role is not None:
            table_texts[_ENTITIES].update(zip(objects, repeat(None)))
            attr_keys.append(None)
            continue
        event_refs = map(f"{EVENT_NAMESPACE}:{events[1].local}#".__add__, map(digests.__getitem__, event_keys))
        keys = list(event_refs) if functional else list(map("\t".join, zip(event_refs, objects)))
        attr_keys.append(keys)
        table_texts.setdefault(values, {}).update(zip(objects, repeat(None)))
        table_texts.setdefault(attrs, {}).update(zip(keys, repeat(None)))
    fresh = list(filterfalse(digests.__contains__, dict.fromkeys(chain.from_iterable(filter(None, attr_keys)))))
    digests.update(zip(fresh, fnv1a64_hex_many(fresh)))

    # Each table's ids and nodes in one step.  NodeId and Node have
    # constructors that are Python code; a namespace constant, a type's
    # local part, "#" and hex digits pass NodeId's checks, and str.__new__
    # and tuple.__new__ build the same objects.
    new_tuple = tuple.__new__
    nodes: dict = {}
    ids_of: dict = {}  # (namespace, type) -> {text: id}
    for table, distinct in table_texts.items():
        namespace, type_id = table
        texts = list(distinct)
        prefix = namespace + ":" + ("" if namespace == ENTITY_NAMESPACE else type_id.local + "#")
        ids = list(map(str.__new__, repeat(NodeId), map(prefix.__add__, map(digests.__getitem__, texts))))
        inst_of = map(entity_types.get, texts, repeat(ROOT_TYPE)) if namespace == ENTITY_NAMESPACE else repeat(type_id)
        literals = texts if namespace == VALUE_NAMESPACE else repeat(None)
        nodes.update(zip(ids, map(new_tuple, repeat(Node), zip(ids, repeat(_KIND_OF[namespace]), inst_of, literals))))
        ids_of[table] = dict(zip(texts, ids))
    # Every id is new unless two texts or two tables share it, or it is a
    # hierarchy type's.  Then the triples are walked in input order to
    # name the first two facts on one id.
    if len(nodes) != sum(map(len, ids_of.values())) or not nodes.keys().isdisjoint(hierarchy.types):
        plan_of = {spelling: plans[rule] for spelling, rule in rule_of.items() if rule is not None}
        raise _first_collision(triples, plan_of, ids_of, hierarchy.types, entity_types)

    # Each rule's edges from its columns.
    entities = ids_of[_ENTITIES]
    has_prop, has_value = PrimitiveRelation.HAS_PROP, PrimitiveRelation.HAS_VALUE
    edge_columns: list = []
    slot_literals: dict = {}  # FUNCTIONAL attr type -> {(event id, literal)}
    for (rule, subjects, objects, event_keys), keys in zip(columns, attr_keys):
        events, _, object_role, values, attrs, functional = plans[rule]
        event_ids = list(map(ids_of[events].__getitem__, event_keys))
        edge_columns.append(zip(event_ids, repeat(rule.subject_role), map(entities.__getitem__, subjects)))
        if object_role is not None:
            edge_columns.append(zip(event_ids, repeat(object_role), map(entities.__getitem__, objects)))
            continue
        attr_ids = list(map(ids_of[attrs].__getitem__, keys))
        edge_columns.append(zip(attr_ids, repeat(has_prop), event_ids))
        edge_columns.append(zip(attr_ids, repeat(has_value), map(ids_of[values].__getitem__, objects)))
        if functional:
            slot_literals.setdefault(attrs[1], set()).update(zip(event_ids, objects))
    edges = frozenset(map(new_tuple, repeat(Edge), chain.from_iterable(edge_columns)))

    # A FUNCTIONAL slot of one event that holds several literals conflicts.
    conflicts: list = []
    for attr_type, pairs in slot_literals.items():
        if len(pairs) == len(set(map(itemgetter(0), pairs))):
            continue  # one literal per event
        literals_of: dict = {}
        for event_id, literal in pairs:
            literals_of.setdefault(event_id, []).append(literal)
        conflicts.extend(
            ValueConflict(event_id, attr_type, tuple(sorted(literals)))
            for event_id, literals in literals_of.items()
            if len(literals) > 1
        )
    conflicts.sort(key=itemgetter(0, 1))

    # An event table holds the events it created; every other mapped
    # triple coalesced into one of them.
    events_created = sum(len(ids) for (namespace, _), ids in ids_of.items() if namespace == EVENT_NAMESPACE)
    report = CanonReport(
        events_created=events_created,
        events_coalesced=sum(map(len, groups.values())) - events_created,
        unmapped_relations=frozenset(spelling for spelling, rule in rule_of.items() if rule is None),
        entity_nodes_created=len(entities),
        value_conflicts=tuple(conflicts),
    )
    graph = GroundedGraph(nodes, edges, source_id, revision)
    labels = LabelTable.from_entries(
        (node_id, FALLBACK_LANG, label) for label, node_id in sorted(entities.items(), key=itemgetter(1))
    )
    return GkgDocument(hierarchy, graph, labels, declarations), report


def _first_collision(
    triples: Tuple[FlatTriple, ...], plan_of: dict, ids_of: dict, types: FrozenSet[NodeId], entity_types: dict
) -> IdCollisionError:
    """The error for the first id that two facts claim, in the order the
    triples claim ids: subject, event, then the object entity or the value
    and the attribute.  ``ids_of`` must hold such an id."""
    key_texts: dict = {}  # id -> the label or key text it hashes
    held = {type_id: Node(type_id, NodeKind.TYPE_NODE) for type_id in types}
    for subject, spelling, obj in triples:
        plan = plan_of.get(spelling)
        if plan is None:
            continue
        events, one, object_role, values, attrs, functional = plan
        event_key = subject if one else f"{subject}\t{obj}"
        claims = [(_ENTITIES, subject), (events, event_key)]
        if object_role is not None:
            claims.append((_ENTITIES, obj))
        else:
            event_id = ids_of[events][event_key]
            claims += [(values, obj), (attrs, str(event_id) if functional else f"{event_id}\t{obj}")]
        for (namespace, type_id), text in claims:
            node_id = ids_of[namespace, type_id][text]
            other = key_texts.setdefault(node_id, text)
            if other != text:
                noun = "entity labels" if namespace == ENTITY_NAMESPACE else "keys"
                return IdCollisionError(f"{noun} {other!r} and {text!r} share the id {node_id}")
            if namespace == ENTITY_NAMESPACE:
                type_id = entity_types.get(text, ROOT_TYPE)
            node = Node(node_id, _KIND_OF[namespace], type_id, text if namespace == VALUE_NAMESPACE else None)
            known = held.setdefault(node_id, node)
            if known != node:
                return IdCollisionError(f"id {node_id} stands for both {_content(*known[1:])} and {_content(*node[1:])}")
    raise AssertionError("no two facts share an id")


def _content(kind: NodeKind, inst_of: Optional[NodeId], literal: Optional[str]) -> str:
    text = f"{kind.name} {inst_of or '-'}"
    return text if literal is None else f"{text} {literal!r}"
