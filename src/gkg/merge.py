"""Merge two grounded graphs along an alignment.

Matched continuants collapse onto the A-side id (the pairing is recorded
in the report, not as graph edges).  For event types of cardinality ONE,
a B-side event folds onto an A-side event of the same type when they
share a participant entity, and attribute instances that duplicate an
A-side slot exactly fold likewise.  FUNCTIONAL attribute slots holding
different values from the two sides then resolve in favor of the
higher-revision graph; ties are flagged and both values kept.
Everything unmatched is unioned disjointly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Set, Tuple

from .alignment import AlignmentResult
from .errors import AlignmentMismatchError, IdCollisionError
from .formats import GkgDocument
from .model import (
    Edge,
    GroundedGraph,
    NodeId,
    NodeKind,
    PARTICIPANT_RELATIONS,
    PrimitiveRelation,
    TypeHierarchy,
)
from .multilingual import GLOSS_NAMESPACE, LabelTable
from .schema import AttrMode, Cardinality, SchemaDeclarations


@dataclass(frozen=True, slots=True)
class UpdateEntry:
    """A FUNCTIONAL slot where the higher-revision side replaced values."""

    event: NodeId
    attr_type: NodeId
    old_values: Tuple[str, ...]
    new_values: Tuple[str, ...]
    winner_revision: int


@dataclass(frozen=True, slots=True)
class ConflictEntry:
    """A FUNCTIONAL slot with differing values that nothing resolved; all
    values remain in the graph."""

    event: NodeId
    attr_type: NodeId
    values: Tuple[str, ...]


@dataclass(frozen=True)
class MergeReport:
    merged: int = 0
    pairs: Tuple[Tuple[NodeId, NodeId], ...] = ()
    updated: Tuple[UpdateEntry, ...] = ()
    conflicts: Tuple[ConflictEntry, ...] = ()
    added_nodes: int = 0
    added_edges: int = 0

    def to_tsv(self) -> str:
        lines = [f"merged\t{self.merged}"]
        lines.extend(f"pair\t{a}\t{b}" for a, b in self.pairs)
        lines.extend(
            f"updated\t{u.event}\t{u.attr_type}\t{'|'.join(u.old_values)}"
            f"\t{'|'.join(u.new_values)}\t{u.winner_revision}"
            for u in self.updated
        )
        lines.extend(
            f"conflict\t{c.event}\t{c.attr_type}\t{'|'.join(c.values)}" for c in self.conflicts
        )
        lines.append(f"added_nodes\t{self.added_nodes}")
        lines.append(f"added_edges\t{self.added_edges}")
        return "".join(line + "\n" for line in lines)


def merge(
    graph_a: GroundedGraph,
    graph_b: GroundedGraph,
    alignment: AlignmentResult,
    declarations: Optional[SchemaDeclarations] = None,
    *,
    prefer_newer: bool = True,
) -> Tuple[GroundedGraph, MergeReport]:
    """Merge ``graph_b`` into ``graph_a`` along the alignment's matches.

    ``declarations`` give the event cardinalities and attribute slot
    modes; undeclared event types coalesce (ONE) and undeclared slots
    accumulate (MULTI).  With ``prefer_newer`` off, differing FUNCTIONAL
    values are never auto-resolved, only flagged.

    Ids of shared types must already agree across the two graphs.  Raises
    :class:`AlignmentMismatchError` if the alignment names nodes the
    graphs lack, :class:`IdCollisionError` if one id means different
    things on the two sides.
    """
    declarations = declarations or SchemaDeclarations()

    id_map: Dict[NodeId, NodeId] = {}
    for id_a, id_b, _score in alignment.matches:
        node_a = graph_a.nodes.get(id_a)
        node_b = graph_b.nodes.get(id_b)
        if node_a is None or node_a.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_a}, not a continuant of the first graph")
        if node_b is None or node_b.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_b}, not a continuant of the second graph")
        id_map[id_b] = id_a

    nodes: Dict[NodeId, object] = dict(graph_a.nodes)
    for node_id, node in graph_b.nodes.items():
        if node_id in id_map:
            continue  # collapsed onto the A-side node, whose record wins
        existing = nodes.get(node_id)
        if existing is None:
            nodes[node_id] = node
        elif existing != node:
            raise IdCollisionError(f"id {node_id} holds different content in the two graphs")

    # Every id merge folds away is B-only (the alignment maps B ids; event and
    # attribute folds map only members absent from A), and a valid A graph's
    # edges touch A's nodes alone, so A is read as is and only B is rewritten.
    edges_b: Set[Edge] = set(graph_b.edges)
    _rewrite_edges(edges_b, {id_b: id_a for id_b, id_a in id_map.items() if id_b != id_a})
    # Event coalescing by shared (participant entity, event type) for
    # cardinality-ONE types, then attribute dedup over the coalesced events.
    for plan in (_plan_event_coalescing, _plan_attr_dedup):
        mapping = plan(nodes, graph_a, edges_b, declarations)
        for dropped in mapping:
            del nodes[dropped]
        _rewrite_edges(edges_b, mapping)
    edges: Set[Edge] = edges_b.union(graph_a.edges)

    # --- FUNCTIONAL slot resolution ---------------------------------------
    updated, conflicts = _resolve_functional_slots(
        nodes, edges, graph_a.edges, edges_b, graph_a.revision, graph_b.revision, declarations, prefer_newer
    )

    merged_graph = GroundedGraph(
        nodes, frozenset(edges), graph_a.source_id, max(graph_a.revision, graph_b.revision)
    )
    report = MergeReport(
        merged=len(alignment.matches),
        pairs=tuple(sorted(((a, b) for a, b, _ in alignment.matches), key=lambda p: (str(p[0]), str(p[1])))),
        updated=tuple(sorted(updated, key=lambda u: (str(u.event), str(u.attr_type)))),
        conflicts=tuple(sorted(conflicts, key=lambda c: (str(c.event), str(c.attr_type)))),
        added_nodes=len(merged_graph.nodes.keys() - graph_a.nodes.keys()),
        added_edges=len(merged_graph.edges - graph_a.edges),
    )
    return merged_graph, report


def _rewrite_edges(edges: Set[Edge], mapping: Dict[NodeId, NodeId]) -> None:
    """Replace, in place, every edge with an endpoint in ``mapping`` by its
    rewritten form; edges touching no mapped id stay as they are."""
    if not mapping:
        return
    moved = [e for e in edges if e.subject in mapping or e.obj in mapping]
    edges.difference_update(moved)
    edges.update(
        Edge(mapping.get(e.subject, e.subject), e.relation, mapping.get(e.obj, e.obj)) for e in moved
    )


def _fold_cross_side(groups, graph_a) -> Dict[NodeId, NodeId]:
    """For each group, map B-introduced members onto the smallest A-side
    member.  Groups living entirely on one side are left alone: merge
    never restructures either input internally."""
    mapping: Dict[NodeId, NodeId] = {}
    for members in groups:
        if len(members) < 2:
            continue
        a_side = sorted((m for m in members if m in graph_a.nodes), key=str)
        b_only = sorted((m for m in members if m not in graph_a.nodes), key=str)
        if not a_side or not b_only:
            continue
        for member in b_only:
            mapping[member] = a_side[0]
    return mapping


def _plan_event_coalescing(nodes, graph_a, edges_b, declarations) -> Dict[NodeId, NodeId]:
    participant_entities: Dict[NodeId, Set[NodeId]] = {}
    for edge in chain(graph_a.edges, edges_b):
        if edge.relation in PARTICIPANT_RELATIONS:
            participant_entities.setdefault(edge.subject, set()).add(edge.obj)

    buckets: Dict[tuple, list] = {}
    for node_id, node in nodes.items():
        if node.kind is not NodeKind.OCCURRENT or node.inst_of is None:
            continue
        if declarations.card_of(node.inst_of) is not Cardinality.ONE:
            continue
        for entity in participant_entities.get(node_id, ()):
            buckets.setdefault((node.inst_of, entity), []).append(node_id)

    # Events sharing any (type, entity) bucket belong to one group.
    parent: Dict[NodeId, NodeId] = {}

    def find(node_id: NodeId) -> NodeId:
        root = node_id
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(node_id, node_id) != node_id:
            next_id = parent[node_id]
            parent[node_id] = root
            node_id = next_id
        return root

    for members in buckets.values():
        for other in members[1:]:
            root_a, root_b = find(members[0]), find(other)
            if root_a != root_b:
                parent[max(root_a, root_b)] = min(root_a, root_b)

    components: Dict[NodeId, Set[NodeId]] = {}
    for members in buckets.values():
        for member in members:
            components.setdefault(find(member), set()).add(member)
    return _fold_cross_side(components.values(), graph_a)


def _plan_attr_dedup(nodes, graph_a, edges_b, _declarations) -> Dict[NodeId, NodeId]:
    """Attribute instances with the same type, bearer set and value set
    are one slot entry told twice; fold the B copy onto the A one."""
    bearers: Dict[NodeId, Set[NodeId]] = {}
    values: Dict[NodeId, Set[NodeId]] = {}
    for edge in chain(graph_a.edges, edges_b):
        if edge.relation is PrimitiveRelation.HAS_PROP:
            bearers.setdefault(edge.subject, set()).add(edge.obj)
        elif edge.relation is PrimitiveRelation.HAS_VALUE:
            values.setdefault(edge.subject, set()).add(edge.obj)

    groups: Dict[tuple, list] = {}
    for node_id, node in nodes.items():
        if node.kind is not NodeKind.ATTRIBUTE_INSTANCE or node.inst_of is None:
            continue
        attached = bearers.get(node_id)
        if not attached:
            continue
        key = (node.inst_of, frozenset(attached), frozenset(values.get(node_id, ())))
        groups.setdefault(key, []).append(node_id)
    return _fold_cross_side(groups.values(), graph_a)


def _resolve_functional_slots(nodes, edges, edges_a, edges_b, rev_a, rev_b, declarations, prefer_newer):
    attrs_by_event: Dict[NodeId, list] = {}
    values_by_attr: Dict[NodeId, list] = {}
    for edge in edges:
        if edge.relation is PrimitiveRelation.HAS_PROP:
            attrs_by_event.setdefault(edge.obj, []).append(edge.subject)
        elif edge.relation is PrimitiveRelation.HAS_VALUE:
            values_by_attr.setdefault(edge.subject, []).append(edge.obj)

    updated: list = []
    conflicts: list = []
    dropped_edges: Set[Edge] = set()

    for event_id in attrs_by_event:
        event = nodes.get(event_id)
        if event is None or event.kind is not NodeKind.OCCURRENT or event.inst_of is None:
            continue
        slots: Dict[NodeId, list] = {}
        for attr_id in attrs_by_event[event_id]:
            attr = nodes.get(attr_id)
            if attr is None or attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
                continue
            slots.setdefault(attr.inst_of, []).append(attr_id)

        for attr_type in slots:
            if declarations.mode_of(event.inst_of, attr_type) is not AttrMode.FUNCTIONAL:
                continue
            value_edges: list = []  # (literal, Edge)
            for attr_id in slots[attr_type]:
                for value_id in values_by_attr.get(attr_id, ()):
                    value = nodes.get(value_id)
                    if value is None or value.literal is None:
                        continue
                    value_edges.append((value.literal, Edge(attr_id, PrimitiveRelation.HAS_VALUE, value_id)))
            literals = sorted({literal for literal, _ in value_edges})
            if len(literals) < 2:
                continue
            side_a = {literal for literal, edge in value_edges if edge in edges_a}
            side_b = {literal for literal, edge in value_edges if edge in edges_b}
            resolvable = prefer_newer and rev_a != rev_b and bool(side_a) and bool(side_b)
            if resolvable:
                winner_side, winner_rev = (side_a, rev_a) if rev_a > rev_b else (side_b, rev_b)
                losers = [literal for literal in literals if literal not in winner_side]
                if losers:
                    for literal, edge in value_edges:
                        if literal in winner_side:
                            continue
                        dropped_edges.add(edge)
                    updated.append(
                        UpdateEntry(
                            event_id,
                            attr_type,
                            tuple(losers),
                            tuple(sorted(winner_side)),
                            winner_rev,
                        )
                    )
                    continue
            conflicts.append(ConflictEntry(event_id, attr_type, tuple(literals)))

    if dropped_edges:
        edges.difference_update(dropped_edges)
        _prune_orphans(nodes, edges, dropped_edges)
    return updated, conflicts


def _prune_orphans(nodes, edges, dropped_edges) -> None:
    """After value edges were dropped, remove attribute instances left with
    no values and value nodes nothing references anymore."""
    emptied = {edge.subject for edge in dropped_edges}
    for edge in edges:
        if edge.relation is PrimitiveRelation.HAS_VALUE:
            emptied.discard(edge.subject)
    if emptied:
        edges.difference_update([e for e in edges if e.subject in emptied or e.obj in emptied])
        for attr_id in emptied:
            nodes.pop(attr_id, None)
    referenced: Set[NodeId] = set()
    for edge in edges:
        referenced.add(edge.subject)
        referenced.add(edge.obj)
    for edge in dropped_edges:
        value_id = edge.obj
        node = nodes.get(value_id)
        if node is not None and node.kind is NodeKind.VALUE_LITERAL and value_id not in referenced:
            del nodes[value_id]


def union_hierarchies(hier_a: TypeHierarchy, hier_b: TypeHierarchy) -> TypeHierarchy:
    """One hierarchy holding every type and parent link of both inputs;
    a cycle formed by disagreeing parent links is rejected."""
    pairs = []
    for hierarchy in (hier_a, hier_b):
        for type_id, parents in hierarchy.parents.items():
            if not parents:
                pairs.append((type_id, None))
            pairs.extend((type_id, parent) for parent in parents)
    return TypeHierarchy.from_edges(pairs)


def merge_documents(
    doc_a: GkgDocument,
    doc_b: GkgDocument,
    alignment: AlignmentResult,
    *,
    prefer_newer: bool = True,
) -> Tuple[GkgDocument, MergeReport]:
    """Document-level merge: hierarchies union (cycle-checked), labels and
    declarations union with the A side winning clashes, and the graphs
    merge per :func:`merge` under the unioned declarations."""
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    declarations = doc_a.declarations.merged_with(doc_b.declarations)
    merged_graph, report = merge(doc_a.graph, doc_b.graph, alignment, declarations, prefer_newer=prefer_newer)

    id_map = {id_b: id_a for id_a, id_b, _ in alignment.matches}
    entries = dict(doc_a.labels.entries)
    for (node_id, lang), label in doc_b.labels.items_sorted():
        key = (id_map.get(node_id, node_id), lang)
        if key not in entries:
            entries[key] = label
    # Labels for nodes that folded away or were pruned would serialize as
    # dangling rows; glosses (rel: pseudo-ids) are never graph nodes.
    entries = {
        (node_id, lang): label
        for (node_id, lang), label in entries.items()
        if node_id in merged_graph.nodes or node_id.namespace == GLOSS_NAMESPACE
    }
    labels = LabelTable(entries)

    merged_doc = GkgDocument(hierarchy, merged_graph, labels, declarations)
    return merged_doc, report
