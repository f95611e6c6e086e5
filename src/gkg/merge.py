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

from collections import Counter
from itertools import chain
from typing import Dict, NamedTuple, Set, Tuple

from .alignment import AlignmentResult
from .errors import AlignmentMismatchError, IdCollisionError
from .formats import GkgDocument
from .model import (
    Adjacency,
    Edge,
    GroundedGraph,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    TypeHierarchy,
    _equal_to_own_type,
    _ForwardLinks,
    _Frozen,
    _set_field,
)
from .multilingual import LabelTable
from .schema import AttrMode, Cardinality, SchemaDeclarations, ValueConflict


@_equal_to_own_type
class UpdateEntry(NamedTuple):
    """A FUNCTIONAL slot where the higher-revision side replaced values."""

    event: NodeId
    attr_type: NodeId
    old_values: Tuple[str, ...]
    new_values: Tuple[str, ...]
    winner_revision: int


class MergeReport(_Frozen):
    __slots__ = _fields = ("merged", "pairs", "updated", "conflicts", "added_nodes", "added_edges")

    def __init__(
        self,
        merged: int = 0,
        pairs: Tuple[Tuple[NodeId, NodeId], ...] = (),
        updated: Tuple[UpdateEntry, ...] = (),
        conflicts: Tuple[ValueConflict, ...] = (),
        added_nodes: int = 0,
        added_edges: int = 0,
    ):
        _set_field(self, "merged", merged)
        _set_field(self, "pairs", pairs)
        _set_field(self, "updated", updated)
        _set_field(self, "conflicts", conflicts)
        _set_field(self, "added_nodes", added_nodes)
        _set_field(self, "added_edges", added_edges)

    def to_tsv(self) -> str:
        lines = [f"merged\t{self.merged}"]
        lines.extend(f"pair\t{a}\t{b}" for a, b in self.pairs)
        lines.extend(
            f"updated\t{u.event}\t{u.attr_type}\t{'|'.join(u.old_values)}"
            f"\t{'|'.join(u.new_values)}\t{u.winner_revision}"
            for u in self.updated
        )
        lines.extend(
            f"conflict\t{c.event}\t{c.attr_type}\t{'|'.join(c.literals)}" for c in self.conflicts
        )
        lines.append(f"added_nodes\t{self.added_nodes}")
        lines.append(f"added_edges\t{self.added_edges}")
        return "".join(line + "\n" for line in lines)


def _merge(
    graph_a: GroundedGraph,
    graph_b: GroundedGraph,
    alignment: AlignmentResult,
    declarations: SchemaDeclarations,
) -> Tuple[GroundedGraph, MergeReport]:
    """Merge ``graph_b`` into ``graph_a`` along the alignment's matches.

    ``declarations`` give the event cardinalities and attribute slot
    modes; undeclared event types coalesce (ONE) and undeclared slots
    accumulate (MULTI).  Differing FUNCTIONAL values held on both sides
    resolve to the higher revision; otherwise they are only flagged.

    Ids of shared types must already agree across the two graphs.  Raises
    :class:`AlignmentMismatchError` if the alignment names nodes the
    graphs lack or is not one-to-one, :class:`IdCollisionError` if one id
    means different things on the two sides.
    """
    id_map: Dict[NodeId, NodeId] = {}
    matched_a: Set[NodeId] = set()
    for id_a, id_b, _score in alignment.matches:
        node_a = graph_a.nodes.get(id_a)
        node_b = graph_b.nodes.get(id_b)
        if node_a is None or node_a.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_a}, not a continuant of the first graph")
        if node_b is None or node_b.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_b}, not a continuant of the second graph")
        if id_a in matched_a or id_b in id_map:
            raise AlignmentMismatchError(f"alignment is not one-to-one: MATCH {id_a} {id_b} repeats an id")
        id_map[id_b] = id_a
        matched_a.add(id_a)

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
    # Folds are planned from B's new nodes over one adjacency of both sides;
    # only a new occurrent or attribute instance starts a walk, so without
    # one there is nothing to fold and no adjacency to build.
    edges_b: Set[Edge] = set(graph_b.edges)
    _rewrite_edges(edges_b, {id_b: id_a for id_b, id_a in id_map.items() if id_b != id_a})
    new_b = [node for node_id, node in graph_b.nodes.items() if node_id not in graph_a.nodes]
    folds: Dict[NodeId, NodeId] = {}
    if any(node.kind is NodeKind.OCCURRENT or node.kind is NodeKind.ATTRIBUTE_INSTANCE for node in new_b):
        adjacency = Adjacency(chain(graph_a.edges, edges_b))
        event_folds = _plan_event_folds(nodes, graph_a, new_b, adjacency, declarations)
        folds = {**event_folds, **_plan_attr_folds(graph_a, new_b, adjacency, event_folds)}
        for dropped in folds:
            del nodes[dropped]
        _rewrite_edges(edges_b, folds)
    edges: Set[Edge] = edges_b.union(graph_a.edges)

    # --- FUNCTIONAL slot resolution ---------------------------------------
    updated, conflicts = _resolve_functional_slots(
        nodes, edges, graph_a.edges, edges_b, graph_a.revision, graph_b.revision, declarations
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


def _plan_event_folds(nodes, graph_a, new_b, adjacency, declarations) -> Dict[NodeId, NodeId]:
    """Events of one cardinality-ONE type that share a participant, directly
    or along a chain of such events, are one event told more than once.
    Walking out from each B-only event finds its group, whose B-only members
    fold onto its smallest A-side member; a group with none is left alone,
    as merge never restructures either input internally."""
    folds: Dict[NodeId, NodeId] = {}
    seen: Set[NodeId] = set()
    for start in new_b:
        event_type = start.inst_of
        if start.id in seen or start.kind is not NodeKind.OCCURRENT or event_type is None:
            continue
        if declarations.card_of(event_type) is not Cardinality.ONE:
            continue
        group = {start.id}
        frontier = [start.id]
        while frontier:
            for entity in adjacency.participants.get(frontier.pop(), ()):
                for other in adjacency.events_of[entity]:
                    node = nodes.get(other)
                    if other in group or node is None or node.kind is not NodeKind.OCCURRENT:
                        continue
                    if node.inst_of == event_type:
                        group.add(other)
                        frontier.append(other)
        seen |= group
        a_side = [member for member in group if member in graph_a.nodes]
        if a_side:
            target = min(a_side)
            folds.update((member, target) for member in group if member not in graph_a.nodes)
    return folds


def _plan_attr_folds(graph_a, new_b, adjacency, event_folds) -> Dict[NodeId, NodeId]:
    """Attribute instances with the same type, bearers and values are one
    slot entry told twice: a B-only one folds onto its smallest A-side twin.
    Bearers are read through the event folds; a twin hangs on every bearer,
    so only the attributes on one bearer or on the events folded onto it
    are compared."""
    folded_into: Dict[NodeId, list] = {}
    for source, target in event_folds.items():
        folded_into.setdefault(target, []).append(source)

    def slot(attr_id):
        return (
            frozenset(event_folds.get(b, b) for b in adjacency.bearers.get(attr_id, ())),
            frozenset(event_folds.get(v, v) for v in adjacency.values.get(attr_id, ())),
        )

    folds: Dict[NodeId, NodeId] = {}
    for attr in new_b:
        if attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
            continue
        key = slot(attr.id)
        if not key[0]:
            continue
        bearer = next(iter(key[0]))
        twins = []
        for source in (bearer, *folded_into.get(bearer, ())):
            for other in adjacency.attrs_of.get(source, ()):
                twin = graph_a.nodes.get(other)
                if twin is None or twin.kind is not NodeKind.ATTRIBUTE_INSTANCE:
                    continue
                if twin.inst_of == attr.inst_of and slot(other) == key:
                    twins.append(other)
        if twins:
            folds[attr.id] = min(twins)
    return folds


def _resolve_functional_slots(nodes, edges, edges_a, edges_b, rev_a, rev_b, declarations):
    links = _ForwardLinks(edges)
    updated: list = []
    conflicts: list = []
    dropped_edges: Set[Edge] = set()

    for event_id, attr_ids in links.attrs_of.items():
        event = nodes.get(event_id)
        if event is None or event.kind is not NodeKind.OCCURRENT or event.inst_of is None:
            continue
        slots: Dict[NodeId, list] = {}
        for attr_id in attr_ids:
            attr = nodes.get(attr_id)
            if attr is None or attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
                continue
            slots.setdefault(attr.inst_of, []).append(attr_id)

        for attr_type in slots:
            if declarations.mode_of(event.inst_of, attr_type) is not AttrMode.FUNCTIONAL:
                continue
            value_edges: list = []  # (literal, Edge)
            for attr_id in slots[attr_type]:
                for value_id in links.values.get(attr_id, ()):
                    value = nodes.get(value_id)
                    if value is None or value.literal is None:
                        continue
                    value_edges.append((value.literal, Edge(attr_id, PrimitiveRelation.HAS_VALUE, value_id)))
            literals = sorted({literal for literal, _ in value_edges})
            if len(literals) < 2:
                continue
            side_a = {literal for literal, edge in value_edges if edge in edges_a}
            side_b = {literal for literal, edge in value_edges if edge in edges_b}
            resolvable = rev_a != rev_b and bool(side_a) and bool(side_b)
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
            conflicts.append(ValueConflict(event_id, attr_type, tuple(literals)))

    if dropped_edges:
        edges.difference_update(dropped_edges)
        _prune_orphans(nodes, edges, dropped_edges, links)
    return updated, conflicts


def _prune_orphans(nodes, edges, dropped_edges, links) -> None:
    """After value edges were dropped, remove attribute instances left with
    no values and value nodes nothing references anymore.  ``links`` index
    the edges before the drop."""
    dropped_per_attr = Counter(attr_id for attr_id, _, _ in dropped_edges)
    emptied = {attr_id for attr_id, count in dropped_per_attr.items() if count == len(links.values[attr_id])}
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
) -> Tuple[GkgDocument, MergeReport]:
    """Document-level merge: hierarchies union (cycle-checked), labels and
    declarations union with the A side winning clashes, and the graphs
    merge per :func:`_merge` under the unioned declarations."""
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    declarations = doc_a.declarations.merged_with(doc_b.declarations)
    merged_graph, report = _merge(doc_a.graph, doc_b.graph, alignment, declarations)

    id_map = {id_b: id_a for id_a, id_b, _ in alignment.matches}
    entries = dict(doc_a.labels.entries)
    for (node_id, lang), label in doc_b.labels.items_sorted():
        key = (id_map.get(node_id, node_id), lang)
        if key not in entries:
            entries[key] = label
    # Labels for nodes that folded away or were pruned would serialize as
    # dangling rows; a label on an id that was no node of either input (a
    # rel: gloss, say) is kept as read.
    nodes_a, nodes_b, kept = doc_a.graph.nodes, doc_b.graph.nodes, merged_graph.nodes
    labels = LabelTable({
        (node_id, lang): label
        for (node_id, lang), label in entries.items()
        if node_id in kept or (node_id not in nodes_a and node_id not in nodes_b)
    })

    merged_doc = GkgDocument(hierarchy, merged_graph, labels, declarations)
    return merged_doc, report
