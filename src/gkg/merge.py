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

from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Dict, NamedTuple, Set, Tuple

from .alignment import AlignmentResult
from .errors import AlignmentMismatchError, IdCollisionError
from .formats import GkgDocument
from .model import (
    PARTICIPANT_RELATIONS,
    Edge,
    GroundedGraph,
    Node,
    NodeId,
    TypeHierarchy,
    _A,
    _C,
    _equal_to_own_type,
    _HAS_PROP,
    _HAS_VALUE,
    _O,
    _V,
)
from .multilingual import LabelTable
from .schema import AttrMode, Cardinality, SchemaDeclarations, ValueConflict

_NO_NODE = Node(None, None)  # what a missing node reads as


@_equal_to_own_type
class UpdateEntry(NamedTuple):
    """A FUNCTIONAL slot where the higher-revision side replaced values."""

    event: NodeId
    attr_type: NodeId
    old_values: Tuple[str, ...]
    new_values: Tuple[str, ...]
    winner_revision: int


@_equal_to_own_type
class MergeReport(NamedTuple):
    merged: int = 0
    pairs: Tuple[Tuple[NodeId, NodeId], ...] = ()
    updated: Tuple[UpdateEntry, ...] = ()
    conflicts: Tuple[ValueConflict, ...] = ()
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
    nodes_a, nodes_b = graph_a.nodes, graph_b.nodes
    id_map: Dict[NodeId, NodeId] = {}
    matched_a: Set[NodeId] = set()
    for id_a, id_b, _score in alignment.matches:
        node_a = nodes_a.get(id_a)
        node_b = nodes_b.get(id_b)
        if node_a is None or node_a.kind is not _C:
            raise AlignmentMismatchError(f"alignment names {id_a}, not a continuant of the first graph")
        if node_b is None or node_b.kind is not _C:
            raise AlignmentMismatchError(f"alignment names {id_b}, not a continuant of the second graph")
        if id_a in matched_a or id_b in id_map:
            raise AlignmentMismatchError(f"alignment is not one-to-one: MATCH {id_a} {id_b} repeats an id")
        id_map[id_b] = id_a
        matched_a.add(id_a)

    # B's nodes join A's, but for those collapsed onto A-side nodes, whose
    # records win; any other id of both graphs must hold one record.
    clashes = [
        node_id for node_id, node in nodes_b.items() if nodes_a.get(node_id, node) != node and node_id not in id_map
    ]
    if clashes:
        raise IdCollisionError(f"id {clashes[0]} holds different content in the two graphs")
    new_b = {node_id: node for node_id, node in nodes_b.items() if node_id not in nodes_a and node_id not in id_map}
    nodes = {**nodes_a, **new_b}

    # Every id merge folds away is B-only (the alignment maps B ids; event and
    # attribute folds map only members absent from A), and a valid A graph's
    # edges touch A's nodes alone, so A is read as is and only B is
    # rewritten; an edge a fold moves is one that A lacks.
    edges_a = frozenset(graph_a.edges)
    edges_b = set(graph_b.edges)
    new_edges = edges_b.difference(edges_a)
    # The edges of a B id that A lacks are all new to A.
    id_fix = {id_b: id_a for id_b, id_a in id_map.items() if id_b != id_a}
    _rewrite_edges(id_fix, new_edges if id_fix.keys().isdisjoint(nodes_a) else edges_b, edges_b, new_edges)
    folds = _plan_event_folds(nodes, nodes_a, chain(edges_a, new_edges), new_b.values(), declarations)
    _rewrite_edges(folds, new_edges, new_edges, edges_b)
    new_edges -= edges_a  # the merged edges are now A's and these

    # One index of the merged hasProp and hasValue edges serves the
    # attribute folds, the FUNCTIONAL slots and the pruning: the bearers and
    # value edges of each attribute, and the attributes on each slot, by
    # attribute type and then bearer.  (Keyed by (bearer, type) pairs, the
    # index allocates one pair per attribute, which measurably raised a
    # merge command's peak RSS.)
    bearers, values, slots = {}, {}, {}
    for edge in chain(edges_a, new_edges):
        attr_id, relation, obj = edge
        if relation is _HAS_PROP:
            bearers.setdefault(attr_id, []).append(obj)
            slots.setdefault(nodes.get(attr_id, _NO_NODE).inst_of, {}).setdefault(obj, []).append(attr_id)
        elif relation is _HAS_VALUE:
            values.setdefault(attr_id, []).append(edge)

    # Attribute instances with the same type, bearers and values are one
    # slot entry told twice: a B-only one folds onto its smallest A-side
    # twin, which hangs on each of its bearers.  The folded edges are the
    # twin's, so the index only forgets the folded attribute.
    def entry(attr_id):
        return frozenset(bearers.get(attr_id, ())), frozenset(edge[2] for edge in values.get(attr_id, ()))

    attr_folds = {}
    for attr in new_b.values():
        if attr.kind is _A and attr.inst_of is not None and (key := entry(attr.id))[0]:
            twins = [
                other for other in slots[attr.inst_of][next(iter(key[0]))] if other in nodes_a and entry(other) == key
            ]
            if twins:
                attr_folds[attr.id] = min(twins)
    for attr_id in attr_folds:
        values.pop(attr_id, None)
        for bearer in bearers.pop(attr_id):
            slots[nodes[attr_id].inst_of][bearer].remove(attr_id)
    folds.update(attr_folds)
    for dropped in folds:
        del nodes[dropped]
    _rewrite_edges(attr_folds, new_edges, new_edges, edges_b)

    updated, conflicts, dropped_edges = _resolve_functional_slots(
        nodes, slots, values, edges_a, edges_b, graph_a.revision, graph_b.revision, declarations
    )
    gone_nodes, gone_edges = _prune_orphans(nodes, chain(edges_a, new_edges), dropped_edges, values)
    edges = edges_a.union(new_edges)
    if gone_edges:
        edges = edges.difference(gone_edges)

    merged_graph = GroundedGraph(nodes, edges, graph_a.source_id, max(graph_a.revision, graph_b.revision))
    # The merge holds all of A but what it pruned, so what it holds and A
    # lacks is counted from the sizes.
    report = MergeReport(
        merged=len(alignment.matches),
        pairs=tuple(sorted((a, b) for a, b, _ in alignment.matches)),
        updated=tuple(sorted(updated, key=itemgetter(0, 1))),
        conflicts=tuple(sorted(conflicts, key=itemgetter(0, 1))),
        added_nodes=len(nodes) - len(nodes_a) + sum(map(nodes_a.__contains__, gone_nodes)),
        added_edges=len(edges) - len(edges_a) + sum(map(edges_a.__contains__, gone_edges)),
    )
    return merged_graph, report


def _rewrite_edges(mapping, near, *edge_sets):
    """Replace, in place in each of ``edge_sets``, every edge with an
    endpoint in ``mapping`` by its rewritten form; all such edges are among
    ``near``."""
    if not mapping:
        return
    moved = [edge for edge in near if edge[0] in mapping or edge[2] in mapping]
    get = mapping.get
    rewritten = [Edge(get(s, s), r, get(o, o)) for s, r, o in moved]
    for edges in edge_sets:
        edges.difference_update(moved)
        edges.update(rewritten)


def _plan_event_folds(nodes, nodes_a, edges, new_b, declarations) -> Dict[NodeId, NodeId]:
    """Events of one cardinality-ONE type that share a participant, directly
    or along a chain of such events, are one event told more than once.
    Walking out from each B-only event finds its group, whose B-only members
    fold onto its smallest A-side member; a group with none is left alone,
    as merge never restructures either input internally.

    The walks read one index: the participant links of the events whose
    type is that of a B-only event, built in one pass over ``edges`` when B
    brings such an event, so a walk costs no more for being long."""
    starts = [
        node for node in new_b
        if node.kind is _O and node.inst_of is not None and declarations.card_of(node.inst_of) is Cardinality.ONE
    ]
    types = {node.inst_of for node in starts}
    linked = defaultdict(list)  # the entities of an event, the events of an entity
    if starts:
        for subject, relation, obj in edges:
            if relation in PARTICIPANT_RELATIONS and nodes.get(subject, _NO_NODE).inst_of in types:
                linked[subject].append(obj)
                linked[obj].append(subject)

    folds, seen = {}, set()
    for start in starts:
        group, frontier = set(), {start.id} - seen
        while frontier:
            group |= frontier
            frontier = {
                other
                for event in frontier
                for entity in linked[event]
                for other in linked[entity]
                if nodes.get(other, _NO_NODE)[1:3] == (_O, start.inst_of)
            } - group
        seen |= group
        a_side = group & nodes_a.keys()
        if a_side:
            folds.update(dict.fromkeys(group - a_side, min(a_side)))
    return folds


def _resolve_functional_slots(nodes, slots, values, edges_a, edges_b, rev_a, rev_b, declarations):
    """The updates and conflicts of the FUNCTIONAL slots, and the value
    edges the updates drop.  A slot holds two literals only if it has two
    value edges, from two attributes or one, so a slot with one attribute
    of at most one value is passed over unread."""
    updated, conflicts, dropped_edges = [], [], set()
    for attr_type, on_type in slots.items():
        for event_id, attr_ids in on_type.items():
            if len(attr_ids) < 2 and len(values.get(attr_ids[0], ())) < 2:
                continue
            event = nodes.get(event_id, _NO_NODE)
            if event.kind is not _O or declarations.mode_of(event.inst_of, attr_type) is not AttrMode.FUNCTIONAL:
                continue
            value_edges = [
                (literal, edge)
                for attr_id in attr_ids
                for edge in values.get(attr_id, ())
                if (literal := nodes.get(edge[2], _NO_NODE).literal) is not None
            ]
            literals = sorted({literal for literal, _ in value_edges})
            if len(literals) < 2:
                continue
            side_a = {literal for literal, edge in value_edges if edge in edges_a}
            side_b = {literal for literal, edge in value_edges if edge in edges_b}
            if rev_a != rev_b and side_a and side_b:
                winner_side, winner_rev = (side_a, rev_a) if rev_a > rev_b else (side_b, rev_b)
                losers = [literal for literal in literals if literal not in winner_side]
                if losers:
                    dropped_edges.update(edge for literal, edge in value_edges if literal not in winner_side)
                    updated.append(
                        UpdateEntry(event_id, attr_type, tuple(losers), tuple(sorted(winner_side)), winner_rev)
                    )
                    continue
            conflicts.append(ValueConflict(event_id, attr_type, tuple(literals)))
    return updated, conflicts, dropped_edges


def _prune_orphans(nodes, edges, dropped_edges, values):
    """Remove from ``nodes`` the attribute instances the dropped value edges
    leave with no values and the value nodes no other edge references, and
    return the removed nodes and edges; an emptied attribute goes with all
    its edges.  ``values`` holds each attribute's value edges before the
    drop.  Only the edges that touch a removed node are read."""
    if not dropped_edges:
        return (), ()
    emptied = {attr_id for attr_id, _, _ in dropped_edges if dropped_edges.issuperset(values[attr_id])}
    orphans = {obj for _, _, obj in dropped_edges if nodes.get(obj, _NO_NODE).kind is _V}
    watched = emptied | orphans
    gone_edges = set(dropped_edges)
    for edge in [edge for edge in edges if edge[0] in watched or edge[2] in watched]:
        if edge[0] in emptied or edge[2] in emptied:
            gone_edges.add(edge)
        elif edge not in dropped_edges:
            orphans.difference_update((edge[0], edge[2]))
    gone_nodes = [*emptied, *orphans]
    for node_id in gone_nodes:
        del nodes[node_id]
    return gone_nodes, gone_edges


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
    for (node_id, lang), label in sorted(doc_b.labels.entries.items()):
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
