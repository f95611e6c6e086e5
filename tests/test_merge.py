"""Alignment-driven merging, revision-aware slot resolution, reports."""

from itertools import chain
from typing import Dict, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg import (
    PARTICIPANT_RELATIONS,
    AlignmentMismatchError,
    AlignmentResult,
    AttrMode,
    AttrSlot,
    Cardinality,
    Edge,
    FlatTriple,
    GkgDocument,
    GroundedGraph,
    IdCollisionError,
    MergeReport,
    Node,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    SchemaDeclarations,
    TypeHierarchy,
    UpdateEntry,
    ValueConflict,
    canonicalize_document,
    merge_documents,
    parse_alignment_tsv,
    parse_gkg,
    parse_rules,
    serialize_gkg,
    union_hierarchies,
    validate_document,
    validate_graph,
)
from gkg import cli
from gkg.evaluation import demo_document

from .support import random_document

RESIDENCE_RULES = """\
RULE residesIn EVENT ont:Residence SUBJ participantIn OBJ ATTR ont:Location ont:Place
ESSENTIAL ont:Residence
CARD ont:Residence ONE
ATTRDECL ont:Residence ont:Location FUNCTIONAL
"""


def residence_doc(place, revision, source_id="wiki"):
    rules, decls = parse_rules(RESIDENCE_RULES)
    doc, _ = canonicalize_document(
        (FlatTriple("Obama", "residesIn", place),),
        rules,
        declarations=decls,
        source_id=source_id,
        revision=revision,
    )
    return doc


def identity_alignment(doc):
    matches = tuple((n.id, n.id, 1.0) for n in doc.graph.continuants())
    return AlignmentResult(matches=matches)


def value_literals(graph):
    return {n.literal for n in graph.nodes.values() if n.kind is NodeKind.VALUE_LITERAL}


class TestIdentityMerge:
    def test_merge_with_self_is_identity(self):
        doc = demo_document(source_id="src", revision=2)
        merged, report = merge_documents(doc, doc, identity_alignment(doc))
        assert serialize_gkg(merged) == serialize_gkg(doc)
        assert merged == doc
        assert report.added_nodes == 0
        assert report.added_edges == 0
        assert report.conflicts == ()

    def test_merge_with_self_empty_alignment(self):
        doc = demo_document()
        merged, _ = merge_documents(doc, doc, AlignmentResult())
        assert serialize_gkg(merged) == serialize_gkg(doc)


class TestRevisionResolution:
    def test_newer_revision_wins_functional_slot(self):
        doc_v1 = residence_doc("WhiteHouse", revision=1)
        doc_v2 = residence_doc("Washington", revision=2)
        merged, report = merge_documents(doc_v1, doc_v2, AlignmentResult())
        assert value_literals(merged.graph) == {"Washington"}
        assert len(report.updated) == 1
        entry = report.updated[0]
        assert entry.attr_type == NodeId("ont", "Location")
        assert entry.old_values == ("WhiteHouse",)
        assert entry.new_values == ("Washington",)
        assert entry.winner_revision == 2
        assert report.conflicts == ()
        assert merged.graph.revision == 2

    def test_older_side_b_loses(self):
        """Same scenario, arguments swapped: A is newer, so A's value
        stays and the update logs revision 2 again."""
        doc_v1 = residence_doc("WhiteHouse", revision=1)
        doc_v2 = residence_doc("Washington", revision=2)
        merged, report = merge_documents(doc_v2, doc_v1, AlignmentResult())
        assert value_literals(merged.graph) == {"Washington"}
        assert report.updated[0].winner_revision == 2

    def test_equal_revisions_conflict_keeps_both(self):
        doc_a = residence_doc("WhiteHouse", revision=1)
        doc_b = residence_doc("Washington", revision=1)
        merged, report = merge_documents(doc_a, doc_b, AlignmentResult())
        assert value_literals(merged.graph) == {"WhiteHouse", "Washington"}
        assert report.updated == ()
        assert len(report.conflicts) == 1
        assert report.conflicts[0].literals == ("Washington", "WhiteHouse")

    def test_self_merge_reports_the_conflicts_canonicalize_flagged(self):
        """Both reports hold one record type, so the FUNCTIONAL conflicts of
        a document merged with itself equal those canonicalize flagged."""
        rules, decls = parse_rules(RESIDENCE_RULES)
        places = {"Obama": ("WhiteHouse", "Washington"), "Biden": ("Delaware", "Washington"), "Ada": ("London",)}
        triples = tuple(FlatTriple(name, "residesIn", place) for name, row in places.items() for place in row)
        doc, canon_report = canonicalize_document(triples, rules, declarations=decls)
        _, merge_report = merge_documents(doc, doc, identity_alignment(doc))
        assert len(canon_report.value_conflicts) == 2
        assert canon_report.value_conflicts == merge_report.conflicts

    @pytest.mark.parametrize(
        "with_declarations, b_is_newer, literals, updated, conflicts",
        [
            (True, True, {"Washington"}, 1, 0),
            (True, False, {"WhiteHouse", "Washington"}, 0, 1),  # equal revisions conflict
            (False, True, {"WhiteHouse", "Washington"}, 0, 0),  # undeclared slots accumulate
        ],
    )
    def test_graph_merge_reads_the_declarations(
        self, with_declarations, b_is_newer, literals, updated, conflicts
    ):
        doc_v1 = residence_doc("WhiteHouse", revision=1)
        doc_v2 = residence_doc("Washington", revision=2 if b_is_newer else 1)
        if not with_declarations:
            doc_v1, doc_v2 = (GkgDocument(doc.hierarchy, doc.graph, doc.labels) for doc in (doc_v1, doc_v2))
        merged, report = merge_documents(doc_v1, doc_v2, AlignmentResult())
        assert value_literals(merged.graph) == literals
        assert (len(report.updated), len(report.conflicts)) == (updated, conflicts)

    def test_multi_slot_unions_without_conflict(self):
        rules_text = RESIDENCE_RULES.replace("FUNCTIONAL", "MULTI")
        rules, decls = parse_rules(rules_text)

        def doc(place, rev):
            d, _ = canonicalize_document(
                (FlatTriple("Obama", "residesIn", place),),
                rules,
                declarations=decls,
                revision=rev,
            )
            return d

        merged, report = merge_documents(doc("WhiteHouse", 1), doc("Washington", 2), AlignmentResult())
        assert value_literals(merged.graph) == {"WhiteHouse", "Washington"}
        assert report.updated == ()
        assert report.conflicts == ()


class TestStructuralMerge:
    def test_renamed_entity_folds_onto_a(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        entity_a = next(doc_a.graph.continuants()).id
        entity_b = next(doc_b.graph.continuants()).id
        alignment = AlignmentResult(matches=((entity_a, entity_b, 0.95),))
        merged, report = merge_documents(doc_a, doc_b, alignment)
        assert report.merged == 1
        assert report.pairs == ((entity_a, entity_b),)
        assert report.added_nodes == 0
        assert report.added_edges == 0
        assert serialize_gkg(merged) == serialize_gkg(demo_document())

    def test_disjoint_docs_union(self):
        doc_a = demo_document(subject="RogerWaters")
        doc_b = demo_document(subject="DavidGilmour", birthplace="Cambridge", birthdate="06/03/1946")
        merged, report = merge_documents(doc_a, doc_b, AlignmentResult())
        assert len(list(merged.graph.continuants())) == 2
        non_type_nodes = [
            n for n in merged.graph.nodes.values() if n.kind is not NodeKind.TYPE_NODE
        ]
        assert len(non_type_nodes) == 12  # six per person, nothing shared
        assert report.added_nodes == 6
        assert report.added_edges == 5
        assert validate_document(merged).ok

    def test_union_provenance_bound(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="DavidGilmour", birthplace="Cambridge")
        merged, _ = merge_documents(doc_a, doc_b, AlignmentResult())
        allowed = set(doc_a.graph.nodes) | set(doc_b.graph.nodes)
        assert set(merged.graph.nodes) <= allowed
        assert merged.graph.edges <= (doc_a.graph.edges | doc_b.graph.edges)

    def test_events_of_distinct_entities_stay_apart(self):
        doc_a = demo_document(subject="RogerWaters")
        doc_b = demo_document(subject="DavidGilmour")
        merged, _ = merge_documents(doc_a, doc_b, AlignmentResult())
        events = [n for n in merged.graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
        assert len(events) == 2

    def test_merged_documents_validate(self):
        doc_a = residence_doc("WhiteHouse", revision=1)
        doc_b = residence_doc("Washington", revision=2)
        merged, _ = merge_documents(doc_a, doc_b, AlignmentResult())
        assert validate_document(merged).ok

    def test_source_id_from_a_revision_is_max(self):
        doc_a = residence_doc("WhiteHouse", revision=5, source_id="mine")
        doc_b = residence_doc("Washington", revision=2, source_id="theirs")
        merged, _ = merge_documents(doc_a, doc_b, AlignmentResult())
        assert merged.graph.source_id == "mine"
        assert merged.graph.revision == 5

    def test_labels_of_pruned_values_dropped(self):
        doc_v1 = residence_doc("WhiteHouse", revision=1)
        doc_v2 = residence_doc("Washington", revision=2)
        merged, _ = merge_documents(doc_v1, doc_v2, AlignmentResult())
        for (node_id, _lang), _label in merged.labels.items_sorted():
            assert node_id in merged.graph.nodes or node_id.namespace == "rel"


PRUNE_A = """\
G wiki 1
N ex:p C core:Human
N ex:e1 O ont:Birth
N ex:a1 A ont:Place
N ex:v1 V ont:Village Old Town
E ex:e1 participantIn ex:p
E ex:a1 hasProp ex:e1
E ex:a1 hasValue ex:v1
ATTRDECL ont:Birth ont:Place FUNCTIONAL
"""

PRUNE_B = PRUNE_A.replace("G wiki 1", "G wiki 2").replace("ex:p", "ex:q").replace(
    "ex:e1", "ex:e2").replace("ex:a1", "ex:a2").replace("ex:v1 V ont:Village Old Town", "ex:v2 V ont:Village New Town").replace(
    "ex:v1", "ex:v2")


class TestOrphanPruning:
    def test_emptied_attribute_goes_with_its_edges_and_value(self):
        doc_a, doc_b = parse_gkg(PRUNE_A), parse_gkg(PRUNE_B)
        alignment = AlignmentResult(matches=((NodeId("ex", "p"), NodeId("ex", "q"), 1.0),))
        merged, report = merge_documents(doc_a, doc_b, alignment)
        # ex:e2 folds onto ex:e1; the newer value wins the FUNCTIONAL slot,
        # which leaves ex:a1 without values.
        assert [(u.old_values, u.new_values) for u in report.updated] == [(("Old Town",), ("New Town",))]
        assert serialize_gkg(merged) == (
            "G wiki 2\n"
            "T core:Entity -\nT core:Human core:Entity\nT ont:Birth core:Entity\n"
            "T ont:Place core:Entity\nT ont:Village core:Entity\n"
            "N ex:a2 A ont:Place\nN ex:e1 O ont:Birth\nN ex:p C core:Human\n"
            "N ex:v2 V ont:Village New Town\n"
            "E ex:a2 hasProp ex:e1\nE ex:a2 hasValue ex:v2\nE ex:e1 participantIn ex:p\n"
            "ATTRDECL ont:Birth ont:Place FUNCTIONAL\n"
        )
        assert validate_document(merged).ok


NOT_ONE_TO_ONE = {
    "b_matched_twice": (("ex:a1", "ex:b"), ("ex:a2", "ex:b")),
    "a_matched_twice": (("ex:a1", "ex:b"), ("ex:a1", "ex:c")),
    "row_repeated": (("ex:a1", "ex:b"), ("ex:a1", "ex:b")),
}


class TestMergeErrors:
    def test_alignment_naming_missing_node(self):
        doc = demo_document()
        ghost = NodeId("ent", "feedfacefeedface")
        entity = next(doc.graph.continuants()).id
        with pytest.raises(AlignmentMismatchError):
            merge_documents(doc, doc, AlignmentResult(matches=((ghost, entity, 1.0),)))

    def test_alignment_naming_non_continuant(self):
        doc = demo_document()
        entity = next(doc.graph.continuants()).id
        event = next(n.id for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT)
        with pytest.raises(AlignmentMismatchError):
            merge_documents(doc, doc, AlignmentResult(matches=((entity, event, 1.0),)))

    def test_id_collision_different_content(self):
        doc_a = parse_gkg("N ex:x C core:Thing\n")
        doc_b = parse_gkg("N ex:x O core:Thing\n")
        with pytest.raises(IdCollisionError):
            merge_documents(doc_a, doc_b, AlignmentResult())

    @pytest.mark.parametrize("rows", NOT_ONE_TO_ONE.values(), ids=list(NOT_ONE_TO_ONE))
    def test_alignment_not_one_to_one(self, rows, tmp_path, capsys):
        """Through the API and through ``gkg merge``: refused with exit 1,
        nothing written."""
        text_a = "N ex:a1 C core:Thing\nN ex:a2 C core:Thing\n"
        text_b = "N ex:b C core:Thing\nN ex:c C core:Thing\n"
        rows_text = "".join(f"{a}\t{b}\t0.9500\tMATCH\n" for a, b in rows)
        with pytest.raises(AlignmentMismatchError, match="not one-to-one"):
            merge_documents(parse_gkg(text_a), parse_gkg(text_b), parse_alignment_tsv(rows_text))

        for name, text in (("a.gkg", text_a), ("b.gkg", text_b), ("ab.align", rows_text)):
            (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / "ab.gkg"
        argv = ["merge", str(tmp_path / "a.gkg"), str(tmp_path / "b.gkg"), "--alignment", str(tmp_path / "ab.align")]
        assert cli.main([*argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("\n")) == ("", 1)
        assert "not one-to-one" in captured.err
        assert not out.exists()


def oracle_merge(
    graph_a: GroundedGraph,
    graph_b: GroundedGraph,
    alignment: AlignmentResult,
    declarations: Optional[SchemaDeclarations] = None,
) -> Tuple[GroundedGraph, MergeReport]:
    """The graph merge ``merge_documents`` is held to: the implementation
    that copied A's edges too and pushed every fold through both edge
    sets, kept verbatim with its helpers below, except that it refuses an
    alignment that is not one-to-one, as ``merge_documents`` does."""
    declarations = declarations or SchemaDeclarations()

    id_map: Dict[NodeId, NodeId] = {}
    for id_a, id_b, _score in alignment.matches:
        node_a = graph_a.nodes.get(id_a)
        node_b = graph_b.nodes.get(id_b)
        if node_a is None or node_a.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_a}, not a continuant of the first graph")
        if node_b is None or node_b.kind is not NodeKind.CONTINUANT:
            raise AlignmentMismatchError(f"alignment names {id_b}, not a continuant of the second graph")
        if id_a in id_map.values() or id_b in id_map:
            raise AlignmentMismatchError(f"alignment is not one-to-one: MATCH {id_a} {id_b} repeats an id")
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

    edges_a: Set[Edge] = set(graph_a.edges)
    edges_b: Set[Edge] = set(graph_b.edges)
    _rewrite_edges(edges_b, {id_b: id_a for id_b, id_a in id_map.items() if id_b != id_a})

    # --- event coalescing -------------------------------------------------
    # Keyed by shared (participant entity, event type) for cardinality-ONE
    # types.  Only B-introduced nodes fold onto A-side representatives;
    # duplicates within one input are left as found.
    event_map = _plan_event_coalescing(nodes, edges_a, edges_b, graph_a, declarations)
    _apply_rewrite(nodes, edges_a, edges_b, event_map)

    attr_map = _plan_attr_dedup(nodes, edges_a, edges_b, graph_a)
    _apply_rewrite(nodes, edges_a, edges_b, attr_map)

    edges: Set[Edge] = edges_a | edges_b

    # --- FUNCTIONAL slot resolution ---------------------------------------
    updated, conflicts = _resolve_functional_slots(
        nodes, edges, edges_a, edges_b, graph_a.revision, graph_b.revision, declarations
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


def _apply_rewrite(nodes, edges_a, edges_b, mapping: Dict[NodeId, NodeId]) -> None:
    """Drop the mapped-away nodes and push the rewrite through both edge
    sets, keeping side provenance intact."""
    for dropped in mapping:
        del nodes[dropped]
    _rewrite_edges(edges_a, mapping)
    _rewrite_edges(edges_b, mapping)


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


def _plan_event_coalescing(nodes, edges_a, edges_b, graph_a, declarations) -> Dict[NodeId, NodeId]:
    participant_entities: Dict[NodeId, Set[NodeId]] = {}
    for edge in chain(edges_a, edges_b):
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


def _plan_attr_dedup(nodes, edges_a, edges_b, graph_a) -> Dict[NodeId, NodeId]:
    """Attribute instances with the same type, bearer set and value set
    are one slot entry told twice; fold the B copy onto the A one."""
    bearers: Dict[NodeId, Set[NodeId]] = {}
    values: Dict[NodeId, Set[NodeId]] = {}
    for edge in chain(edges_a, edges_b):
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


def _resolve_functional_slots(nodes, edges, edges_a, edges_b, rev_a, rev_b, declarations):
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

    for event_id in sorted(attrs_by_event, key=str):
        event = nodes.get(event_id)
        if event is None or event.kind is not NodeKind.OCCURRENT or event.inst_of is None:
            continue
        slots: Dict[NodeId, list] = {}
        for attr_id in attrs_by_event[event_id]:
            attr = nodes.get(attr_id)
            if attr is None or attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
                continue
            slots.setdefault(attr.inst_of, []).append(attr_id)

        for attr_type in sorted(slots, key=str):
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


# Random canonicalized documents for the merge properties: a few subjects
# shared across the two sides (so ids meet, and aligned respellings fold
# events and attributes), CARD ONE/MANY events, FUNCTIONAL/MULTI slots and
# random revisions.
MERGE_RULES, _ = parse_rules(
    "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Place ont:City\n"
    "RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date\n"
    "RULE livesIn EVENT ont:Residence SUBJ participantIn OBJ ATTR ont:Place ont:City\n"
    "RULE wrote EVENT ont:Writing SUBJ hasAgent OBJ ATTR ont:Title ont:Text\n"
    "RULE met EVENT ont:Meeting SUBJ participantIn OBJ PARTICIPANT participantIn\n"
)
EVENT_TYPES = sorted({rule.event_type for rule in MERGE_RULES}, key=str)
ATTR_SLOTS = sorted(
    {(rule.event_type, rule.object_slot.attr_type) for rule in MERGE_RULES if isinstance(rule.object_slot, AttrSlot)},
    key=str,
)
SUBJECTS = ("Ada", "Ada L", "Bob")
OBJECTS = ("London", "Paris", "Ada", "Bob")


def declared(keys, choices):
    """Each key undeclared or given one of ``choices``.  Hypothesis leans
    toward a sample's first elements, so the declared ones come first."""
    return st.fixed_dictionaries({key: st.sampled_from((*choices, None)) for key in keys}).map(
        lambda drawn: {key: value for key, value in drawn.items() if value is not None}
    )


merge_declarations = st.builds(
    SchemaDeclarations,
    cardinality=declared(EVENT_TYPES, (Cardinality.ONE, Cardinality.MANY)),
    attr_modes=declared(ATTR_SLOTS, (AttrMode.FUNCTIONAL, AttrMode.MULTI)),
)


triple_lists = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS), st.sampled_from([rule.rel_name for rule in MERGE_RULES]), st.sampled_from(OBJECTS)
    ),
    max_size=8,
)


@st.composite
def revised(draw, triples):
    """A later telling of ``triples``: each one given another object or
    subject, kept, or dropped, plus a few new ones.  A new object for a
    FUNCTIONAL slot is what the revision-aware resolution acts on."""
    told = []
    for subject, relation, obj in triples:
        change = draw(st.sampled_from(("object", "subject", "keep", "drop")))
        if change == "subject":
            subject = draw(st.sampled_from(SUBJECTS))
        elif change == "object":
            obj = draw(st.sampled_from(OBJECTS))
        if change != "drop":
            told.append((subject, relation, obj))
    return told + draw(triple_lists.map(lambda extra: extra[:3]))


@st.composite
def canonical_documents(draw, triples=triple_lists, declarations=merge_declarations, revision=st.integers(0, 3)):
    doc, _ = canonicalize_document(
        tuple(FlatTriple(*t) for t in draw(triples)),
        MERGE_RULES,
        declarations=draw(declarations),
        source_id=draw(st.sampled_from(("", "wiki"))),
        revision=draw(revision),
    )
    return doc


@st.composite
def canonical_pairs(draw):
    """Two canonicalized documents, B often a revision of A."""
    triples_a = draw(triple_lists)
    doc_a = draw(canonical_documents(st.just(triples_a), revision=st.integers(1, 3)))
    rev_a = doc_a.graph.revision
    doc_b = draw(canonical_documents(
        st.one_of(revised(triples_a), triple_lists),
        st.one_of(st.just(doc_a.declarations), merge_declarations),
        st.sampled_from((rev_a - 1, rev_a + 1, rev_a)),
    ))
    return doc_a, doc_b


# Hand-built documents take shapes canonicalize never writes: events with
# several participants (so cardinality-ONE events chain into one group with
# several A-side members), an entity joined to one event by two relations,
# attributes with two bearers or on an entity, and ids of every kind on
# both sides.
HAND_EVENT_TYPES = (NodeId("ont", "Birth"), NodeId("ont", "Meeting"))
HAND_ATTR_TYPES = (NodeId("ont", "Place"), NodeId("ont", "Time"))
HAND_HUMAN, HAND_CITY = NodeId("core", "Human"), NodeId("ont", "City")
HAND_HIERARCHY = TypeHierarchy.from_edges(
    (type_id, None) for type_id in (*HAND_EVENT_TYPES, *HAND_ATTR_TYPES, HAND_HUMAN, HAND_CITY)
)
hand_declarations = st.builds(
    SchemaDeclarations,
    cardinality=declared(HAND_EVENT_TYPES, (Cardinality.ONE, Cardinality.MANY)),
    attr_modes=declared(
        [(event_type, attr_type) for event_type in HAND_EVENT_TYPES for attr_type in HAND_ATTR_TYPES],
        (AttrMode.FUNCTIONAL, AttrMode.MULTI),
    ),
)


@st.composite
def hand_built_pairs(draw):
    """Two valid documents over one pool of nodes: each side takes some of
    the pool and random edges among what it took."""
    def pool(namespace, kind, types, literals=(None,) * 5):
        return [
            Node(NodeId(namespace, str(k)), kind, type_id, literal)
            for k, (type_id, literal) in enumerate(zip(types, literals))
        ]

    def types(choices):
        return draw(st.lists(st.sampled_from(choices), min_size=5, max_size=5))

    nodes = [
        *pool("ent", NodeKind.CONTINUANT, [HAND_HUMAN] * 4),
        *pool("ev", NodeKind.OCCURRENT, types(HAND_EVENT_TYPES)),
        *pool("at", NodeKind.ATTRIBUTE_INSTANCE, types(HAND_ATTR_TYPES)),
        *pool("val", NodeKind.VALUE_LITERAL, [HAND_CITY] * 3, ("London", "Paris", "1955")),
    ]

    def side(declarations, revision):
        taken = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=12))
        of_kind = {kind: [node.id for node in taken if node.kind is kind] for kind in NodeKind}
        candidates = [
            Edge(subject, relation, obj)
            for subject_kind, relations, object_kinds in (
                (NodeKind.OCCURRENT, sorted(PARTICIPANT_RELATIONS), (NodeKind.CONTINUANT,)),
                (NodeKind.ATTRIBUTE_INSTANCE, [PrimitiveRelation.HAS_PROP], (NodeKind.OCCURRENT, NodeKind.CONTINUANT)),
                (NodeKind.ATTRIBUTE_INSTANCE, [PrimitiveRelation.HAS_VALUE], (NodeKind.VALUE_LITERAL,)),
            )
            for subject in of_kind[subject_kind]
            for relation in relations
            for object_kind in object_kinds
            for obj in of_kind[object_kind]
        ]
        edges = draw(st.lists(st.sampled_from(candidates), max_size=14)) if candidates else []
        graph = GroundedGraph({node.id: node for node in taken}, frozenset(edges), "hand", revision)
        assert validate_graph(graph, HAND_HIERARCHY).ok
        return GkgDocument(HAND_HIERARCHY, graph, declarations=declarations)

    declarations_a = draw(hand_declarations)
    rev_a = draw(st.integers(1, 3))
    doc_a = side(declarations_a, rev_a)
    doc_b = side(
        draw(st.one_of(st.just(declarations_a), hand_declarations)),
        draw(st.sampled_from((rev_a - 1, rev_a + 1, rev_a))),
    )
    return doc_a, doc_b


@st.composite
def merge_cases(draw):
    """Two documents, canonicalized or hand-built, a random one-to-one
    partial alignment of their continuants (now and then with a stray row,
    which may name a node that is none or repeat an id of another row)."""
    doc_a, doc_b = draw(st.one_of(canonical_pairs(), hand_built_pairs()))
    ids_a = sorted((n.id for n in doc_a.graph.continuants()), key=str)
    ids_b = sorted((n.id for n in doc_b.graph.continuants()), key=str)
    matches = []
    if ids_a and ids_b:
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(ids_a), st.sampled_from(ids_b)),
            max_size=3, unique_by=(lambda p: p[0], lambda p: p[1]),
        ))
        matches = [(a, b, 1.0) for a, b in pairs]
    if draw(st.sampled_from(range(20))) == 19:
        stray = sorted(doc_b.graph.nodes, key=str)
        matches.append((ids_a[0] if ids_a else NodeId("ent", "absent"), draw(st.sampled_from(stray)), 0.9))
    return doc_a, doc_b, AlignmentResult(matches=tuple(matches))


def oracle_merge_documents(doc_a, doc_b, alignment):
    """:func:`oracle_merge` of the graphs under the documents' unioned
    hierarchies and declarations, as ``merge_documents`` merges them;
    labels are left out."""
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    declarations = doc_a.declarations.merged_with(doc_b.declarations)
    graph, report = oracle_merge(doc_a.graph, doc_b.graph, alignment, declarations)
    return GkgDocument(hierarchy, graph, declarations=declarations), report


def run_merge(merge_fn, doc_a, doc_b, alignment):
    """The serialized document without labels and the report of one
    merge, or its error."""
    try:
        merged, report = merge_fn(doc_a, doc_b, alignment)
    except (AlignmentMismatchError, IdCollisionError) as exc:
        return type(exc), str(exc)
    return serialize_gkg(GkgDocument(merged.hierarchy, merged.graph, declarations=merged.declarations)), report.to_tsv()


# Ids no generated document holds as a node: parse_gkg accepts labels on them.
NON_NODE_IDS = (NodeId("ex", "ghost"), NodeId("t", "X"))


def partial_identity(doc, keep):
    return AlignmentResult(matches=tuple(
        (n.id, n.id, 1.0) for n, kept in zip(sorted(doc.graph.continuants(), key=lambda n: str(n.id)), keep) if kept
    ))


class TestMergeProperties:
    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, case):
        """Same serialized graph and report TSV, or the same error."""
        assert run_merge(merge_documents, *case) == run_merge(oracle_merge_documents, *case)

    def test_attribute_twin_found_through_a_folded_event(self):
        """A's ``at:a`` hangs on A's birth only through B's copy of it, on
        a B event that folds onto that birth; B's ``at:b`` hangs on another
        such event.  Both end on the same bearer and value, so ``at:b``
        folds onto ``at:a``, found through the events folded onto the
        bearer."""
        head = "T ont:Birth core:Entity\nN ent:x C core:Human\nN at:a A ont:Place\nN val:l V ont:City London\n"
        doc_a = parse_gkg(head + "N ev:a O ont:Birth\nE ev:a participantIn ent:x\nE at:a hasValue val:l\n")
        doc_b = parse_gkg(
            head + "N ev:b O ont:Birth\nN ev:c O ont:Birth\nN at:b A ont:Place\n"
            "E ev:b participantIn ent:x\nE ev:c participantIn ent:x\nE at:a hasProp ev:b\nE at:a hasValue val:l\n"
            "E at:b hasProp ev:c\nE at:b hasValue val:l\n"
        )
        case = (doc_a, doc_b, AlignmentResult())
        assert run_merge(merge_documents, *case) == run_merge(oracle_merge_documents, *case)
        merged, _ = merge_documents(doc_a, doc_b, AlignmentResult())
        assert NodeId("at", "b") not in merged.graph.nodes
        assert Edge(NodeId("at", "a"), PrimitiveRelation.HAS_PROP, NodeId("ev", "a")) in merged.graph.edges

    @given(
        st.one_of(canonical_documents(), st.integers(0, 10**6).map(random_document)),
        st.lists(st.booleans(), max_size=8),
        st.lists(st.tuples(st.sampled_from(NON_NODE_IDS), st.sampled_from(("en", "fr"))), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_self_merge_is_identity(self, doc, keep, stray_labels):
        """Under any part of the identity alignment a document merged with
        itself comes back unchanged and adds nothing, labels on ids that
        are no node included."""
        labels = doc.labels
        for node_id, lang in stray_labels:
            labels = labels.with_label(node_id, lang, node_id.local.capitalize())
        doc = GkgDocument(doc.hierarchy, doc.graph, labels, doc.declarations)
        merged, report = merge_documents(doc, doc, partial_identity(doc, keep))
        assert merged.graph == doc.graph
        assert serialize_gkg(merged) == serialize_gkg(doc)
        assert (report.added_nodes, report.added_edges) == (0, 0)
