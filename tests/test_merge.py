"""Alignment-driven merging, revision-aware slot resolution, reports."""

import pytest

from gkg import (
    AlignmentMismatchError,
    AlignmentResult,
    FlatTriple,
    IdCollisionError,
    MergePolicy,
    Node,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    canonicalize_document,
    merge,
    merge_documents,
    parse_gkg,
    parse_rules,
    serialize_gkg,
    validate_document,
)
from gkg.evaluation import demo_document

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
        assert report.conflicts[0].values == ("Washington", "WhiteHouse")

    def test_prefer_newer_off_never_resolves(self):
        doc_v1 = residence_doc("WhiteHouse", revision=1)
        doc_v2 = residence_doc("Washington", revision=2)
        rules, decls = parse_rules(RESIDENCE_RULES)
        policy = MergePolicy.from_declarations(decls, prefer_newer=False)
        merged, report = merge_documents(doc_v1, doc_v2, AlignmentResult(), policy=policy)
        assert value_literals(merged.graph) == {"WhiteHouse", "Washington"}
        assert len(report.conflicts) == 1

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


class TestMergeErrors:
    def test_alignment_naming_missing_node(self):
        doc = demo_document()
        ghost = NodeId("ent", "feedfacefeedface")
        entity = next(doc.graph.continuants()).id
        with pytest.raises(AlignmentMismatchError):
            merge(doc.graph, doc.graph, AlignmentResult(matches=((ghost, entity, 1.0),)))

    def test_alignment_naming_non_continuant(self):
        doc = demo_document()
        entity = next(doc.graph.continuants()).id
        event = next(n.id for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT)
        with pytest.raises(AlignmentMismatchError):
            merge(doc.graph, doc.graph, AlignmentResult(matches=((entity, event, 1.0),)))

    def test_id_collision_different_content(self):
        doc_a = parse_gkg("N ex:x C core:Thing\n")
        doc_b = parse_gkg("N ex:x O core:Thing\n")
        with pytest.raises(IdCollisionError):
            merge(doc_a.graph, doc_b.graph, AlignmentResult())
