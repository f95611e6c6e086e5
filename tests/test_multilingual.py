"""Label tables, per-language rendering and the structural equality check."""

import pytest

from gkg import (
    GroundedGraph,
    LabelTable,
    NodeId,
    PrimitiveRelation,
    check_isomorphic,
    gloss_id,
    parse_gkg,
    render,
)

from .support import WORKED_TEXT

RW = NodeId("ex", "rw")


class TestLabelTable:
    def test_round_trip_single_entry(self):
        table = LabelTable.from_entries([(RW, "en", "Roger Waters")])
        assert table.get(RW, "en") == "Roger Waters"
        assert table.get(RW, "fr") is None
        assert len(table) == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            LabelTable.from_entries([(RW, "en", "One"), (RW, "en", "Two")])

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            LabelTable.from_entries([(RW, "en", "")])

    def test_with_label_replaces(self):
        table = LabelTable().with_label(RW, "en", "One").with_label(RW, "en", "Two")
        assert table.get(RW, "en") == "Two"

    def test_items_sorted_deterministic(self):
        table = (
            LabelTable()
            .with_label(NodeId("ex", "b"), "en", "B")
            .with_label(NodeId("ex", "a"), "fr", "A")
            .with_label(NodeId("ex", "a"), "en", "A")
        )
        keys = [key for key, _ in table.items_sorted()]
        assert keys == sorted(keys, key=lambda k: (str(k[0]), k[1]))


def worked_with_labels():
    doc = parse_gkg(WORKED_TEXT)
    labels = doc.labels
    labels = labels.with_label(RW, "fr", "Roger Waters (musicien)")
    labels = labels.with_label(RW, "ar", "روجر ووترز")
    labels = labels.with_label(gloss_id(PrimitiveRelation.PARTICIPANT_IN), "fr", "participe a")
    labels = labels.with_label(gloss_id(PrimitiveRelation.HAS_VALUE), "fr", "a pour valeur")
    return doc.graph, labels


class TestRender:
    def test_requested_language_used(self):
        graph, labels = worked_with_labels()
        view = render(graph, labels, "fr")
        assert view.node_labels[RW] == "Roger Waters (musicien)"

    def test_fallback_to_english(self):
        graph, labels = worked_with_labels()
        view = render(graph, labels, "de")
        assert view.node_labels[RW] == "Roger Waters"

    def test_fallback_to_local_part(self):
        graph, labels = worked_with_labels()
        view = render(graph, labels, "en")
        assert view.node_labels[NodeId("ex", "birth1")] == "birth1"

    def test_relation_glosses_fall_back_to_canonical_name(self):
        graph, labels = worked_with_labels()
        view = render(graph, labels, "fr")
        assert view.relation_glosses[PrimitiveRelation.PARTICIPANT_IN] == "participe a"
        assert view.relation_glosses[PrimitiveRelation.HAS_PROP] == "hasProp"

    def test_arabic_labels(self):
        graph, labels = worked_with_labels()
        view = render(graph, labels, "ar")
        assert view.node_labels[RW] == "روجر ووترز"

    def test_tsv_shape(self):
        graph, labels = worked_with_labels()
        lines = render(graph, labels, "en").to_tsv().splitlines()
        widths = [len(line.split("\t")) for line in lines]
        node_rows = [w for w in widths if w == 2]
        edge_rows = [w for w in widths if w == 3]
        assert len(node_rows) == len(graph.nodes)
        assert len(edge_rows) == len(graph.edges)
        assert widths == sorted(widths)  # nodes first, then edges

    def test_tsv_deterministic(self):
        graph, labels = worked_with_labels()
        assert render(graph, labels, "fr").to_tsv() == render(graph, labels, "fr").to_tsv()


class TestIsomorphism:
    def test_translations_are_isomorphic(self):
        graph, labels = worked_with_labels()
        views = {lang: render(graph, labels, lang) for lang in ("en", "fr", "ar")}
        for lang_a in views:
            for lang_b in views:
                assert check_isomorphic(views[lang_a], views[lang_b]).ok

    def test_extra_node_witnessed(self):
        graph, labels = worked_with_labels()
        smaller = GroundedGraph(
            {k: v for k, v in graph.nodes.items() if k != NodeId("ex", "v1")},
            frozenset(e for e in graph.edges if e.obj != NodeId("ex", "v1")),
        )
        result = check_isomorphic(render(graph, labels, "en"), render(smaller, labels, "en"))
        assert not result.ok
        assert "ex:v1" in result.witness

    def test_extra_edge_witnessed(self):
        graph, labels = worked_with_labels()
        extra = graph.add_edge(NodeId("ex", "birth1"), PrimitiveRelation.HAS_AGENT, RW)
        result = check_isomorphic(render(graph, labels, "en"), render(extra, labels, "en"))
        assert not result.ok
        assert "hasAgent" in result.witness

    def test_label_changes_are_invisible(self):
        graph, labels = worked_with_labels()
        relabeled = labels.with_label(RW, "en", "Someone Else Entirely")
        assert check_isomorphic(render(graph, labels, "en"), render(graph, relabeled, "en")).ok
