"""Label tables, per-language rendering and the structural equality check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg import (
    Edge,
    GroundedGraph,
    LabelTable,
    LabeledView,
    NodeId,
    PrimitiveRelation,
    check_isomorphic,
    gloss_id,
    parse_gkg,
    render,
)

from .support import WORKED_TEXT, random_document

RW = NodeId("ex", "rw")


class TestLabelTable:
    def test_round_trip_single_entry(self):
        table = LabelTable.from_entries([(RW, "en", "Roger Waters")])
        assert table.get(RW, "en") == "Roger Waters"
        assert table.get(RW, "fr") is None
        assert table.entries == {(RW, "en"): "Roger Waters"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            LabelTable.from_entries([(RW, "en", "One"), (RW, "en", "Two")])

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            LabelTable.from_entries([(RW, "en", "")])

    def test_with_label_replaces(self):
        table = LabelTable().with_label(RW, "en", "One").with_label(RW, "en", "Two")
        assert table.get(RW, "en") == "Two"

    def test_entries_sort_by_id_text_then_language(self):
        table = (
            LabelTable()
            .with_label(NodeId("ex", "b"), "en", "B")
            .with_label(NodeId("ex.", "c"), "en", "C")
            .with_label(NodeId("ex", "a"), "fr", "A")
            .with_label(NodeId("ex", "a"), "en", "A")
        )
        keys = [key for key, _ in sorted(table.entries.items())]
        assert keys == sorted(keys, key=lambda k: (str(k[0]), k[1]))
        assert keys[0] == (NodeId("ex.", "c"), "en")


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


def oracle_render(graph: GroundedGraph, labels: LabelTable, lang: str) -> LabeledView:
    """``render`` before it read its labels over columns: one lookup chain
    per node and per relation."""
    node_labels = {}
    for node_id in graph.nodes:
        label = labels.get(node_id, lang)
        if label is None and lang != "en":
            label = labels.get(node_id, "en")
        node_labels[node_id] = label if label is not None else node_id.local
    glosses = {}
    for relation in PrimitiveRelation:
        gloss = labels.get(gloss_id(relation), lang)
        glosses[relation] = gloss if gloss is not None else relation.value
    return LabeledView(lang, node_labels, frozenset(graph.edges), glosses)


_LANGS = ("en", "fr", "de", "ar")


@st.composite
def _labeled_documents(draw):
    """A random document whose label table gains labels in several
    languages, on its nodes, on ids it does not hold and on ``rel:`` gloss
    ids; some nodes keep no label at all."""
    doc = random_document(draw(st.integers(0, 10**6)))
    ids = sorted(doc.graph.nodes) + [NodeId("ex", "absent")]
    keys = st.tuples(
        st.one_of(st.sampled_from(ids), st.sampled_from([gloss_id(relation) for relation in PrimitiveRelation])),
        st.sampled_from(_LANGS),
    )
    entries = dict(doc.labels.entries)
    entries.update(draw(st.dictionaries(keys, st.sampled_from(("Ann", "Анна", "آن", "a  b ")), max_size=12)))
    return doc.graph, LabelTable(entries)


class TestRenderAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_labeled_documents(), st.sampled_from((*_LANGS, "xx")))
    def test_random_documents(self, labeled, lang):
        graph, labels = labeled
        view, expected = render(graph, labels, lang), oracle_render(graph, labels, lang)
        assert view == expected
        # Equal dicts may differ in order, which sets how to_tsv breaks ties.
        assert list(view.node_labels.items()) == list(expected.node_labels.items())
        assert list(view.relation_glosses.items()) == list(expected.relation_glosses.items())
        assert view.to_tsv() == oracle_to_tsv(expected)


def oracle_to_tsv(self) -> str:
    """``LabeledView.to_tsv`` before its sort keys were built from id parts."""
    lines = []
    for node_id in sorted(self.node_labels, key=str):
        lines.append(f"{node_id}\t{self.node_labels[node_id]}")
    for edge in sorted(self.edges, key=lambda edge: (str(edge.subject), edge.relation.value, str(edge.obj))):
        lines.append(
            f"{self.node_labels[edge.subject]}"
            f"\t{self.relation_glosses[edge.relation]}"
            f"\t{self.node_labels[edge.obj]}"
        )
    return "".join(line + "\n" for line in lines)


# Namespaces hold ".", "-" and "!", which sort below ":", so that string
# order and part order differ ("a.:x" < "a:y", but ("a.", "x") > ("a", "y")).
# Local parts hold ":" too.  Few ids, so each subject has several edges.
_VIEW_IDS = st.one_of(
    st.builds(NodeId, st.sampled_from(("a", "a.", "a!")), st.sampled_from(("x", ":x", "x:", "y"))),
    st.builds(NodeId, st.text(alphabet="a.-!", min_size=1, max_size=3), st.text("xy:", min_size=1, max_size=2)),
)


@st.composite
def _views(draw):
    ids = draw(st.lists(_VIEW_IDS, min_size=1, max_size=8, unique=True))
    node_labels = {node_id: draw(st.text(alphabet="ab \t.", max_size=3)) for node_id in ids}
    ends = st.sampled_from(ids)
    edges = draw(st.frozensets(st.builds(Edge, ends, st.sampled_from(list(PrimitiveRelation)), ends), max_size=20))
    glosses = {relation: draw(st.sampled_from((relation.value, "g", ""))) for relation in PrimitiveRelation}
    return LabeledView("fr", node_labels, edges, glosses)


class TestToTsvAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_views())
    def test_views(self, view):
        assert view.to_tsv() == oracle_to_tsv(view)

    def test_string_order_not_part_order(self):
        first, second = NodeId("a.", "x"), NodeId("a", "y")
        view = LabeledView(
            "en",
            {second: "Y", first: "X"},
            frozenset({Edge(second, PrimitiveRelation.EQ, second), Edge(first, PrimitiveRelation.EQ, first)}),
            {relation: relation.value for relation in PrimitiveRelation},
        )
        assert view.to_tsv() == oracle_to_tsv(view) == "a.:x\tX\na:y\tY\nX\teq\tX\nY\teq\tY\n"

    def test_worked_document(self):
        graph, labels = worked_with_labels()
        for lang in ("en", "fr", "ar"):
            view = render(graph, labels, lang)
            assert view.to_tsv() == oracle_to_tsv(view)


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
        edge = Edge(NodeId("ex", "birth1"), PrimitiveRelation.HAS_AGENT, RW)
        extra = GroundedGraph(graph.nodes, graph.edges | {edge})
        result = check_isomorphic(render(graph, labels, "en"), render(extra, labels, "en"))
        assert not result.ok
        assert "hasAgent" in result.witness

    def test_result_rows(self):
        """The row ``gkg isocheck`` prints for each verdict."""
        graph, labels = worked_with_labels()
        view = render(graph, labels, "en")
        smaller = render(GroundedGraph(graph.nodes, frozenset()), labels, "en")
        assert check_isomorphic(view, view).to_tsv() == "ISOMORPHIC\n"
        witness = check_isomorphic(view, smaller).witness
        assert witness.startswith("edge only in first view: ")
        assert check_isomorphic(view, smaller).to_tsv() == f"NOT_ISOMORPHIC\t{witness}\n"

    def test_label_changes_are_invisible(self):
        graph, labels = worked_with_labels()
        relabeled = labels.with_label(RW, "en", "Someone Else Entirely")
        assert check_isomorphic(render(graph, labels, "en"), render(graph, relabeled, "en")).ok
