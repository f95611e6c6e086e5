"""Node/edge model, type hierarchy, validation and role inference."""

import copy
import pickle
import random
from collections import namedtuple
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg import (
    AlignmentResult,
    AttrMode,
    AttrSlot,
    CanonReport,
    Cardinality,
    CycleError,
    Edge,
    EntitySignature,
    FlatTriple,
    GkgDocument,
    GroundedGraph,
    IsomorphismResult,
    IssueKind,
    LabeledView,
    LabelTable,
    MergeReport,
    Node,
    NodeId,
    NodeKind,
    ParticipantSlot,
    PrimitiveRelation,
    RELATION_SIGNATURES,
    ROOT_TYPE,
    ReificationRule,
    RoleConceptDef,
    SchemaDeclarations,
    TypeHierarchy,
    UnknownNodeError,
    UnknownTypeError,
    UpdateEntry,
    ValidationIssue,
    ValidationReport,
    ValueConflict,
    infer_role_labels,
    validate_graph,
)

from gkg.model import Adjacency, _ForwardLinks

from .support import random_document, reachable


def tid(name: str) -> NodeId:
    return NodeId("t", name)


class TestNodeId:
    def test_parse_splits_on_first_colon(self):
        node_id = NodeId.parse("ont:Birth")
        assert node_id.namespace == "ont"
        assert node_id.local == "Birth"

    def test_parse_keeps_later_colons_in_local(self):
        assert NodeId.parse("a:b:c") == NodeId("a", "b:c")

    @pytest.mark.parametrize("bad", ["noColon", ":x", "x:", "a b:c", "a:b c", "é:x"])
    def test_rejects_bad_ids(self, bad):
        with pytest.raises(ValueError):
            NodeId.parse(bad)

    def test_str_round_trip(self):
        assert str(NodeId.parse("ex:rw")) == "ex:rw"


_ID = NodeId("ent", "a73a7c3b4094aa5c")
_TYPE = NodeId("ont", "Birth")

# One sample of each value type, its plain field tuple and its repr.
_VALUES = [
    (_ID, ("ent", "a73a7c3b4094aa5c"), "NodeId(namespace='ent', local='a73a7c3b4094aa5c')"),
    (
        Node(_ID, NodeKind.VALUE_LITERAL, _TYPE, "it's"),
        (_ID, NodeKind.VALUE_LITERAL, _TYPE, "it's"),
        "Node(id=NodeId(namespace='ent', local='a73a7c3b4094aa5c'), kind=<NodeKind.VALUE_LITERAL: 'V'>, "
        "inst_of=NodeId(namespace='ont', local='Birth'), literal=\"it's\")",
    ),
    (
        Node(_ID, NodeKind.CONTINUANT),
        (_ID, NodeKind.CONTINUANT, None, None),
        "Node(id=NodeId(namespace='ent', local='a73a7c3b4094aa5c'), kind=<NodeKind.CONTINUANT: 'C'>, "
        "inst_of=None, literal=None)",
    ),
    (
        Edge(_TYPE, PrimitiveRelation.PARTICIPANT_IN, _ID),
        (_TYPE, PrimitiveRelation.PARTICIPANT_IN, _ID),
        "Edge(subject=NodeId(namespace='ont', local='Birth'), "
        "relation=<PrimitiveRelation.PARTICIPANT_IN: 'participantIn'>, "
        "obj=NodeId(namespace='ent', local='a73a7c3b4094aa5c'))",
    ),
]
_FIELDS = {
    NodeId: ("namespace", "local"),
    Node: ("id", "kind", "inst_of", "literal"),
    Edge: ("subject", "relation", "obj"),
}

# Namespaces with characters that sort before ":", where the order of the
# string form and the order of the (namespace, local) pair disagree.
_ordered_ids = st.builds(
    NodeId,
    st.text(alphabet="a.-09", min_size=1, max_size=3),
    st.text(alphabet="a:.-9", min_size=1, max_size=3),
)


class TestValueTypes:
    @pytest.mark.parametrize("value, fields, _repr", _VALUES)
    def test_fields_hash_and_equality_are_the_field_tuple(self, value, fields, _repr):
        assert tuple(getattr(value, name) for name in _FIELDS[type(value)]) == fields
        assert hash(value) == hash(fields)  # the hash of the former frozen dataclass
        assert value == fields and tuple(value) == fields

    @pytest.mark.parametrize("value, fields, expected", _VALUES)
    def test_repr(self, value, fields, expected):
        assert repr(value) == expected

    @pytest.mark.parametrize("value, fields, _repr", _VALUES)
    def test_fields_are_read_only(self, value, fields, _repr):
        for name in _FIELDS[type(value)]:
            with pytest.raises(AttributeError):
                setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value, fields, _repr", _VALUES)
    def test_copy_deepcopy_and_pickle_round_trip(self, value, fields, _repr):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies.extend(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        for other in copies:
            assert type(other) is type(value) and other == value and hash(other) == hash(value)

    def test_equal_string_forms_stay_distinct(self):
        left, right = NodeId("a:b", "c"), NodeId("a", "b:c")
        assert str(left) == str(right) and left != right
        assert len({left, right}) == 2
        assert Node(left, NodeKind.CONTINUANT) != Node(right, NodeKind.CONTINUANT)
        assert Edge(left, PrimitiveRelation.DEP, _ID) != Edge(right, PrimitiveRelation.DEP, _ID)

    def test_tuple_and_string_order_disagree_here(self):
        dotted, plain = NodeId("a.", "x"), NodeId("a", "y")
        assert tuple(dotted) > tuple(plain) and dotted < plain
        assert max(dotted, plain) == plain and min(dotted, plain) == dotted

    @settings(max_examples=200, deadline=None)
    @given(_ordered_ids, _ordered_ids)
    def test_comparisons_follow_the_string_form(self, left, right):
        assert (left < right) == (str(left) < str(right))
        assert (left > right) == (str(left) > str(right))
        assert (left <= right) == (str(left) <= str(right))
        assert (left >= right) == (str(left) >= str(right))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ordered_ids, max_size=8))
    def test_sorted_min_max_follow_the_string_form(self, ids):
        assert sorted(ids) == sorted(ids, key=str)
        if ids:
            assert min(ids) is min(ids, key=str)
            assert max(ids) is max(ids, key=str)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ordered_ids, min_size=1, max_size=8, unique_by=str), st.randoms(use_true_random=False))
    def test_nodes_and_edges_sort_by_the_string_form(self, ids, rng):
        nodes = [Node(node_id, NodeKind.CONTINUANT, _TYPE) for node_id in ids]
        assert sorted(nodes) == sorted(nodes, key=lambda node: str(node.id))
        relations = list(PrimitiveRelation)
        edges = [Edge(rng.choice(ids), rng.choice(relations), rng.choice(ids)) for _ in range(8)]
        assert sorted(edges) == sorted(edges, key=Edge.sort_key)
        assert min(edges) == min(edges, key=Edge.sort_key)
        assert max(edges) == max(edges, key=Edge.sort_key)


_EVENT = NodeId("ev", "Birth#1")
_PLACE = NodeId("t", "Place")
_AGENT = PrimitiveRelation.HAS_AGENT

# One factory per value type that is not NodeId, Node or Edge, with its
# field names in order and whether it hashes (a dict field makes it
# unhashable).
_RECORDS = [
    (lambda: RoleConceptDef("Teacher", _TYPE, _AGENT, _PLACE), ("role_name", "base_type", "via", "occurrent_type"), True),
    (lambda: TypeHierarchy.from_edges([(_TYPE, None)]), ("types", "parents"), False),
    (lambda: GroundedGraph({_ID: Node(_ID, NodeKind.CONTINUANT, _TYPE)}, frozenset({Edge(_EVENT, _AGENT, _ID)}), "s", 2),
     ("nodes", "edges", "source_id", "revision"), False),
    (lambda: ValidationIssue(IssueKind.UNTYPED_NODE, "ent:x", "non-type node without inst_of"),
     ("kind", "context", "message"), True),
    (lambda: ValidationReport((ValidationIssue(IssueKind.UNTYPED_NODE, "ent:x", "m"),)), ("issues",), True),
    (lambda: LabelTable({(_ID, "en"): "Ada"}), ("entries",), False),
    (lambda: LabeledView("fr", {_ID: "Ada"}, frozenset(), {_AGENT: "agent"}),
     ("lang", "node_labels", "edges", "relation_glosses"), False),
    (lambda: IsomorphismResult(False, "node only in first view: ent:x"), ("ok", "witness"), True),
    (lambda: AttrSlot(_TYPE, _PLACE), ("attr_type", "value_type"), True),
    (lambda: ParticipantSlot(_AGENT), ("role",), True),
    (lambda: ReificationRule("bornIn", _TYPE, _AGENT, AttrSlot(_PLACE, _TYPE)),
     ("rel_name", "event_type", "subject_role", "object_slot"), True),
    (lambda: SchemaDeclarations(frozenset({_TYPE}), {_TYPE: Cardinality.MANY}, {(_TYPE, _PLACE): AttrMode.FUNCTIONAL}),
     ("essential", "cardinality", "attr_modes", "roles"), False),
    (lambda: FlatTriple("Ada", "bornIn", "London"), ("e1", "r", "e2"), True),
    (lambda: GkgDocument(TypeHierarchy.from_edges([(_TYPE, None)]), GroundedGraph()),
     ("hierarchy", "graph", "labels", "declarations"), False),
    (lambda: EntitySignature({"name": (0.6, 0.8)}), ("slots",), False),
    (lambda: AlignmentResult(((_ID, _EVENT, 0.95),), ((_PLACE, ((_ID, 0.93),)),)), ("matches", "ambiguous"), True),
    (lambda: ValueConflict(_EVENT, _PLACE, ("London", "Paris")), ("event", "attr_type", "literals"), True),
    (lambda: CanonReport(3, 2, frozenset({"diedIn"}), 4, ()),
     ("events_created", "events_coalesced", "unmapped_relations", "entity_nodes_created", "value_conflicts"), True),
    (lambda: UpdateEntry(_EVENT, _PLACE, ("Paris",), ("London",), 2),
     ("event", "attr_type", "old_values", "new_values", "winner_revision"), True),
    (lambda: MergeReport(1, ((_ID, _EVENT),), (), (), 3, 4),
     ("merged", "pairs", "updated", "conflicts", "added_nodes", "added_edges"), True),
]


@pytest.mark.parametrize("make, fields, hashable", _RECORDS, ids=[type(make()).__name__ for make, _, _ in _RECORDS])
class TestRecordTypes:
    """The value types behave as the frozen dataclasses they replaced: equal
    only to their own type, immutable, with the dataclass repr."""

    def test_equal_fields_give_equal_values(self, make, fields, hashable):
        value, again = make(), make()
        assert value == again and not value != again
        if hashable:
            assert hash(value) == hash(again)
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_fields_are_read_only(self, make, fields, hashable):
        value = make()
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    def test_other_types_with_equal_fields_compare_unequal(self, make, fields, hashable):
        value = make()
        field_values = tuple(getattr(value, name) for name in fields)
        twin = namedtuple("Twin", fields)(*field_values)
        assert value != field_values and field_values != value and value != twin
        for other in (other_make() for other_make, _, _ in _RECORDS if other_make is not make):
            assert value != other and other != value

    def test_repr_copy_and_pickle(self, make, fields, hashable):
        value = make()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{type(value).__name__}({shown})"
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies.extend(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        for other in copies:
            assert type(other) is type(value) and other == value


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FlatTriple("", "bornIn", "London"), "flat triple field e1 is empty"),
        (lambda: FlatTriple("Ada", "born\tIn", "London"), "flat triple field r contains a tab or a line break"),
        (lambda: FlatTriple("Ada", "bornIn", "Lon\ndon"), "flat triple field e2 contains a tab or a line break"),
        (lambda: FlatTriple("Ada", "bornIn", " London"), "flat triple field e2 starts with whitespace"),
        (lambda: FlatTriple("Ada", "bornIn", " \u00a0"), "flat triple field e2 is blank"),
        (lambda: ParticipantSlot(PrimitiveRelation.HAS_VALUE), "object role must be a participant relation, got hasValue"),
        (lambda: ReificationRule("bornIn", _TYPE, PrimitiveRelation.IS_A, ParticipantSlot(_AGENT)),
         "subject role must be a participant relation, got isA"),
        (lambda: RoleConceptDef("Teacher", _TYPE, PrimitiveRelation.DEP, _PLACE),
         "role via must be a participant relation, got dep"),
        (lambda: RoleConceptDef("Head teacher", _TYPE, _AGENT, _PLACE),
         "role name must be non-empty without whitespace: 'Head teacher'"),
        (lambda: RoleConceptDef("", _TYPE, _AGENT, _PLACE), "role name must be non-empty without whitespace: ''"),
    ],
)
def test_validating_constructors_keep_their_messages(make, message):
    with pytest.raises(ValueError) as error:
        make()
    assert str(error.value) == message


def oracle_node_id_error(namespace: str, local: str) -> Optional[str]:
    """The id rule as first written, one isspace() call per character:
    the message NodeId must raise for these parts, or None."""
    combined = f"{namespace}:{local}"
    if not namespace or not local:
        return f"node id needs a namespace and a local part: {combined!r}"
    if not combined.isascii() or any(ch.isspace() for ch in combined):
        return f"node id must be ASCII without whitespace: {combined!r}"
    return None


def node_id_error(namespace: str, local: str) -> Optional[str]:
    try:
        NodeId(namespace, local)
    except ValueError as exc:
        return str(exc)
    return None


def _placed(ch: str):
    """``ch`` at the start, in the middle and at the end of a part."""
    return (ch + "ab", "a" + ch + "b", "ab" + ch)


class TestNodeIdAgainstOracle:
    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character_everywhere(self, code):
        ch = chr(code)
        for part in _placed(ch) + (ch,):
            for namespace, local in ((part, "x"), ("x", part), (part, part)):
                assert node_id_error(namespace, local) == oracle_node_id_error(namespace, local)

    @pytest.mark.parametrize("ch", ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c", " ", "\x85", "\xa0", "\u3000"])
    def test_unusual_whitespace_is_rejected(self, ch):
        for part in _placed(ch):
            assert node_id_error(part, "x") is not None
            assert node_id_error("x", part) is not None

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=6), st.text(max_size=6))
    def test_any_text_matches_oracle(self, namespace, local):
        assert node_id_error(namespace, local) == oracle_node_id_error(namespace, local)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("ab:\t \x1c\x1f\x7fé\xa0\u2028"), max_size=6))
    def test_parse_matches_oracle(self, text):
        namespace, sep, local = text.partition(":")
        try:
            NodeId.parse(text)
            got = None
        except ValueError as exc:
            got = str(exc)
        want = f"node id must contain a colon: {text!r}" if not sep else oracle_node_id_error(namespace, local)
        assert got == want


class TestTypeHierarchy:
    def test_root_only(self):
        h = TypeHierarchy.from_edges(())
        assert h.is_subtype(ROOT_TYPE, ROOT_TYPE)
        assert h.types == frozenset({ROOT_TYPE})

    def test_parentless_type_gets_the_root_as_parent(self):
        h = TypeHierarchy.from_edges([(tid("A"), None)])
        assert h.parents[tid("A")] == frozenset({ROOT_TYPE})
        assert h.is_subtype(tid("A"), ROOT_TYPE)

    def test_repeated_type_is_tolerated(self):
        once = TypeHierarchy.from_edges([(tid("A"), None), (tid("B"), tid("A"))])
        twice = TypeHierarchy.from_edges([(tid("A"), None), (tid("B"), tid("A"))] * 2 + [(tid("B"), None)])
        assert twice == once

    def test_unlisted_parent_is_registered(self):
        h = TypeHierarchy.from_edges([(tid("A"), tid("Missing"))])
        assert h.types == {ROOT_TYPE, tid("A"), tid("Missing")}
        assert h.parents[tid("Missing")] == frozenset({ROOT_TYPE})
        assert h.is_subtype(tid("A"), tid("Missing"))

    def test_multi_parent_dag(self):
        h = TypeHierarchy.from_edges(
            [(tid("A"), None), (tid("B"), None), (tid("C"), tid("A")), (tid("C"), tid("B"))]
        )
        assert h.is_subtype(tid("C"), tid("A"))
        assert h.is_subtype(tid("C"), tid("B"))
        assert not h.is_subtype(tid("A"), tid("B"))

    def test_everything_descends_from_root(self):
        h = TypeHierarchy.from_edges([(tid("A"), None), (tid("B"), tid("A"))])
        for type_id in h.types:
            assert h.is_subtype(type_id, ROOT_TYPE)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError) as exc:
            TypeHierarchy.from_edges([(tid("A"), tid("B")), (tid("B"), tid("A"))])
        assert "t:A" in str(exc.value) and "t:B" in str(exc.value)

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            TypeHierarchy.from_edges([(tid("A"), tid("A"))])

    def test_is_subtype_unknown_type(self):
        h = TypeHierarchy.from_edges(())
        with pytest.raises(UnknownTypeError):
            h.is_subtype(tid("Ghost"), ROOT_TYPE)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_is_subtype_matches_reachability_oracle(self, seed):
        rng = random.Random(seed)
        ids = [tid(f"N{i}") for i in range(rng.randint(1, 20))]
        pairs = []
        for i, type_id in enumerate(ids):
            for parent in rng.sample(ids[:i], min(i, rng.randint(0, 2))):
                pairs.append((type_id, parent))
            if not pairs or pairs[-1][0] != type_id:
                pairs.append((type_id, None))
        h = TypeHierarchy.from_edges(pairs)
        for a in ids:
            expected = reachable(h.parents, a)
            for b in ids:
                assert h.is_subtype(a, b) == (b in expected)
            assert h.ancestors(a) == expected | {ROOT_TYPE}
            assert h.ancestors(a) is h.ancestors(a)

    def test_answered_ancestors_leave_equality_and_repr(self):
        pairs = [(tid("A"), None), (tid("B"), tid("A")), (tid("C"), tid("A")), (tid("C"), tid("B"))]
        asked, fresh = TypeHierarchy.from_edges(pairs), TypeHierarchy.from_edges(pairs)
        assert asked.ancestors(tid("C")) == {tid("A"), tid("B"), tid("C"), ROOT_TYPE}
        assert asked == fresh
        assert repr(asked) == repr(fresh)

    def test_partial_order_on_dag(self):
        h = TypeHierarchy.from_edges(
            [(tid("A"), None), (tid("B"), tid("A")), (tid("C"), tid("B"))]
        )
        types = sorted(h.types)
        for a in types:
            assert h.is_subtype(a, a)  # reflexive
            for b in types:
                for c in types:
                    if h.is_subtype(a, b) and h.is_subtype(b, c):
                        assert h.is_subtype(a, c)  # transitive
                if h.is_subtype(a, b) and h.is_subtype(b, a):
                    assert a == b  # antisymmetric


def small_graph():
    """One of each kind, all typed with the root."""
    h = TypeHierarchy.from_edges(())
    nodes = {
        NodeId("x", "c"): Node(NodeId("x", "c"), NodeKind.CONTINUANT, inst_of=ROOT_TYPE),
        NodeId("x", "o"): Node(NodeId("x", "o"), NodeKind.OCCURRENT, inst_of=ROOT_TYPE),
        NodeId("x", "a"): Node(NodeId("x", "a"), NodeKind.ATTRIBUTE_INSTANCE, inst_of=ROOT_TYPE),
        NodeId("x", "v"): Node(NodeId("x", "v"), NodeKind.VALUE_LITERAL, inst_of=ROOT_TYPE, literal="7"),
        ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE),
    }
    return GroundedGraph(nodes), h


def with_edge(graph, subject, relation, obj):
    return GroundedGraph(graph.nodes, graph.edges | {Edge(subject, relation, obj)})


class TestEdgesAndSignatures:
    def test_legal_edge_validates_clean(self):
        g, h = small_graph()
        g2 = with_edge(g, NodeId("x", "o"), PrimitiveRelation.PARTICIPANT_IN, NodeId("x", "c"))
        assert validate_graph(g2, h).ok
        assert len(g.edges) == 0  # the original graph is untouched

    def test_signature_violation_is_reported(self):
        g, h = small_graph()
        g2 = with_edge(g, NodeId("x", "c"), PrimitiveRelation.IS_A, ROOT_TYPE)
        assert validate_graph(g2, h).issues == (
            ValidationIssue(
                IssueKind.SIGNATURE_VIOLATION,
                "x:c isA core:Entity",
                "isA does not admit (CONTINUANT, TYPE_NODE)",
            ),
        )

    def test_edge_to_unknown_node_is_dangling(self):
        g, h = small_graph()
        g2 = with_edge(g, NodeId("x", "c"), PrimitiveRelation.DEP, NodeId("x", "ghost"))
        assert validate_graph(g2, h).issues == (
            ValidationIssue(IssueKind.DANGLING_REFERENCE, "x:c dep x:ghost", "missing object x:ghost"),
        )
        with pytest.raises(UnknownNodeError):
            g2.node(NodeId("x", "ghost"))

    def test_eq_requires_same_kind(self):
        assert admitted(PrimitiveRelation.EQ, NodeKind.CONTINUANT, NodeKind.CONTINUANT)
        assert not admitted(PrimitiveRelation.EQ, NodeKind.CONTINUANT, NodeKind.OCCURRENT)

    def test_has_value_only_attr_to_value(self):
        assert admitted(PrimitiveRelation.HAS_VALUE, NodeKind.ATTRIBUTE_INSTANCE, NodeKind.VALUE_LITERAL)
        assert not admitted(PrimitiveRelation.HAS_VALUE, NodeKind.CONTINUANT, NodeKind.VALUE_LITERAL)

    def test_is_part_of_never_mixes_continuant_and_occurrent(self):
        assert admitted(PrimitiveRelation.IS_PART_OF, NodeKind.CONTINUANT, NodeKind.CONTINUANT)
        assert admitted(PrimitiveRelation.IS_PART_OF, NodeKind.OCCURRENT, NodeKind.OCCURRENT)
        assert not admitted(PrimitiveRelation.IS_PART_OF, NodeKind.CONTINUANT, NodeKind.OCCURRENT)

    def test_inst_rejects_type_subject(self):
        assert not admitted(PrimitiveRelation.INST, NodeKind.TYPE_NODE, NodeKind.TYPE_NODE)


def admitted(relation: PrimitiveRelation, subject_kind: NodeKind, object_kind: NodeKind) -> bool:
    """Whether ``validate_graph`` lets ``relation`` join a node of
    ``subject_kind`` to one of ``object_kind``; ``RELATION_SIGNATURES``
    must say the same."""
    subject, obj = NodeId("x", "s"), NodeId("x", "o")
    graph = GroundedGraph({subject: Node(subject, subject_kind), obj: Node(obj, object_kind)},
                          frozenset({Edge(subject, relation, obj)}))
    issues = validate_graph(graph, TypeHierarchy.from_edges(())).issues
    allowed = all(issue.kind is not IssueKind.SIGNATURE_VIOLATION for issue in issues)
    assert allowed == ((subject_kind, object_kind) in RELATION_SIGNATURES[relation])
    return allowed


class TestAdjacency:
    def test_links_indexed_both_ways_in_edge_order(self):
        c, o1, o2, a1, a2, v = (NodeId("x", name) for name in ("c", "o1", "o2", "a1", "a2", "v"))
        rel = PrimitiveRelation
        adjacency = Adjacency([
            Edge(o2, rel.HAS_OBJECT, c),
            Edge(o1, rel.PARTICIPANT_IN, c),
            Edge(a1, rel.HAS_PROP, o1),
            Edge(a1, rel.HAS_PROP, c),
            Edge(a2, rel.HAS_PROP, o1),
            Edge(a2, rel.HAS_VALUE, v),
            Edge(a1, rel.HAS_VALUE, v),
            Edge(o1, rel.PRECEDES, o2),
            Edge(c, rel.INST, ROOT_TYPE),
        ])
        assert adjacency.events_of == {c: [o2, o1]}
        assert adjacency.participants == {o2: [c], o1: [c]}
        assert adjacency.attrs_of == {o1: [a1, a2], c: [a1]}
        assert adjacency.bearers == {a1: [o1, c], a2: [o1]}
        assert adjacency.values == {a2: [v], a1: [v]}

    def test_one_entry_per_edge(self):
        """An entity that is both agent and participant of one event lists
        the event once per edge; the signature's fact sums count it so."""
        c, o = NodeId("x", "c"), NodeId("x", "o")
        adjacency = Adjacency([
            Edge(o, PrimitiveRelation.HAS_AGENT, c),
            Edge(o, PrimitiveRelation.PARTICIPANT_IN, c),
        ])
        assert adjacency.events_of == {c: [o, o]}
        assert adjacency.participants == {o: [c, c]}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        Edge,
        st.sampled_from([NodeId("x", name) for name in "abcd"]),
        st.sampled_from(list(PrimitiveRelation)),
        st.sampled_from([NodeId("x", name) for name in "abcd"]),
    ), max_size=20))
    def test_forward_links_are_adjacency_without_the_maps_back(self, edges):
        """Signing and slot resolution read only the forward maps, which
        hold what the full adjacency holds, lists in the same order."""
        links, adjacency = _ForwardLinks(edges), Adjacency(edges)
        assert (links.events_of, links.attrs_of, links.values) == (
            adjacency.events_of, adjacency.attrs_of, adjacency.values
        )
        assert not hasattr(links, "participants") and not hasattr(links, "bearers")


class TestValidate:
    def test_worked_graph_is_clean(self, worked_doc):
        report = validate_graph(worked_doc.graph, worked_doc.hierarchy)
        assert report.ok
        assert report.issues == ()

    def test_dangling_edge_reported(self):
        g, h = small_graph()
        g = GroundedGraph(
            dict(g.nodes),
            frozenset({Edge(NodeId("x", "c"), PrimitiveRelation.DEP, NodeId("x", "ghost"))}),
        )
        report = validate_graph(g, h)
        assert [i.kind for i in report.issues] == [IssueKind.DANGLING_REFERENCE]

    def test_unknown_type_target_is_single_issue(self):
        h = TypeHierarchy.from_edges(())
        node = Node(NodeId("x", "c"), NodeKind.CONTINUANT, inst_of=tid("Ghost"))
        g = GroundedGraph({node.id: node}, frozenset())
        report = validate_graph(g, h)
        assert len(report.issues) == 1
        assert report.issues[0].kind is IssueKind.UNKNOWN_TYPE_TARGET

    def test_untyped_node_reported(self):
        node = Node(NodeId("x", "c"), NodeKind.CONTINUANT)
        g = GroundedGraph({node.id: node}, frozenset())
        report = validate_graph(g, TypeHierarchy.from_edges(()))
        assert [i.kind for i in report.issues] == [IssueKind.UNTYPED_NODE]

    def test_value_without_literal_reported(self):
        node = Node(NodeId("x", "v"), NodeKind.VALUE_LITERAL, inst_of=ROOT_TYPE)
        g = GroundedGraph({node.id: node, ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE)}, frozenset())
        report = validate_graph(g, TypeHierarchy.from_edges(()))
        assert any(i.kind is IssueKind.LITERAL_MISMATCH for i in report.issues)

    def test_literal_on_continuant_reported(self):
        node = Node(NodeId("x", "c"), NodeKind.CONTINUANT, inst_of=ROOT_TYPE, literal="oops")
        g = GroundedGraph({node.id: node, ROOT_TYPE: Node(ROOT_TYPE, NodeKind.TYPE_NODE)}, frozenset())
        report = validate_graph(g, TypeHierarchy.from_edges(()))
        assert any(i.kind is IssueKind.LITERAL_MISMATCH for i in report.issues)

    def test_report_is_sorted_and_deterministic(self):
        nodes = {
            NodeId("x", "b"): Node(NodeId("x", "b"), NodeKind.CONTINUANT),
            NodeId("x", "a"): Node(NodeId("x", "a"), NodeKind.CONTINUANT),
        }
        g = GroundedGraph(nodes, frozenset())
        r1 = validate_graph(g, TypeHierarchy.from_edges(()))
        r2 = validate_graph(g, TypeHierarchy.from_edges(()))
        assert r1 == r2
        contexts = [i.context for i in r1.issues]
        assert contexts == sorted(contexts)


def oracle_validate_graph(graph: GroundedGraph, hierarchy: TypeHierarchy) -> ValidationReport:
    """validate_graph as first written: nodes and edges visited in sorted
    order, every edge's context string built up front."""
    issues: list = []

    def report(kind: IssueKind, context, message: str) -> None:
        issues.append(ValidationIssue(kind, str(context), message))

    for node_id in sorted(graph.nodes, key=str):
        node = graph.nodes[node_id]
        if node.kind is NodeKind.TYPE_NODE:
            if node.inst_of is not None:
                report(IssueKind.TYPE_NODE_TYPED, node_id, "type node carries inst_of")
            if node.literal is not None:
                report(IssueKind.LITERAL_MISMATCH, node_id, "type node carries a literal")
            if node_id not in hierarchy:
                report(IssueKind.HIERARCHY_MISMATCH, node_id, "type node absent from hierarchy")
            continue
        if node.inst_of is None:
            report(IssueKind.UNTYPED_NODE, node_id, "non-type node without inst_of")
        elif node.inst_of not in hierarchy:
            report(IssueKind.UNKNOWN_TYPE_TARGET, node_id, f"inst target {node.inst_of} not in hierarchy")
        if node.kind is NodeKind.VALUE_LITERAL:
            if not node.literal:
                report(IssueKind.LITERAL_MISMATCH, node_id, "value literal without literal text")
        elif node.literal is not None:
            report(IssueKind.LITERAL_MISMATCH, node_id, "literal on a non-value node")

    for edge in sorted(graph.edges, key=Edge.sort_key):
        subject_node = graph.nodes.get(edge.subject)
        object_node = graph.nodes.get(edge.obj)
        context = f"{edge.subject} {edge.relation.value} {edge.obj}"
        if subject_node is None:
            report(IssueKind.DANGLING_REFERENCE, context, f"missing subject {edge.subject}")
        if object_node is None:
            report(IssueKind.DANGLING_REFERENCE, context, f"missing object {edge.obj}")
        if subject_node is None or object_node is None:
            continue
        if (subject_node.kind, object_node.kind) not in RELATION_SIGNATURES[edge.relation]:
            report(
                IssueKind.SIGNATURE_VIOLATION,
                context,
                f"{edge.relation.value} does not admit "
                f"({subject_node.kind.name}, {object_node.kind.name})",
            )

    return ValidationReport(tuple(sorted(issues, key=ValidationIssue.sort_key)))


def faulty_graph(seed: int):
    """A random valid document's graph with faults injected: dangling
    endpoints, signature violations, untyped nodes, stray and missing
    literals, typed or unknown type nodes, unknown inst targets, and two
    ids with one string form."""
    doc = random_document(seed)
    rng = random.Random(seed)
    nodes = dict(doc.graph.nodes)
    edges = set(doc.graph.edges)
    kinds = list(NodeKind)
    relations = list(PrimitiveRelation)
    ghosts = [NodeId("ghost", f"g{i}") for i in range(3)]

    def fresh(prefix: str) -> NodeId:
        return NodeId("x", f"{prefix}{len(nodes)}")

    for _ in range(rng.randint(0, 4)):
        node_id = fresh("untyped")
        nodes[node_id] = Node(node_id, rng.choice(kinds[1:]))
    for _ in range(rng.randint(0, 3)):
        node_id = fresh("stray")
        kind = rng.choice(kinds)
        literal = rng.choice((None, "", "text")) if kind is NodeKind.VALUE_LITERAL else "text"
        inst_of = None if kind is NodeKind.TYPE_NODE else rng.choice((ROOT_TYPE, tid("Unknown")))
        nodes[node_id] = Node(node_id, kind, inst_of=inst_of, literal=literal)
    if rng.random() < 0.5:
        nodes[tid("Typed")] = Node(tid("Typed"), NodeKind.TYPE_NODE, inst_of=ROOT_TYPE, literal="t")
    if rng.random() < 0.5:
        # Distinct ids whose string forms and issues coincide.
        for node_id in (NodeId("x:y", "z"), NodeId("x", "y:z")):
            nodes[node_id] = Node(node_id, NodeKind.CONTINUANT)
            edges.add(Edge(node_id, PrimitiveRelation.DEP, ghosts[0]))
    pool = sorted(nodes) + ghosts
    for _ in range(rng.randint(0, 15)):
        edges.add(Edge(rng.choice(pool), rng.choice(relations), rng.choice(pool)))
    return GroundedGraph(nodes, frozenset(edges)), doc.hierarchy


class TestValidateAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_faulty_graphs_report_like_oracle(self, seed):
        graph, hierarchy = faulty_graph(seed)
        assert validate_graph(graph, hierarchy) == oracle_validate_graph(graph, hierarchy)

    def test_faults_are_exercised(self):
        kinds = set()
        for seed in range(200):
            kinds |= {issue.kind for issue in oracle_validate_graph(*faulty_graph(seed)).issues}
        assert kinds == set(IssueKind)

    def test_valid_random_documents_stay_clean(self):
        for seed in range(50):
            doc = random_document(seed)
            assert validate_graph(doc.graph, doc.hierarchy) == oracle_validate_graph(doc.graph, doc.hierarchy)


HUMAN = tid("Human")
ADULT = tid("Adult")
TEACHING = tid("Teaching")

TEACHER = RoleConceptDef("Teacher", HUMAN, PrimitiveRelation.HAS_AGENT, TEACHING)


def teaching_graph(person_type=HUMAN, with_agent=True):
    h = TypeHierarchy.from_edges(
        [(HUMAN, None), (ADULT, HUMAN), (TEACHING, None)]
    )
    x = Node(NodeId("x", "p"), NodeKind.CONTINUANT, inst_of=person_type)
    o = Node(NodeId("x", "lesson"), NodeKind.OCCURRENT, inst_of=TEACHING)
    types = [Node(t, NodeKind.TYPE_NODE) for t in h.types]
    edges = set()
    if with_agent:
        edges.add(Edge(o.id, PrimitiveRelation.HAS_AGENT, x.id))
    g = GroundedGraph({n.id: n for n in [x, o, *types]}, frozenset(edges))
    assert validate_graph(g, h).ok
    return g, h


class TestRoleInference:
    def test_agent_of_teaching_is_teacher(self):
        g, h = teaching_graph()
        assert infer_role_labels(g, h, [TEACHER]) == ((NodeId("x", "p"), "Teacher"),)

    def test_no_edge_no_role(self):
        g, h = teaching_graph(with_agent=False)
        assert infer_role_labels(g, h, [TEACHER]) == ()

    def test_subtype_of_base_still_qualifies(self):
        g, h = teaching_graph(person_type=ADULT)
        assert infer_role_labels(g, h, [TEACHER]) == ((NodeId("x", "p"), "Teacher"),)

    def test_wrong_via_relation_does_not_qualify(self):
        g, h = teaching_graph()
        watcher = RoleConceptDef("Watcher", HUMAN, PrimitiveRelation.HAS_OBJECT, TEACHING)
        assert infer_role_labels(g, h, [watcher]) == ()

    def test_unknown_def_type_raises(self):
        g, h = teaching_graph()
        bad = RoleConceptDef("Teacher", tid("Ghost"), PrimitiveRelation.HAS_AGENT, TEACHING)
        with pytest.raises(UnknownTypeError):
            infer_role_labels(g, h, [bad])

    def test_role_def_rejects_non_participant_via(self):
        with pytest.raises(ValueError):
            RoleConceptDef("Teacher", HUMAN, PrimitiveRelation.IS_A, TEACHING)

    def test_monotone_under_added_edges(self):
        g, h = teaching_graph()
        before = set(infer_role_labels(g, h, [TEACHER]))
        g2 = with_edge(g, NodeId("x", "lesson"), PrimitiveRelation.PARTICIPANT_IN, NodeId("x", "p"))
        after = set(infer_role_labels(g2, h, [TEACHER]))
        assert before <= after
