"""Lifting flat triples into reified event graphs."""

import itertools
import random
import runpy
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkg.canonicalize
from gkg import (
    FlatTriple,
    GkgDocument,
    GkgError,
    IdCollisionError,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    canonicalize_document,
    normalize_relation_name,
    parse_rules,
    serialize_gkg,
    validate_document,
)
from gkg.canonicalize import (
    ATTRIBUTE_NAMESPACE,
    ENTITY_NAMESPACE,
    EVENT_NAMESPACE,
    VALUE_NAMESPACE,
    CanonReport,
    ValueConflict,
    _rules_by_token_key,
)
from gkg.cli import main
from gkg.embedding import tokenize
from gkg.hashing import fnv1a64_hex
from gkg.model import PARTICIPANT_RELATIONS, ROOT_TYPE, Edge, GroundedGraph, Node, TypeHierarchy
from gkg.multilingual import LabelTable
from gkg.schema import AttrMode, AttrSlot, Cardinality, ParticipantSlot, ReificationRule, SchemaDeclarations

BIRTH_RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
CARD ont:Birth ONE
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
"""

FORMATION_RULES = """\
RULE startedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE formedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
"""


def birth_doc(triples):
    rules, decls = parse_rules(BIRTH_RULES)
    return canonicalize_document(tuple(FlatTriple(*t) for t in triples), rules, declarations=decls)


class TestBirthScenario:
    TRIPLES = (
        ("RogerWaters", "bornIn", "Great Bookham"),
        ("RogerWaters", "bornOn", "01/08/1955"),
    )

    def test_one_event_two_attrs_two_values(self):
        doc, report = birth_doc(self.TRIPLES)
        kinds = {}
        for node in doc.graph.nodes.values():
            kinds.setdefault(node.kind, []).append(node)
        assert len(kinds[NodeKind.OCCURRENT]) == 1
        assert len(kinds[NodeKind.ATTRIBUTE_INSTANCE]) == 2
        assert len(kinds[NodeKind.VALUE_LITERAL]) == 2
        assert len(kinds[NodeKind.CONTINUANT]) == 1
        assert report.events_created == 1
        assert report.events_coalesced == 1
        assert report.entity_nodes_created == 1
        assert report.unmapped_relations == frozenset()

    def test_each_attr_has_exactly_one_value(self):
        doc, _ = birth_doc(self.TRIPLES)
        values_per_attr = {}
        for edge in doc.graph.edges:
            if edge.relation is PrimitiveRelation.HAS_VALUE:
                values_per_attr.setdefault(edge.subject, set()).add(edge.obj)
        assert sorted(len(v) for v in values_per_attr.values()) == [1, 1]

    def test_validates_clean(self):
        doc, _ = birth_doc(self.TRIPLES)
        assert validate_document(doc).ok

    def test_subject_label_recorded(self):
        doc, _ = birth_doc(self.TRIPLES)
        entity = next(doc.graph.continuants())
        assert doc.labels.get(entity.id, "en") == "RogerWaters"

    def test_order_insensitive(self):
        texts = {
            serialize_gkg(birth_doc(perm)[0]) for perm in itertools.permutations(self.TRIPLES)
        }
        assert len(texts) == 1


class TestSynonymCollapse:
    def test_byte_identical_serializations(self):
        rules, decls = parse_rules(FORMATION_RULES)
        doc_a, _ = canonicalize_document(
            (FlatTriple("PinkFloyd", "StartedIn", "London"),), rules, declarations=decls
        )
        doc_b, _ = canonicalize_document(
            (FlatTriple("PinkFloyd", "FormedIn", "London"),), rules, declarations=decls
        )
        assert serialize_gkg(doc_a) == serialize_gkg(doc_b)


class TestCardinality:
    MANY_RULES = """\
RULE visited EVENT ont:Visit SUBJ participantIn OBJ ATTR ont:Location ont:City
CARD ont:Visit MANY
"""

    def test_many_gives_fresh_event_per_triple(self):
        rules, decls = parse_rules(self.MANY_RULES)
        doc, report = canonicalize_document(
            (
                FlatTriple("Ada", "visited", "Paris"),
                FlatTriple("Ada", "visited", "Rome"),
            ),
            rules,
            declarations=decls,
        )
        events = [n for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
        assert len(events) == 2
        assert report.events_created == 2
        assert report.events_coalesced == 0

    def test_one_coalesces_redundant_triple(self):
        rules, decls = parse_rules(BIRTH_RULES)
        triples = (
            FlatTriple("Ada", "bornIn", "London"),
            FlatTriple("Ada", "bornIn", "London"),
        )
        doc, report = canonicalize_document(triples, rules, declarations=decls)
        events = [n for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
        assert len(events) == 1
        assert report.events_created + report.events_coalesced == 2


class TestFunctionalConflicts:
    def test_both_values_kept_and_flagged(self):
        rules, decls = parse_rules(BIRTH_RULES)
        doc, report = canonicalize_document(
            (
                FlatTriple("Ada", "bornIn", "London"),
                FlatTriple("Ada", "bornIn", "Paris"),
            ),
            rules,
            declarations=decls,
        )
        values = {n.literal for n in doc.graph.nodes.values() if n.kind is NodeKind.VALUE_LITERAL}
        assert values == {"London", "Paris"}
        assert len(report.value_conflicts) == 1
        conflict = report.value_conflicts[0]
        assert conflict.attr_type == NodeId("ont", "Location")
        assert conflict.literals == ("London", "Paris")

    def test_multi_mode_not_flagged(self):
        rules, _ = parse_rules(
            "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:City\n"
        )
        _, report = canonicalize_document(
            (
                FlatTriple("Ada", "bornIn", "London"),
                FlatTriple("Ada", "bornIn", "Paris"),
            ),
            rules,
        )
        assert report.value_conflicts == ()


class TestParticipantRules:
    MEMBER_RULES = """\
RULE memberOf EVENT ont:Membership SUBJ hasAgent OBJ PARTICIPANT hasObject
"""

    def test_object_becomes_entity_participant(self):
        rules, _ = parse_rules(self.MEMBER_RULES)
        doc, report = canonicalize_document(
            (FlatTriple("RogerWaters", "memberOf", "PinkFloyd"),), rules
        )
        continuants = {n.id for n in doc.graph.continuants()}
        assert len(continuants) == 2
        relations = {e.relation for e in doc.graph.edges}
        assert PrimitiveRelation.HAS_AGENT in relations
        assert PrimitiveRelation.HAS_OBJECT in relations
        assert report.entity_nodes_created == 2

    def test_entities_deduplicated_by_label(self):
        rules, _ = parse_rules(self.MEMBER_RULES)
        doc, report = canonicalize_document(
            (
                FlatTriple("a", "memberOf", "b"),
                FlatTriple("b", "memberOf", "c"),
            ),
            rules,
        )
        assert report.entity_nodes_created == 3
        assert len(list(doc.graph.continuants())) == 3


class TestUnmappedAndErrors:
    def test_unmapped_relation_recorded_not_fatal(self):
        rules, _ = parse_rules(FORMATION_RULES)
        doc, report = canonicalize_document(
            (
                FlatTriple("PinkFloyd", "FormedIn", "London"),
                FlatTriple("PinkFloyd", "disbandedIn", "1995"),
            ),
            rules,
        )
        assert report.unmapped_relations == frozenset({"disbandedIn"})
        assert report.events_created == 1

    def test_accounting_invariant(self):
        rules, decls = parse_rules(BIRTH_RULES)
        triples = tuple(
            FlatTriple(f"Person{i % 3}", "bornIn", f"City{i}") for i in range(9)
        )
        _, report = canonicalize_document(triples, rules, declarations=decls)
        assert report.events_created + report.events_coalesced == 9
        assert report.events_created == 3

    def test_entity_type_mapping_honored(self):
        """A type only the entity-type map names joins the hierarchy as a
        child of the root."""
        rules, _ = parse_rules(FORMATION_RULES)
        doc, _ = canonicalize_document(
            (FlatTriple("PinkFloyd", "FormedIn", "London"),),
            rules,
            entity_types={"PinkFloyd": NodeId("core", "Band")},
        )
        entity = next(doc.graph.continuants())
        assert entity.inst_of == NodeId("core", "Band")
        assert doc.hierarchy.parents[NodeId("core", "Band")] == frozenset({ROOT_TYPE})
        assert validate_document(doc).ok


class TestNormalizeRelationName:
    RULES, _ = parse_rules(FORMATION_RULES)

    @pytest.mark.parametrize(
        "label, expected",
        [
            ("startedIn", "startedIn"),
            ("started_in", "startedIn"),
            ("STARTED-IN", "startedIn"),
            ("FormedIn", "formedIn"),
            ("formed in", "formedIn"),
            ("foundedIn", None),
        ],
    )
    def test_token_level_matching(self, label, expected):
        rule = normalize_relation_name(label, self.RULES)
        assert (rule.rel_name if rule else None) == expected


def first_matching_rule(label, rules):
    """The rule lookup as a plain first-match scan, kept as the oracle for
    the token-key dict behind ``normalize_relation_name`` and canonicalize."""
    key = tuple(tokenize(label))
    for rule in rules:
        if tuple(tokenize(rule.rel_name)) == key:
            return rule
    return None


class TestRuleIndex:
    """``normalize_relation_name`` and ``canonicalize_document`` look rules
    up in ``_rules_by_token_key``; it must pick the first matching rule."""

    BENCH_CORPUS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "gkgbench" / "corpus.py"))

    def test_benchmark_spellings_meet_their_rule(self):
        rules, _ = parse_rules(self.BENCH_CORPUS["RULES_TEXT"])
        by_key = _rules_by_token_key(rules)
        for rel_name, spellings in self.BENCH_CORPUS["RELATION_SPELLINGS"].items():
            for label in spellings:
                rule = by_key.get(tuple(tokenize(label)))
                assert rule is first_matching_rule(label, rules)
                assert rule is normalize_relation_name(label, rules)
                assert rule.rel_name == rel_name

    @pytest.mark.parametrize("label", ["startedIn", "started_in", "STARTED-IN", "formed in", "foundedIn", ""])
    def test_first_rule_wins_on_equal_keys(self, label):
        formation, _ = parse_rules(FORMATION_RULES)
        birth, _ = parse_rules(BIRTH_RULES.replace("bornIn", "started_in").replace("bornOn", "formedIn"))
        for rules in (formation + birth, birth + formation, birth[:1] + formation + birth[1:]):
            rule = first_matching_rule(label, rules)
            assert _rules_by_token_key(rules).get(tuple(tokenize(label))) is rule
            assert normalize_relation_name(label, rules) is rule

    def test_canonicalize_uses_the_first_rule(self):
        formation, _ = parse_rules(FORMATION_RULES)
        birth, _ = parse_rules(BIRTH_RULES.replace("bornIn", "started_in"))
        triples = (FlatTriple("PinkFloyd", "StartedIn", "London"),)
        for rules, event_type in ((formation + birth, "ont:Formation"), (birth + formation, "ont:Birth")):
            doc, _ = canonicalize_document(triples, rules)
            events = [n for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
            assert [str(n.inst_of) for n in events] == [event_type]


def hashing_as(stand_in):
    """Patch canonicalize's scalar ``fnv1a64_hex`` and its batch
    ``fnv1a64_hex_many`` alike, so that each text is hashed as
    ``stand_in(text)``."""
    real, real_many = gkg.canonicalize.fnv1a64_hex, gkg.canonicalize.fnv1a64_hex_many
    return mock.patch.multiple(gkg.canonicalize, fnv1a64_hex=lambda text: real(stand_in(text)),
                               fnv1a64_hex_many=lambda texts: real_many([stand_in(text) for text in texts]))


class TestWorkOncePerDistinctInput:
    """``canonicalize_document`` hashes each distinct text once and
    tokenizes each distinct relation spelling once per call."""

    TRIPLES = (
        ("Ada", "bornIn", "London"),
        ("Ada", "bornIn", "London"),  # a duplicated triple
        ("Ada", "bornOn", "1815"),  # CARD ONE: the event key is the label "Ada"
        ("Bob", "born_in", "London"),  # a literal shared with Ada
        ("Cy", "Born In", "Paris"),  # bornIn, spelled a third way
        ("Cy", "diedIn", "Paris"),
        ("Bob", "diedIn", "Rome"),  # an unmapped spelling, seen twice
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        """Record every text canonicalize hashes, in a batch or one by one,
        and every label it tokenizes; yields ``(hashed texts, texts hashed
        one by one, tokenized labels)``."""
        hashed, one_by_one, tokenized = [], [], []
        real_tokenize = gkg.canonicalize.tokenize
        monkeypatch.setattr(gkg.canonicalize, "tokenize", lambda text: tokenized.append(text) or real_tokenize(text))
        with hashing_as(lambda text: hashed.append(text) or text):
            # Wrapped inside hashing_as, so this sees only the scalar path.
            scalar = gkg.canonicalize.fnv1a64_hex
            with mock.patch.object(gkg.canonicalize, "fnv1a64_hex", lambda text: one_by_one.append(text) or scalar(text)):
                yield hashed, one_by_one, tokenized

    def test_one_call_per_distinct_input(self, calls):
        hashed, one_by_one, tokenized = calls
        _, report = birth_doc(self.TRIPLES)
        assert (report.events_created, report.events_coalesced, report.unmapped_relations) == (3, 2, {"diedIn"})
        events = [f"ev:Birth#{fnv1a64_hex(label)}" for label in ("Ada", "Bob", "Cy")]
        # FUNCTIONAL attribute keys are the event id, shared by both slots.
        assert sorted(hashed) == sorted(["Ada", "Bob", "Cy", "London", "1815", "Paris", *events])
        # Every text went through a batch: the scalar path hashed nothing.
        assert one_by_one == []
        rule_names = ["bornIn", "bornOn"]
        assert sorted(tokenized) == sorted(rule_names + ["bornIn", "bornOn", "born_in", "Born In", "diedIn"])


class TestCanonReportTsv:
    def test_every_row_kind(self):
        report = CanonReport(
            events_created=3,
            events_coalesced=1,
            unmapped_relations=frozenset({"diedIn", "bandOf"}),
            entity_nodes_created=2,
            value_conflicts=(
                ValueConflict(NodeId("ev", "Birth#1"), NodeId("ont", "Location"), ("London", "Paris")),
            ),
        )
        assert report.to_tsv() == (
            "events_created\t3\n"
            "events_coalesced\t1\n"
            "entity_nodes_created\t2\n"
            "unmapped_relation\tbandOf\n"
            "unmapped_relation\tdiedIn\n"
            "value_conflict\tev:Birth#1\tont:Location\tLondon|Paris\n"
        )

    def test_empty_report(self):
        assert CanonReport().to_tsv() == "events_created\t0\nevents_coalesced\t0\nentity_nodes_created\t0\n"


class TestIdCollisions:
    """Content-derived ids drop the type namespace and hash labels to 64
    bits; two different facts that meet on one id are refused, through
    the API and through ``gkg canonicalize`` (exit 1, one ``gkg:`` line)."""

    # (rules, triples, the message's distinctive part): two facts that are
    # each fine alone, then an entity whose id is a declared type's.
    TWO_FACTS = {
        "event_types": (
            "RULE bornIn EVENT a:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village\n"
            "RULE bornOn EVENT b:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date\n",
            (("Ada", "bornIn", "London"), ("Ada", "bornOn", "1815")),
            "stands for both OCCURRENT a:Birth and OCCURRENT b:Birth",
        ),
        "value_types": (
            "RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time a:Date\n"
            "RULE diedOn EVENT ont:Death SUBJ participantIn OBJ ATTR ont:Time b:Date\n",
            (("Ada", "bornOn", "1815"), ("Ada", "diedOn", "1815")),
            "stands for both VALUE_LITERAL a:Date '1815' and VALUE_LITERAL b:Date '1815'",
        ),
        "attribute_types": (
            "RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR a:Place ont:Village\n"
            "RULE bornAt EVENT ont:Birth SUBJ participantIn OBJ ATTR b:Place ont:Village\n",
            (("Ada", "bornIn", "London"), ("Ada", "bornAt", "London")),
            "stands for both ATTRIBUTE_INSTANCE a:Place and ATTRIBUTE_INSTANCE b:Place",
        ),
    }
    CASES = {
        **TWO_FACTS,
        "entity_and_type": (
            "RULE knows EVENT ont:Meeting SUBJ participantIn OBJ PARTICIPANT participantIn\n"
            f"ESSENTIAL ent:{fnv1a64_hex('Bob')}\n",
            (("Ada", "knows", "Bob"),),
            "stands for both TYPE_NODE - and CONTINUANT core:Entity",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_facts_on_one_id_are_refused(self, case):
        rules_text, triples, message = self.CASES[case]
        rules, decls = parse_rules(rules_text)
        with pytest.raises(IdCollisionError, match=message):
            canonicalize_document(tuple(FlatTriple(*t) for t in triples), rules, declarations=decls)

    def test_each_fact_alone_is_accepted(self):
        for rules_text, triples, _message in self.TWO_FACTS.values():
            rules, decls = parse_rules(rules_text)
            for triple in triples:
                doc, _ = canonicalize_document((FlatTriple(*triple),), rules, declarations=decls)
                assert validate_document(doc).ok

    ADA_AND_BOB = (("Ada", "bornIn", "London"), ("Bob", "bornIn", "Paris"))

    @pytest.fixture
    def bob_hashes_as_ada(self):
        """Make ``Bob`` hash as ``Ada`` does; yields the expected message."""
        with hashing_as(lambda text: "Ada" if text == "Bob" else text):
            yield f"entity labels 'Ada' and 'Bob' share the id ent:{fnv1a64_hex('Ada')}"

    def test_entity_labels_with_one_hash(self, bob_hashes_as_ada):
        rules, decls = parse_rules(BIRTH_RULES)
        with pytest.raises(IdCollisionError, match=bob_hashes_as_ada):
            canonicalize_document(tuple(FlatTriple(*t) for t in self.ADA_AND_BOB), rules, declarations=decls)

    def _cli(self, tmp_path, capsys, rules_text, triples):
        (tmp_path / "r.rules").write_text(rules_text, encoding="utf-8")
        (tmp_path / "f.tsv").write_text("".join("\t".join(t) + "\n" for t in triples), encoding="utf-8")
        out = tmp_path / "out.gkg"
        code = main(["canonicalize", "--rules", str(tmp_path / "r.rules"), "--flat", str(tmp_path / "f.tsv"),
                     "-o", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (1, "", False)
        (line,) = captured.err.splitlines()
        return line

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_exits_1(self, tmp_path, capsys, case):
        rules_text, triples, message = self.CASES[case]
        line = self._cli(tmp_path, capsys, rules_text, triples)
        assert line.startswith("gkg: id ") and line.endswith(message)

    def test_cli_entity_labels_with_one_hash(self, tmp_path, capsys, bob_hashes_as_ada):
        assert self._cli(tmp_path, capsys, BIRTH_RULES, self.ADA_AND_BOB) == f"gkg: {bob_hashes_as_ada}"

    # (rules, triples, the key text hashed first, the key text made to hash
    # like it, the id's namespace and type): two keys of one kind on one id.
    ADA_EVENT = f"ev:Birth#{fnv1a64_hex('Ada')}"
    KEY_CASES = {
        "card_many_events": (
            BIRTH_RULES.replace("CARD ont:Birth ONE", "CARD ont:Birth MANY"),
            (("Ada", "bornIn", "London"), ("Ada", "bornIn", "Paris")),
            "Ada\tLondon", "Ada\tParis", "ev:Birth",
        ),
        "functional_attributes": (
            BIRTH_RULES,
            (("Ada", "bornIn", "London"), ("Bob", "bornIn", "London")),
            ADA_EVENT, f"ev:Birth#{fnv1a64_hex('Bob')}", "at:Location",
        ),
        "multi_attributes": (
            BIRTH_RULES.replace("ont:Location FUNCTIONAL", "ont:Location MULTI"),
            (("Ada", "bornIn", "London"), ("Ada", "bornIn", "Paris")),
            f"{ADA_EVENT}\tLondon", f"{ADA_EVENT}\tParis", "at:Location",
        ),
    }

    @pytest.fixture(params=sorted(KEY_CASES))
    def key_collision(self, request):
        """One case of ``KEY_CASES`` with its second key text hashing as
        the first; yields the rules, triples and expected message."""
        rules_text, triples, first, second, prefix = self.KEY_CASES[request.param]
        with hashing_as(lambda text: first if text == second else text):
            yield rules_text, triples, f"keys {first!r} and {second!r} share the id {prefix}#{fnv1a64_hex(first)}"

    def test_keys_with_one_hash(self, key_collision):
        rules_text, triples, message = key_collision
        rules, decls = parse_rules(rules_text)
        with pytest.raises(IdCollisionError) as caught:
            canonicalize_document(tuple(FlatTriple(*t) for t in triples), rules, declarations=decls)
        assert str(caught.value) == message

    def test_cli_keys_with_one_hash(self, tmp_path, capsys, key_collision):
        rules_text, triples, message = key_collision
        assert self._cli(tmp_path, capsys, rules_text, triples) == f"gkg: {message}"

    def test_each_key_alone_is_accepted(self):
        for rules_text, triples, *_ in self.KEY_CASES.values():
            rules, decls = parse_rules(rules_text)
            doc, _ = canonicalize_document(tuple(FlatTriple(*t) for t in triples), rules, declarations=decls)
            assert validate_document(doc).ok


# --- canonicalize against the record loop it replaced ------------------------

def oracle_canonicalize_document(
    triples: Iterable[FlatTriple],
    rules: Sequence[ReificationRule],
    declarations: Optional[SchemaDeclarations] = None,
    entity_types: Optional[Mapping[str, NodeId]] = None,
    source_id: str = "",
    revision: int = 0,
) -> Tuple[GkgDocument, CanonReport]:
    """``canonicalize_document`` before it planned each relation spelling
    and kept one id table per namespace and type: copied as it was, with
    its helpers ``_add`` and ``_content`` renamed, except that it hashes
    through ``gkg.canonicalize.fnv1a64_hex`` so that ``hashing_as``
    reaches both versions, and that it synthesizes the hierarchy and
    writes labels under ``en``, as ``canonicalize_document`` does."""
    entity_types = dict(entity_types or {})
    declarations = declarations or SchemaDeclarations()
    types = {type_id for rule in rules for type_id in rule.referenced_types()}
    types.update(declarations.referenced_types())
    types.update(entity_types.values())
    hierarchy = TypeHierarchy.from_edges((t, None) for t in sorted(types, key=str))

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
            found = hashes[text] = gkg.canonicalize.fnv1a64_hex(text)
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
        _oracle_add(nodes, node_id, NodeKind.CONTINUANT, entity_types.get(label, ROOT_TYPE))
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
        if _oracle_add(nodes, event_id, NodeKind.OCCURRENT, rule.event_type):
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
        _oracle_add(nodes, value_id, NodeKind.VALUE_LITERAL, slot.value_type, literal)
        mode = declarations.mode_of(rule.event_type, slot.attr_type)
        if mode is AttrMode.FUNCTIONAL:
            attr_id = keyed_id(ATTRIBUTE_NAMESPACE, slot.attr_type, str(event_id))
        else:
            attr_id = keyed_id(ATTRIBUTE_NAMESPACE, slot.attr_type, f"{event_id}\t{literal}")
        _oracle_add(nodes, attr_id, NodeKind.ATTRIBUTE_INSTANCE, slot.attr_type)
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
        (node_id, "en", label) for node_id, label in sorted(entity_labels.items(), key=lambda kv: str(kv[0]))
    )
    return GkgDocument(hierarchy, graph, labels, declarations), report


def _oracle_add(nodes: dict, node_id: NodeId, kind: NodeKind, inst_of: NodeId, literal: Optional[str] = None):
    """Add the node unless ``node_id`` already holds it; returns whether it
    was added.  An id that holds another node (another type or literal)
    would fold two facts into one, so that raises :class:`IdCollisionError`."""
    held = nodes.get(node_id)
    if held is None:
        nodes[node_id] = Node(node_id, kind, inst_of, literal)
        return True
    if held[1:] != (kind, inst_of, literal):
        raise IdCollisionError(
            f"id {node_id} stands for both {_oracle_content(*held[1:])} and {_oracle_content(kind, inst_of, literal)}"
        )
    return False


def _oracle_content(kind: NodeKind, inst_of: Optional[NodeId], literal: Optional[str]) -> str:
    text = f"{kind.name} {inst_of or '-'}"
    return text if literal is None else f"{text} {literal!r}"


# Types whose local parts meet, so event, attribute and value ids of two
# types can fall on one id; "ent:<hash of Bob>" is a type on Bob's id.
_EVENT_TYPES = (NodeId("a", "Birth"), NodeId("b", "Birth"), NodeId("ont", "Meeting"))
_ATTR_TYPES = (NodeId("a", "Place"), NodeId("b", "Place"), NodeId("ont", "Time"))
_VALUE_TYPES = (NodeId("a", "Date"), NodeId("b", "Date"), NodeId("ont", "City"))
_BOB_TYPE = NodeId(ENTITY_NAMESPACE, fnv1a64_hex("Bob"))
_ROLES = sorted(PARTICIPANT_RELATIONS)
# Several spellings of each rule name, and three that meet no rule.
_SPELLINGS = ("bornIn", "born_in", "Born In", "bornOn", "BORN_ON", "knows", "Knows", "worksFor", "diedIn", "bandOf")
# Labels that are also literals, so entities, event keys and values share texts.
_LABELS = ("Ada", "Bob", "Cy", "London")
_LITERALS = ("London", "Paris", "1815", "Ada")


@st.composite
def _canonicalize_inputs(draw):
    """Triples, rules and options for ``canonicalize_document``: CARD ONE
    and MANY events, FUNCTIONAL and MULTI slots (with conflicting values),
    participant slots, two rules on one name, and typed entities."""
    slot = st.one_of(st.builds(ParticipantSlot, st.sampled_from(_ROLES)),
                     st.builds(AttrSlot, st.sampled_from(_ATTR_TYPES), st.sampled_from(_VALUE_TYPES)))
    # One or two rules on each name; the first of two wins.
    rules = tuple(rule for name in ("bornIn", "bornOn", "knows")
                  for rule in draw(st.lists(st.builds(ReificationRule, st.just(name), st.sampled_from(_EVENT_TYPES),
                                                      st.sampled_from(_ROLES), slot), min_size=1, max_size=2)))
    declarations = SchemaDeclarations(
        essential=draw(st.frozensets(st.sampled_from(_EVENT_TYPES + (_BOB_TYPE,)), max_size=2)),
        # Undeclared events are CARD ONE and undeclared slots MULTI.
        cardinality={rule.event_type: draw(st.sampled_from(list(Cardinality))) for rule in rules if draw(st.booleans())},
        attr_modes={(rule.event_type, rule.object_slot.attr_type): draw(st.sampled_from(list(AttrMode)))
                    for rule in rules if isinstance(rule.object_slot, AttrSlot) and draw(st.integers(0, 2))},
    )
    entity_types = draw(st.dictionaries(st.sampled_from(_LABELS),
                                        st.sampled_from((NodeId("p", "Person"), _VALUE_TYPES[2], ROOT_TYPE)),
                                        max_size=2))
    # A subject and spelling with one to three objects: repeated triples
    # and, on a FUNCTIONAL slot, conflicting values.
    groups = draw(st.lists(st.tuples(st.sampled_from(_LABELS), st.sampled_from(_SPELLINGS),
                                     st.lists(st.sampled_from(_LABELS + _LITERALS), min_size=1, max_size=3)),
                           min_size=1, max_size=6))
    triples = draw(st.permutations([FlatTriple(e1, r, e2) for e1, r, objects in groups for e2 in objects]))
    options = dict(declarations=declarations, entity_types=entity_types, source_id="src",
                   revision=draw(st.integers(0, 2)))
    return triples, rules, options


def _shape(text: str) -> tuple:
    """Labels, CARD MANY event keys, FUNCTIONAL and MULTI attribute keys."""
    return "\t" in text, "#" in text


@st.composite
def _forced_hashes(draw, texts):
    """Up to three of ``texts``, each mapped onto a text of its shape whose
    hash it is to take."""
    forced = {}
    for text in draw(st.lists(st.sampled_from(texts), max_size=3)) if texts else ():
        forced[text] = draw(st.sampled_from([other for other in texts if _shape(other) == _shape(text)]))
    return forced


def _outcome(canonicalize, triples, rules, options):
    """The document, report and bytes ``canonicalize`` makes, or the type
    and message of the error it raises."""
    try:
        doc, report = canonicalize(triples, rules, **options)
    except GkgError as exc:
        return type(exc), str(exc)
    return doc, report, serialize_gkg(doc)


class TestCanonicalizeAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(_canonicalize_inputs(), st.data())
    def test_same_document_report_or_error(self, inputs, data):
        """A few texts are made to hash as others do, so ids collide."""
        triples, rules, options = inputs
        hashed = set()
        with hashing_as(lambda text: hashed.add(text) or text):
            _outcome(oracle_canonicalize_document, triples, rules, options)
        forced = data.draw(_forced_hashes(sorted(hashed)))
        with hashing_as(lambda text: forced.get(text, text)):
            expected = _outcome(oracle_canonicalize_document, triples, rules, options)
            got = _outcome(canonicalize_document, triples, rules, options)
        assert got == expected
        if isinstance(got[0], GkgDocument):
            graph = got[0].graph
            assert all(type(node) is Node and type(node.id) is NodeId for node in graph.nodes.values())
            assert all(type(edge) is Edge for edge in graph.edges)

    def test_draws_reach_every_outcome(self):
        """The strategy above meets documents, id collisions and value
        conflicts, without forced collisions."""
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(_canonicalize_inputs())
        def record(inputs):
            outcome = _outcome(canonicalize_document, *inputs)
            if isinstance(outcome[0], GkgDocument):
                seen.add("conflict" if outcome[1].value_conflicts else "document")
            else:
                seen.add(outcome[0].__name__)

        record()
        assert seen == {"document", "conflict", "IdCollisionError"}


# --- canonicalize against the oracle at batch size ---------------------------

BATCH_RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
RULE livesIn EVENT ont:Residence SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE visited EVENT ont:Visit SUBJ participantIn OBJ ATTR ont:Place ont:City
RULE worksFor EVENT ont:Employment SUBJ hasAgent OBJ PARTICIPANT hasObject
RULE memberOf EVENT ont:Membership SUBJ participantIn OBJ PARTICIPANT hasObject
CARD ont:Birth ONE
CARD ont:Residence ONE
CARD ont:Visit MANY
CARD ont:Employment MANY
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
ATTRDECL ont:Residence ont:Location MULTI
ATTRDECL ont:Visit ont:Place FUNCTIONAL
"""
_BATCH_SPELLINGS = {
    "bornIn": ("bornIn", "born_in", "Born In"),
    "bornOn": ("bornOn", "BORN_ON"),
    "livesIn": ("livesIn", "lives-in"),
    "visited": ("visited", "Visited"),
    "worksFor": ("worksFor", "works_for"),
    "memberOf": ("memberOf", "member of"),
    "diedIn": ("diedIn",),  # meets no rule
}


def _batch_triples(seed: int, people: int = 120) -> list:
    """Several hundred triples about ``people`` people, repeated and
    shuffled lines included: CARD ONE Birth and Residence events,
    CARD MANY Visit and Employment events, FUNCTIONAL Birth slots of which
    some conflict, a MULTI Residence slot, two participant rules and an
    unmapped relation."""
    rng = random.Random(seed)
    villages = [f"Village {k}" for k in range(12)]
    cities = [f"City {k}" for k in range(9)]
    orgs = [f"Org {k}" for k in range(15)]
    rows = []
    for k in range(people):
        person = f"Person {k}"

        def say(relation, obj):
            rows.append((person, rng.choice(_BATCH_SPELLINGS[relation]), obj))

        say("bornIn", rng.choice(villages))
        if k % 9 == 0:
            say("bornIn", rng.choice(villages))  # a FUNCTIONAL conflict, or a repeat
        say("bornOn", f"{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/19{rng.randint(10, 99)}")
        for city in rng.sample(cities, rng.randint(1, 2)):
            say("livesIn", city)
        for city in rng.sample(cities, rng.randint(0, 2)):
            say("visited", city)
        for org in rng.sample(orgs, rng.randint(0, 2)):
            say("worksFor", org)
        if k % 3 == 0:
            say("memberOf", rng.choice(orgs))
        if k % 10 == 0:
            say("diedIn", rng.choice(cities))
    rows += rng.sample(rows, len(rows) // 10)
    rng.shuffle(rows)
    return [FlatTriple(*row) for row in rows]


class TestCanonicalizeAgainstOracleAtBatchSize:
    """Hundreds of triples, so every id table holds many texts and each
    hashing batch passes ``fnv1a64_hex_many``'s numpy cutover."""

    TRIPLES = _batch_triples(seed=23)
    RULES, DECLARATIONS = parse_rules(BATCH_RULES)
    ENTITY_TYPES = {"Person 1": NodeId("p", "Person"), "Person 2": NodeId("p", "Person"),
                    "Org 3": NodeId("o", "Org")}
    # The last triple's subject and literal are new texts, claimed last.
    LATE = FlatTriple("Late Comer", "bornIn", "Village Late")

    def canonicalize_both(self, triples):
        options = dict(declarations=self.DECLARATIONS, entity_types=self.ENTITY_TYPES, source_id="src", revision=3)
        expected = _outcome(oracle_canonicalize_document, triples, self.RULES, options)
        got = _outcome(canonicalize_document, triples, self.RULES, options)
        return got, expected

    def test_input_is_at_batch_size(self):
        texts = {text for triple in self.TRIPLES for text in (triple.e1, triple.e2)}
        assert len(self.TRIPLES) >= 400 and len(texts) >= 150
        assert len(set(self.TRIPLES)) < len(self.TRIPLES)

    def test_same_document_report_and_bytes(self):
        got, expected = self.canonicalize_both(self.TRIPLES + [self.LATE])
        assert got == expected
        doc, report, _text = got
        assert report.value_conflicts and report.unmapped_relations == frozenset({"diedIn"})
        assert report.events_coalesced > 0 and validate_document(doc).ok
        assert {node.inst_of for node in doc.graph.continuants()} == {ROOT_TYPE, NodeId("p", "Person"),
                                                                      NodeId("o", "Org")}

    def test_any_permutation_gives_the_same_bytes(self):
        reordered = list(self.TRIPLES)
        random.Random(5).shuffle(reordered)
        assert self.canonicalize_both(reordered)[0][2] == self.canonicalize_both(self.TRIPLES)[0][2]

    @pytest.mark.parametrize(
        "late_text, early_text, message",
        [
            ("Late Comer", "Person 7", "entity labels 'Person 7' and 'Late Comer' share the id ent:"),
            ("Village Late", "Village 4", "keys 'Village 4' and 'Village Late' share the id val:Village#"),
        ],
    )
    def test_same_error_for_a_collision_late_in_the_input(self, late_text, early_text, message):
        with hashing_as(lambda text: early_text if text == late_text else text):
            got, expected = self.canonicalize_both(self.TRIPLES + [self.LATE])
        assert got == expected
        assert got[0] is IdCollisionError and got[1].startswith(message)
