"""Top-level acceptance checks.

Each test prints a single ``[criterion NN] PASS|FAIL`` line (run with
``pytest -s`` to see them) and then asserts, so a red test always has a
matching FAIL line in the captured output.
"""

import random
import time

import pytest

from gkg import (
    AlignmentConfig,
    AlignmentResult,
    CycleError,
    Edge,
    FlatTriple,
    GroundedGraph,
    HashEmbeddingProvider,
    IssueKind,
    Node,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    RELATION_SIGNATURES,
    RoleConceptDef,
    SchemaDeclarations,
    TypeHierarchy,
    align,
    canonicalize_document,
    check_isomorphic,
    entity_signature,
    infer_role_labels,
    merge_documents,
    parse_gkg,
    parse_rules,
    render,
    serialize_gkg,
    signature_similarity,
    validate_document,
    validate_graph,
)
from gkg.cli import main
from gkg.evaluation import BIRTH_TYPE, demo_document

from .support import WORKED_TEXT, random_document, reachable


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


BIRTH_RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
ESSENTIAL ont:Birth
CARD ont:Birth ONE
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
"""

RESIDENCE_RULES = """\
RULE residesIn EVENT ont:Residence SUBJ participantIn OBJ ATTR ont:Location ont:Place
ESSENTIAL ont:Residence
CARD ont:Residence ONE
ATTRDECL ont:Residence ont:Location FUNCTIONAL
"""


def test_criterion_01_flat_birth_facts_ground_into_one_event():
    rules, decls = parse_rules(BIRTH_RULES)
    triples = (
        FlatTriple("RogerWaters", "bornIn", "Great Bookham"),
        FlatTriple("RogerWaters", "bornOn", "01/08/1955"),
    )
    started = time.perf_counter()
    doc, report = canonicalize_document(triples, rules, declarations=decls)
    validation = validate_document(doc)
    elapsed = time.perf_counter() - started

    occurrents = [n for n in doc.graph.nodes.values() if n.kind is NodeKind.OCCURRENT]
    attrs = [n for n in doc.graph.nodes.values() if n.kind is NodeKind.ATTRIBUTE_INSTANCE]
    attr_types = sorted(str(a.inst_of) for a in attrs)
    values_per_attr = [
        sum(1 for e in doc.graph.edges if e.relation is PrimitiveRelation.HAS_VALUE and e.subject == a.id)
        for a in attrs
    ]
    ok = (
        len(occurrents) == 1
        and occurrents[0].inst_of == BIRTH_TYPE
        and attr_types == ["ont:Location", "ont:Time"]
        and values_per_attr == [1, 1]
        and not validation.issues
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"1 occurrent, attrs {attr_types}, values {values_per_attr}, "
        f"{len(validation.issues)} issues, {elapsed:.3f}s",
    )


def test_criterion_02_synonym_relations_canonicalize_identically():
    rules_text = """\
RULE StartedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE FormedIn EVENT ont:Formation SUBJ participantIn OBJ ATTR ont:Location ont:City
CARD ont:Formation ONE
"""
    rules, decls = parse_rules(rules_text)
    started = time.perf_counter()
    doc_a, _ = canonicalize_document((FlatTriple("PinkFloyd", "StartedIn", "London"),), rules, declarations=decls)
    doc_b, _ = canonicalize_document((FlatTriple("PinkFloyd", "FormedIn", "London"),), rules, declarations=decls)
    text_a, text_b = serialize_gkg(doc_a), serialize_gkg(doc_b)
    elapsed = time.perf_counter() - started
    ok = text_a == text_b and elapsed < 1.0
    _verdict(2, ok, f"byte-identical={text_a == text_b}, {elapsed:.3f}s")


def test_criterion_03_flat_eval_bands(capsys):
    started = time.perf_counter()
    code = main(["eval", "flat", "--seed", "42", "--dim", "64", "--trials", "100"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    bands = {}
    for line in out.splitlines():
        fields = line.split("\t")
        if fields[0] == "band":
            bands[fields[1]] = float(fields[2])
    renamed = bands["relation_renamed"]
    changed = bands["fact_changed"]
    delta = abs(renamed - changed)
    ok = (
        code == 0
        and 0.63 <= renamed <= 0.70
        and 0.63 <= changed <= 0.70
        and delta <= 0.02
        and elapsed < 5.0
    )
    with capsys.disabled():
        _verdict(3, ok, f"renamed={renamed:.4f} changed={changed:.4f} delta={delta:.4f}, {elapsed:.2f}s")


DEMO_CONFIG = AlignmentConfig(
    provider=HashEmbeddingProvider(seed=42, dim=64),
    threshold=0.9,
    declarations=SchemaDeclarations(essential=frozenset({BIRTH_TYPE})),
)


def _demo_align(doc_a, doc_b):
    return align(doc_a.graph, doc_b.graph, doc_a.hierarchy, doc_a.labels, doc_b.labels, DEMO_CONFIG)


def test_criterion_04_renamed_entity_still_aligns():
    doc_a = demo_document("RogerWaters")
    doc_b = demo_document("GeorgeRogerWaters")
    started = time.perf_counter()
    result = _demo_align(doc_a, doc_b)
    elapsed = time.perf_counter() - started
    scores = [score for _, _, score in result.matches]
    ok = len(scores) == 1 and 0.93 <= scores[0] <= 0.97 and elapsed < 1.0
    _verdict(4, ok, f"matches={len(scores)}, score={scores[0]:.4f}, {elapsed:.3f}s" if scores else "no match")


def test_criterion_05_changed_birth_location_scores_below_threshold():
    doc_a = demo_document("RogerWaters", birthplace="London")
    doc_b = demo_document("RogerWaters", birthplace="Chelsea")
    [id_a] = [n.id for n in doc_a.graph.continuants()]
    [id_b] = [n.id for n in doc_b.graph.continuants()]
    sig_a = entity_signature(doc_a.graph, doc_a.hierarchy, doc_a.labels, id_a, DEMO_CONFIG)
    sig_b = entity_signature(doc_b.graph, doc_b.hierarchy, doc_b.labels, id_b, DEMO_CONFIG)
    score = signature_similarity(sig_a, sig_b)
    result = _demo_align(doc_a, doc_b)
    ok = 0.70 <= score <= 0.80 and not result.matches
    _verdict(5, ok, f"score={score:.4f}, matches={len(result.matches)}")


def test_criterion_06_translated_renders_stay_isomorphic():
    doc = parse_gkg(WORKED_TEXT)
    rw = NodeId("ex", "rw")
    labels = (
        doc.labels
        .with_label(rw, "fr", "Roger Waters (musicien)")
        .with_label(rw, "ar", "روجر ووترز")
        .with_label(NodeId("ex", "birth1"), "fr", "naissance")
        .with_label(NodeId("rel", "participantIn"), "fr", "participe à")
        .with_label(NodeId("rel", "hasValue"), "ar", "له قيمة")
    )
    views = [render(doc.graph, labels, lang) for lang in ("en", "fr", "ar")]
    outcomes = [
        check_isomorphic(views[i], views[j]).ok
        for i in range(3)
        for j in range(3)
        if i < j
    ]
    ok = all(outcomes)
    _verdict(6, ok, f"pairwise isomorphic={outcomes}")


def test_criterion_07_fuzzed_edge_insertions_respect_the_closed_vocabulary():
    rng = random.Random(1307)
    hierarchy = TypeHierarchy.from_edges([(NodeId("t", f"T{i}"), None) for i in range(4)])
    pool = []
    for i in range(4):
        pool.append(Node(NodeId("x", f"c{i}"), NodeKind.CONTINUANT, NodeId("t", "T0")))
    for i in range(3):
        pool.append(Node(NodeId("x", f"o{i}"), NodeKind.OCCURRENT, NodeId("t", "T1")))
    for i in range(3):
        pool.append(Node(NodeId("x", f"a{i}"), NodeKind.ATTRIBUTE_INSTANCE, NodeId("t", "T2")))
    for i in range(3):
        pool.append(Node(NodeId("x", f"v{i}"), NodeKind.VALUE_LITERAL, NodeId("t", "T3"), literal=f"v{i}"))
    kinds = {n.id: n.kind for n in pool}
    relations = list(PrimitiveRelation)

    # Random edges go into the pool graph at once; validation must report
    # a signature violation for exactly the edges the vocabulary refuses.
    edge_attempts = 800
    attempts: set = set()
    for _ in range(edge_attempts):
        rel = rng.choice(relations)
        attempts.add(Edge(rng.choice(pool).id, rel, rng.choice(pool).id))
    refused = {
        f"{e.subject} {e.relation.value} {e.obj}"
        for e in attempts
        if (kinds[e.subject], kinds[e.obj]) not in RELATION_SIGNATURES[e.relation]
    }
    report = validate_graph(GroundedGraph({n.id: n for n in pool}, frozenset(attempts)), hierarchy)
    reported = [i.context for i in report.issues if i.kind is IssueKind.SIGNATURE_VIOLATION]
    vocabulary_closed = len(reported) == len(report.issues) and sorted(reported) == sorted(refused)
    rejected = len(refused)
    accepted = len(attempts) - rejected

    # Random subtype insertions: every attempt that would close a loop in
    # the child -> parent reachability must be rejected.
    type_names = [NodeId("t", f"S{i}") for i in range(8)]
    committed: list = []
    cycle_attempts = 0
    cycles_rejected = 0
    for _ in range(400):
        child, parent = rng.choice(type_names), rng.choice(type_names)
        candidate = committed + [(child, parent)]
        parents_map: dict = {}
        for c, p in committed:
            parents_map.setdefault(c, set()).add(p)
        closes_cycle = child == parent or child in reachable(parents_map, parent)
        if closes_cycle:
            cycle_attempts += 1
            with pytest.raises(CycleError):
                TypeHierarchy.from_edges(candidate)
            cycles_rejected += 1
        else:
            TypeHierarchy.from_edges(candidate)
            committed = candidate

    total = edge_attempts + 400
    ok = (
        total >= 1000
        and vocabulary_closed
        and rejected > 0
        and accepted > 0
        and cycle_attempts > 0
        and cycles_rejected == cycle_attempts
    )
    _verdict(
        7,
        ok,
        f"{total} attempts: {accepted} accepted / {rejected} signature-rejected, "
        f"{cycles_rejected}/{cycle_attempts} cycles rejected",
    )


def test_criterion_08_fifty_generated_documents_round_trip():
    failures = []
    for seed in range(50):
        doc = random_document(seed)
        text = serialize_gkg(doc)
        reparsed = parse_gkg(text)
        if reparsed != doc:
            failures.append((seed, "structure"))
        if serialize_gkg(reparsed) != text:
            failures.append((seed, "bytes"))
    ok = not failures
    _verdict(8, ok, f"50 documents round-tripped, failures={failures}")


def test_criterion_09_revision_aware_functional_merge():
    rules, decls = parse_rules(RESIDENCE_RULES)

    def doc(place, revision):
        built, _ = canonicalize_document(
            (FlatTriple("Obama", "residesIn", place),),
            rules,
            declarations=decls,
            source_id="wiki",
            revision=revision,
        )
        return built

    def identity(document):
        return AlignmentResult(matches=tuple((n.id, n.id, 1.0) for n in document.graph.continuants()))

    doc_v1, doc_v2 = doc("WhiteHouse", 1), doc("Washington", 2)

    merged, report = merge_documents(doc_v1, doc_v2, identity(doc_v1))
    literals = {n.literal for n in merged.graph.nodes.values() if n.kind is NodeKind.VALUE_LITERAL}
    newer_won = (
        len(report.updated) == 1
        and report.updated[0].winner_revision == 2
        and report.updated[0].old_values == ("WhiteHouse",)
        and report.updated[0].new_values == ("Washington",)
        and literals == {"Washington"}
        and not report.conflicts
    )

    self_merged, self_report = merge_documents(doc_v2, doc_v2, identity(doc_v2))
    idempotent = serialize_gkg(self_merged) == serialize_gkg(doc_v2) and self_merged == doc_v2

    doc_v2_same_rev = doc("Washington", 1)
    conflicted, conflict_report = merge_documents(doc_v1, doc_v2_same_rev, identity(doc_v1))
    conflict_literals = {
        n.literal for n in conflicted.graph.nodes.values() if n.kind is NodeKind.VALUE_LITERAL
    }
    conflict_kept = (
        len(conflict_report.conflicts) == 1
        and sorted(conflict_report.conflicts[0].literals) == ["Washington", "WhiteHouse"]
        and conflict_literals == {"Washington", "WhiteHouse"}
    )

    ok = newer_won and idempotent and conflict_kept
    _verdict(9, ok, f"newer_won={newer_won}, self_merge_identity={idempotent}, conflict_kept={conflict_kept}")


def test_criterion_10_role_concepts_from_agent_edges():
    human = NodeId("core", "Human")
    teaching = NodeId("ont", "Teaching")
    hierarchy = TypeHierarchy.from_edges([(human, None), (teaching, None)])
    x = Node(NodeId("x", "p"), NodeKind.CONTINUANT, human)
    lesson = Node(NodeId("x", "lesson"), NodeKind.OCCURRENT, teaching)
    nodes = {x.id: x, lesson.id: lesson}
    graph = GroundedGraph(nodes, frozenset({Edge(lesson.id, PrimitiveRelation.HAS_AGENT, x.id)}))
    valid = validate_graph(graph, hierarchy).ok
    teacher = RoleConceptDef("Teacher", human, PrimitiveRelation.HAS_AGENT, teaching)

    with_edge = infer_role_labels(graph, hierarchy, (teacher,))
    stripped = GroundedGraph(nodes)
    without_edge = infer_role_labels(stripped, hierarchy, (teacher,))

    ok = valid and with_edge == ((x.id, "Teacher"),) and without_edge == ()
    _verdict(10, ok, f"valid={valid}, with_edge={with_edge}, without_edge={without_edge}")
