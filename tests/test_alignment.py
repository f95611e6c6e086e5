"""Entity signatures, similarity scoring and the alignment procedure."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkg.alignment
import gkg.embedding
from gkg import (
    AlignmentConfig,
    AlignmentResult,
    CycleError,
    GkgSyntaxError,
    HashEmbeddingProvider,
    FlatTriple,
    InvalidParameterError,
    NodeId,
    NotAContinuantError,
    SchemaDeclarations,
    align,
    canonicalize_document,
    cosine,
    embed_flat_triple,
    entity_signature,
    fact_slot_key,
    format_alignment_tsv,
    parse_alignment_tsv,
    parse_gkg,
    parse_rules,
    serialize_gkg,
    signature_similarity,
    slot_similarities,
    tokenize,
    union_hierarchies,
)
from gkg.alignment import _SCREEN_SLACK, _near_pairs, _ordered_result
from gkg.embedding import embed_phrase, normalized
from gkg.evaluation import BIRTH_TYPE, DEMO_RULES_TEXT, HUMAN_TYPE, demo_document
from gkg.formats import _content_lines

from .support import BasisProvider, checked_id, random_document

CLI_CORPUS = Path(__file__).parent / "data" / "cli_corpus"
RENAME_SCORE = (2 / math.sqrt(6) + 3) / 4  # name slot 2/sqrt(6), other three exact
CHANGED_FACT_SCORE = 0.75  # one orthogonal slot of four


def config(provider=None, **kw):
    kw.setdefault("declarations", SchemaDeclarations(essential=frozenset({BIRTH_TYPE})))
    return AlignmentConfig(provider=provider or BasisProvider(), **kw)


def only_entity(doc):
    return next(doc.graph.continuants()).id


def signature_of(doc, cfg):
    return entity_signature(doc.graph, doc.hierarchy, doc.labels, only_entity(doc), cfg)


class TestAlignmentConfig:
    @pytest.mark.parametrize("kw", [{"threshold": math.nan}, {"ambiguity_band": math.nan}])
    def test_nan_setting_rejected(self, kw):
        with pytest.raises(InvalidParameterError):
            config(**kw)

    @pytest.mark.parametrize("threshold, band", [(0.9, 0.9), (0.9, 1.0), (0.5, math.inf), (0.01, 0.02)])
    def test_band_at_or_above_threshold_rejected(self, threshold, band):
        """Such a band would screen in, and list as AMBIG, every
        type-compatible pair."""
        with pytest.raises(InvalidParameterError):
            config(threshold=threshold, ambiguity_band=band)
        assert config(threshold=threshold, ambiguity_band=float(np.nextafter(threshold, 0.0)))

    def test_signature_reads_declared_roles(self):
        doc = parse_gkg(
            "N ex:rw C core:Human\nN ev:b O ont:Birth\nT core:Human core:Entity\nT ont:Birth core:Entity\n"
            "E ev:b participantIn ex:rw\nROLE Newborn BASE core:Human VIA participantIn EVENT ont:Birth\n"
        )
        plain = entity_signature(doc.graph, doc.hierarchy, doc.labels, NodeId("ex", "rw"), config())
        declared = entity_signature(
            doc.graph, doc.hierarchy, doc.labels, NodeId("ex", "rw"), config(declarations=doc.declarations)
        )
        assert tuple(plain.slots) == ("name", "type")
        assert tuple(declared.slots) == ("name", "roles", "type")


class TestEntitySignature:
    def test_slots_of_demo_entity(self):
        doc = demo_document()
        sig = signature_of(doc, config())
        assert tuple(sig.slots) == (
            fact_slot_key(BIRTH_TYPE, NodeId("ont", "Location")),
            fact_slot_key(BIRTH_TYPE, NodeId("ont", "Time")),
            "name",
            "type",
        )

    def test_bare_entity_has_name_and_type_only(self):
        doc = parse_gkg("N ex:a C core:Thing\n")
        sig = entity_signature(doc.graph, doc.hierarchy, doc.labels, NodeId("ex", "a"), config())
        assert tuple(sig.slots) == ("name", "type")

    def test_no_essential_config_no_fact_slots(self):
        doc = demo_document()
        cfg = AlignmentConfig(provider=BasisProvider())
        assert tuple(signature_of(doc, cfg).slots) == ("name", "type")

    def test_non_continuant_rejected(self):
        doc = demo_document()
        event = next(
            n.id for n in doc.graph.nodes.values() if n.id.namespace == "ev"
        )
        with pytest.raises(NotAContinuantError):
            entity_signature(doc.graph, doc.hierarchy, doc.labels, event, config())

    def test_fact_slot_counts_each_participant_edge(self):
        """An entity joined to one birth by two relations counts its place
        twice in the fact slot; the other birth's place counts once."""
        doc = parse_gkg(
            "T ont:Birth core:Entity\nN ex:rw C core:Human\n"
            "N ex:b1 O ont:Birth\nN ex:b2 O ont:Birth\nN ex:p1 A ont:Place\nN ex:p2 A ont:Place\n"
            "N ex:london V ont:City London\nN ex:paris V ont:City Paris\n"
            "E ex:b1 hasAgent ex:rw\nE ex:b1 participantIn ex:rw\nE ex:b2 participantIn ex:rw\n"
            "E ex:p1 hasProp ex:b1\nE ex:p1 hasValue ex:london\nE ex:p2 hasProp ex:b2\nE ex:p2 hasValue ex:paris\n"
        )
        cfg = config()
        sig = signature_of(doc, cfg)
        london, paris = (embed_phrase(cfg.provider, place) for place in ("London", "Paris"))
        np.testing.assert_allclose(
            sig.slots[fact_slot_key(BIRTH_TYPE, NodeId("ont", "Place"))], normalized(2 * london + paris)
        )

    def test_label_fallback_to_local_part(self):
        doc = parse_gkg("N ex:Skywalker C core:Thing\n")
        cfg = config()
        sig = entity_signature(doc.graph, doc.hierarchy, doc.labels, NodeId("ex", "Skywalker"), cfg)
        assert slot_similarities(
            sig,
            entity_signature(doc.graph, doc.hierarchy, doc.labels, NodeId("ex", "Skywalker"), cfg),
        )["name"] == pytest.approx(1.0)


class TestSimilarityOracles:
    def test_identical_entities_score_one(self):
        cfg = config()
        sig = signature_of(demo_document(), cfg)
        assert signature_similarity(sig, sig) == pytest.approx(1.0)

    def test_rename_score_exact(self):
        """Four equally weighted slots; only the name disagrees, and on
        orthonormal tokens its cosine is 2/sqrt(6)."""
        cfg = config()
        sig_a = signature_of(demo_document(), cfg)
        sig_b = signature_of(demo_document(subject="GeorgeRogerWaters"), cfg)
        assert signature_similarity(sig_a, sig_b) == pytest.approx(RENAME_SCORE, abs=1e-12)
        assert RENAME_SCORE == pytest.approx(0.9541241452319315, abs=1e-12)

    def test_changed_location_score_exact(self):
        cfg = config()
        sig_a = signature_of(demo_document(birthplace="London"), cfg)
        sig_b = signature_of(demo_document(birthplace="Chelsea"), cfg)
        assert signature_similarity(sig_a, sig_b) == pytest.approx(CHANGED_FACT_SCORE, abs=1e-12)
        sims = slot_similarities(sig_a, sig_b)
        assert sims[fact_slot_key(BIRTH_TYPE, NodeId("ont", "Location"))] == pytest.approx(0.0)
        assert sims["name"] == pytest.approx(1.0)

    def test_one_sided_slot_contributes_zero(self):
        """An entity with birth facts against one without: the fact slots
        count in the denominator but add nothing."""
        cfg = config()
        rich = signature_of(demo_document(), cfg)
        bare_doc = parse_gkg("N ex:rw C core:Human\nL ex:rw en RogerWaters\n")
        bare = entity_signature(bare_doc.graph, bare_doc.hierarchy, bare_doc.labels, NodeId("ex", "rw"), cfg)
        score = signature_similarity(rich, bare)
        assert score == pytest.approx(2 / 4)  # name and type agree; two facts one-sided

    def test_negative_cosines_clamp_to_zero(self):
        cfg = config()
        sims = slot_similarities(
            signature_of(demo_document(birthplace="London"), cfg),
            signature_of(demo_document(birthplace="Chelsea"), cfg),
        )
        assert all(v is None or v >= 0.0 for v in sims.values())


def align_docs(doc_a, doc_b, cfg):
    return align(doc_a.graph, doc_b.graph, doc_a.hierarchy, doc_a.labels, doc_b.labels, cfg)


class TestAlign:
    def test_self_alignment_scores_one(self):
        doc = demo_document()
        result = align_docs(doc, doc, config())
        assert len(result.matches) == 1
        a, b, score = result.matches[0]
        assert a == b == only_entity(doc)
        assert score == pytest.approx(1.0)
        assert result.ambiguous == ()

    def test_renamed_entity_matches(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        result = align_docs(doc_a, doc_b, config())
        assert len(result.matches) == 1
        assert result.matches[0][2] == pytest.approx(RENAME_SCORE, abs=1e-12)

    def test_changed_location_is_not_a_match(self):
        """London vs Chelsea: same person name, same type, different birth
        location.  The score lands mid-band and must stay below 0.9."""
        doc_a = demo_document(birthplace="London")
        doc_b = demo_document(birthplace="Chelsea")
        result = align_docs(doc_a, doc_b, config())
        assert result.matches == ()
        assert 0.70 <= CHANGED_FACT_SCORE <= 0.80
        assert result.ambiguous == ()

    def test_hash_provider_rename_band(self):
        """With d=64 random unit vectors the rename score drifts from the
        analytic 0.954 but stays inside [0.93, 0.97]."""
        cfg = config(provider=HashEmbeddingProvider(42, 64))
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        result = align_docs(doc_a, doc_b, cfg)
        assert len(result.matches) == 1
        assert 0.93 <= result.matches[0][2] <= 0.97

    def test_hash_provider_changed_location_band(self):
        cfg = config(provider=HashEmbeddingProvider(42, 64))
        sig_a = signature_of(demo_document(birthplace="London"), cfg)
        sig_b = signature_of(demo_document(birthplace="Chelsea"), cfg)
        score = signature_similarity(sig_a, sig_b)
        assert 0.70 <= score <= 0.80
        result = align_docs(
            demo_document(birthplace="London"), demo_document(birthplace="Chelsea"), cfg
        )
        assert result.matches == ()

    def test_match_set_symmetric(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        cfg = config()
        forward = align_docs(doc_a, doc_b, cfg)
        backward = align_docs(doc_b, doc_a, cfg)
        assert {(a, b) for a, b, _ in forward.matches} == {
            (a, b) for b, a, _ in backward.matches
        }

    def test_threshold_monotone(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        loose = align_docs(doc_a, doc_b, config(threshold=0.5))
        tight = align_docs(doc_a, doc_b, config(threshold=0.99))
        assert {(a, b) for a, b, _ in tight.matches} <= {(a, b) for a, b, _ in loose.matches}

    def test_type_blocking(self):
        """Same name, incompatible types: never even scored."""
        doc_a = parse_gkg("T t:Cat core:Entity\nN ex:felix C t:Cat\nL ex:felix en Felix\n")
        doc_b = parse_gkg("T t:Dog core:Entity\nN ex:felix2 C t:Dog\nL ex:felix2 en Felix\n")
        from gkg import union_hierarchies

        hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
        result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, config())
        assert result.matches == ()

    def test_subtype_compatibility_matches(self):
        doc_a = parse_gkg("T t:Animal core:Entity\nN ex:f C t:Animal\nL ex:f en Felix\n")
        doc_b = parse_gkg(
            "T t:Animal core:Entity\nT t:Cat t:Animal\nN ex:g C t:Cat\nL ex:g en Felix\n"
        )
        from gkg import union_hierarchies

        hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
        result = align(
            doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, config(threshold=0.5)
        )
        assert len(result.matches) == 1

    def test_ambiguous_twin_candidates_withdraw(self):
        """Two indistinguishable B candidates for one A entity: flagged as
        ambiguous, nothing force-matched."""
        doc_a = parse_gkg("N ex:a C core:Thing\nL ex:a en Smith\n")
        doc_b = parse_gkg(
            "N ex:b1 C core:Thing\nN ex:b2 C core:Thing\nL ex:b1 en Smith\nL ex:b2 en Smith\n"
        )
        result = align_docs(doc_a, doc_b, config())
        assert result.matches == ()
        assert len(result.ambiguous) == 1
        entity, candidates = result.ambiguous[0]
        assert entity == NodeId("ex", "a")
        assert {c[0] for c in candidates} == {NodeId("ex", "b1"), NodeId("ex", "b2")}

    def test_clear_margin_is_not_ambiguous(self):
        doc_a = parse_gkg("N ex:a C core:Thing\nL ex:a en Smith\n")
        doc_b = parse_gkg(
            "N ex:b1 C core:Thing\nN ex:b2 C core:Thing\nL ex:b1 en Smith\nL ex:b2 en Jones\n"
        )
        result = align_docs(doc_a, doc_b, config())
        assert [(a, b) for a, b, _ in result.matches] == [(NodeId("ex", "a"), NodeId("ex", "b1"))]
        assert result.ambiguous == ()


class TestAlignmentTsv:
    def test_round_trip(self):
        doc_a = demo_document()
        doc_b = demo_document(subject="GeorgeRogerWaters")
        result = align_docs(doc_a, doc_b, config())
        text = format_alignment_tsv(result)
        parsed = parse_alignment_tsv(text)
        assert [(a, b) for a, b, _ in parsed.matches] == [
            (a, b) for a, b, _ in result.matches
        ]
        assert text.endswith("MATCH\n")

    def test_scores_fixed_to_four_decimals(self):
        doc = demo_document()
        text = format_alignment_tsv(align_docs(doc, doc, config()))
        assert text.split("\t")[2] == "1.0000"

    def test_bad_status_rejected(self):
        with pytest.raises(GkgSyntaxError):
            parse_alignment_tsv("ex:a\tex:b\t0.99\tMAYBE\n")

    def test_bad_field_count_rejected(self):
        with pytest.raises(GkgSyntaxError) as exc:
            parse_alignment_tsv("ex:a\tex:b\t0.99\n")
        assert exc.value.line_no == 1

    def test_comments_skipped(self):
        parsed = parse_alignment_tsv("# nothing\n\nex:a\tex:b\t0.9900\tMATCH\n")
        assert len(parsed.matches) == 1


def oracle_parse_alignment_tsv(text: str) -> AlignmentResult:
    """``parse_alignment_tsv`` before it remembered its id tokens: every id
    field goes through its own checked parse."""
    matches: list = []
    ambiguous: dict = {}
    for line_no, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 4:
            raise GkgSyntaxError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
        id_a = checked_id(fields[0], line_no)
        id_b = checked_id(fields[1], line_no)
        try:
            score = float(fields[2])
        except ValueError:
            raise GkgSyntaxError(line_no, f"bad score {fields[2]!r}") from None
        if not 0.0 <= score <= 1.0:
            raise GkgSyntaxError(line_no, f"score {fields[2]!r} is not a number in [0, 1]")
        if fields[3] == "MATCH":
            matches.append((id_a, id_b, score))
        elif fields[3] == "AMBIG":
            ambiguous.setdefault(id_a, []).append((id_b, score))
        else:
            raise GkgSyntaxError(line_no, f"bad status {fields[3]!r}")
    return _ordered_result(matches, ambiguous)


_GOLDEN_ALIGNMENTS = sorted(
    [*CLI_CORPUS.glob("*.align"), *(CLI_CORPUS / "expected").glob("align_*.tsv")], key=lambda path: path.name
)
_AMBIGUOUS_ROWS = (
    "ex:a\tex:b\t0.9000\tAMBIG\nex:a\tex:c\t0.9000\tAMBIG\n# ex:z\n\nex:d\tex:b\t1.0000\tMATCH\n"
    "ex:e\tex:c\t0.5000\tAMBIG\nex:e\tex:b\t0.7000\tAMBIG\n"
)


class TestAlignmentTsvIdParseCalls:
    """``parse_alignment_tsv`` parses each distinct id token once, through
    ``NodeId.parse`` looked up at call time, and reads what it read before."""

    @pytest.mark.parametrize(
        "text",
        [*(path.read_text(encoding="utf-8") for path in _GOLDEN_ALIGNMENTS), _AMBIGUOUS_ROWS],
        ids=[*(path.name for path in _GOLDEN_ALIGNMENTS), "ambiguous"],
    )
    def test_one_call_per_distinct_token(self, monkeypatch, text):
        tokens = {field for _, line in _content_lines(text) for field in line.split("\t")[:2]}
        calls = []
        parse = NodeId.parse

        def recording(token):
            calls.append(token)
            return parse(token)

        monkeypatch.setattr(NodeId, "parse", staticmethod(recording))
        result = parse_alignment_tsv(text)
        assert sorted(calls) == sorted(tokens)
        monkeypatch.undo()
        assert result == oracle_parse_alignment_tsv(text)

    def test_golden_files_are_read(self):
        assert len(_GOLDEN_ALIGNMENTS) == 5

    @pytest.mark.parametrize(
        "text",
        [
            "ex:a\tex:b\t1.0\tMATCH\nex:c\tbad\t1.0\tMATCH\nex:d\tbad\t1.0\tMATCH\n",
            "ex:a\tbad\t1.0\tMATCH\nex:a\tbad\t1.0\tMATCH\n",
            "# x\nex:a\tex:b\t1.0\tMATCH\nex:a\tex:b\t2.0\tMATCH\n",
            "ex:a\tex:b\t1.0\tMATCH\n\nex:a\tex: b\t1.0\tAMBIG\n",
        ],
    )
    def test_a_malformed_row_fails_as_before(self, text):
        with pytest.raises(GkgSyntaxError) as got:
            parse_alignment_tsv(text)
        with pytest.raises(GkgSyntaxError) as expected:
            oracle_parse_alignment_tsv(text)
        assert (got.value.line_no, str(got.value)) == (expected.value.line_no, str(expected.value))


class TestFlatBaseline:
    """The flat baseline ``gkg eval flat`` measures: whole triples scored
    by the cosine of their additive embeddings."""

    def test_cosine_bands(self, basis):
        base = embed_flat_triple(basis, FlatTriple("roger", "lives", "london"))
        score = lambda *triple: cosine(base, embed_flat_triple(basis, FlatTriple(*triple)))
        assert score("roger", "lives", "london") == pytest.approx(1.0)
        assert score("roger", "dwells", "london") == pytest.approx(2 / 3, abs=1e-12)
        assert score("paris", "eats", "cake") == pytest.approx(0.0)

    def test_rename_and_refact_indistinguishable(self, basis):
        """The flat baseline's defining failure: both edits cost exactly
        one of three phrases."""
        base = embed_flat_triple(basis, FlatTriple("roger", "lives", "london"))
        reworded = embed_flat_triple(basis, FlatTriple("roger", "dwells", "london"))  # harmless rewording
        refacted = embed_flat_triple(basis, FlatTriple("roger", "lives", "paris"))  # different fact
        assert cosine(base, reworded) == pytest.approx(cosine(base, refacted), abs=1e-12)


def compatible(hierarchy, node_a, node_b):
    """One inst type a subtype of the other, both known."""
    ta, tb = node_a.inst_of, node_b.inst_of
    if ta is None or tb is None or ta not in hierarchy or tb not in hierarchy:
        return False
    return hierarchy.is_subtype(ta, tb) or hierarchy.is_subtype(tb, ta)


def oracle_align(graph_a, graph_b, hierarchy, labels_a, labels_b, cfg):
    """All-pairs reference for :func:`align`: every type-compatible pair is
    scored with ``signature_similarity`` and the greedy matching runs over
    the full score table.  An ambiguous pair lists itself and every free
    rival on either side within the band of its score, drawn from the full
    table, so a rival the screen dropped would show."""
    conts_a = list(graph_a.continuants())
    conts_b = list(graph_b.continuants())
    sigs_a = {n.id: entity_signature(graph_a, hierarchy, labels_a, n.id, cfg) for n in conts_a}
    sigs_b = {n.id: entity_signature(graph_b, hierarchy, labels_b, n.id, cfg) for n in conts_b}

    scores = {}
    cand_a = {n.id: [] for n in conts_a}
    cand_b = {n.id: [] for n in conts_b}
    for node_a in conts_a:
        for node_b in conts_b:
            if not compatible(hierarchy, node_a, node_b):
                continue
            score = signature_similarity(sigs_a[node_a.id], sigs_b[node_b.id])
            scores[(node_a.id, node_b.id)] = score
            cand_a[node_a.id].append((node_b.id, score))
            cand_b[node_b.id].append((node_a.id, score))
    ordered = sorted(
        scores.items(),
        key=lambda kv: (-kv[1], min(str(kv[0][0]), str(kv[0][1])), max(str(kv[0][0]), str(kv[0][1]))),
    )

    def best_alternative(candidates, excluded, free):
        best = -math.inf
        for other_id, other_score in candidates:
            if other_id != excluded and other_id in free and other_score > best:
                best = other_score
        return best

    free_a = {n.id for n in conts_a}
    free_b = {n.id for n in conts_b}
    matches, ambiguous = [], {}
    for (id_a, id_b), score in ordered:
        if score < cfg.threshold:
            break
        if id_a not in free_a or id_b not in free_b:
            continue
        margin_a = score - best_alternative(cand_a[id_a], id_b, free_b)
        margin_b = score - best_alternative(cand_b[id_b], id_a, free_a)
        if min(margin_a, margin_b) < cfg.ambiguity_band:
            ambiguous.setdefault(id_a, []).append((id_b, score))
            for (rival_a, rival_b), rival in scores.items():
                near = score - rival < cfg.ambiguity_band
                if rival_a == id_a and rival_b != id_b and rival_b in free_b and near:
                    ambiguous[id_a].append((rival_b, rival))
                if rival_b == id_b and rival_a != id_a and rival_a in free_a and near:
                    ambiguous.setdefault(rival_a, []).append((id_b, rival))
        else:
            matches.append((id_a, id_b, score))
        free_a.discard(id_a)
        free_b.discard(id_b)
    return AlignmentResult(
        matches=tuple(sorted(matches, key=lambda m: (str(m[0]), str(m[1])))),
        ambiguous=tuple(
            (id_a, tuple(sorted(rows, key=lambda pair: (-pair[1], str(pair[0])))))
            for id_a, rows in sorted(ambiguous.items(), key=lambda kv: str(kv[0]))
        ),
    )


def people_document(rows):
    """Several demo-shaped people in one document: (name, birthplace,
    birthdate) rows through the demo rules."""
    rules, decls = parse_rules(DEMO_RULES_TEXT)
    triples = []
    for name, place, date in rows:
        triples += [FlatTriple(name, "bornIn", place), FlatTriple(name, "bornOn", date)]
    doc, _report = canonicalize_document(
        triples, rules, declarations=decls, entity_types={name: HUMAN_TYPE for name, _, _ in rows}
    )
    return doc


def joint_setup(doc_a, doc_b, provider, **kw):
    """The hierarchy and config ``gkg align`` would use for two documents;
    falls back to A's hierarchy when the two disagree into a cycle."""
    try:
        hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    except CycleError:
        hierarchy = doc_a.hierarchy
    declarations = doc_a.declarations.merged_with(doc_b.declarations)
    roles = tuple(
        role for role in declarations.roles if role.base_type in hierarchy and role.occurrent_type in hierarchy
    )
    declarations = SchemaDeclarations(declarations.essential, declarations.cardinality, declarations.attr_modes, roles)
    cfg = AlignmentConfig(provider=provider, declarations=declarations, **kw)
    return hierarchy, cfg


def both_aligners(doc_a, doc_b, provider=None, **kw):
    hierarchy, cfg = joint_setup(doc_a, doc_b, provider or BasisProvider(64), **kw)
    args = (doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, cfg)
    return align(*args), oracle_align(*args)


NAMES = ("RogerWaters", "Roger Waters", "GeorgeRogerWaters", "The Roger Waters",
         "DavidGilmour", "David Gilmour", "NickMason", "SydBarrett")
PLACES = ("Great Bookham", "London", "Chelsea", "Cambridge")
DATES = ("01/08/1955", "06/03/1946", "27/01/1944")

people_docs = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(PLACES), st.sampled_from(DATES)),
    min_size=1, max_size=6, unique_by=lambda row: row[0],
).map(people_document)
random_docs = st.integers(0, 10**6).map(random_document)
doc_pairs = st.one_of(
    st.tuples(people_docs, people_docs),
    st.tuples(random_docs, random_docs),
    random_docs.map(lambda doc: (doc, doc)),  # self-alignment: many exact ties
    people_docs.map(lambda doc: (doc, doc)),  # joined and spaced names tie exactly
    st.tuples(st.just(demo_document()), people_docs),
)
providers = st.one_of(
    st.builds(BasisProvider, st.just(64)),
    st.builds(HashEmbeddingProvider, st.integers(0, 3), st.sampled_from([4, 8, 64])),
)
# A band at or above the threshold is refused (TestAlignmentConfig), so the
# band is drawn below the threshold.
settings_kw = st.floats(0.05, 1.0).flatmap(
    lambda threshold: st.fixed_dictionaries(
        {
            "threshold": st.just(threshold),
            "ambiguity_band": st.one_of(
                st.just(0.0), st.floats(0.0, min(0.3, threshold), exclude_max=threshold <= 0.3)
            ),
        }
    )
)


def signed(doc, hierarchy, cfg):
    """A document's continuants and their signatures, in one order."""
    conts = list(doc.graph.continuants())
    return conts, [entity_signature(doc.graph, hierarchy, doc.labels, n.id, cfg) for n in conts]


class TestAlignAgainstOracle:
    """``align`` screens pairs with matrix products and rescores only the
    pairs near the threshold; the result must equal the all-pairs loop's."""

    @given(doc_pairs, providers, settings_kw, st.sampled_from((gkg.alignment._TILE, 1, 2)))
    @settings(max_examples=150, deadline=None)
    def test_equals_all_pairs_oracle(self, pair, provider, kw, tile):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gkg.alignment, "_TILE", tile)
            got, want = both_aligners(*pair, provider=provider, **kw)
        assert got == want

    @given(doc_pairs, providers, settings_kw)
    @settings(max_examples=60, deadline=None)
    def test_screen_tracks_exact_scores(self, pair, provider, kw):
        """``_near_pairs`` yields each compatible pair at most once, none
        below the floor but for rounding, and every one above it."""
        doc_a, doc_b = pair
        hierarchy, cfg = joint_setup(doc_a, doc_b, provider, **kw)
        conts_a, sigs_a = signed(doc_a, hierarchy, cfg)
        conts_b, sigs_b = signed(doc_b, hierarchy, cfg)
        floor = cfg.threshold - cfg.ambiguity_band - _SCREEN_SLACK
        near = list(_near_pairs(conts_a, sigs_a, conts_b, sigs_b, hierarchy, floor))
        assert len(near) == len(set(near))
        for i, j in near:
            assert compatible(hierarchy, conts_a[i], conts_b[j])
            assert signature_similarity(sigs_a[i], sigs_b[j]) >= floor - 1e-12
        for i, node_a in enumerate(conts_a):
            for j, node_b in enumerate(conts_b):
                if compatible(hierarchy, node_a, node_b) and signature_similarity(sigs_a[i], sigs_b[j]) >= floor + 1e-12:
                    assert (i, j) in near

    def test_one_key_set_over_several_tiles(self, monkeypatch):
        """Every continuant has one type and one slot key set, so the
        grouping skips nothing and the screen runs over three tiles."""
        monkeypatch.setattr(gkg.alignment, "_TILE", 3)
        doc = people_document([(name, "London", DATES[0]) for name in NAMES])
        hierarchy, cfg = joint_setup(doc, doc, BasisProvider(64))
        conts, sigs = signed(doc, hierarchy, cfg)
        assert len({node.inst_of for node in conts}) == len({frozenset(sig.slots) for sig in sigs}) == 1
        for kw in ({}, {"threshold": 0.5, "ambiguity_band": 0.3}):
            got, want = both_aligners(doc, doc, **kw)
            assert got == want
            assert got.ambiguous

    def test_pair_order_does_not_reach_the_result(self, monkeypatch):
        """x and y swap labels between the documents, so (x, y) and (y, x)
        tie at 1.0 and each is the other's rival within the band.  The
        greedy order of such crossed twins is fixed by the A index, not by
        the order in which the screen yields them."""
        words = " ".join(f"w{k}" for k in range(9))
        doc_a = parse_gkg(f"N ex:x C core:Thing\nL ex:x en {words} p\nN ex:y C core:Thing\nL ex:y en {words} q\n")
        doc_b = parse_gkg(f"N ex:x C core:Thing\nL ex:x en {words} q\nN ex:y C core:Thing\nL ex:y en {words} p\n")
        near_pairs = gkg.alignment._near_pairs
        monkeypatch.setattr(gkg.alignment, "_near_pairs", lambda *args: reversed(list(near_pairs(*args))))
        got, want = both_aligners(doc_a, doc_b, threshold=0.9, ambiguity_band=0.06)
        assert got == want
        assert len(got.matches) == 1 and len(got.ambiguous) == 2

    @given(doc_pairs, providers, settings_kw)
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, pair, provider, kw):
        doc_a, doc_b = pair
        hierarchy, cfg = joint_setup(doc_a, doc_b, provider, **kw)
        forward = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, cfg)
        backward = align(doc_b.graph, doc_a.graph, hierarchy, doc_b.labels, doc_a.labels, cfg)
        assert {(a, b, s) for a, b, s in forward.matches} == {(a, b, s) for b, a, s in backward.matches}

    def test_zero_name_vector(self):
        """Labels with no tokens embed to the zero vector; their name slot
        scores 0 in the screen as in ``cosine``."""
        doc_a = parse_gkg("N ex:a C core:Thing\nL ex:a en -\n")
        doc_b = parse_gkg("N ex:b C core:Thing\nN ex:c C core:Thing\nL ex:b en _\nL ex:c en Smith\n")
        got, want = both_aligners(doc_a, doc_b, threshold=0.45)
        assert got == want
        (entity, candidates), = got.ambiguous
        assert entity == NodeId("ex", "a")
        assert [score for _, score in candidates] == pytest.approx([0.5, 0.5])

    def test_alternative_exactly_at_threshold_minus_band(self):
        """The runner-up sits exactly on the screen's cut-off: it is still
        rescored, its margin equals the band (a match), and one ulp more
        band makes the pair ambiguous."""
        doc_a = demo_document(birthplace="London")
        doc_b = parse_gkg(
            serialize_gkg(demo_document(birthplace="Chelsea"))
            + "N ex:bare C core:Human\nL ex:bare en RogerWaters\n"
        )
        provider = BasisProvider(64)
        hierarchy, cfg = joint_setup(doc_a, doc_b, provider)
        person_a = only_entity(doc_a)
        sig = lambda doc, node: entity_signature(doc.graph, hierarchy, doc.labels, node, cfg)
        best = signature_similarity(sig(doc_a, person_a), sig(doc_b, only_entity(demo_document())))
        runner_up = signature_similarity(sig(doc_a, person_a), sig(doc_b, NodeId("ex", "bare")))
        band = best - runner_up
        assert (best, runner_up) == pytest.approx((CHANGED_FACT_SCORE, 0.5))
        assert best - band == runner_up

        got, want = both_aligners(doc_a, doc_b, provider, threshold=best, ambiguity_band=band)
        assert got == want
        assert [(a, s) for a, _, s in got.matches] == [(person_a, best)]

        wider = float(np.nextafter(band, 1.0))
        got, want = both_aligners(doc_a, doc_b, provider, threshold=best, ambiguity_band=wider)
        assert got == want
        assert got.matches == () and [s for _, s in got.ambiguous[0][1]] == [best, runner_up]

    def test_slot_key_on_one_side_only(self):
        """B has no fact slots at all: those keys add weight to every
        pair's denominator and nothing to its numerator."""
        doc_a = people_document([("RogerWaters", "London", DATES[0]), ("NickMason", "Chelsea", DATES[2])])
        doc_b = parse_gkg("N ex:rw C core:Human\nL ex:rw en RogerWaters\nN ex:nm C core:Human\nL ex:nm en NickMason\n")
        got, want = both_aligners(doc_a, doc_b, threshold=0.45)
        assert got == want
        assert sorted(s for _, _, s in got.matches) == pytest.approx([0.5, 0.5])

    def test_nan_vectors_score_zero_in_screen_too(self):
        class NanForGhost(BasisProvider):
            def token_vector(self, token):
                if token == "ghost":
                    return np.full(self.dim, np.nan)
                return super().token_vector(token)

        doc_a = parse_gkg("N ex:a C core:Thing\nL ex:a en ghost\n")
        doc_b = parse_gkg("N ex:b C core:Thing\nL ex:b en ghost\n")
        got, want = both_aligners(doc_a, doc_b, NanForGhost(64), threshold=0.45)
        assert got == want
        assert [s for _, _, s in got.matches] == pytest.approx([0.5])

    def test_far_pairs_are_not_rescored(self, monkeypatch):
        """Only pairs screened near the threshold reach
        ``signature_similarity``."""
        calls = []
        exact = gkg.alignment.signature_similarity
        monkeypatch.setattr(
            gkg.alignment, "signature_similarity", lambda a, b: calls.append(1) or exact(a, b)
        )
        rows = [(name, "London", DATES[0]) for name in ("RogerWaters", "DavidGilmour", "NickMason")]
        doc = people_document(rows)
        result = align_docs(doc, doc, config())
        assert len(result.matches) == 3
        assert len(calls) == 3

    def test_screened_pair_of_incompatible_types_is_not_rescored(self, monkeypatch):
        """Same name and facts, types neither a subtype of the other: the
        pair scores 0.875, above the floor, yet the screen never yields
        it, so it is neither rescored nor listed."""
        calls = []
        exact = gkg.alignment.signature_similarity
        monkeypatch.setattr(
            gkg.alignment, "signature_similarity", lambda a, b: calls.append(1) or exact(a, b)
        )
        doc_a = demo_document()
        doc_b = parse_gkg(
            "T t:Robot core:Entity\n" + serialize_gkg(doc_a).replace(" C core:Human", " C t:Robot")
        )
        hierarchy, cfg = joint_setup(doc_a, doc_b, BasisProvider(64), threshold=0.8)
        (conts_a, sigs_a), (conts_b, sigs_b) = (signed(doc, hierarchy, cfg) for doc in (doc_a, doc_b))
        assert signature_similarity(sigs_a[0], sigs_b[0]) == pytest.approx(0.875)
        floor = cfg.threshold - cfg.ambiguity_band - _SCREEN_SLACK
        assert list(_near_pairs(conts_a, sigs_a, conts_b, sigs_b, hierarchy, floor)) == []
        result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, cfg)
        assert (result.matches, result.ambiguous) == ((), ())
        assert calls == []

    def test_score_capped_by_key_sets_matches_at_the_cap(self):
        """B lacks the birth date, so one of the four slot keys is on A's
        side only and the score can be at most 3/4; here it is exactly
        3/4, which a threshold of 0.75 accepts."""
        rules, decls = parse_rules(DEMO_RULES_TEXT)
        doc_b, _report = canonicalize_document(
            [FlatTriple("RogerWaters", "bornIn", "Great Bookham")],
            rules,
            declarations=decls,
            entity_types={"RogerWaters": HUMAN_TYPE},
        )
        for pair in ((demo_document(), doc_b), (doc_b, demo_document())):
            got, want = both_aligners(*pair, threshold=0.75, ambiguity_band=0.0)
            assert got == want
            assert [s for _, _, s in got.matches] == [0.75]
            assert format_alignment_tsv(got).split("\t")[2] == "0.7500"


class TestAmbiguityBookkeeping:
    def test_withdrawn_ends_match_nothing(self):
        """A's one entity ties with both of B's: the pair is withdrawn, its
        tied rival is listed with it, and nothing matches, whichever
        document comes first."""
        doc_a = parse_gkg("N ex:a C core:Thing\nL ex:a en Smith\n")
        doc_b = parse_gkg(
            "N ex:b1 C core:Thing\nN ex:b2 C core:Thing\nL ex:b1 en Smith\nL ex:b2 en Smith\n"
        )
        result = align_docs(doc_a, doc_b, config())
        assert result.matches == ()
        assert ambiguous_rows(result) == {(NodeId("ex", "a"), NodeId("ex", b), 1.0) for b in ("b1", "b2")}
        swapped = align_docs(doc_b, doc_a, config())
        assert swapped.matches == ()
        assert ambiguous_rows(swapped) == {(b, a, s) for a, b, s in ambiguous_rows(result)}


def ambiguous_rows(result):
    return {(a, b, s) for a, rows in result.ambiguous for b, s in rows}


class TestAmbiguousRows:
    """An ambiguous pair lists itself and its free in-band rivals on
    either side, and nothing else."""

    @given(doc_pairs, providers, settings_kw)
    @settings(max_examples=100, deadline=None)
    def test_rows_swap_symmetric(self, pair, provider, kw):
        doc_a, doc_b = pair
        hierarchy, cfg = joint_setup(doc_a, doc_b, provider, **kw)
        forward = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, cfg)
        backward = align(doc_b.graph, doc_a.graph, hierarchy, doc_b.labels, doc_a.labels, cfg)
        assert ambiguous_rows(forward) == {(a, b, s) for b, a, s in ambiguous_rows(backward)}

    @given(doc_pairs, providers, settings_kw)
    @settings(max_examples=60, deadline=None)
    def test_tsv_round_trip(self, pair, provider, kw):
        doc_a, doc_b = pair
        hierarchy, cfg = joint_setup(doc_a, doc_b, provider, **kw)
        result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, cfg)
        parsed = parse_alignment_tsv(format_alignment_tsv(result))
        four = lambda score: float(f"{score:.4f}")
        by_score = lambda row: (-row[1], str(row[0]))
        assert parsed.matches == tuple((a, b, four(s)) for a, b, s in result.matches)
        assert parsed.ambiguous == tuple(
            (a, tuple(sorted(((b, four(s)) for b, s in rows), key=by_score)))
            for a, rows in result.ambiguous
        )

    def test_rival_exactly_a_band_below_is_not_listed(self):
        """b1 and b2 tie with a1, so a1–b1 is ambiguous; b3 sits exactly
        one band below, which is outside the band (as in the margin test),
        and one ulp more band brings it in."""
        doc_a = parse_gkg("N ex:a1 C core:Thing\nL ex:a1 en Smith\n")
        doc_b = parse_gkg(
            "N ex:b1 C core:Thing\nL ex:b1 en Smith\nN ex:b2 C core:Thing\nL ex:b2 en Smith\n"
            "N ex:b3 C core:Thing\nL ex:b3 en Smith Jones\n"
        )
        hierarchy, cfg = joint_setup(doc_a, doc_b, BasisProvider(64))
        sig = lambda doc, node: entity_signature(doc.graph, hierarchy, doc.labels, NodeId("ex", node), cfg)
        far = signature_similarity(sig(doc_a, "a1"), sig(doc_b, "b3"))
        assert far == pytest.approx((1 + 1 / math.sqrt(2)) / 2)
        band = 1.0 - far
        got, want = both_aligners(doc_a, doc_b, threshold=0.9, ambiguity_band=band)
        assert got == want
        rows = [(b.local, s) for _, rows in got.ambiguous for b, s in rows]
        assert rows == [("b1", 1.0), ("b2", 1.0)]

        wider = float(np.nextafter(band, 1.0))
        got, want = both_aligners(doc_a, doc_b, threshold=0.9, ambiguity_band=wider)
        assert got == want
        assert [b.local for _, rows in got.ambiguous for b, _ in rows] == ["b1", "b2", "b3"]

    def test_a_side_rival_is_listed_then_matches(self, monkeypatch):
        """a1–b1 (1.0) is contested only by a2 (0.854, within a band of
        0.2).  a2 is listed under b1 but stays free, and then matches b2
        (0.908) with nothing left to contest it.  b2 is 0.211 below a1–b1,
        outside the band, so it is not a rival of a1; b3 (0.5) is far from
        both A entities and is never scored."""
        calls = []
        exact = gkg.alignment.signature_similarity
        monkeypatch.setattr(
            gkg.alignment, "signature_similarity", lambda a, b: calls.append(1) or exact(a, b)
        )
        doc_a = parse_gkg("N ex:a1 C core:Thing\nL ex:a1 en Smith\nN ex:a2 C core:Thing\nL ex:a2 en Smith Jones\n")
        doc_b = parse_gkg(
            "N ex:b1 C core:Thing\nL ex:b1 en Smith\nN ex:b2 C core:Thing\nL ex:b2 en Smith Jones Brown\n"
            "N ex:b3 C core:Thing\nL ex:b3 en Zed\n"
        )
        got, want = both_aligners(doc_a, doc_b, threshold=0.9, ambiguity_band=0.2)
        assert got == want
        a1, a2, b1, b2 = (NodeId("ex", n) for n in ("a1", "a2", "b1", "b2"))
        rival = (1 + 1 / math.sqrt(2)) / 2
        assert [(a, b) for a, b, _ in got.matches] == [(a2, b2)]
        assert got.matches[0][2] == pytest.approx((1 + 2 / math.sqrt(6)) / 2)
        assert [(a, [b for b, _ in rows]) for a, rows in got.ambiguous] == [(a1, [b1]), (a2, [b1])]
        assert [s for _, rows in got.ambiguous for _, s in rows] == pytest.approx([1.0, rival])
        lines = format_alignment_tsv(got).splitlines()
        assert [line.split("\t")[::3] for line in lines] == [
            ["ex:a1", "AMBIG"], ["ex:a2", "AMBIG"], ["ex:a2", "MATCH"]
        ]
        # The oracle above goes through the patched name too; align alone
        # scores only the four pairs screened near the threshold.
        calls.clear()
        align_docs(doc_a, doc_b, config(threshold=0.9, ambiguity_band=0.2))
        assert len(calls) == 4


STAFF_RULES_TEXT = DEMO_RULES_TEXT + """\
RULE worksFor EVENT ont:Employment SUBJ hasAgent OBJ PARTICIPANT hasObject
ROLE Employee BASE core:Entity VIA hasAgent EVENT ont:Employment
CARD ont:Employment MANY
"""


def staff_document(rows):
    """(name, birthplace, birthdate, employer) rows; employers become
    continuants and employees get the ``Employee`` role."""
    rules, decls = parse_rules(STAFF_RULES_TEXT)
    triples = []
    for name, place, date, employer in rows:
        triples += [FlatTriple(name, "bornIn", place), FlatTriple(name, "bornOn", date),
                    FlatTriple(name, "worksFor", employer)]
    doc, _report = canonicalize_document(triples, rules, declarations=decls)
    return doc


class TestSigningWorkCounts:
    """``align`` embeds each distinct phrase once for both sides (names,
    lineage labels, fact values and role names, through the module global
    ``embed_phrase``), and its provider generates each distinct token's
    vector once (one ``embedding.SplitMix64`` stream per cache miss)."""

    STAFF = staff_document([
        ("RogerWaters", "Great Bookham", "06/09/1943", "Pink Floyd"),
        ("DavidGilmour", "Cambridge", "06/03/1946", "Pink Floyd"),
        ("NickMason", "Birmingham", "27/01/1944", "Pink Floyd"),
        ("SydBarrett", "Cambridge", "06/01/1946", "Stars"),
    ])
    STAFF_B = staff_document([
        ("Roger Waters", "Great Bookham", "06/09/1943", "Pink Floyd"),
        ("David Gilmour", "Cambridge", "06/03/1946", "Jokers Wild"),
        ("RichardWright", "London", "28/07/1943", "Pink Floyd"),
    ])
    PAIRS = [
        (STAFF, STAFF),
        (STAFF, STAFF_B),
        (demo_document(), demo_document(subject="GeorgeRogerWaters")),
        *((random_document(seed), random_document(seed + 100)) for seed in range(8)),
    ]

    @pytest.mark.parametrize("pair", PAIRS, ids=range(len(PAIRS)))
    def test_one_embedding_per_distinct_phrase_and_token(self, monkeypatch, pair):
        doc_a, doc_b = pair
        hierarchy, cfg = joint_setup(doc_a, doc_b, HashEmbeddingProvider(3, 16))
        sides = (doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels)
        reference = align(*sides, cfg)

        # The phrases each continuant's signature embeds when it is signed alone.
        needed, phrases, streams = set(), [], []
        embed, split_mix = gkg.alignment.embed_phrase, gkg.embedding.SplitMix64
        monkeypatch.setattr(gkg.alignment, "embed_phrase",
                            lambda provider, text: needed.add(text) or embed(provider, text))
        for graph, labels in ((doc_a.graph, doc_a.labels), (doc_b.graph, doc_b.labels)):
            for node in graph.continuants():
                entity_signature(graph, hierarchy, labels, node.id, cfg)

        monkeypatch.setattr(gkg.alignment, "embed_phrase",
                            lambda provider, text: phrases.append(text) or embed(provider, text))
        monkeypatch.setattr(gkg.embedding, "SplitMix64", lambda seed: streams.append(seed) or split_mix(seed))
        fresh = replace(cfg, provider=HashEmbeddingProvider(3, 16))
        assert align(*sides, fresh) == reference
        assert sorted(phrases) == sorted(needed)
        assert len(streams) == len({token for text in needed for token in tokenize(text)})
