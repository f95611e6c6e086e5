"""Entity alignment over grounded graphs, plus the flat baseline.

An entity's signature is a small set of named embedding slots: its display
name, its type lineage, one slot per (essential event type, attribute
type) fact, and its inferred role names.  Similarity is the mean of
per-slot cosines over the union of slot keys, so structure that one side
lacks counts against the pair instead of being ignored.

``flat_align`` scores whole flat triples against each other with the
additive phrase embedding.  It exists as the contrast baseline: renaming a
relation and changing a fact move its cosine by about the same amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .embedding import cosine, embed_phrase, embed_flat_triple, normalized
from .errors import GkgSyntaxError, InvalidParameterError, NotAContinuantError
from .formats import _content_lines, _node_id
from .model import Adjacency, GroundedGraph, NodeId, NodeKind, TypeHierarchy, infer_role_labels
from .multilingual import LabelTable
from .schema import SchemaDeclarations

SLOT_NAME = "name"
SLOT_TYPE = "type"
SLOT_ROLES = "roles"
_FACT_PREFIX = "fact"

DEFAULT_THRESHOLD = 0.9
DEFAULT_AMBIGUITY_BAND = 0.02

# Screened scores differ from exact ones by rounding only (about 1e-15);
# the screen keeps every pair within this slack of its cut-off.
_SCREEN_SLACK = 1e-9


def fact_slot_key(event_type: NodeId, attr_type: NodeId) -> str:
    return f"{_FACT_PREFIX}:{event_type}:{attr_type}"


@dataclass(frozen=True)
class EntitySignature:
    """Slot key -> unit vector, keys sorted."""

    slots: Mapping[str, np.ndarray]

    @classmethod
    def from_slots(cls, slots: Mapping[str, np.ndarray]) -> "EntitySignature":
        return cls({key: slots[key] for key in sorted(slots)})

    def slot_keys(self) -> Tuple[str, ...]:
        return tuple(self.slots)


@dataclass(frozen=True)
class AlignmentConfig:
    provider: object
    threshold: float = DEFAULT_THRESHOLD
    ambiguity_band: float = DEFAULT_AMBIGUITY_BAND
    pivot_lang: str = "en"
    declarations: SchemaDeclarations = SchemaDeclarations()

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise InvalidParameterError(f"threshold must be in (0, 1], got {self.threshold}")
        # A band as wide as the threshold would list every compatible pair as AMBIG.
        if not 0.0 <= self.ambiguity_band < self.threshold:
            raise InvalidParameterError(
                f"ambiguity band must be non-negative and below the threshold {self.threshold}, "
                f"got {self.ambiguity_band}"
            )


@dataclass(frozen=True)
class AlignmentResult:
    matches: Tuple[Tuple[NodeId, NodeId, float], ...] = ()
    unmatched_a: Tuple[NodeId, ...] = ()
    unmatched_b: Tuple[NodeId, ...] = ()
    ambiguous: Tuple[Tuple[NodeId, Tuple[Tuple[NodeId, float], ...]], ...] = ()


def entity_signature(
    graph: GroundedGraph,
    hierarchy: TypeHierarchy,
    labels: LabelTable,
    node_id: NodeId,
    config: AlignmentConfig,
) -> EntitySignature:
    """Signature of one continuant.  Name and type slots are always
    attempted; fact slots need an essential event type in the config's
    declarations; the roles slot appears only when their role definitions
    infer something."""
    node = graph.node(node_id)
    if node.kind is not NodeKind.CONTINUANT:
        raise NotAContinuantError(f"{node_id} is a {node.kind.name}, not a continuant")
    return _Signer(graph, hierarchy, labels, config).sign(node)


def _phrase(labels: LabelTable, node_id: NodeId, pivot_lang: str) -> str:
    """The node's label in the pivot language, or its id's local part."""
    label = labels.get(node_id, pivot_lang)
    return label if label is not None else node_id.local


class _Signer:
    """Signs the continuants of one graph.  It holds what all signatures
    over the graph share, each computed once: the graph's adjacency, the
    inferred roles and the type-slot vectors, which read this side's
    labels.  Ancestor sets are the hierarchy's own."""

    def __init__(self, graph: GroundedGraph, hierarchy: TypeHierarchy, labels: LabelTable,
                 config: AlignmentConfig):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        self.config = config
        self.type_vectors: Dict[NodeId, np.ndarray] = {}
        self.adjacency = Adjacency(graph.edges)
        self.roles: Dict[NodeId, list] = {}
        if config.declarations.roles:
            for node_id, role in infer_role_labels(graph, hierarchy, config.declarations.roles):
                self.roles.setdefault(node_id, []).append(role)

    def type_vector(self, type_id: NodeId) -> np.ndarray:
        """Normalized mean of the phrase vectors along the lineage."""
        found = self.type_vectors.get(type_id)
        if found is None:
            config = self.config
            vectors = [
                embed_phrase(config.provider, _phrase(self.labels, ancestor, config.pivot_lang))
                for ancestor in sorted(self.hierarchy.ancestors(type_id), key=str)
            ]
            found = self.type_vectors[type_id] = normalized(np.add.reduce(vectors) / float(len(vectors)))
        return found

    def sign(self, node) -> EntitySignature:
        config = self.config
        provider = config.provider
        hierarchy = self.hierarchy
        graph = self.graph
        slots: Dict[str, np.ndarray] = {}

        slots[SLOT_NAME] = embed_phrase(provider, _phrase(self.labels, node.id, config.pivot_lang))

        if node.inst_of is not None and node.inst_of in hierarchy:
            slots[SLOT_TYPE] = self.type_vector(node.inst_of)

        for essential in sorted(config.declarations.essential, key=str):
            if essential not in hierarchy:
                continue
            sums: Dict[NodeId, np.ndarray] = {}
            for event_id in self.adjacency.events_of.get(node.id, ()):
                event = graph.nodes.get(event_id)
                if event is None or event.kind is not NodeKind.OCCURRENT:
                    continue
                if event.inst_of is None or event.inst_of not in hierarchy:
                    continue
                if essential not in hierarchy.ancestors(event.inst_of):
                    continue
                for attr_id in self.adjacency.attrs_of.get(event_id, ()):
                    attr = graph.nodes.get(attr_id)
                    if attr is None or attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
                        continue
                    for value_id in self.adjacency.values.get(attr_id, ()):
                        value = graph.nodes.get(value_id)
                        if value is None or not value.literal:
                            continue
                        vector = embed_phrase(provider, value.literal)
                        if not np.any(vector):
                            continue
                        if attr.inst_of in sums:
                            sums[attr.inst_of] = sums[attr.inst_of] + vector
                        else:
                            sums[attr.inst_of] = vector
            for attr_type, total in sums.items():
                slots[fact_slot_key(essential, attr_type)] = normalized(total)

        role_names = self.roles.get(node.id)
        if role_names:
            total = np.zeros(provider.dim, dtype=np.float64)
            for role in sorted(set(role_names)):
                total = total + embed_phrase(provider, role)
            if np.any(total):
                slots[SLOT_ROLES] = normalized(total)

        return EntitySignature.from_slots(slots)


def signature_similarity(sig_a: EntitySignature, sig_b: EntitySignature) -> float:
    """Mean of :func:`slot_similarities` over the union of keys, a slot
    present on one side only counting 0."""
    scores = slot_similarities(sig_a, sig_b)
    if not scores:
        return 0.0
    # Summed left to right: sum() of floats compensates from Python 3.12.
    total = 0.0
    for score in scores.values():
        if score is not None:
            total += score
    return total / len(scores)


def slot_similarities(
    sig_a: EntitySignature, sig_b: EntitySignature
) -> Dict[str, Optional[float]]:
    """Per-slot clamped cosines over the union of keys; None marks a slot
    present on one side only.  :func:`signature_similarity` is their mean."""
    result: Dict[str, Optional[float]] = {}
    for key in sorted(set(sig_a.slots) | set(sig_b.slots)):
        vec_a = sig_a.slots.get(key)
        vec_b = sig_b.slots.get(key)
        result[key] = None if vec_a is None or vec_b is None else max(0.0, cosine(vec_a, vec_b))
    return result


def align(
    graph_a: GroundedGraph,
    graph_b: GroundedGraph,
    hierarchy: TypeHierarchy,
    labels_a: LabelTable,
    labels_b: LabelTable,
    config: AlignmentConfig,
) -> AlignmentResult:
    """Greedy mutual-best one-to-one matching of continuants.

    Candidate pairs are blocked to type-compatible entities (one inst type
    a subtype of the other).  Pairs are accepted in descending score order
    at or above the threshold; a pair whose winning score beats the best
    alternative of either endpoint by less than the ambiguity band is
    recorded as ambiguous and both endpoints are withdrawn: neither is
    listed as unmatched.  The result is symmetric in the argument order.

    An ambiguous pair's ``ambiguous`` rows are the pair itself and every
    rival still free on either side (another B candidate of its A end,
    another A candidate of its B end) whose score is within the band of
    the pair's: exactly the pairs that brought a margin under the band.
    A rival stays free, so it may still match or be contested later.
    Rows are grouped by A id.

    Every candidate is screened with one matrix product per slot key
    (:func:`_screen_scores`), which gives each score up to rounding.  Only
    pairs screened at or above ``threshold - ambiguity_band`` are rescored
    with :func:`signature_similarity`, and only those exact scores decide
    or appear in the result.  A pair screened out lies more than the band
    below the threshold, so it can neither match, nor bring a margin under
    the band, nor be listed as a rival.
    """
    signer_a = _Signer(graph_a, hierarchy, labels_a, config)
    signer_b = _Signer(graph_b, hierarchy, labels_b, config)

    conts_a = list(graph_a.continuants())
    conts_b = list(graph_b.continuants())
    sigs_a = [signer_a.sign(n) for n in conts_a]
    sigs_b = [signer_b.sign(n) for n in conts_b]
    ids_a = [n.id for n in conts_a]
    ids_b = [n.id for n in conts_b]
    names_a = [str(i) for i in ids_a]
    names_b = [str(i) for i in ids_b]

    compatible = _compatibility([n.inst_of for n in conts_a], [n.inst_of for n in conts_b], hierarchy)
    floor = config.threshold - config.ambiguity_band - _SCREEN_SLACK
    near = compatible & (_screen_scores(sigs_a, sigs_b) >= floor)

    cand_a: Dict[int, list] = {}
    cand_b: Dict[int, list] = {}
    ordered = []
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(near))):
        value = signature_similarity(sigs_a[i], sigs_b[j])
        cand_a.setdefault(i, []).append((j, value))
        cand_b.setdefault(j, []).append((i, value))
        if value >= config.threshold:
            ordered.append((value, i, j))
    ordered.sort(
        key=lambda t: (-t[0], min(names_a[t[1]], names_b[t[2]]), max(names_a[t[1]], names_b[t[2]]))
    )

    band = config.ambiguity_band
    free_a = set(range(len(conts_a)))
    free_b = set(range(len(conts_b)))
    matches: list = []
    ambiguous: Dict[int, list] = {}
    for value, i, j in ordered:
        if i not in free_a or j not in free_b:
            continue
        margin_a = value - _best_alternative(cand_a[i], j, free_b)
        margin_b = value - _best_alternative(cand_b[j], i, free_a)
        if min(margin_a, margin_b) < band:
            row = ambiguous.setdefault(i, [])
            row.append((ids_b[j], value))
            row.extend((ids_b[k], s) for k, s in cand_a[i] if k != j and k in free_b and value - s < band)
            for k, s in cand_b[j]:
                if k != i and k in free_a and value - s < band:
                    ambiguous.setdefault(k, []).append((ids_b[j], s))
        else:
            matches.append((ids_a[i], ids_b[j], value))
        free_a.discard(i)
        free_b.discard(j)

    return AlignmentResult(
        matches=tuple(sorted(matches, key=lambda m: (str(m[0]), str(m[1])))),
        unmatched_a=tuple(ids_a[i] for i in sorted(free_a)),
        unmatched_b=tuple(ids_b[j] for j in sorted(free_b)),
        ambiguous=tuple(
            (ids_a[i], tuple(sorted(row, key=lambda pair: (-pair[1], str(pair[0])))))
            for i, row in sorted(ambiguous.items(), key=lambda kv: names_a[kv[0]])
        ),
    )


def _best_alternative(candidates, excluded: int, free: set) -> float:
    best = -math.inf
    for other, other_score in candidates:
        if other != excluded and other in free and other_score > best:
            best = other_score
    return best


def _compatibility(types_a: Sequence, types_b: Sequence, hierarchy: TypeHierarchy) -> np.ndarray:
    """Boolean ``len(types_a) x len(types_b)`` mask of type-compatible
    pairs: both types known and one a subtype of the other, asked once
    per pair of distinct types."""
    known, ancestors = hierarchy.types, hierarchy.ancestors
    distinct_a = {t: k for k, t in enumerate(dict.fromkeys(types_a))}
    distinct_b = {t: k for k, t in enumerate(dict.fromkeys(types_b))}
    table = np.array(
        [
            [ta in known and tb in known and (tb in ancestors(ta) or ta in ancestors(tb)) for tb in distinct_b]
            for ta in distinct_a
        ],
        dtype=bool,
    ).reshape(len(distinct_a), len(distinct_b))
    rows = np.array([distinct_a[t] for t in types_a], dtype=np.intp)
    cols = np.array([distinct_b[t] for t in types_b], dtype=np.intp)
    return table[np.ix_(rows, cols)]


def _unit_rows(sigs: Sequence[EntitySignature], key: str):
    """Which signatures hold ``key``, and a stack of their ``key`` vectors
    scaled to unit length once, with zero rows for the others (None when
    no signature holds it).  A vector with a non-finite component gets a
    zero row: its cosine with anything is non-finite, which counts 0."""
    present = np.array([key in sig.slots for sig in sigs], dtype=bool)
    if not present.any():
        return present, None
    vectors = np.array([sig.slots[key] for sig in sigs if key in sig.slots], dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    stack = np.zeros((len(sigs), vectors.shape[1]), dtype=np.float64)
    stack[present] = vectors / np.where(norms == 0.0, 1.0, norms)
    stack[~np.isfinite(stack).all(axis=1)] = 0.0
    return present, stack


def _screen_scores(sigs_a: Sequence[EntitySignature], sigs_b: Sequence[EntitySignature]) -> np.ndarray:
    """:func:`signature_similarity` of every pair, up to rounding.

    Per slot key, in the sorted key order the exact score uses, the
    clamped cosines of all pairs come from one product of unit-row stacks;
    a key on one side only adds 0 to the numerator and 1 to the
    denominator.  Non-finite cosines count as 0, as in :func:`cosine`:
    :func:`_unit_rows` zeroes the rows that would give them.
    """
    numerator = np.zeros((len(sigs_a), len(sigs_b)), dtype=np.float64)
    denominator = np.zeros_like(numerator)
    for key in sorted({key for sig in (*sigs_a, *sigs_b) for key in sig.slots}):
        has_a, unit_a = _unit_rows(sigs_a, key)
        has_b, unit_b = _unit_rows(sigs_b, key)
        denominator += has_a[:, None] | has_b[None, :]
        if unit_a is not None and unit_b is not None:
            numerator += np.clip(unit_a @ unit_b.T, 0.0, 1.0)
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=denominator > 0.0)


def flat_align(
    triples_a: Sequence, triples_b: Sequence, config: AlignmentConfig
) -> Tuple[tuple, ...]:
    """Score every cross pair of flat triples by additive-embedding cosine,
    best first.  No blocking, no threshold: this is the baseline whose
    indistinguishable score bands motivate grounding."""
    vectors_a = [embed_flat_triple(config.provider, t) for t in triples_a]
    vectors_b = [embed_flat_triple(config.provider, t) for t in triples_b]
    scored = []
    for i, triple_a in enumerate(triples_a):
        for j, triple_b in enumerate(triples_b):
            scored.append((cosine(vectors_a[i], vectors_b[j]), i, j))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    return tuple((triples_a[i], triples_b[j], score) for score, i, j in scored)


def format_alignment_tsv(result: AlignmentResult) -> str:
    """Rows ``idA  idB  score  MATCH|AMBIG`` sorted by (idA, idB), scores
    to four decimals."""
    rows = [(str(a), str(b), score, "MATCH") for a, b, score in result.matches]
    for id_a, candidates in result.ambiguous:
        rows.extend((str(id_a), str(b), score, "AMBIG") for b, score in candidates)
    rows.sort(key=lambda row: (row[0], row[1]))
    return "".join(f"{a}\t{b}\t{score:.4f}\t{status}\n" for a, b, score, status in rows)


def parse_alignment_tsv(text: str) -> AlignmentResult:
    """Read rows written by :func:`format_alignment_tsv`.  Unmatched sides
    are not serialized, so they come back empty."""
    matches: list = []
    ambiguous: Dict[NodeId, list] = {}
    for line_no, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 4:
            raise GkgSyntaxError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
        id_a = _node_id(fields[0], line_no)
        id_b = _node_id(fields[1], line_no)
        try:
            score = float(fields[2])
        except ValueError:
            raise GkgSyntaxError(line_no, f"bad score {fields[2]!r}") from None
        status = fields[3]
        if status == "MATCH":
            matches.append((id_a, id_b, score))
        elif status == "AMBIG":
            ambiguous.setdefault(id_a, []).append((id_b, score))
        else:
            raise GkgSyntaxError(line_no, f"bad status {status!r}")
    return AlignmentResult(
        matches=tuple(sorted(matches, key=lambda m: (str(m[0]), str(m[1])))),
        ambiguous=tuple(
            (id_a, tuple(sorted(cands, key=lambda pair: (-pair[1], str(pair[0])))))
            for id_a, cands in sorted(ambiguous.items(), key=lambda kv: str(kv[0]))
        ),
    )
