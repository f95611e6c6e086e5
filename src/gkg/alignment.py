"""Entity alignment over grounded graphs, plus the flat baseline.

An entity's signature is a small set of named embedding slots: its display
name, its type lineage, one slot per (essential event type, attribute
type) fact, and its inferred role names.  Similarity is a weighted mean of
per-slot cosines over the union of slot keys, so structure that one side
lacks counts against the pair instead of being ignored.

``flat_align`` scores whole flat triples against each other with the
additive phrase embedding.  It exists as the contrast baseline: renaming a
relation and changing a fact move its cosine by about the same amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .embedding import cosine, embed_phrase, embed_flat_triple, normalized
from .errors import GkgSyntaxError, InvalidParameterError, NotAContinuantError
from .model import (
    GroundedGraph,
    NodeId,
    NodeKind,
    PARTICIPANT_RELATIONS,
    PrimitiveRelation,
    RoleConceptDef,
    TypeHierarchy,
    infer_role_labels,
)
from .multilingual import LabelTable

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


def slot_class(key: str) -> str:
    return key.split(":", 1)[0]


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
    weights: Mapping[str, float] = field(default_factory=dict)
    pivot_lang: str = "en"
    essential_events: frozenset = frozenset()
    role_defs: Tuple[RoleConceptDef, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise InvalidParameterError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.ambiguity_band < 0.0:
            raise InvalidParameterError(f"ambiguity band must be non-negative, got {self.ambiguity_band}")
        for cls_name, weight in self.weights.items():
            if weight <= 0.0:
                raise InvalidParameterError(f"weight for {cls_name!r} must be positive, got {weight}")

    def weight_for(self, cls_name: str) -> float:
        return self.weights.get(cls_name, 1.0)


@dataclass(frozen=True)
class AlignmentResult:
    matches: Tuple[Tuple[NodeId, NodeId, float], ...] = ()
    unmatched_a: Tuple[NodeId, ...] = ()
    unmatched_b: Tuple[NodeId, ...] = ()
    ambiguous: Tuple[Tuple[NodeId, Tuple[Tuple[NodeId, float], ...]], ...] = ()


class _GraphIndex:
    """Edge indexes shared by all signature computations over one graph."""

    def __init__(self, graph: GroundedGraph):
        self.graph = graph
        self.participants_by_entity: Dict[NodeId, list] = {}
        self.attrs_by_bearer: Dict[NodeId, list] = {}
        self.values_by_attr: Dict[NodeId, list] = {}
        for edge in graph.edges:
            if edge.relation in PARTICIPANT_RELATIONS:
                self.participants_by_entity.setdefault(edge.obj, []).append(edge.subject)
            elif edge.relation is PrimitiveRelation.HAS_PROP:
                self.attrs_by_bearer.setdefault(edge.obj, []).append(edge.subject)
            elif edge.relation is PrimitiveRelation.HAS_VALUE:
                self.values_by_attr.setdefault(edge.subject, []).append(edge.obj)


def entity_signature(
    graph: GroundedGraph,
    hierarchy: TypeHierarchy,
    labels: LabelTable,
    node_id: NodeId,
    config: AlignmentConfig,
) -> EntitySignature:
    """Signature of one continuant.  Name and type slots are always
    attempted; fact slots need an essential event type in the config; the
    roles slot appears only when role definitions infer something."""
    node = graph.node(node_id)
    if node.kind is not NodeKind.CONTINUANT:
        raise NotAContinuantError(f"{node_id} is a {node.kind.name}, not a continuant")
    role_names = [
        role for target, role in infer_role_labels(graph, hierarchy, config.role_defs)
        if target == node_id
    ]
    return _signature(_GraphIndex(graph), _TypeMemo(hierarchy, labels, config, {}), node, config, role_names)


def _type_phrase(labels: LabelTable, type_id: NodeId, pivot_lang: str) -> str:
    label = labels.get(type_id, pivot_lang)
    return label if label is not None else type_id.local


class _TypeMemo:
    """What signatures over one side derive from types alone, computed
    once per type: ancestor sets, in a dict the two sides of an alignment
    share, and type-slot vectors, which read this side's labels."""

    def __init__(self, hierarchy: TypeHierarchy, labels: LabelTable, config: AlignmentConfig, lineages: dict):
        self.hierarchy = hierarchy
        self.labels = labels
        self.config = config
        self.lineages: Dict[NodeId, frozenset] = lineages
        self.vectors: Dict[NodeId, np.ndarray] = {}

    def lineage(self, type_id: NodeId) -> frozenset:
        found = self.lineages.get(type_id)
        if found is None:
            found = self.lineages[type_id] = self.hierarchy.ancestors(type_id)
        return found

    def vector(self, type_id: NodeId) -> np.ndarray:
        """Normalized mean of the phrase vectors along the lineage."""
        found = self.vectors.get(type_id)
        if found is None:
            config = self.config
            vectors = [
                embed_phrase(config.provider, _type_phrase(self.labels, ancestor, config.pivot_lang))
                for ancestor in sorted(self.lineage(type_id), key=str)
            ]
            found = self.vectors[type_id] = normalized(np.add.reduce(vectors) / float(len(vectors)))
        return found


def _signature(
    index: _GraphIndex,
    memo: _TypeMemo,
    node,
    config: AlignmentConfig,
    role_names: Sequence[str],
) -> EntitySignature:
    provider = config.provider
    hierarchy = memo.hierarchy
    labels = memo.labels
    slots: Dict[str, np.ndarray] = {}

    name_text = labels.get(node.id, config.pivot_lang)
    if name_text is None:
        name_text = node.id.local
    slots[SLOT_NAME] = embed_phrase(provider, name_text)

    if node.inst_of is not None and node.inst_of in hierarchy:
        slots[SLOT_TYPE] = memo.vector(node.inst_of)

    graph = index.graph
    for essential in sorted(config.essential_events, key=str):
        if essential not in hierarchy:
            continue
        sums: Dict[NodeId, np.ndarray] = {}
        for event_id in index.participants_by_entity.get(node.id, ()):
            event = graph.nodes.get(event_id)
            if event is None or event.kind is not NodeKind.OCCURRENT:
                continue
            if event.inst_of is None or event.inst_of not in hierarchy:
                continue
            if essential not in memo.lineage(event.inst_of):
                continue
            for attr_id in index.attrs_by_bearer.get(event_id, ()):
                attr = graph.nodes.get(attr_id)
                if attr is None or attr.kind is not NodeKind.ATTRIBUTE_INSTANCE or attr.inst_of is None:
                    continue
                for value_id in index.values_by_attr.get(attr_id, ()):
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

    if role_names:
        total = np.zeros(provider.dim, dtype=np.float64)
        for role in sorted(set(role_names)):
            total = total + embed_phrase(provider, role)
        if np.any(total):
            slots[SLOT_ROLES] = normalized(total)

    return EntitySignature.from_slots(slots)


def signature_similarity(
    sig_a: EntitySignature, sig_b: EntitySignature, config: AlignmentConfig
) -> float:
    """Weighted mean of clamped per-slot cosines over the union of keys.
    A slot present on one side only contributes zero at full weight."""
    keys = sorted(set(sig_a.slots) | set(sig_b.slots))
    if not keys:
        return 0.0
    numerator = 0.0
    denominator = 0.0
    for key in keys:
        weight = config.weight_for(slot_class(key))
        denominator += weight
        vec_a = sig_a.slots.get(key)
        vec_b = sig_b.slots.get(key)
        if vec_a is None or vec_b is None:
            continue
        numerator += weight * max(0.0, cosine(vec_a, vec_b))
    return numerator / denominator


def slot_similarities(
    sig_a: EntitySignature, sig_b: EntitySignature
) -> Dict[str, Optional[float]]:
    """Per-slot clamped cosines over the union of keys; None marks a slot
    present on one side only.  Diagnostic companion to the scalar score."""
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
    index_a = _GraphIndex(graph_a)
    index_b = _GraphIndex(graph_b)
    roles_a = _roles_by_entity(graph_a, hierarchy, config)
    roles_b = _roles_by_entity(graph_b, hierarchy, config)

    conts_a = list(graph_a.continuants())
    conts_b = list(graph_b.continuants())
    lineages: Dict[NodeId, frozenset] = {}
    memo_a = _TypeMemo(hierarchy, labels_a, config, lineages)
    memo_b = _TypeMemo(hierarchy, labels_b, config, lineages)
    sigs_a = [_signature(index_a, memo_a, n, config, roles_a.get(n.id, ())) for n in conts_a]
    sigs_b = [_signature(index_b, memo_b, n, config, roles_b.get(n.id, ())) for n in conts_b]
    ids_a = [n.id for n in conts_a]
    ids_b = [n.id for n in conts_b]
    names_a = [str(i) for i in ids_a]
    names_b = [str(i) for i in ids_b]

    compatible = _compatibility([n.inst_of for n in conts_a], [n.inst_of for n in conts_b], memo_a)
    floor = config.threshold - config.ambiguity_band - _SCREEN_SLACK
    near = compatible & (_screen_scores(sigs_a, sigs_b, config) >= floor)

    cand_a: Dict[int, list] = {}
    cand_b: Dict[int, list] = {}
    ordered = []
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(near))):
        value = signature_similarity(sigs_a[i], sigs_b[j], config)
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


def _compatibility(types_a: Sequence, types_b: Sequence, memo: _TypeMemo) -> np.ndarray:
    """Boolean ``len(types_a) x len(types_b)`` mask of type-compatible
    pairs: both types known and one a subtype of the other.  Ancestor sets
    come from the memo, so each is computed once per distinct type."""
    lineage = {
        t: memo.lineage(t) for t in set(types_a) | set(types_b) if t is not None and t in memo.hierarchy
    }
    distinct_a = {t: k for k, t in enumerate(dict.fromkeys(types_a))}
    distinct_b = {t: k for k, t in enumerate(dict.fromkeys(types_b))}
    table = np.array(
        [
            [ta in lineage and tb in lineage and (tb in lineage[ta] or ta in lineage[tb]) for tb in distinct_b]
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
    no signature holds it)."""
    present = np.array([key in sig.slots for sig in sigs], dtype=bool)
    if not present.any():
        return present, None
    vectors = np.array([sig.slots[key] for sig in sigs if key in sig.slots], dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    stack = np.zeros((len(sigs), vectors.shape[1]), dtype=np.float64)
    stack[present] = vectors / np.where(norms == 0.0, 1.0, norms)
    return present, stack


def _screen_scores(
    sigs_a: Sequence[EntitySignature], sigs_b: Sequence[EntitySignature], config: AlignmentConfig
) -> np.ndarray:
    """:func:`signature_similarity` of every pair, up to rounding.

    Per slot key, in the sorted key order the exact score uses, the
    clamped cosines of all pairs come from one product of unit-row stacks;
    a key on one side only adds 0 to the numerator and its weight to the
    denominator.  Non-finite cosines count as 0, as in :func:`cosine`.
    """
    numerator = np.zeros((len(sigs_a), len(sigs_b)), dtype=np.float64)
    denominator = np.zeros_like(numerator)
    for key in sorted({key for sig in (*sigs_a, *sigs_b) for key in sig.slots}):
        weight = config.weight_for(slot_class(key))
        has_a, unit_a = _unit_rows(sigs_a, key)
        has_b, unit_b = _unit_rows(sigs_b, key)
        denominator += weight * (has_a[:, None] | has_b[None, :])
        if unit_a is not None and unit_b is not None:
            cosines = np.nan_to_num(unit_a @ unit_b.T, nan=0.0, posinf=0.0, neginf=0.0)
            numerator += weight * np.clip(cosines, 0.0, 1.0)
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=denominator > 0.0)


def _roles_by_entity(graph, hierarchy, config) -> Dict[NodeId, list]:
    if not config.role_defs:
        return {}
    by_entity: Dict[NodeId, list] = {}
    for node_id, role in infer_role_labels(graph, hierarchy, config.role_defs):
        by_entity.setdefault(node_id, []).append(role)
    return by_entity


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
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise GkgSyntaxError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
        try:
            id_a = NodeId.parse(fields[0])
            id_b = NodeId.parse(fields[1])
        except ValueError as exc:
            raise GkgSyntaxError(line_no, str(exc)) from None
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
