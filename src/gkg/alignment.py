"""Entity alignment over grounded graphs.

An entity's signature is a small set of named embedding slots: its display
name, its type lineage, one slot per (essential event type, attribute
type) fact, and its inferred role names.  Similarity is the mean of
per-slot cosines over the union of slot keys, so structure that one side
lacks counts against the pair instead of being ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .embedding import cosine, embed_phrase, normalized
from .errors import GkgSyntaxError, InvalidParameterError, NotAContinuantError
from .formats import _content_lines
from .model import (
    GroundedGraph,
    NodeId,
    TypeHierarchy,
    _A,
    _C,
    _equal_to_own_type,
    _ForwardLinks,
    _id_reader,
    _O,
    infer_role_labels,
)
from .multilingual import FALLBACK_LANG, LabelTable, node_names
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
# Rows of A screened at once against one group of B.
_TILE = 256


def fact_slot_key(event_type: NodeId, attr_type: NodeId) -> str:
    return f"{_FACT_PREFIX}:{event_type}:{attr_type}"


@_equal_to_own_type
class EntitySignature(NamedTuple):
    """Slot key -> unit vector, keys sorted."""

    slots: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class AlignmentConfig:
    provider: object
    threshold: float = DEFAULT_THRESHOLD
    ambiguity_band: float = DEFAULT_AMBIGUITY_BAND
    pivot_lang: str = FALLBACK_LANG
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


@_equal_to_own_type
class AlignmentResult(NamedTuple):
    matches: Tuple[Tuple[NodeId, NodeId, float], ...] = ()
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
    if node.kind is not _C:
        raise NotAContinuantError(f"{node_id} is a {node.kind.name}, not a continuant")
    return _Signer(graph, hierarchy, labels, config, {}).sign(node)


class _Signer:
    """Signs the continuants of one graph.  It holds what all signatures
    over the graph share, each computed once: the graph's forward links, the
    essential types it can sign, the name of each continuant and hierarchy
    type in the pivot language (:func:`node_names`, from this side's
    labels), the roles-slot vector of each distinct role set and the
    type-slot vectors.  ``phrases`` maps each phrase embedded so far to its
    vector; ``align`` hands both sides one table.  Ancestor sets are the
    hierarchy's own."""

    def __init__(self, graph: GroundedGraph, hierarchy: TypeHierarchy, labels: LabelTable,
                 config: AlignmentConfig, phrases: Dict[str, np.ndarray]):
        self.graph = graph
        self.hierarchy = hierarchy
        self.config = config
        self.phrases = phrases
        named = [node_id for node_id, node in graph.nodes.items() if node.kind is _C]
        named += hierarchy.types
        self.names = dict(zip(named, node_names(labels, named, config.pivot_lang)))
        self.type_vectors: Dict[NodeId, np.ndarray] = {}
        self.links = _ForwardLinks(graph.edges)
        self.essentials = [e for e in sorted(config.declarations.essential) if e in hierarchy]
        role_names: Dict[NodeId, set] = {}
        if config.declarations.roles:
            for node_id, role in infer_role_labels(graph, hierarchy, config.declarations.roles):
                role_names.setdefault(node_id, set()).add(role)
        self.roles = {node_id: tuple(sorted(names)) for node_id, names in role_names.items()}
        self.role_vectors: Dict[tuple, Optional[np.ndarray]] = {}

    def phrase_vector(self, text: str) -> np.ndarray:
        """The phrase's vector, from the module global ``embed_phrase`` the
        first time the table is asked for it."""
        found = self.phrases.get(text)
        if found is None:
            found = self.phrases[text] = embed_phrase(self.config.provider, text)
        return found

    def type_vector(self, type_id: NodeId) -> np.ndarray:
        """Normalized mean of the phrase vectors along the lineage."""
        found = self.type_vectors.get(type_id)
        if found is None:
            names = self.names
            vectors = [self.phrase_vector(names[ancestor]) for ancestor in sorted(self.hierarchy.ancestors(type_id))]
            found = self.type_vectors[type_id] = normalized(np.add.reduce(vectors) / float(len(vectors)))
        return found

    def sign(self, node) -> EntitySignature:
        hierarchy = self.hierarchy
        nodes = self.graph.nodes
        links = self.links
        slots: Dict[str, np.ndarray] = {}

        slots[SLOT_NAME] = self.phrase_vector(self.names[node.id])

        if node.inst_of in hierarchy:
            slots[SLOT_TYPE] = self.type_vector(node.inst_of)

        for essential in self.essentials:
            sums: Dict[NodeId, np.ndarray] = {}
            for event_id in links.events_of.get(node.id, ()):
                event = nodes.get(event_id)
                if event is None or event.kind is not _O:
                    continue
                if event.inst_of not in hierarchy:
                    continue
                if essential not in hierarchy.ancestors(event.inst_of):
                    continue
                for attr_id in links.attrs_of.get(event_id, ()):
                    attr = nodes.get(attr_id)
                    if attr is None or attr.kind is not _A or attr.inst_of is None:
                        continue
                    for value_id in links.values.get(attr_id, ()):
                        value = nodes.get(value_id)
                        if value is None or not value.literal:
                            continue
                        vector = self.phrase_vector(value.literal)
                        if not vector.any():
                            continue
                        if attr.inst_of in sums:
                            sums[attr.inst_of] = sums[attr.inst_of] + vector
                        else:
                            sums[attr.inst_of] = vector
            for attr_type, total in sums.items():
                slots[fact_slot_key(essential, attr_type)] = normalized(total)

        roles = self.roles.get(node.id)
        if roles is not None and roles not in self.role_vectors:
            total = np.zeros(self.config.provider.dim, dtype=np.float64)
            for role in roles:
                total = total + self.phrase_vector(role)
            self.role_vectors[roles] = normalized(total) if total.any() else None
        roles_vector = self.role_vectors.get(roles)
        if roles_vector is not None:
            slots[SLOT_ROLES] = roles_vector

        return EntitySignature({key: slots[key] for key in sorted(slots)})


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

    Candidates are type-compatible pairs (one inst type a subtype of the
    other).  Pairs are accepted in descending score order at or above the
    threshold; a pair whose winning score beats the best alternative of
    either endpoint by less than the ambiguity band is recorded as
    ambiguous and both endpoints are withdrawn.  Continuants left over are
    not listed.  The result is symmetric in the argument order, except
    for crossed twins: when x and y swap labels between the documents,
    (x, y) and (y, x) tie, and which one matches follows the A index, so
    swapping the arguments can flip it (pinned by
    ``test_pair_order_does_not_reach_the_result``).

    An ambiguous pair's ``ambiguous`` rows are the pair itself and every
    rival still free on either side (another B candidate of its A end,
    another A candidate of its B end) whose score is within the band of
    the pair's: exactly the pairs that brought a margin under the band.
    A rival stays free, so it may still match or be contested later.
    Rows are grouped by A id.

    Pairs are screened by :func:`_near_pairs`, which gives each score up
    to rounding.  Only type-compatible pairs screened at or above
    ``threshold - ambiguity_band`` are rescored with
    :func:`signature_similarity`; only those exact scores decide or appear
    in the result.  A pair screened out lies more than the band below the
    threshold, so it can neither match, nor bring a margin under the band,
    nor be listed as a rival.
    """
    phrases: Dict[str, np.ndarray] = {}
    signer_a = _Signer(graph_a, hierarchy, labels_a, config, phrases)
    signer_b = _Signer(graph_b, hierarchy, labels_b, config, phrases)

    conts_a = list(graph_a.continuants())
    conts_b = list(graph_b.continuants())
    sigs_a = [signer_a.sign(n) for n in conts_a]
    sigs_b = [signer_b.sign(n) for n in conts_b]
    ids_a = [n.id for n in conts_a]
    ids_b = [n.id for n in conts_b]

    floor = config.threshold - config.ambiguity_band - _SCREEN_SLACK
    cand_a: Dict[int, list] = {}
    cand_b: Dict[int, list] = {}
    ordered = []
    for i, j in _near_pairs(conts_a, sigs_a, conts_b, sigs_b, hierarchy, floor):
        value = signature_similarity(sigs_a[i], sigs_b[j])
        cand_a.setdefault(i, []).append((j, value))
        cand_b.setdefault(j, []).append((i, value))
        if value >= config.threshold:
            ordered.append((value, i, j))
    # Pairs tie on (score, ids) only as crossed twins (x, y) and (y, x):
    # the A index orders them as a row-major walk over all pairs would.
    ordered.sort(key=lambda t: (-t[0], min(ids_a[t[1]], ids_b[t[2]]), max(ids_a[t[1]], ids_b[t[2]]), t[1]))

    band = config.ambiguity_band
    free_a = set(range(len(conts_a)))
    free_b = set(range(len(conts_b)))
    matches: list = []
    ambiguous: Dict[NodeId, list] = {}
    for value, i, j in ordered:
        if i not in free_a or j not in free_b:
            continue
        margin_a = value - _best_alternative(cand_a[i], j, free_b)
        margin_b = value - _best_alternative(cand_b[j], i, free_a)
        if min(margin_a, margin_b) < band:
            row = ambiguous.setdefault(ids_a[i], [])
            row.append((ids_b[j], value))
            row.extend((ids_b[k], s) for k, s in cand_a[i] if k != j and k in free_b and value - s < band)
            for k, s in cand_b[j]:
                if k != i and k in free_a and value - s < band:
                    ambiguous.setdefault(ids_a[k], []).append((ids_b[j], s))
        else:
            matches.append((ids_a[i], ids_b[j], value))
        free_a.discard(i)
        free_b.discard(j)

    return _ordered_result(matches, ambiguous)


def _ordered_result(matches: list, ambiguous: Dict[NodeId, list]) -> AlignmentResult:
    """The result in its one order: matches by (idA, idB); ``AMBIG`` rows
    grouped by idA, each group by descending score, then idB."""
    return AlignmentResult(
        matches=tuple(sorted(matches, key=itemgetter(0, 1))),
        ambiguous=tuple(
            (id_a, tuple(sorted(row, key=lambda pair: (-pair[1], pair[0]))))
            for id_a, row in sorted(ambiguous.items(), key=itemgetter(0))
        ),
    )


def _best_alternative(candidates, excluded: int, free: set) -> float:
    best = -math.inf
    for other, other_score in candidates:
        if other != excluded and other in free and other_score > best:
            best = other_score
    return best


def _near_pairs(conts_a, sigs_a, conts_b, sigs_b, hierarchy: TypeHierarchy, floor: float):
    """Each type-compatible pair (i, j) whose :func:`signature_similarity`
    screens at or above ``floor``, by groups of one inst type and one slot
    key set.  A group pair is skipped when neither type is a subtype of the
    other, or when its shared over its union keys fall below ``floor``: a
    clamped cosine is at most 1.  Otherwise, ``_TILE`` A rows at a time, the
    shared keys in sorted order each add one product of unit-row stacks,
    clamped, and the union is the denominator, as in the exact score.  A
    row with a non-finite component is zeroed: its cosine counts 0."""

    def groups(conts, sigs):
        members: Dict[tuple, list] = {}
        for index, (node, sig) in enumerate(zip(conts, sigs)):
            if node.inst_of in hierarchy:
                members.setdefault((node.inst_of, frozenset(sig.slots)), []).append(index)
        for (type_id, keys), rows in members.items():
            units = {}
            for key in keys:
                vectors = np.array([sigs[index].slots[key] for index in rows], dtype=np.float64)
                norms = np.linalg.norm(vectors, axis=1, keepdims=True)
                unit = units[key] = vectors / np.where(norms == 0.0, 1.0, norms)
                unit[~np.isfinite(unit).all(axis=1)] = 0.0
            yield type_id, keys, rows, units

    groups_b = list(groups(conts_b, sigs_b))
    for type_a, keys_a, rows_a, units_a in groups(conts_a, sigs_a):
        for type_b, keys_b, rows_b, units_b in groups_b:
            union = len(keys_a | keys_b)
            compatible = type_b in hierarchy.ancestors(type_a) or type_a in hierarchy.ancestors(type_b)
            if not compatible or len(keys_a & keys_b) / union < floor:
                continue
            for start in range(0, len(rows_a), _TILE):
                tile = rows_a[start:start + _TILE]
                numerator = np.zeros((len(tile), len(rows_b)), dtype=np.float64)
                for key in sorted(keys_a & keys_b):
                    numerator += np.clip(units_a[key][start:start + _TILE] @ units_b[key].T, 0.0, 1.0)
                for i, j in zip(*(axis.tolist() for axis in np.nonzero(numerator / union >= floor))):
                    yield tile[i], rows_b[j]


def format_alignment_tsv(result: AlignmentResult) -> str:
    """Rows ``idA  idB  score  MATCH|AMBIG`` sorted by (idA, idB), scores
    to four decimals."""
    rows = [(a, b, score, "MATCH") for a, b, score in result.matches]
    for id_a, candidates in result.ambiguous:
        rows.extend((id_a, b, score, "AMBIG") for b, score in candidates)
    rows.sort(key=itemgetter(0, 1))
    return "".join(f"{a}\t{b}\t{score:.4f}\t{status}\n" for a, b, score, status in rows)


def parse_alignment_tsv(text: str) -> AlignmentResult:
    """Read rows written by :func:`format_alignment_tsv`, parsing each
    distinct id token once.  A score outside [0, 1] (NaN and infinities
    included) is a syntax error."""
    matches: list = []
    ambiguous: Dict[NodeId, list] = {}
    _, node_id_of = _id_reader()
    for line_no, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 4:
            raise GkgSyntaxError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
        id_a = node_id_of(fields[0], line_no)
        id_b = node_id_of(fields[1], line_no)
        try:
            score = float(fields[2])
        except ValueError:
            raise GkgSyntaxError(line_no, f"bad score {fields[2]!r}") from None
        # A score is a mean of clamped cosines; NaN fails both comparisons.
        if not 0.0 <= score <= 1.0:
            raise GkgSyntaxError(line_no, f"score {fields[2]!r} is not a number in [0, 1]")
        status = fields[3]
        if status == "MATCH":
            matches.append((id_a, id_b, score))
        elif status == "AMBIG":
            ambiguous.setdefault(id_a, []).append((id_b, score))
        else:
            raise GkgSyntaxError(line_no, f"bad status {status!r}")
    return _ordered_result(matches, ambiguous)
