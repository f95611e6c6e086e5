"""Built-in evaluation suites.

The flat suite generates RogerWaters/LivesIn/London-shaped triple
quartets from random tokens and shows that, under additive phrase
embeddings, renaming the relation and changing the fact land in the same
cosine band: the score cannot tell harmless paraphrase from a different
statement.  The grounded suite builds a small birth-event document and
scores mutants of it with entity signatures, where the two edits separate
cleanly.

Reference cosines quoted in the footers come from an external pretrained
embedding model and are not reproducible with the hash provider; they are
printed for qualitative comparison only.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Tuple

import numpy as np

from .alignment import (
    DEFAULT_THRESHOLD,
    AlignmentConfig,
    align,
    entity_signature,
    signature_similarity,
    slot_similarities,
)
from .canonicalize import canonicalize_document
from .embedding import DEFAULT_DIM, HashEmbeddingProvider, cosine, embed_flat_triple
from .errors import InvalidParameterError
from .formats import FlatTriple, GkgDocument, parse_rules
from .hashing import SplitMix64
from .model import NodeId, PrimitiveRelation
from .multilingual import gloss_id

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100

#: Pair -> what changed between the two triples of the quartet.
PAIR_CLASSES: Mapping[Tuple[str, str], str] = {
    ("t1", "t2"): "relation_renamed",
    ("t1", "t3"): "fact_changed",
    ("t1", "t4"): "both_changed",
    ("t2", "t3"): "both_changed",
    ("t2", "t4"): "fact_changed",
    ("t3", "t4"): "relation_renamed",
}

#: External-model reference cosines for the same six pairs (not
#: reproducible with the hash provider).
REFERENCE_FLAT_COSINES: Mapping[Tuple[str, str], float] = {
    ("t1", "t2"): 0.8853,
    ("t1", "t3"): 0.9298,
    ("t1", "t4"): 0.7989,
    ("t2", "t3"): 0.8219,
    ("t2", "t4"): 0.9204,
    ("t3", "t4"): 0.8849,
}

#: External-model analogue for the changed-location grounded mutant.
REFERENCE_GROUNDED_CHANGED_LOCATION = 0.688


def _fresh_tokens(rng: SplitMix64, count: int, used: set) -> list:
    tokens = []
    while len(tokens) < count:
        token = f"w{rng.next_u64():016x}"
        if token not in used:
            used.add(token)
            tokens.append(token)
    return tokens


def eval_flat(seed: int = DEFAULT_SEED, dim: int = DEFAULT_DIM, trials: int = DEFAULT_TRIALS) -> str:
    """Report of cosine statistics over ``trials`` random triple quartets:
    the mean and standard deviation of each pair and of each band of
    pairs, and how far apart the renamed-relation and changed-fact bands'
    means lie.

    Each quartet holds one entity token, two relation tokens and two
    location tokens: t1=(E,R1,L1), t2=(E,R2,L1), t3=(E,R1,L2),
    t4=(E,R2,L2).  Renamed-relation and changed-fact pairs both share two
    of three phrases, so their cosines concentrate around 2/3 together.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    provider = HashEmbeddingProvider(seed, dim)
    rng = SplitMix64(seed)
    used: set = set()
    samples: Dict[Tuple[str, str], list] = {pair: [] for pair in PAIR_CLASSES}

    for _ in range(trials):
        entity, rel1, rel2, loc1, loc2 = _fresh_tokens(rng, 5, used)
        vectors = {
            "t1": embed_flat_triple(provider, FlatTriple(entity, rel1, loc1)),
            "t2": embed_flat_triple(provider, FlatTriple(entity, rel2, loc1)),
            "t3": embed_flat_triple(provider, FlatTriple(entity, rel1, loc2)),
            "t4": embed_flat_triple(provider, FlatTriple(entity, rel2, loc2)),
        }
        for left, right in PAIR_CLASSES:
            samples[(left, right)].append(cosine(vectors[left], vectors[right]))

    lines = [f"trials\t{trials}\tseed\t{seed}\tdim\t{dim}"]
    bands: Dict[str, list] = {}
    for pair, cls_name in sorted(PAIR_CLASSES.items()):
        values = samples[pair]
        bands.setdefault(cls_name, []).extend(values)
        lines.append(f"pair\t{pair[0]}-{pair[1]}\t{cls_name}\t{np.mean(values):.4f}\t{np.std(values):.4f}")
    means = {cls_name: float(np.mean(values)) for cls_name, values in bands.items()}
    for cls_name in ("relation_renamed", "fact_changed", "both_changed"):
        lines.append(f"band\t{cls_name}\t{means[cls_name]:.4f}\t{np.std(bands[cls_name]):.4f}")
    lines.append(f"band_delta\t{abs(means['relation_renamed'] - means['fact_changed']):.4f}")
    reference = "  ".join(
        f"{pair[0]}-{pair[1]} {value:.4f}" for pair, value in sorted(REFERENCE_FLAT_COSINES.items())
    )
    lines.append(f"# external-model reference cosines (not reproducible here): {reference}")
    return "".join(line + "\n" for line in lines)


# --- grounded demo document and mutants -----------------------------------

DEMO_RULES_TEXT = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
ESSENTIAL ont:Birth
CARD ont:Birth ONE
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
"""

HUMAN_TYPE = NodeId("core", "Human")
BIRTH_TYPE = NodeId("ont", "Birth")


def demo_document(
    subject: str = "RogerWaters",
    birthplace: str = "Great Bookham",
    birthdate: str = "01/08/1955",
    source_id: str = "",
    revision: int = 0,
) -> GkgDocument:
    """A one-person document: a birth event with time and location
    attributes, built through the canonicalizer from two flat triples."""
    rules, decls = parse_rules(DEMO_RULES_TEXT)
    triples = (
        FlatTriple(subject, "bornIn", birthplace),
        FlatTriple(subject, "bornOn", birthdate),
    )
    doc, _report = canonicalize_document(
        triples,
        rules,
        declarations=decls,
        entity_types={subject: HUMAN_TYPE},
        source_id=source_id,
        revision=revision,
    )
    return doc


def _with_swapped_glosses(doc: GkgDocument) -> GkgDocument:
    """Same structure and ids, different relation glosses (and a spare
    French label).  Rendering output changes; signatures must not."""
    labels = doc.labels
    labels = labels.with_label(gloss_id(PrimitiveRelation.PARTICIPANT_IN), "en", "involves")
    labels = labels.with_label(gloss_id(PrimitiveRelation.HAS_PROP), "en", "bears")
    labels = labels.with_label(gloss_id(PrimitiveRelation.HAS_VALUE), "en", "equals")
    labels = labels.with_label(gloss_id(PrimitiveRelation.PARTICIPANT_IN), "fr", "participe a")
    return replace(doc, labels=labels)


def eval_grounded(
    seed: int = DEFAULT_SEED, dim: int = DEFAULT_DIM, threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Report of three mutants of the demo document scored against it (a
    renamed entity, a changed birth location, and swapped relation
    glosses): one ``mutant`` row each with its similarity and whether
    :func:`align` matches it, then one ``slot`` row per slot of each."""
    base = demo_document()
    # Pairs are scored, never aligned, so no ambiguity band applies.
    config = AlignmentConfig(
        provider=HashEmbeddingProvider(seed, dim), threshold=threshold, ambiguity_band=0.0,
        declarations=base.declarations,
    )
    mutants = (
        ("renamed_entity", demo_document(subject="GeorgeRogerWaters")),
        ("changed_location", demo_document(birthplace="Chelsea")),
        ("gloss_only", _with_swapped_glosses(demo_document())),
    )

    base_entity = next(base.graph.continuants())
    sig_base = entity_signature(base.graph, base.hierarchy, base.labels, base_entity.id, config)
    lines = [f"seed\t{seed}\tdim\t{dim}\tthreshold\t{threshold:.4f}"]
    slot_lines = []
    for name, mutant in mutants:
        mutant_entity = next(mutant.graph.continuants())
        sig_mut = entity_signature(mutant.graph, mutant.hierarchy, mutant.labels, mutant_entity.id, config)
        result = align(base.graph, mutant.graph, base.hierarchy, base.labels, mutant.labels, config)
        matched = any(a == base_entity.id and b == mutant_entity.id for a, b, _ in result.matches)
        status = "MATCH" if matched else "NO_MATCH"
        lines.append(f"mutant\t{name}\t{signature_similarity(sig_base, sig_mut):.4f}\t{status}")
        for key, value in slot_similarities(sig_base, sig_mut).items():
            rendered = "absent" if value is None else f"{value:.4f}"
            slot_lines.append(f"slot\t{name}\t{key}\t{rendered}")
    lines.extend(slot_lines)
    lines.append(
        "# external-model analogue for changed_location: "
        f"{REFERENCE_GROUNDED_CHANGED_LOCATION:.3f} (not reproducible here)"
    )
    return "".join(line + "\n" for line in lines)
