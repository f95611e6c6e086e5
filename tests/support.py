"""Shared helpers for the test suite: an orthonormal embedding provider
for exact arithmetic, a seeded random document generator, and a naive
reachability oracle."""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from gkg import (
    Edge,
    GkgDocument,
    GroundedGraph,
    LabelTable,
    Node,
    NodeId,
    NodeKind,
    PrimitiveRelation,
    RELATION_SIGNATURES,
    ROOT_TYPE,
    RoleConceptDef,
    SchemaDeclarations,
    TypeHierarchy,
)
from gkg.schema import AttrMode, Cardinality


class BasisProvider:
    """Maps each distinct token to its own standard basis vector, so
    phrase sums and cosines hit closed-form values exactly."""

    def __init__(self, dim: int = 32):
        self.dim = dim
        self._index: Dict[str, int] = {}

    def token_vector(self, token: str) -> np.ndarray:
        if not token:
            raise ValueError("empty token")
        index = self._index.get(token)
        if index is None:
            if len(self._index) >= self.dim:
                raise ValueError("basis exhausted; raise dim")
            index = len(self._index)
            self._index[token] = index
        vector = np.zeros(self.dim, dtype=np.float64)
        vector[index] = 1.0
        return vector


# Thirteen nodes, five edges, one label; exercises every node kind.
WORKED_TEXT = """\
T ont:Birth core:Entity
N ex:rw C core:Human
N ex:birth1 O ont:Birth
N ex:t1 A ont:Time
N ex:l1 A ont:Location
N ex:v1 V ont:Date 01/08/1955
N ex:v2 V ont:Village Great Bookham
E ex:birth1 participantIn ex:rw
E ex:t1 hasProp ex:birth1
E ex:t1 hasValue ex:v1
E ex:l1 hasProp ex:birth1
E ex:l1 hasValue ex:v2
L ex:rw en Roger Waters
"""


def reachable(parents: Dict[NodeId, FrozenSet[NodeId]], start: NodeId) -> Set[NodeId]:
    """Ancestors of ``start`` including itself, by plain graph walking.
    Used as an independent oracle for subtype queries."""
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for parent in parents.get(current, ()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
)

_LANGS = ("en", "fr", "de", "ar")


def _literal(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))


def random_document(seed: int) -> GkgDocument:
    """A small random document that passes validation.

    Mirrors the parser's own construction path (``from_edges`` for the
    hierarchy, raw graph assembly) so that equality against a re-parsed
    copy is meaningful.
    """
    rng = random.Random(seed)

    type_ids = [NodeId("t", f"T{i}") for i in range(rng.randint(1, 6))]
    pairs: List[Tuple[NodeId, Optional[NodeId]]] = []
    for i, type_id in enumerate(type_ids):
        choices = type_ids[:i]
        if choices and rng.random() < 0.7:
            for parent in rng.sample(choices, rng.randint(1, min(2, len(choices)))):
                pairs.append((type_id, parent))
        else:
            pairs.append((type_id, None))
    hierarchy = TypeHierarchy.from_edges(pairs)
    all_types = sorted(hierarchy.types)

    nodes: Dict[NodeId, Node] = {}

    def add(prefix: str, kind: NodeKind, count: int) -> List[NodeId]:
        made = []
        for i in range(count):
            node_id = NodeId("x", f"{prefix}{i}")
            literal = _literal(rng) if kind is NodeKind.VALUE_LITERAL else None
            nodes[node_id] = Node(node_id, kind, inst_of=rng.choice(all_types), literal=literal)
            made.append(node_id)
        return made

    continuants = add("c", NodeKind.CONTINUANT, rng.randint(1, 4))
    occurrents = add("o", NodeKind.OCCURRENT, rng.randint(0, 3))
    attrs = add("a", NodeKind.ATTRIBUTE_INSTANCE, rng.randint(0, 3))
    values = add("v", NodeKind.VALUE_LITERAL, rng.randint(0, 3))
    del continuants, occurrents, attrs, values

    node_ids = sorted(nodes)
    kind_by_id = {node_id: nodes[node_id].kind for node_id in node_ids}
    for type_id in all_types:
        kind_by_id[type_id] = NodeKind.TYPE_NODE
    pool = node_ids + all_types

    edges: Set[Edge] = set()
    for _ in range(rng.randint(0, 12)):
        for _attempt in range(20):
            subject = rng.choice(pool)
            obj = rng.choice(pool)
            relation = rng.choice(list(PrimitiveRelation))
            if (kind_by_id[subject], kind_by_id[obj]) in RELATION_SIGNATURES[relation]:
                edges.add(Edge(subject, relation, obj))
                break

    labels: Dict[Tuple[NodeId, str], str] = {}
    for node_id in rng.sample(node_ids, min(len(node_ids), rng.randint(0, 4))):
        labels[(node_id, rng.choice(_LANGS))] = _literal(rng)
    if rng.random() < 0.3:
        labels[(NodeId("rel", "participantIn"), "fr")] = "participe a"

    event_types = [t for t in all_types if t != ROOT_TYPE]
    essential = frozenset(rng.sample(event_types, min(len(event_types), rng.randint(0, 2))))
    cardinality = {
        t: rng.choice(list(Cardinality))
        for t in rng.sample(event_types, min(len(event_types), rng.randint(0, 2)))
    }
    attr_modes = {}
    if event_types and rng.random() < 0.5:
        attr_modes[(rng.choice(event_types), rng.choice(event_types))] = rng.choice(list(AttrMode))
    roles = []
    if event_types and rng.random() < 0.4:
        roles.append(
            RoleConceptDef(
                f"Role{seed % 97}",
                rng.choice(all_types),
                rng.choice(sorted(PARTICIPANT_CHOICES, key=lambda r: r.value)),
                rng.choice(all_types),
            )
        )
    declarations = SchemaDeclarations(
        essential=essential,
        cardinality=cardinality,
        attr_modes=attr_modes,
        roles=tuple(sorted(roles, key=lambda r: r.role_name)),
    )

    source_id = rng.choice(("", "", f"src{seed}"))
    revision = rng.choice((0, 0, 1, 3))
    graph = GroundedGraph(nodes, frozenset(edges), source_id, revision)
    return GkgDocument(hierarchy, graph, labels and LabelTable(labels) or LabelTable(), declarations)


PARTICIPANT_CHOICES = (
    PrimitiveRelation.PARTICIPANT_IN,
    PrimitiveRelation.HAS_AGENT,
    PrimitiveRelation.HAS_OBJECT,
)
