"""Language-tagged labels, rendered views, and structural comparison.

Node ids never carry linguistic content contractually; a LabelTable maps
(node, language) to display text.  Relation glosses reuse the same
mechanism through reserved pseudo-ids in the ``rel:`` namespace, so a
gloss table is just label entries for ``rel:isA``, ``rel:hasAgent``, ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .model import Edge, GroundedGraph, NodeId, PrimitiveRelation

GLOSS_NAMESPACE = "rel"

FALLBACK_LANG = "en"


def gloss_id(relation: PrimitiveRelation) -> NodeId:
    """The reserved pseudo-node id that carries glosses for a relation."""
    return NodeId(GLOSS_NAMESPACE, relation.value)


@dataclass(frozen=True)
class LabelTable:
    """At most one label per (node id, language tag)."""

    entries: Mapping[tuple, str] = field(default_factory=dict)

    @classmethod
    def from_entries(cls, entries: Iterable[tuple]) -> "LabelTable":
        table: dict = {}
        for node_id, lang, label in entries:
            key = (node_id, lang)
            if key in table and table[key] != label:
                raise ValueError(f"conflicting labels for {node_id} [{lang}]")
            if not label:
                raise ValueError(f"empty label for {node_id} [{lang}]")
            table[key] = label
        return cls(table)

    def get(self, node_id: NodeId, lang: str) -> Optional[str]:
        return self.entries.get((node_id, lang))

    def with_label(self, node_id: NodeId, lang: str, label: str) -> "LabelTable":
        """Return a table with the entry set (replacing any previous one)."""
        if not label:
            raise ValueError(f"empty label for {node_id} [{lang}]")
        new_entries = dict(self.entries)
        new_entries[(node_id, lang)] = label
        return LabelTable(new_entries)

    def items_sorted(self) -> list:
        return sorted(self.entries.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LabeledView:
    """A graph projected into one language: labels for nodes, glosses for
    relations, structure untouched."""

    lang: str
    node_labels: Mapping[NodeId, str]
    edges: frozenset
    relation_glosses: Mapping[PrimitiveRelation, str]

    def to_tsv(self) -> str:
        """Two-column node rows, then three-column labelled edge rows."""
        lines = []
        for node_id in sorted(self.node_labels, key=str):
            lines.append(f"{node_id}\t{self.node_labels[node_id]}")
        for edge in sorted(self.edges, key=Edge.sort_key):
            lines.append(
                f"{self.node_labels[edge.subject]}"
                f"\t{self.relation_glosses[edge.relation]}"
                f"\t{self.node_labels[edge.obj]}"
            )
        return "".join(line + "\n" for line in lines)


def render(
    graph: GroundedGraph,
    labels: LabelTable,
    lang: str,
) -> LabeledView:
    """Project a graph into one language.

    Node labels fall back lang -> en -> the id's local part, so a render
    never fails for missing translations.  Relation glosses come from the
    label table's ``rel:`` rows and fall back to the canonical relation
    name.
    """
    node_labels = {}
    for node_id in graph.nodes:
        label = labels.get(node_id, lang)
        if label is None and lang != FALLBACK_LANG:
            label = labels.get(node_id, FALLBACK_LANG)
        node_labels[node_id] = label if label is not None else node_id.local
    glosses = {}
    for relation in PrimitiveRelation:
        gloss = labels.get(gloss_id(relation), lang)
        glosses[relation] = gloss if gloss is not None else relation.value
    return LabeledView(lang, node_labels, frozenset(graph.edges), glosses)


@dataclass(frozen=True, slots=True)
class IsomorphismResult:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_isomorphic(view_a: LabeledView, view_b: LabeledView) -> IsomorphismResult:
    """Structural equality of two views: identical node-id sets and edge
    sets; labels and glosses are ignored.  The witness names the first
    difference in sorted order."""
    nodes_a = set(view_a.node_labels)
    nodes_b = set(view_b.node_labels)
    for node_id in sorted(nodes_a - nodes_b, key=str):
        return IsomorphismResult(False, f"node only in first view: {node_id}")
    for node_id in sorted(nodes_b - nodes_a, key=str):
        return IsomorphismResult(False, f"node only in second view: {node_id}")
    for edge in sorted(view_a.edges - view_b.edges, key=Edge.sort_key):
        return IsomorphismResult(
            False, f"edge only in first view: {edge.subject} {edge.relation.value} {edge.obj}"
        )
    for edge in sorted(view_b.edges - view_a.edges, key=Edge.sort_key):
        return IsomorphismResult(
            False, f"edge only in second view: {edge.subject} {edge.relation.value} {edge.obj}"
        )
    return IsomorphismResult(True)
