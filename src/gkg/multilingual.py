"""Language-tagged labels, rendered views, and structural comparison.

Node ids never carry linguistic content contractually; a LabelTable maps
(node, language) to display text.  Relation glosses reuse the same
mechanism through reserved pseudo-ids in the ``rel:`` namespace, so a
gloss table is just label entries for ``rel:isA``, ``rel:hasAgent``, ...
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Mapping, NamedTuple, Optional

from .model import Edge, GroundedGraph, NodeId, PrimitiveRelation, _equal_to_own_type, _Frozen, _set_field

GLOSS_NAMESPACE = "rel"

FALLBACK_LANG = "en"


def gloss_id(relation: PrimitiveRelation) -> NodeId:
    """The reserved pseudo-node id that carries glosses for a relation."""
    return NodeId(GLOSS_NAMESPACE, relation.value)


class LabelTable(_Frozen):
    """At most one label per (node id, language tag)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Optional[Mapping[tuple, str]] = None):
        _set_field(self, "entries", {} if entries is None else entries)

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


class LabeledView(_Frozen):
    """A graph projected into one language: labels for nodes, glosses for
    relations, structure untouched."""

    __slots__ = _fields = ("lang", "node_labels", "edges", "relation_glosses")

    def __init__(self, lang: str, node_labels: Mapping[NodeId, str], edges: frozenset,
                 relation_glosses: Mapping[PrimitiveRelation, str]):
        _set_field(self, "lang", lang)
        _set_field(self, "node_labels", node_labels)
        _set_field(self, "edges", edges)
        _set_field(self, "relation_glosses", relation_glosses)

    def to_tsv(self) -> str:
        """Two-column node rows, then three-column labelled edge rows."""
        # Node rows follow the ids' string form, written from their parts;
        # it is not the tuple order of the parts when a namespace holds a
        # character that sorts below ":".  Edges sort by subject, relation
        # and object, an id standing for its place in that order (ids with
        # one string form share a place).  Each sort key ends in the item's
        # position, so ties keep iteration order and no id is compared.
        labels, glosses = self.node_labels, self.relation_glosses
        rows, place, previous = [], {}, None
        for id_text, _, node_id in sorted(zip([f"{ns}:{local}" for ns, local in labels], count(), labels)):
            if id_text != previous:
                previous, rank = id_text, len(rows)
            place[node_id] = rank
            rows.append(f"{id_text}\t{labels[node_id]}\n")
        edges = sorted(
            (place[subject], relation, place[obj], position, subject, obj)
            for position, (subject, relation, obj) in enumerate(self.edges)
        )
        rows.extend(
            f"{labels[subject]}\t{glosses[relation]}\t{labels[obj]}\n"
            for _, relation, _, _, subject, obj in edges
        )
        return "".join(rows)


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


@_equal_to_own_type
class IsomorphismResult(NamedTuple):
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
