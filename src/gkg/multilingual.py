"""Language-tagged labels, rendered views, and structural comparison.

Node ids never carry linguistic content contractually; a LabelTable maps
(node, language) to display text.  Relation glosses reuse the same
mechanism through reserved pseudo-ids in the ``rel:`` namespace, so a
gloss table is just label entries for ``rel:isA``, ``rel:hasAgent``, ...
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional

from .model import GroundedGraph, NodeId, PrimitiveRelation, _equal_to_own_type, _Frozen, _set_field

GLOSS_NAMESPACE = "rel"

FALLBACK_LANG = "en"


def gloss_id(relation: PrimitiveRelation) -> NodeId:
    """The reserved pseudo-node id that carries glosses for a relation."""
    return NodeId(GLOSS_NAMESPACE, relation.value)


class LabelTable(_Frozen):
    """At most one label per (node id, language tag); a label is a
    non-empty string."""

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


@_equal_to_own_type
class LabeledView(NamedTuple):
    """A graph projected into one language: labels for nodes, glosses for
    relations, structure untouched."""

    lang: str
    node_labels: Mapping[NodeId, str]
    edges: frozenset
    relation_glosses: Mapping[PrimitiveRelation, str]

    def to_tsv(self) -> str:
        """Two-column node rows in id order, then three-column labelled edge
        rows in (subject, relation, object) order."""
        # An id row is joined with "+", since an f-string would copy the id.
        labels, glosses = self.node_labels, self.relation_glosses
        rows = [node_id + "\t" + labels[node_id] + "\n" for node_id in sorted(labels)]
        rows.extend(
            f"{labels[subject]}\t{glosses[relation]}\t{labels[obj]}\n" for subject, relation, obj in sorted(self.edges)
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
    # Each label is read with dict.get, whose default is the next fallback:
    # the id's local part, under the English label when lang is not English.
    # Label tables hold strings, so a found label is never None.  The local
    # parts are cut with str.partition, without the property's Python call.
    get = labels.entries.get
    node_ids = graph.nodes.keys()
    fallback = map(itemgetter(2), map(str.partition, node_ids, repeat(":")))
    if lang != FALLBACK_LANG:
        fallback = map(get, zip(node_ids, repeat(FALLBACK_LANG)), fallback)
    node_labels = dict(zip(node_ids, map(get, zip(node_ids, repeat(lang)), fallback)))
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

    def to_tsv(self) -> str:
        return "ISOMORPHIC\n" if self.ok else f"NOT_ISOMORPHIC\t{self.witness}\n"


def check_isomorphic(view_a: LabeledView, view_b: LabeledView) -> IsomorphismResult:
    """Structural equality of two views: identical node-id sets and edge
    sets; labels and glosses are ignored.  The witness names the first
    difference in sorted order."""
    nodes_a = set(view_a.node_labels)
    nodes_b = set(view_b.node_labels)
    for node_id in sorted(nodes_a - nodes_b):
        return IsomorphismResult(False, f"node only in first view: {node_id}")
    for node_id in sorted(nodes_b - nodes_a):
        return IsomorphismResult(False, f"node only in second view: {node_id}")
    for edge in sorted(view_a.edges - view_b.edges):
        return IsomorphismResult(
            False, f"edge only in first view: {edge.subject} {edge.relation.value} {edge.obj}"
        )
    for edge in sorted(view_b.edges - view_a.edges):
        return IsomorphismResult(
            False, f"edge only in second view: {edge.subject} {edge.relation.value} {edge.obj}"
        )
    return IsomorphismResult(True)
