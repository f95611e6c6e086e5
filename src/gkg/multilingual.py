"""Language-tagged labels, rendered views, and structural comparison.

Node ids never carry linguistic content contractually; a LabelTable maps
(node, language) to display text.  Relation glosses reuse the same
mechanism through reserved pseudo-ids in the ``rel:`` namespace, so a
gloss table is just label entries for ``rel:isA``, ``rel:hasAgent``, ...
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional

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
        # Each section's rows are joined and freed before the next is built.
        labels, glosses = self.node_labels, self.relation_glosses
        nodes = "".join([node_id + "\t" + labels[node_id] + "\n" for node_id in sorted(labels)])
        return nodes + "".join([f"{labels[s]}\t{glosses[r]}\t{labels[o]}\n" for s, r, o in sorted(self.edges)])


def node_names(labels: LabelTable, node_ids: Collection[NodeId], lang: str,
               last: Optional[Iterable] = None) -> Iterator:
    """Each node's name in ``lang``, in ``node_ids``' order: its label in
    that language, else its English label, else ``last``'s item for it (by
    default the id's local part).  Every reader names nodes by this rule,
    so nothing fails for a missing translation."""
    # Each label is read with dict.get, whose default is the next fallback,
    # so a label is taken as written.  Local parts are cut by str.partition.
    get = labels.entries.get
    if last is None:
        last = map(itemgetter(2), map(str.partition, node_ids, repeat(":")))
    if lang != FALLBACK_LANG:
        last = map(get, zip(node_ids, repeat(FALLBACK_LANG)), last)
    return map(get, zip(node_ids, repeat(lang)), last)


def render(graph: GroundedGraph, labels: LabelTable, lang: str) -> LabeledView:
    """Project a graph into one language: nodes named by :func:`node_names`,
    relations glossed by the label table's ``rel:`` rows, else by their
    canonical names."""
    node_ids = graph.nodes.keys()
    node_labels = dict(zip(node_ids, node_names(labels, node_ids, lang)))
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


def check_isomorphic(graph_a: GroundedGraph, graph_b: GroundedGraph) -> IsomorphismResult:
    """Structural equality of two graphs: identical node-id sets and edge
    sets, as any language's views of them have.  The witness names the
    first difference in sorted order."""
    nodes_a, nodes_b = graph_a.nodes.keys(), graph_b.nodes.keys()
    for node_id in sorted(nodes_a - nodes_b):
        return IsomorphismResult(False, f"node only in first view: {node_id}")
    for node_id in sorted(nodes_b - nodes_a):
        return IsomorphismResult(False, f"node only in second view: {node_id}")
    for edge in sorted(graph_a.edges - graph_b.edges):
        return IsomorphismResult(False, f"edge only in first view: {edge.subject} {edge.relation.value} {edge.obj}")
    for edge in sorted(graph_b.edges - graph_a.edges):
        return IsomorphismResult(False, f"edge only in second view: {edge.subject} {edge.relation.value} {edge.obj}")
    return IsomorphismResult(True)
