"""Traced gkg commands: the real ``gkg.cli.main`` with spans around the
public calls it makes.

``gkg.cli`` looks up ``parse_gkg``, ``canonicalize_document``, ``align``,
``merge_documents``, ``render``, its file helpers and the rest as module
globals when a command runs.  For one command, ``run`` replaces each of
those names with a wrapper that opens a span (name, start, end, parent
span, pass id) and records counters, calls ``gkg.cli.main(argv)`` inside a
``cli.main`` span, and puts the originals back.  File reads and writes
are ``cli.io``.  Spans stay in memory and child.py writes them out when
the command ends.

Calls gkg makes inside another public call are reached the same way,
through the module global or class attribute the caller looks up:

- ``validate_document`` and ``validate_graph`` (inside ``parse_gkg``) and
  ``union_hierarchies`` (inside ``merge_documents``) run once per call, so
  they get a span of their own where they run;
- ``NodeId.parse``, ``normalize_relation_name``, ``fnv1a64_hex``,
  ``embed_phrase`` and ``signature_similarity`` run thousands of times per
  call, where a span each would swamp what it measures.  While the
  enclosing call runs, a recorder keeps the arguments of every call (and
  that is where their counts come from); after the command, a span with
  the enclosing call's span as parent times a replay of the same calls.
  ``tokenize`` is replayed over the phrases ``embed_phrase`` was given.
  During ``align`` the provider's ``token_vector`` calls are counted as
  lookups and the vectors it generates (``SplitMix64`` streams) as cache
  misses.  A recorder costs about one extra Python call per call, which
  stays in the enclosing call's self time.

``entity_signature`` is never called by ``align``, which builds the graph
index and the role inference once per graph and then signs every
continuant.  ``entity_signature`` rebuilds both on each call, so a replay
on the whole graph would overstate align's signature cost by a factor
that grows with the graph.  Its replay therefore gives each call the
continuant's neighbourhood subgraph, on which the signature is the same;
what remains overstated is one index and role inference over that small
subgraph per call.

Replays run after the command's span closes, so they add to the traced
pass's time but not to any real call's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from importlib import import_module
from types import SimpleNamespace

from gkg.model import PARTICIPANT_RELATIONS, GroundedGraph, NodeId, PrimitiveRelation

# The modules themselves: the package re-exports functions named
# ``canonicalize`` and ``merge`` over its submodules' names.
alignment, canonicalize, cli, embedding, formats, merge, multilingual = (
    import_module(f"gkg.{name}")
    for name in ("alignment", "canonicalize", "cli", "embedding", "formats", "merge", "multilingual")
)


class Tracer:
    """Spans and counters of one command process."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._open: list = []

    @contextmanager
    def span(self, name: str, parent: dict = None):
        """Time the block.  ``parent`` defaults to the innermost open span;
        a replay names the span of the call it replays."""
        if parent is None and self._open:
            parent = self._open[-1]
        span = {"id": len(self.spans), "name": name, "parent": None if parent is None else parent["id"],
                "pass": self.pass_id, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def spanned(self, name: str, fn):
        """``fn`` with each call in a span."""
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return call

    def replay(self, name: str, parent: dict, fn, calls: list) -> None:
        """Time ``fn`` over recorded argument tuples."""
        with self.span(name, parent=parent):
            for args in calls:
                fn(*args)


@contextmanager
def patched(owner, name: str, replacement):
    """Set ``owner.name`` to ``replacement`` for the block.  The name must
    be defined on ``owner`` itself, so a rename in gkg fails loudly."""
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def recorder(fn, calls: list):
    """``fn``, keeping the argument tuple of every call in ``calls``."""
    def record(*args):
        calls.append(args)
        return fn(*args)

    return record


def run(argv, tracer: Tracer) -> int:
    """Run ``gkg <argv>`` traced; returns its exit code."""
    later: list = []
    with ExitStack() as stack:
        for owner, name, replacement in _instrumentation(tracer, later):
            stack.enter_context(patched(owner, name, replacement))
        with tracer.span("cli.main"):
            code = cli.main(argv)
    for replay_call in later:
        replay_call()
    return code


def _instrumentation(tracer: Tracer, later: list) -> list:
    """(owner, name, wrapper) for every call the traced command makes
    through a name looked up at call time."""
    spanned = tracer.spanned
    report_stream = cli._report_stream

    def traced_report_stream(out_path):
        return SimpleNamespace(write=spanned("cli.io", report_stream(out_path).write))

    def traced_parse_gkg(text):
        tokens: list = []
        with patched(NodeId, "parse", staticmethod(recorder(NodeId.parse, tokens))):
            with tracer.span("formats.parse_gkg") as span:
                doc = formats.parse_gkg(text)
        tracer.count("formats.parse_gkg_lines", sum(1 for line in text.splitlines() if line.strip()))
        tracer.count("model.nodeid_parse_calls", len(tokens))
        later.append(lambda: tracer.replay("model.nodeid_parse", span, NodeId.parse, tokens))
        return doc

    def traced_canonicalize_document(triples, rules, **options):
        matched: list = []
        hashed: list = []
        normalize, fnv = canonicalize.normalize_relation_name, canonicalize.fnv1a64_hex
        with patched(canonicalize, "normalize_relation_name", recorder(normalize, matched)), \
                patched(canonicalize, "fnv1a64_hex", recorder(fnv, hashed)):
            with tracer.span("canonicalize.canonicalize_document") as span:
                doc, report = canonicalize.canonicalize_document(triples, rules, **options)
        tracer.count("canonicalize.triples", len(triples))
        tracer.count("canonicalize.events_created", report.events_created)
        tracer.count("canonicalize.events_coalesced", report.events_coalesced)
        tracer.count("hashing.fnv1a64_calls", len(hashed))

        def replays():
            tracer.replay("canonicalize.normalize_relation_name", span, normalize, matched)
            tracer.replay("hashing.fnv1a64_hex", span, fnv, hashed)

        later.append(replays)
        return doc, report

    def traced_serialize_gkg(doc):
        with tracer.span("formats.serialize_gkg"):
            text = formats.serialize_gkg(doc)
        tracer.count("formats.serialize_gkg_bytes", len(text.encode("utf-8")))
        return text

    def traced_align(graph_a, graph_b, hierarchy, labels_a, labels_b, config):
        pairs: list = []
        phrases: list = []
        lookups: list = []
        misses: list = []
        provider_class = type(config.provider)
        with ExitStack() as stack:
            stack.enter_context(patched(alignment, "signature_similarity",
                                        recorder(alignment.signature_similarity, pairs)))
            stack.enter_context(patched(alignment, "embed_phrase", recorder(alignment.embed_phrase, phrases)))
            stack.enter_context(patched(provider_class, "token_vector",
                                        recorder(provider_class.token_vector, lookups)))
            stack.enter_context(patched(embedding, "SplitMix64", recorder(embedding.SplitMix64, misses)))
            with tracer.span("alignment.align") as span:
                result = alignment.align(graph_a, graph_b, hierarchy, labels_a, labels_b, config)
        tracer.count("alignment.pairs_scored", len(pairs))
        tracer.count("alignment.match_rows", len(result.matches))
        tracer.count("alignment.ambig_rows", sum(len(candidates) for _, candidates in result.ambiguous))
        tracer.count("embedding.token_lookups", len(lookups))
        tracer.count("embedding.distinct_tokens", len({token for _, token in lookups}))
        tracer.count("embedding.cache_misses", len(misses))
        later.append(lambda: _replay_align(tracer, span, (graph_a, labels_a), (graph_b, labels_b),
                                           hierarchy, config, phrases, pairs))
        return result

    def traced_merge_documents(doc_a, doc_b, alignment_result):
        with patched(merge, "union_hierarchies", spanned("merge.union_hierarchies", merge.union_hierarchies)):
            with tracer.span("merge.merge_documents"):
                merged, report = merge.merge_documents(doc_a, doc_b, alignment_result)
        tracer.count("merge.pairs", len(report.pairs))
        tracer.count("merge.updated", len(report.updated))
        tracer.count("merge.conflicts", len(report.conflicts))
        tracer.count("merge.added_nodes", report.added_nodes)
        tracer.count("merge.added_edges", report.added_edges)
        return merged, report

    def traced_render(graph, labels, lang):
        with tracer.span("multilingual.render"):
            view = multilingual.render(graph, labels, lang)
        tracer.count("multilingual.nodes_rendered", len(view.node_labels))
        tracer.count("multilingual.edges_rendered", len(view.edges))
        return view

    return [
        (cli, "_read", spanned("cli.io", cli._read)),
        (cli, "_emit", spanned("cli.io", cli._emit)),
        (cli, "_report_stream", traced_report_stream),
        (cli, "parse_gkg", traced_parse_gkg),
        (cli, "parse_flat", spanned("formats.parse_flat", formats.parse_flat)),
        (cli, "canonicalize_document", traced_canonicalize_document),
        (cli, "serialize_gkg", traced_serialize_gkg),
        (cli, "union_hierarchies", spanned("merge.union_hierarchies", merge.union_hierarchies)),
        (cli, "align", traced_align),
        (cli, "format_alignment_tsv", spanned("alignment.format_alignment_tsv", alignment.format_alignment_tsv)),
        (cli, "merge_documents", traced_merge_documents),
        (cli, "render", traced_render),
        (cli, "check_isomorphic", spanned("multilingual.check_isomorphic", multilingual.check_isomorphic)),
        (formats, "validate_document", spanned("formats.validate_document", formats.validate_document)),
        (formats, "validate_graph", spanned("model.validate_graph", formats.validate_graph)),
        (multilingual.LabeledView, "to_tsv", spanned("multilingual.to_tsv", multilingual.LabeledView.to_tsv)),
    ]


# --- replays of calls made inside align ---------------------------------------

def _neighbourhoods(graph) -> dict:
    """Continuant id -> the subgraph its signature reads: the node, the
    events it takes part in with their participants, and those events'
    attributes and values."""
    participations, attrs, values = defaultdict(list), defaultdict(list), defaultdict(list)
    for edge in graph.edges:
        if edge.relation in PARTICIPANT_RELATIONS:
            participations[edge.subject].append(edge)
        elif edge.relation is PrimitiveRelation.HAS_PROP:
            attrs[edge.obj].append(edge)
        elif edge.relation is PrimitiveRelation.HAS_VALUE:
            values[edge.subject].append(edge)
    events_of = defaultdict(list)
    for event_id, edges in participations.items():
        for edge in edges:
            events_of[edge.obj].append(event_id)
    subgraphs = {}
    for node in graph.continuants():
        edges = []
        for event_id in events_of[node.id]:
            edges.extend(participations[event_id])
            for prop in attrs[event_id]:
                edges.append(prop)
                edges.extend(values[prop.subject])
        ids = {node.id}.union(*((edge.subject, edge.obj) for edge in edges))
        subgraphs[node.id] = GroundedGraph({i: graph.nodes[i] for i in ids}, frozenset(edges))
    return subgraphs


def _replay_align(tracer: Tracer, align_span: dict, side_a, side_b, hierarchy, config,
                  phrases: list, pairs: list) -> None:
    """Replays with a provider whose cache starts empty, as align's did."""
    def fresh_provider():
        return embedding.HashEmbeddingProvider(seed=config.provider.seed, dim=config.provider.dim)

    texts = [(phrase,) for _, phrase in phrases]
    tracer.replay("embedding.tokenize", align_span, embedding.tokenize, texts)
    provider = fresh_provider()
    tracer.replay("embedding.embed_phrase", align_span, embedding.embed_phrase,
                  [(provider, phrase) for _, phrase in phrases])

    fresh = replace(config, provider=fresh_provider())
    calls = [(subgraph, hierarchy, labels, node_id, fresh)
             for graph, labels in (side_a, side_b)
             for node_id, subgraph in _neighbourhoods(graph).items()]
    tracer.replay("alignment.entity_signature", align_span, alignment.entity_signature, calls)
    tracer.replay("alignment.signature_similarity", align_span, alignment.signature_similarity, pairs)
