"""Command line interface.

Results go to stdout (or ``-o``), diagnostics to stderr.  Exit codes:
0 success, 1 validation or domain failure, 2 malformed input or usage,
3 file I/O trouble.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from .alignment import (
    DEFAULT_AMBIGUITY_BAND,
    DEFAULT_THRESHOLD,
    AlignmentConfig,
    align,
    format_alignment_tsv,
    parse_alignment_tsv,
)
from .canonicalize import canonicalize_document
from .embedding import DEFAULT_DIM, DEFAULT_SEED, DEFAULT_TRIALS, FileEmbeddingProvider, HashEmbeddingProvider
from .errors import GkgError, GkgSyntaxError, InvalidParameterError, ValidationFailedError
from .formats import GkgDocument, parse_flat, parse_gkg, parse_rules, serialize_gkg
from .merge import merge_documents, union_hierarchies
from .multilingual import check_isomorphic, render


def _read(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GkgSyntaxError(data.count(b"\n", 0, exc.start) + 1, f"{path} is not UTF-8 text") from None


def _load_document(path: str) -> GkgDocument:
    return parse_gkg(_read(path))


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _report_stream(out_path: Optional[str]):
    """Reports ride on stderr when stdout carries the document itself."""
    return sys.stdout if out_path is not None else sys.stderr


def _build_provider(args: argparse.Namespace):
    if args.provider == "file":
        if not args.vectors:
            raise InvalidParameterError("--vectors is required with --provider file")
        return FileEmbeddingProvider(args.vectors, dim=args.dim, fallback_seed=args.seed)
    return HashEmbeddingProvider(seed=args.seed, dim=args.dim)


def cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    sys.stdout.write(f"ok\tnodes\t{len(doc.graph.nodes)}\tedges\t{len(doc.graph.edges)}\n")
    return 0


def cmd_canonicalize(args: argparse.Namespace) -> int:
    # The G header must read back as written: one whitespace-free token,
    # with "-" standing for no source id, and a non-negative revision.
    if args.source_id == "-" or any(ch.isspace() for ch in args.source_id):
        raise InvalidParameterError(f"source id must be one token other than '-', got {args.source_id!r}")
    if args.revision < 0:
        raise InvalidParameterError(f"revision must be non-negative, got {args.revision}")
    rules, declarations = parse_rules(_read(args.rules))
    triples = parse_flat(_read(args.flat))
    doc, report = canonicalize_document(
        triples,
        rules,
        declarations=declarations,
        source_id=args.source_id,
        revision=args.revision,
    )
    _emit(serialize_gkg(doc), args.output)
    _report_stream(args.output).write(report.to_tsv())
    return 0


def _alignment_config(doc_a: GkgDocument, doc_b: GkgDocument, args: argparse.Namespace) -> AlignmentConfig:
    return AlignmentConfig(
        provider=_build_provider(args),
        threshold=args.threshold,
        ambiguity_band=args.ambiguity_band,
        pivot_lang=args.pivot_lang,
        declarations=doc_a.declarations.merged_with(doc_b.declarations),
    )


def cmd_align(args: argparse.Namespace) -> int:
    doc_a = _load_document(args.document_a)
    doc_b = _load_document(args.document_b)
    config = _alignment_config(doc_a, doc_b, args)
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, config)
    _emit(format_alignment_tsv(result), args.output)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    doc_a = _load_document(args.document_a)
    doc_b = _load_document(args.document_b)
    alignment = parse_alignment_tsv(_read(args.alignment))
    merged, report = merge_documents(doc_a, doc_b, alignment)
    _emit(serialize_gkg(merged), args.output)
    _report_stream(args.output).write(report.to_tsv())
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    view = render(doc.graph, doc.labels, args.lang)
    _emit(view.to_tsv(), args.output)
    return 0


def cmd_isocheck(args: argparse.Namespace) -> int:
    doc_a = _load_document(args.document_a)
    doc_b = _load_document(args.document_b)
    view_a = render(doc_a.graph, doc_a.labels, args.lang)
    view_b = render(doc_b.graph, doc_b.labels, args.lang)
    result = check_isomorphic(view_a, view_b)
    if result.ok:
        sys.stdout.write("ISOMORPHIC\n")
        return 0
    sys.stdout.write(f"NOT_ISOMORPHIC\t{result.witness}\n")
    return 1


# Only the eval commands import gkg.evaluation, so no other command pays
# for compiling and running it.
def cmd_eval_flat(args: argparse.Namespace) -> int:
    from .evaluation import eval_flat

    sys.stdout.write(eval_flat(seed=args.seed, dim=args.dim, trials=args.trials))
    return 0


def cmd_eval_grounded(args: argparse.Namespace) -> int:
    from .evaluation import eval_grounded

    sys.stdout.write(eval_grounded(seed=args.seed, dim=args.dim, threshold=args.threshold))
    return 0


def _add_provider_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("hash", "file"), default="hash")
    parser.add_argument("--vectors", help="token vector file for --provider file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a graph document")
    p_validate.add_argument("document")
    p_validate.set_defaults(func=cmd_validate)

    p_canon = sub.add_parser("canonicalize", help="lift flat triples into a graph document")
    p_canon.add_argument("--rules", required=True)
    p_canon.add_argument("--flat", required=True)
    p_canon.add_argument("--source-id", default="")
    p_canon.add_argument("--revision", type=int, default=0)
    p_canon.add_argument("-o", "--output")
    p_canon.set_defaults(func=cmd_canonicalize)

    p_align = sub.add_parser("align", help="match continuants across two documents")
    p_align.add_argument("document_a")
    p_align.add_argument("document_b")
    _add_provider_options(p_align)
    p_align.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_align.add_argument("--ambiguity-band", type=float, default=DEFAULT_AMBIGUITY_BAND)
    p_align.add_argument("--pivot-lang", default="en")
    p_align.add_argument("-o", "--output")
    p_align.set_defaults(func=cmd_align)

    p_merge = sub.add_parser("merge", help="merge document B into document A")
    p_merge.add_argument("document_a")
    p_merge.add_argument("document_b")
    p_merge.add_argument("--alignment", required=True)
    p_merge.add_argument("-o", "--output")
    p_merge.set_defaults(func=cmd_merge)

    p_render = sub.add_parser("render", help="render a labeled view in one language")
    p_render.add_argument("document")
    p_render.add_argument("--lang", default="en")
    p_render.add_argument("-o", "--output")
    p_render.set_defaults(func=cmd_render)

    p_iso = sub.add_parser("isocheck", help="compare two documents structurally")
    p_iso.add_argument("document_a")
    p_iso.add_argument("document_b")
    p_iso.add_argument("--lang", default="en")
    p_iso.set_defaults(func=cmd_isocheck)

    p_eval = sub.add_parser("eval", help="built-in evaluation suites")
    eval_sub = p_eval.add_subparsers(dest="suite", required=True)

    p_flat = eval_sub.add_parser("flat", help="cosine bands of additive triple embeddings")
    p_flat.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_flat.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p_flat.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_flat.set_defaults(func=cmd_eval_flat)

    p_grounded = eval_sub.add_parser("grounded", help="entity-signature mutant scoring")
    p_grounded.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_grounded.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p_grounded.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_grounded.set_defaults(func=cmd_eval_grounded)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A command's graphs hold no reference cycles, so the cyclic
    # collector's passes over their nodes and edges would free nothing;
    # the cycles a command does make (argparse's parser, the same on any
    # input) wait for the first pass after it.  So the collector is paused
    # for the command and left as it was found.  Library calls never touch
    # it: only a command owns its process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationFailedError as error:
        sys.stdout.write(error.report.to_tsv())
        sys.stderr.write("gkg: validation failed\n")
        return 1
    except (GkgSyntaxError, InvalidParameterError) as error:
        sys.stderr.write(f"gkg: {error}\n")
        return 2
    except GkgError as error:
        sys.stderr.write(f"gkg: {error}\n")
        return 1
    except OSError as error:
        sys.stderr.write(f"gkg: {error}\n")
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
