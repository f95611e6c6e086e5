"""Command line interface.

Results go to stdout (or ``-o``), diagnostics to stderr.  Exit codes:
0 success, 1 validation or domain failure, 2 malformed input or usage,
3 file I/O trouble.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

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
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GkgSyntaxError(data.count(b"\n", 0, exc.start) + 1, f"{path} is not UTF-8 text") from None
    # A leading byte-order mark marks the encoding; it is no part of the text.
    return text.removeprefix("\ufeff")


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


def _build_provider(args: SimpleNamespace):
    if args.provider == "file":
        if not args.vectors:
            raise InvalidParameterError("--vectors is required with --provider file")
        return FileEmbeddingProvider(args.vectors, dim=args.dim, fallback_seed=args.seed)
    return HashEmbeddingProvider(seed=args.seed, dim=args.dim)


def cmd_validate(args: SimpleNamespace) -> int:
    doc = _load_document(args.document)
    sys.stdout.write(f"ok\tnodes\t{len(doc.graph.nodes)}\tedges\t{len(doc.graph.edges)}\n")
    return 0


def cmd_canonicalize(args: SimpleNamespace) -> int:
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


def _alignment_config(doc_a: GkgDocument, doc_b: GkgDocument, args: SimpleNamespace) -> AlignmentConfig:
    return AlignmentConfig(
        provider=_build_provider(args),
        threshold=args.threshold,
        ambiguity_band=args.ambiguity_band,
        pivot_lang=args.pivot_lang,
        declarations=doc_a.declarations.merged_with(doc_b.declarations),
    )


def cmd_align(args: SimpleNamespace) -> int:
    doc_a = _load_document(args.document_a)
    doc_b = _load_document(args.document_b)
    config = _alignment_config(doc_a, doc_b, args)
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, config)
    _emit(format_alignment_tsv(result), args.output)
    return 0


def cmd_merge(args: SimpleNamespace) -> int:
    doc_a = _load_document(args.document_a)
    doc_b = _load_document(args.document_b)
    alignment = parse_alignment_tsv(_read(args.alignment))
    merged, report = merge_documents(doc_a, doc_b, alignment)
    _emit(serialize_gkg(merged), args.output)
    _report_stream(args.output).write(report.to_tsv())
    return 0


def cmd_render(args: SimpleNamespace) -> int:
    doc = _load_document(args.document)
    view = render(doc.graph, doc.labels, args.lang)
    _emit(view.to_tsv(), args.output)
    return 0


def cmd_isocheck(args: SimpleNamespace) -> int:
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
def cmd_eval_flat(args: SimpleNamespace) -> int:
    from .evaluation import eval_flat

    sys.stdout.write(eval_flat(seed=args.seed, dim=args.dim, trials=args.trials))
    return 0


def cmd_eval_grounded(args: SimpleNamespace) -> int:
    from .evaluation import eval_grounded

    sys.stdout.write(eval_grounded(seed=args.seed, dim=args.dim, threshold=args.threshold))
    return 0


# Every command's arguments, declared once.  main reads a plain command
# line straight from this table; build_parser makes argparse's parser from
# it for everything else, so argparse alone writes help and usage errors.
class _Option(NamedTuple):
    flags: Tuple[str, ...]
    dest: str
    type: Optional[Callable[[str], object]] = None
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    required: bool = False
    help: Optional[str] = None


class _Command(NamedTuple):
    help: str
    func: Callable[[SimpleNamespace], int]
    positionals: Tuple[str, ...]
    options: Tuple[_Option, ...]


_OUTPUT = _Option(("-o", "--output"), "output")
_LANG = _Option(("--lang",), "lang", default="en")
_DIM = _Option(("--dim",), "dim", int, DEFAULT_DIM)
_THRESHOLD = _Option(("--threshold",), "threshold", float, DEFAULT_THRESHOLD)
_EVAL_SEED = _Option(("--seed",), "seed", int, DEFAULT_SEED)

_COMMANDS: Dict[str, _Command] = {
    "validate": _Command("parse and validate a graph document", cmd_validate, ("document",), ()),
    "canonicalize": _Command("lift flat triples into a graph document", cmd_canonicalize, (), (
        _Option(("--rules",), "rules", required=True),
        _Option(("--flat",), "flat", required=True),
        _Option(("--source-id",), "source_id", default=""),
        _Option(("--revision",), "revision", int, 0),
        _OUTPUT,
    )),
    "align": _Command("match continuants across two documents", cmd_align, ("document_a", "document_b"), (
        _Option(("--provider",), "provider", default="hash", choices=("hash", "file")),
        _Option(("--vectors",), "vectors", help="token vector file for --provider file"),
        _Option(("--seed",), "seed", int, 0),
        _DIM,
        _THRESHOLD,
        _Option(("--ambiguity-band",), "ambiguity_band", float, DEFAULT_AMBIGUITY_BAND),
        _Option(("--pivot-lang",), "pivot_lang", default="en"),
        _OUTPUT,
    )),
    "merge": _Command("merge document B into document A", cmd_merge, ("document_a", "document_b"), (
        _Option(("--alignment",), "alignment", required=True),
        _OUTPUT,
    )),
    "render": _Command("render a labeled view in one language", cmd_render, ("document",), (_LANG, _OUTPUT)),
    "isocheck": _Command("compare two documents structurally", cmd_isocheck, ("document_a", "document_b"), (_LANG,)),
}
_EVAL_HELP = "built-in evaluation suites"
_SUITES: Dict[str, _Command] = {
    "flat": _Command("cosine bands of additive triple embeddings", cmd_eval_flat, (), (
        _EVAL_SEED,
        _DIM,
        _Option(("--trials",), "trials", int, DEFAULT_TRIALS),
    )),
    "grounded": _Command("entity-signature mutant scoring", cmd_eval_grounded, (), (
        _EVAL_SEED,
        _DIM,
        _THRESHOLD,
    )),
}


def _current(func: Callable[[SimpleNamespace], int]) -> Callable[[SimpleNamespace], int]:
    """The module's function of that name now, so a command runs whatever
    replaced its cmd_ function after import."""
    return globals()[func.__name__]


def _read_command_line(argv: Sequence[str]) -> Optional[dict]:
    """The attributes ``build_parser().parse_args(argv)`` would set, when
    argv is a plain command line: a command, its positionals, and options
    spelled out in full, each followed by one value that does not start
    with "-", converts by its type and is one of its choices.  None for any
    other argv (help, abbreviations, ``--opt=value``, ``--``, a missing
    required option, a wrong number of positionals, ...), which is
    argparse's to read or refuse."""
    words = list(argv)
    attrs = {"command": words.pop(0) if words else None}
    if attrs["command"] == "eval":
        attrs["suite"] = words.pop(0) if words else None
        command = _SUITES.get(attrs["suite"])
    else:
        command = _COMMANDS.get(attrs["command"])
    if command is None:
        return None
    flags = {flag: option for option in command.options for flag in option.flags}
    attrs.update((option.dest, option.default) for option in command.options)
    given = set()
    positionals = []
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        option, value = flags.get(word), next(words, "-")
        if option is None or value.startswith("-"):
            return None
        if option.type is not None:
            try:
                value = option.type(value)
            except (TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        attrs[option.dest] = value
        given.add(option.dest)
    if len(positionals) != len(command.positionals):
        return None
    if any(option.required and option.dest not in given for option in command.options):
        return None
    attrs.update(zip(command.positionals, positionals))
    attrs["func"] = _current(command.func)
    return attrs


def build_parser():
    import argparse

    def add_command(sub, name: str, command: _Command) -> None:
        parser = sub.add_parser(name, help=command.help)
        for dest in command.positionals:
            parser.add_argument(dest)
        for option in command.options:
            parser.add_argument(*option.flags, dest=option.dest, type=option.type, default=option.default,
                                choices=option.choices, required=option.required, help=option.help)
        parser.set_defaults(func=_current(command.func))

    parser = argparse.ArgumentParser(prog="gkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        add_command(sub, name, command)
    eval_sub = sub.add_parser("eval", help=_EVAL_HELP).add_subparsers(dest="suite", required=True)
    for name, command in _SUITES.items():
        add_command(eval_sub, name, command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A command's graphs hold no reference cycles, so the cyclic
    # collector's passes over their nodes and edges would free nothing;
    # the cycles a command does make (argparse's parser, when it reads the
    # command line, the same on any input) wait for the first pass after
    # it.  So the collector is paused for the command and left as it was
    # found.  Library calls never touch it: only a command owns its process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        attrs = _read_command_line(sys.argv[1:] if argv is None else argv)
        if attrs is None:
            attrs = vars(build_parser().parse_args(argv))
        args = SimpleNamespace(**attrs)
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
