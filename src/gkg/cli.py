"""Command line interface.

Results go to stdout (or ``-o``), diagnostics to stderr.  Exit codes:
0 success, 1 validation or domain failure, 2 malformed input or usage,
3 file I/O trouble.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import nullcontext
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import model
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
from .formats import GkgDocument, _read_text, parse_flat, parse_gkg, parse_rules, serialize_gkg
from .merge import merge_documents, union_hierarchies
from .multilingual import FALLBACK_LANG, check_isomorphic, node_names, render


def _read(path: str) -> str:
    return _read_text(path, GkgSyntaxError)


def _load_pair(args: SimpleNamespace) -> Tuple[GkgDocument, GkgDocument]:
    """Documents A and B of a command that reads two.  A B of A's text is
    A's document, parsed once; else a line of B that repeats one of A's
    takes A's record from the command's record memo (``model._command_records``).
    Errors come as A's read, A's parse, B's read, B's parse."""
    text_a = _read(args.document_a)
    try:  # a B that fails to read here fails again in its own read, after A's parse
        same_size = os.stat(args.document_b).st_size == os.stat(args.document_a).st_size
        text_b = _read(args.document_b) if same_size else None
    except (OSError, GkgSyntaxError):
        text_b = None
    if text_b == text_a:
        del text_b  # B's copy goes before A is parsed
        return (parse_gkg(text_a),) * 2
    model._command_records = {}
    try:
        doc_a = parse_gkg(text_a)
        del text_a
        return doc_a, parse_gkg(_read(args.document_b) if text_b is None else text_b)
    finally:
        model._command_records = None


def _emit(text: str, out_path: Optional[str]) -> None:
    # Slices of at most 64 Ki characters, so the text is never encoded whole.
    with nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8") as handle:
        for start in range(0, len(text), 1 << 16):
            handle.write(text[start:start + (1 << 16)])


def _report_stream(out_path: Optional[str]):
    """Reports ride on stderr when stdout carries the document itself."""
    return sys.stdout if out_path is not None else sys.stderr


def _build_provider(args: SimpleNamespace):
    if args.provider == "file":
        if not args.vectors:
            raise InvalidParameterError("--vectors is required with --provider file")
        return FileEmbeddingProvider(args.vectors, dim=args.dim, fallback_seed=args.seed)
    return HashEmbeddingProvider(seed=args.seed, dim=args.dim)


class _ValidReport(NamedTuple):
    """``gkg validate``'s report on a document that read: its size."""
    nodes: int
    edges: int

    def to_tsv(self) -> str:
        return f"ok\tnodes\t{self.nodes}\tedges\t{self.edges}\n"


def cmd_validate(args: SimpleNamespace) -> int:
    graph = parse_gkg(_read(args.document)).graph
    sys.stdout.write(_ValidReport(len(graph.nodes), len(graph.edges)).to_tsv())
    return 0


def cmd_canonicalize(args: SimpleNamespace) -> int:
    # The G header must read back as written: one whitespace-free token,
    # with "-" standing for no source id, and a non-negative revision.
    if args.source_id == "-" or any(ch.isspace() for ch in args.source_id):
        raise InvalidParameterError(f"source id must be one token other than '-', got {args.source_id!r}")
    if args.revision < 0:
        raise InvalidParameterError(f"revision must be non-negative, got {args.revision}")
    rules, declarations = parse_rules(_read(args.rules))
    # The triples are passed, not held, so they are freed before serializing.
    doc, report = canonicalize_document(parse_flat(_read(args.flat)), rules, declarations=declarations,
                                        source_id=args.source_id, revision=args.revision)
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
    doc_a, doc_b = _load_pair(args)
    config = _alignment_config(doc_a, doc_b, args)
    hierarchy = union_hierarchies(doc_a.hierarchy, doc_b.hierarchy)
    result = align(doc_a.graph, doc_b.graph, hierarchy, doc_a.labels, doc_b.labels, config)
    _emit(format_alignment_tsv(result), args.output)
    langs = " or ".join(dict.fromkeys((args.pivot_lang, FALLBACK_LANG)))
    for path, doc in ((args.document_a, doc_a), (args.document_b, doc_b)):
        ids = [node.id for node in doc.graph.continuants()]
        if ids and all(name is None for name in node_names(doc.labels, ids, args.pivot_lang, repeat(None))):
            sys.stderr.write(f"gkg: no continuant of {path} has a label in {langs}; align names them by id\n")
    return 0


def cmd_merge(args: SimpleNamespace) -> int:
    doc_a, doc_b = _load_pair(args)
    alignment = parse_alignment_tsv(_read(args.alignment))
    merged, report = merge_documents(doc_a, doc_b, alignment)
    _emit(serialize_gkg(merged), args.output)
    _report_stream(args.output).write(report.to_tsv())
    return 0


def cmd_render(args: SimpleNamespace) -> int:
    doc = parse_gkg(_read(args.document))
    _emit(render(doc.graph, doc.labels, args.lang).to_tsv(), args.output)  # the view goes before the write
    return 0


def cmd_isocheck(args: SimpleNamespace) -> int:
    doc_a, doc_b = _load_pair(args)
    result = check_isomorphic(doc_a.graph, doc_b.graph)
    sys.stdout.write(result.to_tsv())
    return 0 if result.ok else 1


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
_LANG = _Option(("--lang",), "lang", default=FALLBACK_LANG)
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
        _Option(("--pivot-lang",), "pivot_lang", default=FALLBACK_LANG),
        _OUTPUT,
    )),
    "merge": _Command("merge document B into document A", cmd_merge, ("document_a", "document_b"), (
        _Option(("--alignment",), "alignment", required=True),
        _OUTPUT,
    )),
    "render": _Command("render a labeled view in one language", cmd_render, ("document",), (_LANG, _OUTPUT)),
    "isocheck": _Command("compare two documents structurally", cmd_isocheck, ("document_a", "document_b"), (
        _LANG._replace(help="accepted and ignored: the check compares node ids and edges, never labels"),
    )),
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
    spelled out in full, each written ``--name=value`` or followed by one
    value that does not start with "-", whose value converts by its type
    and is one of its choices.  An attached value is text whatever it
    starts with, ``--`` included, which argparse would drop.  None for any
    other argv (help, abbreviations, ``--``, a missing required option, a
    wrong number of positionals, ...), which is argparse's to read or
    refuse."""
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
        flag, attached, value = word.partition("=") if word.startswith("--") else (word, "", "")
        value = value if attached else next(words, "-")
        option = flags.get(flag)
        if option is None or (not attached and value.startswith("-")):
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
            empty = [dest for dest, value in attrs.items() if value == []]
            if empty:  # argparse reads an attached "--" (``--dim=--``) as []
                raise InvalidParameterError(f"argument --{empty[0].replace('_', '-')}: invalid value '--'")
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
