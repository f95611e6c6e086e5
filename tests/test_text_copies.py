"""One copy of a document's text per command.

Reads walk a text one block of lines at a time, ``serialize_gkg`` joins
each section on its own and the document once, and commands write their
output in slices.  None of this may change a document read, a byte
written or an error reported; the memory bounds below check that the
spare copies are gone.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg import formats
from gkg.alignment import parse_alignment_tsv
from gkg.canonicalize import canonicalize_document
from gkg.cli import main
from gkg.errors import GkgSyntaxError, ValidationFailedError
from gkg.formats import parse_flat, parse_gkg, parse_rules, serialize_gkg
from gkg.merge import merge_documents
from gkg.multilingual import render

from .support import random_document
from .test_id_table import GOLDEN_PAIRS, _identity_alignment, _malformed_records, check_pair

RULES = Path(__file__).parent / "data" / "cli_corpus" / "rules.txt"
# Every line end of str.splitlines.
BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _outcome(text: str):
    """The document ``parse_gkg`` reads, or its error's type, message and
    line number."""
    try:
        return parse_gkg(text)
    except (GkgSyntaxError, ValidationFailedError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _with_block(size: int, read, text: str):
    """``read(text)`` with blocks of ``size`` characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_BLOCK", size)
        return read(text)


class TestBlockWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(("x", "N a", " ", "\t", "#", "# c", "E a b", *BREAKS)), max_size=40))
    def test_every_block_size_yields_the_lines_of_splitlines(self, pieces):
        text = "".join(pieces)
        numbered = list(enumerate(text.splitlines(), 1))
        content = [(n, line) for n, line in numbered if line.strip() and not line.lstrip().startswith("#")]
        with pytest.MonkeyPatch.context() as patch:
            for size in range(1, len(text) + 2):
                patch.setattr(formats, "_BLOCK", size)
                assert list(enumerate(chain.from_iterable(formats._line_blocks(text)), 1)) == numbered
                assert list(formats._content_lines(text)) == content

    def test_a_block_ends_after_its_first_line_feed_past_the_size(self, monkeypatch):
        monkeypatch.setattr(formats, "_BLOCK", 3)
        assert list(formats._line_blocks("ab\r\ncd\ne\rf\n\ng")) == [["ab"], ["cd", "e", "f"], ["", "g"]]
        assert list(formats._line_blocks("")) == []


def _line_ends(text: str, rng: random.Random) -> str:
    """``text`` with each line ended by a break drawn from ``BREAKS``."""
    return "".join(line + rng.choice(BREAKS) for line in text.splitlines())


class TestParseByBlocks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), ends=st.integers(0, 10**6), at=st.integers(0, 10**6),
           bad=st.integers(-1, 11))
    def test_same_document_or_error_for_any_block(self, seed, ends, at, bad):
        text = serialize_gkg(random_document(seed))
        lines = text.splitlines()
        if bad >= 0:
            # check_pair's malformed records, a type collision among them.
            record = _malformed_records(text, text)[bad]
            at %= len(lines) + 1
            lines[at:at] = [record]
        text = _line_ends("\n".join(lines), random.Random(ends))
        whole = _outcome(text)
        for size in (1, 7):
            assert _with_block(size, _outcome, text) == whole

    @pytest.mark.parametrize("size", [1, 7])
    def test_two_document_commands(self, tmp_path, monkeypatch, size):
        monkeypatch.setattr(formats, "_BLOCK", size)
        a, b, ab = (path.read_text(encoding="utf-8") for path in GOLDEN_PAIRS["revision"])
        check_pair(tmp_path, monkeypatch, a, b, ab)


_NAMES = ("Zoë", "Ñandú", "Łukasz", "Ægir", "日本", "Ωmega", "𝄞Clef", "Ida")
_ASCII_NAMES = ("Zoe", "Nandu", "Lukasz", "Aegir", "Nihon", "Omega", "Clef", "Ida")


def _flat_text(people: int, names=_NAMES) -> str:
    """Flat triples about ``people`` people named from ``names``."""
    rng = random.Random(people)
    rows = []
    for i in range(people):
        name = f"{rng.choice(names)} {rng.choice(names)}{i}"
        rows.append(f"{name}\tlivesIn\t{rng.choice(names)}stad{i % 40}")
        rows.append(f"{name}\tbornOn\t{rng.randint(1, 28):02d}/0{rng.randint(1, 9)}/19{rng.randint(10, 99)}")
        rows.append(f"{name}\tworksFor\t{rng.choice(names)} Labs {i % 25}")
    return "\n".join(rows) + "\n"


def _canonical(flat: str):
    rules, declarations = parse_rules(RULES.read_text(encoding="utf-8"))
    return canonicalize_document(parse_flat(flat), rules, declarations=declarations)[0]


@pytest.fixture(scope="module")
def many_slices(tmp_path_factory):
    """A canonical document whose text spans several 64 Ki slices, with a
    label's non-ASCII character on a slice boundary; its flat source and
    a self-alignment, written to files."""
    flat = _flat_text(352)
    doc = _canonical(flat)
    text = serialize_gkg(doc)
    boundaries = range(1 << 16, len(text), 1 << 16)
    assert len(boundaries) >= 3
    assert any(not text[at - 1:at + 1].isascii() for at in boundaries)
    work = tmp_path_factory.mktemp("slices")
    for name, content in (("a.tsv", flat), ("a.gkg", text), ("aa.align", _identity_alignment(text, text))):
        (work / name).write_text(content, encoding="utf-8")
    return work, doc


class TestWritePath:
    def check(self, capsysbinary, argv, out, expected: str):
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == expected.encode("utf-8")

    def test_canonicalize(self, many_slices, capsysbinary):
        work, doc = many_slices
        argv = ["canonicalize", "--rules", str(RULES), "--flat", str(work / "a.tsv")]
        self.check(capsysbinary, argv, work / "out.gkg", serialize_gkg(doc))

    def test_merge(self, many_slices, capsysbinary):
        work, doc = many_slices
        a, ab = str(work / "a.gkg"), work / "aa.align"
        merged = merge_documents(doc, doc, parse_alignment_tsv(ab.read_text(encoding="utf-8")))[0]
        assert serialize_gkg(merged) == serialize_gkg(doc)
        self.check(capsysbinary, ["merge", a, a, "--alignment", str(ab)], work / "out.gkg", serialize_gkg(merged))

    def test_render(self, many_slices, capsysbinary):
        work, doc = many_slices
        expected = render(doc.graph, doc.labels, "en").to_tsv()
        assert len(expected) > 1 << 16
        self.check(capsysbinary, ["render", str(work / "a.gkg"), "--lang", "en"], work / "out.tsv", expected)


def _spare(call, arg):
    """(result, peak traced memory during ``call(arg)`` above what is held
    after it)."""
    tracemalloc.start()
    try:
        result = call(arg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


class TestSpareCopies:
    """Reading a document holds no list of all its lines, and writing one
    holds no such list and no second copy of the text.  A read through
    one ``splitlines`` list peaked 2.4 times the text's length above what
    it kept, and a write of all lines joined, plus the last line end,
    3.1 times the output's; here they are 0.4 and 1.1."""

    def test_parse_and_serialize(self):
        # ASCII text, so a character is a byte of the text and of each line.
        text = serialize_gkg(_canonical(_flat_text(5000, _ASCII_NAMES)))
        assert text.count("\n") >= 50_000
        doc, spare = _spare(parse_gkg, text)
        assert spare < 1.0 * len(text)
        out, spare = _spare(serialize_gkg, doc)
        assert out == text
        assert spare < 1.6 * len(out)
