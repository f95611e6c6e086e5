"""Byte-for-byte guard on what the command line writes.

``tests/data/cli_corpus/`` holds a small seeded corpus (a census source
and its next revision, two sources about the same people, and a few
broken documents) and, under ``expected/``, what every command below
wrote on it: the ``-o`` file, stdout and stderr.  Later cases read the
documents earlier cases produced from ``expected/``, so each case stands
alone.  A change that moves any byte of canonical output, a report, an
alignment TSV, a render, an isocheck line, an error message or an exit
code fails here.

To refresh the expected files after a deliberate output change, run
``PYTHONPATH=src python -m tests.test_cli_golden`` and say in the change
log which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from gkg.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_corpus"
EXPECTED = CORPUS / "expected"

# (case, argv, exit code, name of the -o file or None).  In argv, "{in}"
# is the corpus directory, "{exp}" the expected directory and "{out}"
# the case's -o path.
CASES = [
    ("canon_rev1", ["canonicalize", "--rules", "{in}/rules.txt", "--flat", "{in}/rev1.tsv",
                    "--source-id", "census", "--revision", "1", "-o", "{out}"], 0, "canon_rev1.gkg"),
    ("canon_rev2", ["canonicalize", "--rules", "{in}/rules.txt", "--flat", "{in}/rev2.tsv",
                    "--source-id", "census", "--revision", "2", "-o", "{out}"], 0, "canon_rev2.gkg"),
    ("canon_a", ["canonicalize", "--rules", "{in}/rules.txt", "--flat", "{in}/a.tsv",
                 "--source-id", "left", "-o", "{out}"], 0, "canon_a.gkg"),
    ("canon_b", ["canonicalize", "--rules", "{in}/rules.txt", "--flat", "{in}/b.tsv",
                 "--source-id", "right"], 0, None),
    ("validate_rev1", ["validate", "{exp}/canon_rev1.gkg"], 0, None),
    ("validate_bad", ["validate", "{in}/bad.gkg"], 1, None),
    ("validate_badid", ["validate", "{in}/badid.gkg"], 2, None),
    ("validate_cycle", ["validate", "{in}/cycle.gkg"], 1, None),
    ("render_rev2_fr", ["render", "{exp}/canon_rev2.gkg", "--lang", "fr", "-o", "{out}"], 0, "render_rev2_fr.tsv"),
    ("render_a_en", ["render", "{exp}/canon_a.gkg"], 0, None),
    ("align_a_b", ["align", "{exp}/canon_a.gkg", "{exp}/canon_b.stdout", "-o", "{out}"], 0, "align_a_b.tsv"),
    ("align_b_a", ["align", "{exp}/canon_b.stdout", "{exp}/canon_a.gkg", "--threshold", "0.8",
                   "--ambiguity-band", "0.05", "-o", "{out}"], 0, "align_b_a.tsv"),
    ("merge_a_b", ["merge", "{exp}/canon_a.gkg", "{exp}/canon_b.stdout",
                   "--alignment", "{exp}/align_a_b.tsv", "-o", "{out}"], 0, "merge_a_b.gkg"),
    ("merge_rev", ["merge", "{exp}/canon_rev1.gkg", "{exp}/canon_rev2.gkg",
                   "--alignment", "{in}/rev1_rev2.align", "-o", "{out}"], 0, "merge_rev.gkg"),
    ("merge_rev_down", ["merge", "{exp}/canon_rev2.gkg", "{exp}/canon_rev1.gkg",
                        "--alignment", "{in}/rev2_rev1.align"], 0, None),
    ("merge_self", ["merge", "{exp}/canon_rev1.gkg", "{exp}/canon_rev1.gkg",
                    "--alignment", "{in}/rev1_self.align", "-o", "{out}"], 0, "merge_self.gkg"),
    ("isocheck_self", ["isocheck", "{exp}/canon_rev1.gkg", "{exp}/merge_self.gkg", "--lang", "fr"], 0, None),
    ("isocheck_rev", ["isocheck", "{exp}/canon_rev1.gkg", "{exp}/canon_rev2.gkg"], 1, None),
]


def _run(argv, out_path):
    """Run ``gkg argv``; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            [arg.format(**{"in": CORPUS, "exp": EXPECTED, "out": out_path}) for arg in argv]
        )
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("case, argv, code, out_name", CASES, ids=[case[0] for case in CASES])
def test_output_is_byte_identical(tmp_path, case, argv, code, out_name):
    out_path = tmp_path / (out_name or "unused")
    got_code, got_stdout, got_stderr = _run(argv, out_path)
    assert got_code == code
    assert got_stdout == (EXPECTED / f"{case}.stdout").read_text(encoding="utf-8")
    assert got_stderr == (EXPECTED / f"{case}.stderr").read_text(encoding="utf-8")
    if out_name is not None:
        assert out_path.read_bytes() == (EXPECTED / out_name).read_bytes()


def test_every_expected_file_belongs_to_a_case():
    names = {f"{case}.{stream}" for case, *_ in CASES for stream in ("stdout", "stderr")}
    names |= {out_name for *_, out_name in CASES if out_name is not None}
    assert {path.name for path in EXPECTED.iterdir()} == names


def _regenerate() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for case, argv, code, out_name in CASES:
        out_path = EXPECTED / (out_name or "unused")
        got_code, got_stdout, got_stderr = _run(argv, out_path)
        if got_code != code:
            sys.exit(f"{case}: exit {got_code}, expected {code}")
        (EXPECTED / f"{case}.stdout").write_text(got_stdout, encoding="utf-8")
        (EXPECTED / f"{case}.stderr").write_text(got_stderr, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
