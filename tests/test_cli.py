"""End-to-end command line coverage via main(argv)."""

import pytest

from gkg.cli import main

from .support import WORKED_TEXT

RULES = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
ESSENTIAL ont:Birth
CARD ont:Birth ONE
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
"""

FLAT_A = "RogerWaters\tbornIn\tGreat Bookham\nRogerWaters\tbornOn\t01/08/1955\n"
FLAT_B = "GeorgeRogerWaters\tbornIn\tGreat Bookham\nGeorgeRogerWaters\tbornOn\t01/08/1955\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "rules.rules").write_text(RULES, encoding="utf-8")
    (tmp_path / "a.flat").write_text(FLAT_A, encoding="utf-8")
    (tmp_path / "b.flat").write_text(FLAT_B, encoding="utf-8")
    (tmp_path / "worked.gkg").write_text(WORKED_TEXT, encoding="utf-8")
    return tmp_path


def canonicalize(workspace, flat_name, out_name, revision="0"):
    code = main(
        [
            "canonicalize",
            "--rules", str(workspace / "rules.rules"),
            "--flat", str(workspace / flat_name),
            "--revision", revision,
            "-o", str(workspace / out_name),
        ]
    )
    assert code == 0
    return workspace / out_name


class TestValidate:
    def test_ok(self, workspace, capsys):
        assert main(["validate", str(workspace / "worked.gkg")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok\t")

    def test_validation_failure_exit_1(self, workspace, capsys):
        bad = workspace / "bad.gkg"
        bad.write_text("N ex:a C core:T\nE ex:a dep ex:ghost\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "dangling-reference" in out

    def test_syntax_error_exit_2(self, workspace, capsys):
        bad = workspace / "bad.gkg"
        bad.write_text("WHAT is this\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_3(self, workspace):
        assert main(["validate", str(workspace / "missing.gkg")]) == 3


class TestCanonicalize:
    def test_writes_document_and_report(self, workspace, capsys):
        out = canonicalize(workspace, "a.flat", "a.gkg")
        captured = capsys.readouterr()
        assert "events_created\t1" in captured.out
        assert "events_coalesced\t1" in captured.out
        text = out.read_text(encoding="utf-8")
        assert text.startswith("T core:Entity -\n")
        assert main(["validate", str(out)]) == 0

    def test_stdout_when_no_output_file(self, workspace, capsys):
        code = main(
            [
                "canonicalize",
                "--rules", str(workspace / "rules.rules"),
                "--flat", str(workspace / "a.flat"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "N ent:" in captured.out
        assert "events_created" in captured.err  # report moved aside

    def test_byte_stable_across_runs(self, workspace):
        first = canonicalize(workspace, "a.flat", "run1.gkg").read_text(encoding="utf-8")
        second = canonicalize(workspace, "a.flat", "run2.gkg").read_text(encoding="utf-8")
        assert first == second

    def test_malformed_flat_exit_2(self, workspace, capsys):
        (workspace / "bad.flat").write_text("no tabs here\n", encoding="utf-8")
        code = main(
            [
                "canonicalize",
                "--rules", str(workspace / "rules.rules"),
                "--flat", str(workspace / "bad.flat"),
            ]
        )
        assert code == 2


class TestAlignAndMerge:
    def test_align_writes_match_row(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        doc_b = canonicalize(workspace, "b.flat", "b.gkg")
        out = workspace / "ab.tsv"
        code = main(["align", str(doc_a), str(doc_b), "--seed", "42", "-o", str(out)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1
        fields = rows[0].split("\t")
        assert fields[3] == "MATCH"
        assert 0.93 <= float(fields[2]) <= 0.97

    def test_align_file_provider_requires_vectors(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        code = main(["align", str(doc_a), str(doc_a), "--provider", "file"])
        assert code == 1

    @pytest.mark.parametrize(
        "option",
        [
            ["--threshold", "2"],
            ["--threshold", "0"],
            ["--ambiguity-band", "-0.1"],
            ["--dim", "0"],
            ["--provider", "file", "--vectors", "unused.txt", "--dim", "-3"],
        ],
    )
    def test_align_bad_numeric_option_exit_2(self, workspace, capsys, option):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()
        assert main(["align", str(doc_a), str(doc_a), *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gkg: ") and captured.err.count("\n") == 1

    def test_align_non_finite_vector_file_exit_2(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()
        vectors = workspace / "vectors.txt"
        vectors.write_text("roger nan 0 0\n", encoding="utf-8")
        code = main(
            ["align", str(doc_a), str(doc_a), "--provider", "file", "--vectors", str(vectors), "--dim", "3"]
        )
        assert code == 2
        assert capsys.readouterr().err == "gkg: line 1: non-finite component for 'roger'\n"

    def test_merge_folds_b_into_a(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        doc_b = canonicalize(workspace, "b.flat", "b.gkg")
        tsv = workspace / "ab.tsv"
        assert main(["align", str(doc_a), str(doc_b), "-o", str(tsv)]) == 0
        merged = workspace / "merged.gkg"
        code = main(["merge", str(doc_a), str(doc_b), "--alignment", str(tsv), "-o", str(merged)])
        assert code == 0
        report = capsys.readouterr().out
        assert "merged\t1" in report
        assert merged.read_text(encoding="utf-8") == doc_a.read_text(encoding="utf-8")

    def test_merge_missing_alignment_file_exit_3(self, workspace):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        code = main(["merge", str(doc_a), str(doc_a), "--alignment", str(workspace / "no.tsv")])
        assert code == 3


class TestRenderAndIsocheck:
    def test_render_tsv(self, workspace, capsys):
        assert main(["render", str(workspace / "worked.gkg"), "--lang", "en"]) == 0
        out = capsys.readouterr().out
        assert "ex:rw\tRoger Waters" in out
        assert "participantIn" in out

    def test_isocheck_same_document(self, workspace, capsys):
        path = str(workspace / "worked.gkg")
        assert main(["isocheck", path, path]) == 0
        assert capsys.readouterr().out == "ISOMORPHIC\n"

    def test_isocheck_different_documents(self, workspace, capsys):
        doc_a = canonicalize(workspace, "a.flat", "a.gkg")
        capsys.readouterr()  # discard the canonicalize report
        assert main(["isocheck", str(workspace / "worked.gkg"), str(doc_a)]) == 1
        assert capsys.readouterr().out.startswith("NOT_ISOMORPHIC\t")


class TestEval:
    def test_eval_flat_smoke(self, capsys):
        assert main(["eval", "flat", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "band\trelation_renamed" in out
        assert "band_delta" in out

    def test_eval_grounded_smoke(self, capsys):
        assert main(["eval", "grounded"]) == 0
        out = capsys.readouterr().out
        assert "mutant\trenamed_entity" in out
        assert "NO_MATCH" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "flat", "--dim", "0"],
            ["eval", "flat", "--trials", "0"],
            ["eval", "grounded", "--dim", "0"],
            ["eval", "grounded", "--threshold", "1.5"],
        ],
    )
    def test_eval_bad_numeric_option_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gkg: ") and captured.err.count("\n") == 1

    def test_eval_output_deterministic(self, capsys):
        main(["eval", "flat", "--trials", "5"])
        first = capsys.readouterr().out
        main(["eval", "flat", "--trials", "5"])
        assert capsys.readouterr().out == first
