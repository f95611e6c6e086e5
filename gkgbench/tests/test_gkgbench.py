"""Self-tests of the benchmark: generator determinism, the FNV oracle, and
a tiny pass of each workload with every output check passing.

    python3 -m pytest gkgbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
import run  # noqa: E402

TINY = {"ingest": 40, "reconcile": 30, "revise": 40}


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_generator_is_a_function_of_the_seed(workload):
    generate = corpus.GENERATORS[workload]
    first, again, other = generate(3, 60), generate(3, 60), generate(4, 60)
    assert first.files == again.files
    assert first.oracle == again.oracle
    assert first.files != other.files


def test_fnv_oracle_matches_the_readme_id():
    assert corpus.entity_id("RogerWaters") == "ent:a73a7c3b4094aa5c"


def test_oracle_counts_follow_the_dump():
    people = [
        corpus.Person("Ana Berg", "Kaby", "01/02/1950", ("Lostad",), ("Mira Labs",)),
        corpus.Person("Eli Lund", "Kaby", "01/02/1950", ("Lostad", "Vistad"), ("Mira Labs", "Tuva Mills")),
    ]
    counts = corpus.canon_counts(people)
    assert counts == {"triples": 10, "entity_nodes_created": 4, "events_created": 7, "events_coalesced": 3}


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.PLANS)


@pytest.fixture
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(run, "SIZES", TINY)


@pytest.mark.parametrize("workload", sorted(run.PLANS))
def test_tiny_pass_has_no_failures(tiny_sizes, workload, capsys):
    result = run.measure(ROOT, workload, seed=5, seconds=0, trace=False)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert "metric failed_ratio 0 ratio" in out
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.PLANS))
def test_tiny_traced_pass_reports_every_layer(tiny_sizes, workload):
    result = run.measure(ROOT, workload, seed=5, seconds=0, trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["failed"] == 0
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["cli.self_s"] > 0 and metrics["formats.parse_gkg_s"] > 0
    if workload == "reconcile":
        assert metrics["alignment.align_s"] > 0 and metrics["alignment.pairs_scored"] > 0
    else:
        assert metrics["alignment.align_s"] == 0 and metrics["alignment.pairs_scored"] == 0


def test_self_times_subtract_child_coverage():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "cli.io", "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "formats.parse_gkg", "parent": 0, "start": 4.0, "end": 8.0},
        {"id": 3, "name": "model.nodeid_parse", "parent": 2, "start": 11.0, "end": 12.0},
    ]
    assert run.self_times(spans) == {
        "cli.main": 4.0, "cli.io": 2.0, "formats.parse_gkg": 4.0, "model.nodeid_parse": 1.0,
    }


def test_a_traced_command_counts_real_calls_and_puts_gkg_back(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import replay

    corp = corpus.GENERATORS["ingest"](5, 20)
    for name in ("rules.txt", "dump.tsv"):
        (tmp_path / name).write_text(corp.files[name], encoding="utf-8")
    patched = [(owner, name) for owner, name, _ in replay._instrumentation(replay.Tracer("t"), [])]
    before = [vars(owner)[name] for owner, name in patched]

    tracer = replay.Tracer("t")
    argv = ["canonicalize", "--rules", str(tmp_path / "rules.txt"), "--flat", str(tmp_path / "dump.tsv"),
            "-o", str(tmp_path / "dump.gkg")]
    assert replay.run(argv, tracer) == 0
    assert replay.run(["validate", str(tmp_path / "dump.gkg")], tracer) == 0
    assert capsys.readouterr().out.count("ok\t") == 1

    assert [vars(owner)[name] for owner, name in patched] == before
    expected = corp.oracle["canon"]["dump.tsv"]
    assert tracer.counters["canonicalize.triples"] == expected["triples"]
    assert tracer.counters["canonicalize.events_created"] == expected["events_created"]
    names = {span["name"] for span in tracer.spans}
    assert {"cli.main", "cli.io", "formats.parse_gkg", "model.validate_graph", "hashing.fnv1a64_hex"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "gkgbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
