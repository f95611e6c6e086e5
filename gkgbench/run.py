"""The gkg benchmark: the ``gkg`` command line over seeded corpora.

    python3 gkgbench/run.py --workload ingest|reconcile|revise|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/gkg`` and
nothing installed.  The load is a closed loop with one client: the
benchmark runs a workload's commands one after another, each in a fresh
interpreter (child.py), and repeats that pass until ``--seconds`` have
gone by.  Every output is checked against the generator's oracle
(corpus.py).  The last line of stdout is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of passes traced with spans (replay.py).  Times are
scaled to the machine's reference speed, measured next to each command
(child.py), because the speed of a shared machine drifts.  Inputs and
outputs live in a temporary directory under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import corpus

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"

#: Subjects per source.  Chosen so one pass takes a second or two on a
#: 2-core Xeon, leaving a dozen or more passes per 30-second run.
SIZES = {"ingest": 1000, "reconcile": 120, "revise": 400}
DEFAULT_SEED = 1
COMMAND_TIMEOUT_S = 150
#: The numerical code works on 64-dimension vectors, where threads only
#: add noise, so every command process gets one BLAS thread.
BLAS_THREADS = "1"
#: Time of child.calibrate() on the reference machine at full speed.
CALIBRATION_REF_S = 0.1

#: End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("triples_per_s", "triples/s"),
    ("canonicalize_s", "s"),
    ("downstream_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-command times, printed on the summary lines of workloads that run
#: the command (not in the JSON line: not every workload has them).
COMMANDS = ("canonicalize", "validate", "align", "merge", "render", "isocheck")

#: Per-layer metrics of a traced run: (name, unit).  A ``*_s`` metric is
#: the self time of the spans of that name (``cli.self_s``: of the
#: command spans), summed over a pass.
PER_LAYER = (
    ("cli.io_s", "s"),
    ("cli.self_s", "s"),
    ("canonicalize.canonicalize_document_s", "s"),
    ("canonicalize.normalize_relation_name_s", "s"),
    ("canonicalize.triples", "count"),
    ("canonicalize.events_created", "count"),
    ("canonicalize.events_coalesced", "count"),
    ("hashing.fnv1a64_hex_s", "s"),
    ("hashing.fnv1a64_calls", "count"),
    ("embedding.tokenize_s", "s"),
    ("embedding.embed_phrase_s", "s"),
    ("embedding.token_lookups", "count"),
    ("embedding.distinct_tokens", "count"),
    ("embedding.cache_hit_ratio", "ratio"),
    ("formats.parse_flat_s", "s"),
    ("formats.parse_gkg_s", "s"),
    ("formats.parse_gkg_lines", "count"),
    ("formats.validate_document_s", "s"),
    ("formats.serialize_gkg_s", "s"),
    ("formats.serialize_gkg_bytes", "bytes"),
    ("model.nodeid_parse_s", "s"),
    ("model.nodeid_parse_calls", "count"),
    ("model.validate_graph_s", "s"),
    ("alignment.align_s", "s"),
    ("alignment.entity_signature_s", "s"),
    ("alignment.signature_similarity_s", "s"),
    ("alignment.pairs_scored", "count"),
    ("alignment.pairs_per_s", "pairs/s"),
    ("alignment.match_rows", "count"),
    ("alignment.ambig_rows", "count"),
    ("alignment.match_yield", "ratio"),
    ("alignment.format_alignment_tsv_s", "s"),
    ("alignment.precision", "ratio"),
    ("alignment.recall", "ratio"),
    ("merge.merge_documents_s", "s"),
    ("merge.union_hierarchies_s", "s"),
    ("merge.pairs", "count"),
    ("merge.updated", "count"),
    ("merge.conflicts", "count"),
    ("merge.added_nodes", "count"),
    ("merge.added_edges", "count"),
    ("multilingual.render_s", "s"),
    ("multilingual.to_tsv_s", "s"),
    ("multilingual.check_isomorphic_s", "s"),
    ("multilingual.nodes_rendered", "count"),
    ("multilingual.edges_rendered", "count"),
    ("trace.overhead_s", "s"),
)

Check = Callable[[Path, str, dict], Optional[str]]


@dataclass(frozen=True)
class Step:
    """One gkg call.  ``check`` gets the work directory, the command's
    stdout and state shared by the pass's earlier checks, and returns a
    problem or None."""

    argv: tuple
    check: Check
    triples: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    setup: List[Step]
    steps: List[Step]


@dataclass
class Outcome:
    command: str
    seconds: float
    setup_s: Optional[float]
    rss_kib: int
    problem: Optional[str]
    calibration: float = 0.0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds`` scaled to the speed ``child.calibrate`` has on the
        reference machine."""
        return seconds * CALIBRATION_REF_S / self.calibration if self.calibration else seconds


# --- output checks ---------------------------------------------------------

def _numbers(stdout: str) -> Dict[str, int]:
    """``key<TAB>integer`` report rows."""
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if value.isdigit():
            values[key] = int(value)
    return values


def _row_kinds(stdout: str) -> Counter:
    return Counter(line.split("\t", 1)[0] for line in stdout.splitlines())


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _continuants(path: Path) -> set:
    ids = set()
    for line in _read(path).splitlines():
        if line.startswith("N "):
            fields = line.split(" ", 4)
            if fields[2] == "C":
                ids.add(fields[1])
    return ids


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def check_canon(expected: Dict[str, int], same_as: Optional[str] = None, output: str = "") -> Check:
    def check(work: Path, stdout: str, state: dict) -> Optional[str]:
        values = _numbers(stdout)
        for key in ("entity_nodes_created", "events_created", "events_coalesced"):
            problem = _expect(key, values.get(key), expected[key])
            if problem:
                return problem
        kinds = _row_kinds(stdout)
        if kinds["unmapped_relation"] or kinds["value_conflict"]:
            return "canonicalize reported unmapped relations or value conflicts"
        if same_as and (work / output).read_bytes() != (work / same_as).read_bytes():
            return f"{output} differs from {same_as}"
        return None

    return check


def check_validate(work: Path, stdout: str, state: dict) -> Optional[str]:
    fields = stdout.rstrip("\n").split("\t")
    if len(fields) != 5 or fields[0] != "ok":
        return f"validate printed {stdout[:80]!r}"
    state["rows"] = int(fields[2]) + int(fields[4])
    return None


def check_render(output: str) -> Check:
    def check(work: Path, stdout: str, state: dict) -> Optional[str]:
        rows = _read(work / output).count("\n")
        return _expect("render rows (nodes + edges)", rows, state.get("rows"))

    return check


def check_align(doc_a: str, doc_b: str, output: str, truth: set) -> Check:
    def check(work: Path, stdout: str, state: dict) -> Optional[str]:
        ids_a, ids_b = _continuants(work / doc_a), _continuants(work / doc_b)
        matches = set()
        for line in _read(work / output).splitlines():
            fields = line.split("\t")
            if len(fields) != 4 or fields[3] not in ("MATCH", "AMBIG"):
                return f"bad alignment row {line!r}"
            if fields[0] not in ids_a or fields[1] not in ids_b:
                return f"alignment row names an id absent from its document: {line!r}"
            if fields[3] == "MATCH":
                matches.add((fields[0], fields[1]))
        hits = len(matches & truth)
        state["precision"] = hits / len(matches) if matches else 0.0
        state["recall"] = hits / len(truth)
        return None

    return check


def check_merge(expected: Optional[Dict[str, int]] = None, identical_to: str = "", output: str = "") -> Check:
    """No FUNCTIONAL clash is left as a conflict: B is always at a higher
    revision than A, so every clash resolves as ``updated``.  With
    ``expected``, ``merged`` and the ``updated`` rows equal the oracle's."""

    def check(work: Path, stdout: str, state: dict) -> Optional[str]:
        values, kinds = _numbers(stdout), _row_kinds(stdout)
        problem = _expect("conflicts", kinds["conflict"], 0)
        if expected and not problem:
            problem = _expect("merged", values.get("merged"), expected["merged"]) or _expect(
                "updated", kinds["updated"], expected["updated"]
            )
        if identical_to and not problem:
            if (work / output).read_bytes() != (work / identical_to).read_bytes():
                return f"self-merge {output} differs from {identical_to}"
            problem = _expect("added", (values.get("added_nodes"), values.get("added_edges")), (0, 0))
        return problem

    return check


def check_isomorphic(work: Path, stdout: str, state: dict) -> Optional[str]:
    return _expect("isocheck", stdout, "ISOMORPHIC\n")


# --- workloads ---------------------------------------------------------------

def _canon(flat: str, out: str, counts: dict, source: str, revision: int, **same) -> Step:
    argv = ("canonicalize", "--rules", "rules.txt", "--flat", flat, "--source-id", source,
            "--revision", str(revision), "-o", out)
    return Step(argv, check_canon(counts, output=out, **same), triples=counts["triples"])


def plan_ingest(corp: corpus.Corpus) -> Plan:
    counts = corp.oracle["canon"]
    return Plan(
        setup=[],
        steps=[
            _canon("dump.tsv", "dump.gkg", counts["dump.tsv"], "dump", 0),
            _canon("dump_shuffled.tsv", "shuffled.gkg", counts["dump_shuffled.tsv"], "dump", 0,
                   same_as="dump.gkg"),
            Step(("validate", "dump.gkg"), check_validate),
            Step(("render", "dump.gkg", "--lang", "fr", "-o", "dump.fr.tsv"), check_render("dump.fr.tsv")),
        ],
    )


def plan_reconcile(corp: corpus.Corpus) -> Plan:
    counts = corp.oracle["canon"]
    truth = {tuple(line.split("\t")) for line in corp.files["truth.tsv"].splitlines()}
    return Plan(
        setup=[],
        steps=[
            _canon("a.tsv", "a.gkg", counts["a.tsv"], "srcA", 0),
            _canon("b.tsv", "b.gkg", counts["b.tsv"], "srcB", 1),
            Step(("align", "a.gkg", "b.gkg", "-o", "ab.align"), check_align("a.gkg", "b.gkg", "ab.align", truth)),
            Step(("merge", "a.gkg", "b.gkg", "--alignment", "ab.align", "-o", "ab.gkg"), check_merge()),
        ],
    )


def plan_revise(corp: corpus.Corpus) -> Plan:
    counts, merges = corp.oracle["canon"], corp.oracle["merge"]
    return Plan(
        setup=[_canon("rev1.tsv", "rev1.gkg", counts["rev1.tsv"], "people", 1)],
        steps=[
            _canon("rev2.tsv", "rev2.gkg", counts["rev2.tsv"], "people", 2),
            Step(("merge", "rev1.gkg", "rev2.gkg", "--alignment", "rev1_rev2.align", "-o", "merged.gkg"),
                 check_merge(merges["rev1_rev2.align"])),
            Step(("merge", "rev1.gkg", "rev1.gkg", "--alignment", "rev1_self.align", "-o", "self.gkg"),
                 check_merge(merges["rev1_self.align"], identical_to="rev1.gkg", output="self.gkg")),
            Step(("isocheck", "--lang", "fr", "rev1.gkg", "self.gkg"), check_isomorphic),
        ],
    )


PLANS = {"ingest": plan_ingest, "reconcile": plan_reconcile, "revise": plan_revise}


# --- running commands --------------------------------------------------------

class Runner:
    """Spawns command processes in one work directory."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = BLAS_THREADS
        self.count = 0

    def warm_up(self) -> None:
        """Compile gkg's bytecode once, untimed, as an installed package has."""
        subprocess.run([sys.executable, "-c", "import gkg.cli"], env=self.env, check=True,
                       timeout=COMMAND_TIMEOUT_S)

    def run(self, step: Step, mode: str, pass_id: str, state: dict) -> Outcome:
        self.count += 1
        result = self.work / f".result{self.count}.json"
        stdout_path = self.work / ".stdout"
        argv = [sys.executable, str(CHILD), str(result), mode, pass_id, *step.argv]
        spawned = time.perf_counter()
        try:
            with open(stdout_path, "wb") as out, open(self.work / ".stderr", "wb") as err:
                proc = subprocess.run(argv, cwd=self.work, env=self.env, stdout=out, stderr=err,
                                      timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(step.command, time.perf_counter() - spawned, None, 0, "timed out")
        wall = time.perf_counter() - spawned
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        if not result.exists():
            err = (self.work / ".stderr").read_text(encoding="utf-8", errors="replace")
            return Outcome(step.command, wall, None, 0, f"exit {proc.returncode}: {err[-300:]}")
        record = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        problem = None if record["code"] == 0 else f"exit code {record['code']}"
        if problem is None:
            problem = step.check(self.work, stdout, state)
        return Outcome(
            step.command,
            record["end"] - record["start"],
            record["imported"] - spawned,
            record["maxrss_kib"],
            problem,
            record["calibration"],
            record.get("spans", []),
            record.get("counters", {}),
        )


@dataclass
class Pass:
    outcomes: List[Outcome]
    state: dict
    triples: int

    def seconds(self, command: Optional[str] = None, scaled: bool = True) -> float:
        """Command time of the pass, or of its calls of one command, at the
        reference speed unless ``scaled`` is false."""
        return sum(o.at_reference_speed(o.seconds) if scaled else o.seconds
                   for o in self.outcomes if command in (None, o.command))

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        total, canon = self.seconds(scaled=scaled), self.seconds("canonicalize", scaled)
        return {
            "triples_per_s": self.triples / total,
            "canonicalize_s": canon,
            "downstream_s": total - canon,
            "peak_rss_mb": max(o.rss_kib for o in self.outcomes) / 1024.0,
        }


def run_pass(runner: Runner, plan: Plan, mode: str, pass_id: str) -> Pass:
    state: dict = {}
    outcomes = [runner.run(step, mode, pass_id, state) for step in plan.steps]
    return Pass(outcomes, state, sum(step.triples for step in plan.steps))


# --- traced passes -----------------------------------------------------------

def self_times(spans: list) -> Dict[str, float]:
    """Span duration minus the part of it its child spans cover, summed
    per span name."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["name"]] += span["end"] - span["start"] - covered
    return totals


def layer_metrics(traced: Pass) -> Dict[str, float]:
    values: Dict[str, float] = defaultdict(float)
    for outcome in traced.outcomes:
        for name, seconds in self_times(outcome.spans).items():
            values["cli.self_s" if name == "cli.main" else name + "_s"] += outcome.at_reference_speed(seconds)
        for name, count in outcome.counters.items():
            values[name] += count
    lookups = values["embedding.token_lookups"]
    values["embedding.cache_hit_ratio"] = 1.0 - values["embedding.cache_misses"] / lookups if lookups else 0.0
    pairs = values["alignment.pairs_scored"]
    align_s = values["alignment.align_s"]
    values["alignment.pairs_per_s"] = pairs / align_s if align_s else 0.0
    values["alignment.match_yield"] = values["alignment.match_rows"] / pairs if pairs else 0.0
    values["alignment.precision"] = traced.state.get("precision", 0.0)
    values["alignment.recall"] = traced.state.get("recall", 0.0)
    return values


# --- one run -----------------------------------------------------------------

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: List[float]) -> str:
    if len(values) < 4:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} p25={q1:.6g} p75={q3:.6g}"


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    corp = corpus.GENERATORS[workload](seed, SIZES[workload])
    plan = PLANS[workload](corp)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / ".bench_work"))
    try:
        for name, text in corp.files.items():
            (work / name).write_text(text, encoding="utf-8")
        runner = Runner(root, work)
        runner.warm_up()
        for step in plan.setup:
            outcome = runner.run(step, "run", "setup", {})
            if outcome.problem:
                raise RuntimeError(f"set-up {' '.join(step.argv)}: {outcome.problem}")

        plain: List[Pass] = []
        traced: List[Pass] = []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(run_pass(runner, plan, "run", f"p{len(plain)}"))
            if trace:
                traced.append(run_pass(runner, plan, "trace", f"t{len(traced)}"))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in plain + traced for o in p.outcomes]
    failures = [o for o in outcomes if o.problem]
    for outcome in failures[:10]:
        print(f"FAILED {workload} {outcome.command}: {outcome.problem}", file=sys.stderr)

    commands = [c for c in COMMANDS if any(o.command == c for o in plain[0].outcomes)]

    def samples(scaled: bool) -> Dict[str, List[float]]:
        per_pass = [p.end_to_end(scaled) for p in plain]
        values = {name: [v[name] for v in per_pass] for name in per_pass[0]}
        values["setup_s"] = [o.at_reference_speed(o.setup_s) if scaled else o.setup_s
                             for p in plain for o in p.outcomes if o.setup_s is not None]
        values.update((f"{c}_s", [p.seconds(c, scaled) for p in plain]) for c in commands)
        return values

    scaled, raw = samples(True), samples(False)
    print(f"workload {workload} seed {seed} subjects {SIZES[workload]} passes {len(plain)}"
          f" commands {len(outcomes)} python {sys.version.split()[0]} nproc {os.cpu_count()}"
          f" blas_threads {BLAS_THREADS}")
    units = dict(END_TO_END)
    for name, values in scaled.items():
        print(f"metric {name} {_median(values):.6g} {units.get(name, 's')} {_spread(values)}")
    for name, values in raw.items():
        if name != "peak_rss_mb":
            print(f"raw {name} {_median(values):.6g} {units.get(name, 's')} {_spread(values)}")
    speeds = [CALIBRATION_REF_S / o.calibration for p in plain for o in p.outcomes if o.calibration]
    print(f"speed {_median(speeds):.4g} of reference {_spread(speeds)}")
    quality = plain[0].state
    if "precision" in quality:
        print(f"metric align_precision {quality['precision']:.6g} ratio")
        print(f"metric align_recall {quality['recall']:.6g} ratio")
    print(f"metric failed_ratio {len(failures) / len(outcomes):.6g} ratio")

    if trace:
        layers = [layer_metrics(p) for p in traced]
        metrics = {name: {"value": _median([v[name] for v in layers]), "unit": unit}
                   for name, unit in PER_LAYER}
        overhead = _median([p.seconds() for p in traced]) - _median([p.seconds() for p in plain])
        metrics["trace.overhead_s"]["value"] = overhead
        for name, unit in PER_LAYER:
            print(f"layer {name} {metrics[name]['value']:.6g} {unit}")
    else:
        metrics = {name: {"value": _median(scaled[name]), "unit": unit} for name, unit in END_TO_END}
    return {"correct": not failures, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gkg" / "cli.py").is_file():
        print("gkgbench: run from the root of a gkg checkout (src/gkg/cli.py not found)", file=sys.stderr)
        return 2
    workloads = sorted(PLANS) if args.workload == "all" else [args.workload]
    results = {w: measure(root, w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
