"""Scale probe: how ``gkg align`` and ``gkg merge`` grow with the corpus.

    python3 scripts/scale_probe.py [--sizes 400 1600 3200] [--repeat 1] [--src PATH]

Generates gkgbench's ``reconcile`` corpus (two sources about the same
people, seed 1) at each size, in subjects per side, and runs the four
commands of that workload (canonicalize A, canonicalize B, align, merge)
and ``gkg validate`` of A, whose time is that of reading one document
(``validate_a``), the parse that align and merge each pay twice.
Each command runs in a fresh interpreter with one BLAS thread.  For each
size the probe prints one JSON object: each command's wall time
(interpreter start included) and peak RSS, read from the child's own
rusage, and the ``MATCH`` and ``AMBIG`` rows of the alignment.  With
``--repeat N`` each size runs N times and the median time and largest
RSS are kept.  ``--src`` points at the ``src`` directory of the checkout
to probe (default: this one), so two versions can be probed with one
generator.  Inputs and outputs live in a temporary directory under
``.bench_work/``.

This is a probe, not a benchmark: it checks no output and gates nothing.
Its numbers are recorded by hand next to a change (``BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SEED = 1
COMMANDS = (
    ("canonicalize_a", ("canonicalize", "--rules", "rules.txt", "--flat", "a.tsv",
                        "--source-id", "srcA", "--revision", "0", "-o", "a.gkg")),
    ("canonicalize_b", ("canonicalize", "--rules", "rules.txt", "--flat", "b.tsv",
                        "--source-id", "srcB", "--revision", "1", "-o", "b.gkg")),
    ("validate_a", ("validate", "a.gkg")),
    ("align", ("align", "a.gkg", "b.gkg", "-o", "ab.align")),
    ("merge", ("merge", "a.gkg", "b.gkg", "--alignment", "ab.align", "-o", "ab.gkg")),
)


def load_corpus_module():
    """gkgbench's generator, loaded from its file without writing anything
    next to it (no bytecode cache)."""
    spec = importlib.util.spec_from_file_location("gkgbench_corpus", ROOT / "gkgbench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def run_command(argv, work: Path, env: dict):
    """(wall seconds, peak RSS in MiB) of one ``gkg`` command."""
    with open(work / ".stderr", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "gkg.cli", *argv], cwd=work, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()
            raise SystemExit(f"gkg {' '.join(argv)} exited {code}: {message}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def alignment_rows(path: Path) -> dict:
    counts = {"MATCH": 0, "AMBIG": 0}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            counts[line.rstrip("\n").rsplit("\t", 1)[-1]] += 1
    return {"match_rows": counts["MATCH"], "ambig_rows": counts["AMBIG"], "align_bytes": path.stat().st_size}


def probe(size: int, repeat: int, env: dict, corpus) -> dict:
    generated = corpus.reconcile(SEED, size)
    times = {name: [] for name, _ in COMMANDS}
    rss = dict.fromkeys(times, 0.0)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scale_probe_", dir=WORK) as tmp:
        work = Path(tmp)
        for name in ("rules.txt", "a.tsv", "b.tsv"):
            (work / name).write_text(generated.files[name], encoding="utf-8")
        for _ in range(repeat):
            for name, argv in COMMANDS:
                wall, peak = run_command(argv, work, env)
                times[name].append(wall)
                rss[name] = max(rss[name], peak)
        record = {"subjects_per_side": size, "seed": SEED, "repeat": repeat}
        for name in times:
            record[f"{name}_s"] = round(statistics.median(times[name]), 3)
            record[f"{name}_rss_mib"] = round(rss[name], 1)
        record.update(alignment_rows(work / "ab.align"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[400, 1600, 3200])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="src directory of the checkout to probe")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.sizes) < 1:
        parser.error("--repeat and --sizes must be positive")

    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Let the untimed import below write the bytecode that every timed
    # command then reads, as an installed package would have it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import gkg.cli"], env=env, check=True)  # compile once, untimed
    corpus = load_corpus_module()

    for size in args.sizes:
        print(json.dumps(probe(size, args.repeat, env, corpus)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
