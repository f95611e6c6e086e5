"""Scale probe: how ``gkg align`` and ``gkg merge`` grow with the corpus.

    python3 scripts/scale_probe.py [--sizes 400 1600 3200] [--repeat 1] [--src PATH ...]

Generates gkgbench's ``reconcile`` corpus (two sources about the same
people, seed 1) at each size, in subjects per side, and runs the four
commands of that workload (canonicalize A, canonicalize B, align, merge),
``gkg canonicalize`` of a line-shuffled copy of A's flat file
(``canonicalize_a_shuffled``, shuffled with a fixed seed), which must
write ``a.gkg``'s bytes since canonicalize is order-insensitive,
``gkg validate`` of A, whose time is that of reading one document
(``validate_a``), the parse that align and merge each pay twice,
``gkg render`` of A in French (``render_a``), a read and a labeled view, and
``gkg merge`` of A with itself along A's identity alignment
(``merge_self``), a merge like a revision's that has nothing to fold,
and ``gkg isocheck`` of A against that self-merge in French
(``isocheck_self``), which must print ``ISOMORPHIC``.
The identity alignment is written from ``a.gkg``'s continuants, untimed,
right after ``canonicalize_a``.
At each size it also generates gkgbench's ``revise`` corpus (a source and
its next revision, seed 1), canonicalizes both revisions
(``canonicalize_rev1``, ``canonicalize_rev2``) and merges revision 1 with
revision 2 along the true alignment (``merge_rev``), the merge whose
time should follow what revision 2 brings.
Each command runs in a fresh interpreter with one BLAS thread.  For each
size and checkout the probe prints one JSON object: each command's wall
time (interpreter start included) and peak RSS, read from the child's
own rusage, the ``MATCH`` and ``AMBIG`` rows of the alignment, and the
SHA-256 of ``a.gkg``, ``a_shuffled.gkg``, ``b.gkg``, ``a.fr.tsv``, ``ab.align``,
``ab.gkg``, ``aa.gkg`` and the revision merge ``rev.gkg`` as the last repeat
left them, so equal digests across checkouts show
byte-identical output without a diff.  With ``--repeat N`` each size runs N times and
the median time and largest RSS are kept.  ``--src`` names the ``src``
directory of each checkout to probe (default: this one's), so several
versions are probed with one generator.  Each is copied into the run's
directory as ``src0``, ``src1``, ... and the copy is probed, so every
checkout runs from a path of one length (peak RSS moves with the length
of the path); each record still names the ``--src`` it was given.  Within each repeat the
checkouts run one after another, in reverse order every other repeat, so
an A/B comparison sees one machine speed rather than two.  Inputs,
outputs and the bytecode cache live in one temporary directory under
``.bench_work/``, so a probed ``src`` is left untouched.

This is a probe, not a benchmark: it checks no output but the
isocheck's verdict and gates nothing.
Its numbers are recorded by hand next to a change (``BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SEED = 1
SHUFFLE_SEED = 7
COMMANDS = (
    ("canonicalize_a", ("canonicalize", "--rules", "rules.txt", "--flat", "a.tsv",
                        "--source-id", "srcA", "--revision", "0", "-o", "a.gkg")),
    ("canonicalize_a_shuffled", ("canonicalize", "--rules", "rules.txt", "--flat", "a_shuffled.tsv",
                                 "--source-id", "srcA", "--revision", "0", "-o", "a_shuffled.gkg")),
    ("canonicalize_b", ("canonicalize", "--rules", "rules.txt", "--flat", "b.tsv",
                        "--source-id", "srcB", "--revision", "1", "-o", "b.gkg")),
    ("validate_a", ("validate", "a.gkg")),
    ("render_a", ("render", "a.gkg", "--lang", "fr", "-o", "a.fr.tsv")),
    ("align", ("align", "a.gkg", "b.gkg", "-o", "ab.align")),
    ("merge", ("merge", "a.gkg", "b.gkg", "--alignment", "ab.align", "-o", "ab.gkg")),
    ("merge_self", ("merge", "a.gkg", "a.gkg", "--alignment", "aa.align", "-o", "aa.gkg")),
    ("isocheck_self", ("isocheck", "--lang", "fr", "a.gkg", "aa.gkg")),
    ("canonicalize_rev1", ("canonicalize", "--rules", "rules.txt", "--flat", "rev1.tsv",
                           "--source-id", "people", "--revision", "1", "-o", "rev1.gkg")),
    ("canonicalize_rev2", ("canonicalize", "--rules", "rules.txt", "--flat", "rev2.tsv",
                           "--source-id", "people", "--revision", "2", "-o", "rev2.gkg")),
    ("merge_rev", ("merge", "rev1.gkg", "rev2.gkg", "--alignment", "rev1_rev2.align", "-o", "rev.gkg")),
)


def load_corpus_module():
    """gkgbench's generator, loaded from its file without writing anything
    next to it (no bytecode cache)."""
    spec = importlib.util.spec_from_file_location("gkgbench_corpus", ROOT / "gkgbench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def checkout_envs(srcs, run_dir: Path) -> dict:
    """src path -> the environment that runs ``gkg`` from a copy of it,
    ``run_dir/src0``, ``src1``, ..., with one BLAS thread and its bytecode
    compiled once, untimed."""
    envs = {}
    for k, src in enumerate(srcs):
        copy = run_dir / f"src{k}"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(copy))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        # Let the untimed import below write the bytecode that every timed
        # command then reads, as an installed package would have it, into
        # this run's cache rather than next to the probed sources.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(run_dir / "pycache")
        subprocess.run([sys.executable, "-c", "import gkg.cli"], env=env, check=True)
        envs[str(src)] = env
    return envs


def run_command(argv, work: Path, env: dict):
    """(wall seconds, peak RSS in MiB, stdout bytes) of one ``gkg`` command."""
    with open(work / ".stdout", "w+b") as out, open(work / ".stderr", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "gkg.cli", *argv], cwd=work, env=env,
                                 stdout=out, stderr=err)
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()
            raise SystemExit(f"gkg {' '.join(argv)} exited {code}: {message}")
        out.seek(0)
        stdout = out.read()
    return wall, usage.ru_maxrss / 1024.0, stdout  # ru_maxrss is in KiB on Linux


def shuffled_lines(text: str) -> str:
    """The lines of ``text`` in an order drawn with ``SHUFFLE_SEED``."""
    lines = text.splitlines(keepends=True)
    random.Random(SHUFFLE_SEED).shuffle(lines)
    return "".join(lines)


def write_identity_alignment(document: Path, out: Path) -> None:
    """One ``MATCH`` row pairing each continuant (``N <id> C``) of the
    document with itself, in gkg's alignment TSV format."""
    ids = sorted(
        line.split()[1]
        for line in document.read_text(encoding="utf-8").splitlines()
        if line.startswith("N ") and line.split()[2] == "C"
    )
    out.write_text("".join(f"{node_id}\t{node_id}\t1.0000\tMATCH\n" for node_id in ids), encoding="utf-8")


def alignment_rows(path: Path) -> dict:
    counts = {"MATCH": 0, "AMBIG": 0}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            counts[line.rstrip("\n").rsplit("\t", 1)[-1]] += 1
    return {"match_rows": counts["MATCH"], "ambig_rows": counts["AMBIG"], "align_bytes": path.stat().st_size}


def probe(size: int, repeat: int, envs: dict, corpus, run_dir: Path) -> list:
    """One record per checkout in ``envs`` (src path -> environment)."""
    generated = corpus.reconcile(SEED, size)
    revised = corpus.revise(SEED, size)
    times = {src: {name: [] for name, _ in COMMANDS} for src in envs}
    rss = {src: dict.fromkeys(times[src], 0.0) for src in envs}
    records = []
    with tempfile.TemporaryDirectory(prefix=f"size{size}_", dir=run_dir) as tmp:
        works = {}
        for k, src in enumerate(envs):
            work = works[src] = Path(tmp) / str(k)
            work.mkdir()
            for name in ("rules.txt", "a.tsv", "b.tsv"):
                (work / name).write_text(generated.files[name], encoding="utf-8")
            for name in ("rev1.tsv", "rev2.tsv", "rev1_rev2.align"):
                (work / name).write_text(revised.files[name], encoding="utf-8")
            (work / "a_shuffled.tsv").write_text(shuffled_lines(generated.files["a.tsv"]), encoding="utf-8")
        for turn in range(repeat):
            for src in list(envs)[::-1 if turn % 2 else 1]:
                for name, argv in COMMANDS:
                    wall, peak, stdout = run_command(argv, works[src], envs[src])
                    if name == "isocheck_self" and stdout != b"ISOMORPHIC\n":
                        raise SystemExit(f"gkg {' '.join(argv)} printed {stdout!r}")
                    times[src][name].append(wall)
                    rss[src][name] = max(rss[src][name], peak)
                    if name == "canonicalize_a":
                        write_identity_alignment(works[src] / "a.gkg", works[src] / "aa.align")
        for src in envs:
            record = {"subjects_per_side": size, "seed": SEED, "repeat": repeat, "src": src}
            for name in times[src]:
                record[f"{name}_s"] = round(statistics.median(times[src][name]), 3)
                record[f"{name}_rss_mib"] = round(rss[src][name], 1)
            record.update(alignment_rows(works[src] / "ab.align"))
            for name in ("a.gkg", "a_shuffled.gkg", "b.gkg", "a.fr.tsv", "ab.align", "ab.gkg", "aa.gkg", "rev.gkg"):
                digest = hashlib.sha256((works[src] / name).read_bytes()).hexdigest()
                record[f"{name.replace('.', '_')}_sha256"] = digest
            records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[400, 1600, 3200])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"],
                        help="src directory of each checkout to probe")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.sizes) < 1:
        parser.error("--repeat and --sizes must be positive")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scale_probe_", dir=WORK) as tmp:
        run_dir = Path(tmp)
        envs = checkout_envs(args.src, run_dir)
        corpus = load_corpus_module()

        for size in args.sizes:
            for record in probe(size, args.repeat, envs, corpus, run_dir):
                print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
