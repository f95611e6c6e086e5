"""Shape probe: ``gkg align`` on inputs typed by many classes.

    python3 scripts/shape_probe.py [--shapes chain_1000 ...] [--repeat 1] [--src PATH ...]

Writes each shape as one ``.gkg`` document of fixed size and runs
``gkg align X X``, the document with itself, on it:

- ``chain_1000``: a type chain 1,000 deep (``ex:t0`` under the root,
  each ``ex:t<i>`` under ``ex:t<i-1>``), one continuant per level;
- ``siblings_500x8``, ``siblings_1000x2``, ``siblings_4000x2``: that
  many direct subtypes of the root, each with that many continuants;
- ``same_name_1000x2``: 1,000 sibling types whose two continuants carry
  the same two names in every type, so a pair across types differs in
  its type slot alone.

Each continuant has one English label; outside ``same_name`` every name
is its own (``person 17``).  Types have none.  Each command runs in a
fresh interpreter with one BLAS thread.  For each shape and checkout the
probe prints one JSON object: the wall time (interpreter start included)
and peak RSS of ``gkg align``, read from the child's own rusage, the
``MATCH`` and ``AMBIG`` rows, and the SHA-256 of the alignment TSV, so
equal digests across checkouts show byte-identical output.  With
``--repeat N`` each shape runs N times and the median time and largest
RSS are kept.  ``--src`` names the ``src`` directory of each checkout
(default: this one's); each is copied and run as ``scale_probe.py``
does, one after another within a repeat, in reverse order every other
repeat.  Everything lives in one temporary directory under
``.bench_work/``.

This is a probe, not a benchmark: it checks no output and gates nothing.
Its numbers are recorded by hand next to a change (``BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # import the sibling script without a cache next to it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from scale_probe import ROOT, WORK, alignment_rows, checkout_envs, run_command  # noqa: E402


def chain(depth: int) -> str:
    lines = ["T core:Entity -"]
    for level in range(depth):
        parent = f"ex:t{level - 1}" if level else "core:Entity"
        lines += [f"T ex:t{level} {parent}", f"N ex:c{level} C ex:t{level}", f"L ex:c{level} en person {level}"]
    return "\n".join(lines) + "\n"


def siblings(types: int, per_type: int, same_names: bool = False) -> str:
    lines = ["T core:Entity -"]
    for kind in range(types):
        lines.append(f"T ex:t{kind} core:Entity")
        for k in range(per_type):
            n = kind * per_type + k
            lines += [f"N ex:c{n} C ex:t{kind}", f"L ex:c{n} en person {k if same_names else n}"]
    return "\n".join(lines) + "\n"


SHAPES = {
    "chain_1000": lambda: chain(1000),
    "siblings_500x8": lambda: siblings(500, 8),
    "siblings_1000x2": lambda: siblings(1000, 2),
    "siblings_4000x2": lambda: siblings(4000, 2),
    "same_name_1000x2": lambda: siblings(1000, 2, same_names=True),
}


def probe(shape: str, repeat: int, envs: dict, run_dir: Path) -> list:
    """One record per checkout in ``envs`` (src path -> environment)."""
    work = run_dir / shape
    work.mkdir()
    (work / "x.gkg").write_text(SHAPES[shape](), encoding="utf-8")
    outputs = {src: f"x{k}.align" for k, src in enumerate(envs)}
    times = {src: [] for src in envs}
    rss = dict.fromkeys(envs, 0.0)
    for turn in range(repeat):
        for src in list(envs)[::-1 if turn % 2 else 1]:
            wall, peak, _ = run_command(("align", "x.gkg", "x.gkg", "-o", outputs[src]), work, envs[src])
            times[src].append(wall)
            rss[src] = max(rss[src], peak)
    return [
        {"shape": shape, "repeat": repeat, "src": src, "align_s": round(statistics.median(times[src]), 3),
         "align_rss_mib": round(rss[src], 1), **alignment_rows(work / outputs[src]),
         "align_sha256": hashlib.sha256((work / outputs[src]).read_bytes()).hexdigest()}
        for src in envs
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=sorted(SHAPES), default=list(SHAPES))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"],
                        help="src directory of each checkout to probe")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be positive")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="shape_probe_", dir=WORK) as tmp:
        run_dir = Path(tmp)
        envs = checkout_envs(args.src, run_dir)
        for shape in args.shapes:
            for record in probe(shape, args.repeat, envs, run_dir):
                print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
