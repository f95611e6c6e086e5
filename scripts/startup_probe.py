"""Start-up probe: what a ``gkg`` process pays before its command runs.

    python3 scripts/startup_probe.py [--rounds 15] [--src PATH ...]

For each ``src`` directory (default: this checkout's) the probe spawns
fresh interpreters and times, from just before the spawn to a
``time.perf_counter`` reading taken in the child (which compares across
processes on Linux), four points:

* ``bare``: the interpreter and ``site`` (the child imports nothing);
* ``numpy``: the end of ``import numpy``;
* ``gkg_cached``: the end of ``import gkg.cli`` with gkg's bytecode
  compiled beforehand into a cache kept outside the checkout;
* ``gkg_uncached``: the same import with no bytecode cache, so every
  module of ``src/gkg`` is compiled on each spawn, as happens when
  ``PYTHONDONTWRITEBYTECODE`` is set and no ``__pycache__`` exists.

The two gkg children import numpy and argparse first and also time
``import gkg.cli`` alone, in process, which is far less noisy than a
spawn on a shared machine.  Within each round every (point, checkout)
pair is spawned once, in reverse order every other round, so a
comparison sees one machine speed.  The probe prints one JSON object per
checkout: the median and quartiles of each point over the rounds; the
split of a start-up into interpreter plus site, numpy (spawn medians),
gkg's own import (the in-process time with the cache) and compiling
``src/gkg`` (in-process time without the cache less that with it); the
classes ``dataclasses`` processes during ``import gkg.cli``; and whether
that import loads ``gkg.evaluation``.  It checks no output and gates
nothing; its numbers are recorded by hand next to a change
(``BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GKG = "import argparse, numpy, time; t = time.perf_counter(); import gkg.cli; e = time.perf_counter(); print(e, e - t)"
CHILDREN = {
    "bare": "import time; print(time.perf_counter(), 0)",
    "numpy": "import numpy, time; print(time.perf_counter(), 0)",
    "gkg_cached": GKG,
    "gkg_uncached": GKG,
}
CENSUS = """
import dataclasses, json, sys
processed = []
process = dataclasses._process_class
def counting(cls, *args):
    processed.append(cls.__qualname__)
    return process(cls, *args)
dataclasses._process_class = counting
import gkg.cli
print(json.dumps({"dataclasses": processed, "imports_gkg_evaluation": "gkg.evaluation" in sys.modules}))
"""


def child_env(src: Path, cache: Path, point: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if point == "gkg_cached":
        env["PYTHONPYCACHEPREFIX"] = str(cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(code: str, env: dict) -> tuple:
    """Seconds from just before the spawn to the child's reading, and the
    seconds the child reports for ``import gkg.cli`` alone."""
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    reading, import_s = map(float, out.stdout.split())
    return reading - spawned, import_s


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--src", nargs="+", type=Path, default=[ROOT / "src"])
    args = parser.parse_args()
    sources = [src.resolve() for src in args.src]
    for src in sources:
        if any(src.rglob("__pycache__")):
            parser.error(f"{src} holds a __pycache__; remove it so that gkg_uncached compiles every module")
    with tempfile.TemporaryDirectory() as tmp:
        caches = {src: Path(tmp) / str(n) for n, src in enumerate(sources)}
        for src in sources:  # fill each cache once, untimed
            spawn(CHILDREN["gkg_cached"], child_env(src, caches[src], "gkg_cached"))
        times = {(src, point): [] for src in sources for point in CHILDREN}
        order = [(src, point) for point in CHILDREN for src in sources]
        for round_no in range(args.rounds):
            for src, point in order if round_no % 2 == 0 else reversed(order):
                times[src, point].append(spawn(CHILDREN[point], child_env(src, caches[src], point)))
        for src in sources:
            spawn_s = {point: summary([t for t, _ in times[src, point]]) for point in CHILDREN}
            import_s = {point: summary([i for _, i in times[src, point]]) for point in ("gkg_cached", "gkg_uncached")}
            census = subprocess.run([sys.executable, "-c", CENSUS], env=child_env(src, caches[src], "gkg_cached"),
                                    check=True, capture_output=True, text=True)
            record = {
                "src": str(src),
                "rounds": args.rounds,
                "spawn_to_point_s": spawn_s,
                "import_gkg_cli_in_process_s": import_s,
                "split_s": {
                    "interpreter_and_site": spawn_s["bare"]["median"],
                    "numpy": round(spawn_s["numpy"]["median"] - spawn_s["bare"]["median"], 4),
                    "compiling_src_gkg": round(import_s["gkg_uncached"]["median"] - import_s["gkg_cached"]["median"], 4),
                    "gkg_own_import": import_s["gkg_cached"]["median"],
                },
                **json.loads(census.stdout),
            }
            print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
