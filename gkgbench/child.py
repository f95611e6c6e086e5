"""Run one gkg command in this fresh interpreter and record its timings.

    python3 child.py RESULT_JSON MODE PASS_ID GKG_ARG...

The first thing this interpreter does is ``import gkg.cli``, as the
``gkg`` console script does, so the time from the parent's spawn to the
end of that import is the command's start-up.  MODE ``run`` then calls
``gkg.cli.main(argv)``; MODE ``trace`` calls it with spans around the
public calls it makes (replay.py).  Timestamps are
``time.perf_counter`` readings, which on Linux come from the system-wide
monotonic clock and so compare across processes.

After the command, outside its timed interval, the process times a fixed
piece of pure-Python work that does not touch gkg (``calibrate``).  On a
shared machine the speed of the CPU drifts for seconds at a time; that
time, taken in the same process right after the command, measures the
speed the command ran at.
"""

import time

import gkg.cli

IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def calibrate() -> float:
    """Time of work of the kind gkg's commands do: build 60000 id strings
    and tuples, index them in a dict of lists, dedupe the ids in a set and
    sort them.  Its working set, some ten MB, is of the size of a
    command's, so it slows with the machine as a command does."""
    start = time.perf_counter()
    rows = [(f"ev:Birth#{i * 2654435761 % 2**32:08x}", i, f"v{i}") for i in range(60000)]
    index = {}
    for event, number, value in rows:
        index.setdefault(event[:12], []).append((number, value))
    sorted({row[0] for row in rows})
    return time.perf_counter() - start


def main() -> int:
    result_path, mode, pass_id, *argv = sys.argv[1:]
    record = {"imported": IMPORTED}
    if mode == "trace":
        import replay

        tracer = replay.Tracer(pass_id)
    start = time.perf_counter()
    try:
        if mode == "run":
            code = gkg.cli.main(argv)
        else:
            code = replay.run(argv, tracer)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    end = time.perf_counter()
    record.update(
        start=start,
        end=end,
        code=code,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    record["calibration"] = calibrate()  # after ru_maxrss, which must not count it
    if mode == "trace":
        record.update(spans=tracer.spans, counters=tracer.counters)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
