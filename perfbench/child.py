"""One benchmark process: import torcrep, then run one pass of CLI commands.

    python3 perfbench/child.py setup          # import only, report when ready
    python3 perfbench/child.py pass  < spec   # run the commands untraced
    python3 perfbench/child.py trace < spec   # run them with spans recorded

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``.  The spec is JSON on stdin: ``{"commands": [{"kind", "argv"}],
"spans_path", "header"}``.  The result is one JSON object on stdout; the
commands' own output is captured, never printed.  The process runs one
thread and starts no other process.

Before the first command, after each command and after the import, the
process times ``probe``, a fixed pure-Python loop, so that ``run.py`` can
scale each time by how fast this CPU was running at that moment.
"""

import sys
import time

import torcrep.cli

# setup_s ends here; CLOCK_MONOTONIC is system-wide, so the parent can
# subtract the time at which it started this process.
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402


def probe() -> float:
    """Median of five timings of a fixed loop of dict stores (a few ms each).

    It runs none of torcrep's code, so no change to torcrep moves it, and
    its dict stays small, so it does not move the peak memory either.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d = {}
        for i in range(30000):
            d[i * 7919 % 1009] = i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_command(kind: str, argv: list, tracer) -> dict:
    """Run one command through ``torcrep.cli.main``; an exception is a result too."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    span = tracer.open(f"cli.{kind}") if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = torcrep.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return {"code": code, "s": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def main() -> None:
    mode = sys.argv[1]
    result = {"ready": READY, "ready_probe_s": probe(), "module": torcrep.__file__}
    if mode != "setup":
        spec = json.load(sys.stdin)
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        result["commands"], result["probes_s"] = [], [probe()]
        for c in spec["commands"]:
            result["commands"].append(run_command(c["kind"], c["argv"], tracer))
            result["probes_s"].append(probe())
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            result["trace"] = tracer.summary()
            tracer.write(spec["spans_path"], spec["header"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
