#!/usr/bin/env python3
"""torcrep benchmark: CLI workloads with checked outputs and timed layers.

    python3 perfbench/run.py --workload crepant3-ladder --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --record-digests

Run it from anywhere inside a source checkout; it uses ``src/`` next to
this directory and needs no install.  Each pass runs in a fresh
single-threaded Python process (``child.py``) that imports ``torcrep.cli``
and calls ``main`` once per generated command line.  Every command's exit
code and output are checked; a command that fails is counted and the pass
goes on.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
set-up time (median of several fresh imports) and, over the passes that
fit in ``--seconds``, the pass time with each command at its median and
the median peak memory.  Times are scaled by ``PROBE_REF_S``.  ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics from the spans recorded by
``tracer.py``.  The last line of stdout is one JSON object; the lines
before it give the environment and the samples behind each median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PASS_DIR = OUT / f"pass-{os.getpid()}"  # artifacts of the current pass
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3  # fresh imports before each pass and after the last
CHILD_TIMEOUT_S = 150
# Reported times are scaled to a CPU that runs child.probe in this time.
# On a shared machine the speed of one vCPU swings by about 40 % for
# seconds to minutes (most likely a neighbour on the sibling hardware
# thread); a probe timed between the commands in the same process tracks
# it.  See README.md for the measurements.
# 4 ms is about the median probe of a 2-core x86 VM under Python 3.11, so
# the scaled times read close to that machine's wall times.
PROBE_REF_S = 0.004


@dataclass
class Command:
    kind: str                       # cli span name: analyze, resolve, verify, export_graph
    argv: list[str]
    key: str                        # what the output depends on, for the digest table
    artifacts: dict[str, Path]      # role -> file the command writes
    check: Callable[[dict[str, bytes]], str | None]


# --------------------------------------------------------------------------
# Workloads: the seed only reorders work, so every seed does the same amount.

# group, order, number of juniors (named g1..gk, juniors first)
CREPANT3 = [
    ("12:(1,2,9)", 12, 7),
    ("24:(1,2,21)", 24, 13),
    ("48:(1,2,45)", 48, 25),
    ("5:(1,4,0);5:(0,1,4)", 25, 18),
    ("7:(1,6,0);7:(0,1,6)", 49, 33),
]
# group, Hilbert-basis size (= rays of the Hilbert-basis resolution)
HILBERT4 = [
    ("9:(1,1,3,4)", 8),
    ("10:(1,2,3,4)", 10),
    ("13:(1,1,4,7)", 9),
    ("11:(1,1,2,7)", 10),
]
BIGORDER = [
    ("15:(1,14,0);15:(0,1,14)", 136),
    ("211:(1,3,7,200)", 51),
    ("12:(1,11,0,0);12:(0,1,11,0);12:(0,0,1,11)", 455),
    ("6:(1,5,0,0,0);6:(0,1,5,0,0);6:(0,0,1,5,0);6:(0,0,0,1,5)", 210),
]


def _json_check(test: Callable[[dict], str | None], role: str):
    return lambda blobs: test(json.loads(blobs[role]))


def _crepant_fan(order: int):
    def test(d):
        if not (d["smooth"] is True and d["crepant"] is True and d["euler"] == order):
            return (f"smooth={d['smooth']} crepant={d['crepant']} euler={d['euler']},"
                    f" want a smooth crepant fan with euler={order}")
    return _json_check(test, "fan")


def _hilbert_fan(size: int):
    def test(d):
        rays = len(d["fan"]["rays"])
        if not (d["smooth"] is True and rays == size):
            return f"smooth={d['smooth']} rays={rays}, want a smooth fan with {size} rays"
    return _json_check(test, "fan")


def _verified(d):
    if not (d["all_verified"] is True and d["coverage"] is True):
        return f"all_verified={d['all_verified']} coverage={d['coverage']}"


def _svg(blobs):
    text = blobs["svg"].decode()
    if not (text.startswith("<?xml") and text.rstrip().endswith("</svg>")):
        return "not an SVG document"


def _hilbert_line(size: int):
    def check(blobs):
        if f"Hilbert basis ({size}):" not in blobs["stdout"].decode():
            return f"no 'Hilbert basis ({size}):' line"
    return check


def crepant3_ladder(rng: random.Random, d: Path) -> list[Command]:
    groups = list(CREPANT3)
    rng.shuffle(groups)
    cmds = []
    for group, order, juniors in groups:
        names = [f"g{i}" for i in range(1, juniors + 1)]
        rng.shuffle(names)
        seq = ",".join(names)
        fan, report, svg = d / f"c{order}.json", d / f"c{order}-report.json", d / f"c{order}.svg"
        key = f"{group} --sequence {seq}"
        cmds += [
            Command("resolve", ["resolve", group, "--sequence", seq, "--out", str(fan)],
                    key, {"fan": fan}, _crepant_fan(order)),
            Command("verify", ["verify", str(fan), group, "--out", str(report)],
                    key, {"report": report}, _json_check(_verified, "report")),
            Command("export_graph", ["export-graph", str(fan), group, "--svg", str(svg)],
                    key, {"svg": svg}, _svg),
        ]
    return cmds


def hilbert4_search(rng: random.Random, d: Path) -> list[Command]:
    groups = list(HILBERT4)
    rng.shuffle(groups)
    cmds = []
    for i, (group, size) in enumerate(groups):
        fan = d / f"h{i}.json"
        cmds.append(Command("resolve", ["resolve", group, "--search", "hilbert", "--out", str(fan)],
                            f"{group} --search hilbert", {"fan": fan}, _hilbert_fan(size)))
    return cmds


def analyze_bigorder(rng: random.Random, d: Path) -> list[Command]:
    groups = list(BIGORDER)
    rng.shuffle(groups)
    return [Command("analyze", ["analyze", group], group, {}, _hilbert_line(size))
            for group, size in groups]


WORKLOADS = {
    "crepant3-ladder": crepant3_ladder,
    "hilbert4-search": hilbert4_search,
    "analyze-bigorder": analyze_bigorder,
}


# --------------------------------------------------------------------------
# Processes and passes


class ChildFailed(Exception):
    pass


def spawn(mode: str, spec: dict | None = None) -> dict:
    """Start ``child.py`` and wait for it; add ``setup_wall_s``, ``setup_s`` and ``wall_s``."""
    # Drop the caller's PYTHON* and TORCREP_* settings (-O, no bytecode cache,
    # search budget, ...), so that every run measures the same program.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TORCREP_"))}
    env["PYTHONPATH"] = str(SRC)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode],
            input=json.dumps(spec) if spec else "", capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process killed after {CHILD_TIMEOUT_S} s") from exc
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {proc.stderr[-3000:]}")
    try:
        res = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{mode} process printed no result: {exc}") from exc
    if Path(res["module"]).resolve().parent != SRC / "torcrep":
        raise ChildFailed(f"imported torcrep from {res['module']}, not from {SRC}")
    res["setup_wall_s"] = res["ready"] - t0
    res["setup_s"] = res["setup_wall_s"] * PROBE_REF_S / res["ready_probe_s"]
    res["wall_s"] = wall
    return res


def check(cmd: Command, rec: dict, digests: dict, recorded: dict | None) -> str | None:
    """Return why the command failed, or None; compare or record artifact digests."""
    if rec["error"]:
        return "exception:\n" + rec["error"]
    if rec["code"] != 0:
        said = (rec["stderr"] or rec["stdout"]).strip().splitlines()
        return f"exit code {rec['code']}: {said[-1] if said else ''}"
    try:
        blobs = {role: path.read_bytes() for role, path in cmd.artifacts.items()}
    except OSError as exc:
        return f"missing artifact: {exc}"
    if not cmd.artifacts:  # analyze writes no file: its stdout is the artifact
        blobs["stdout"] = rec["stdout"].encode()
    try:
        reason = cmd.check(blobs)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"malformed output: {exc!r}"
    if reason:
        return reason
    key = f"{cmd.kind} {cmd.key}"
    for role, blob in blobs.items():
        sha = hashlib.sha256(blob).hexdigest()
        if recorded is not None:
            recorded.setdefault(key, {})[role] = sha
        elif digests.get(key, {}).get(role, sha) != sha:
            return f"{role} digest {sha} differs from the recorded {digests[key][role]}"
    return None


@dataclass
class Pass:
    cmd_s: list[float]              # scaled time of each command, in order
    cmd_wall_s: list[float]         # wall time of each command, in order
    wall_s: float                   # the whole process, start to exit
    peak_rss_mb: float
    attempted: int
    failed: int
    trace: dict | None
    accepted_resolves: int

    @property
    def pass_s(self) -> float:
        return sum(self.cmd_s)


def run_pass(commands: list[Command], mode: str, digests: dict,
             recorded: dict | None = None, spans: dict | None = None) -> Pass:
    spec = {"commands": [{"kind": c.kind, "argv": c.argv} for c in commands]}
    if spans:
        spec.update(spans)
    t0 = time.monotonic()
    try:
        res = spawn(mode, spec)
    except ChildFailed as exc:
        print(f"pass failed, all {len(commands)} commands counted as failed: {exc}",
              file=sys.stderr)
        wall = time.monotonic() - t0
        share = [wall / len(commands)] * len(commands)
        return Pass(share, share, wall, 0.0, len(commands), len(commands), None, 0)
    failed = accepted = 0
    for cmd, rec in zip(commands, res["commands"]):
        reason = check(cmd, rec, digests, recorded)
        if reason:
            failed += 1
            print(f"FAILED {cmd.kind} {cmd.key}: {reason}", file=sys.stderr)
        elif cmd.kind == "resolve":
            accepted += 1
    # One factor for the whole pass: the median of its probes is steadier
    # than the two probes around a single command of several seconds.
    scale = PROBE_REF_S / statistics.median(res["probes_s"])
    cmd_s = [r["s"] * scale for r in res["commands"]]
    return Pass(cmd_s, [r["s"] for r in res["commands"]], res["wall_s"],
                res["peak_rss_kb"] / 1024, len(commands), failed, res.get("trace"), accepted)


# --------------------------------------------------------------------------
# Metrics


def layer_metric(name: str, trace: dict, base: Pass, traced: Pass) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    if name == "trace.overhead_s":
        return traced.pass_s - base.pass_s
    if name == "trace.overhead_frac":
        return (traced.pass_s - base.pass_s) / base.pass_s
    if name == "resolve.accept_ratio":
        attempts = trace["calls"].get("resolve.resolve", 0)
        return traced.accepted_resolves / attempts if attempts else 0.0
    if name.endswith(".self_s"):
        return trace["self_s"][name[:-len(".self_s")]]
    if name.endswith(".calls"):
        return trace["calls"].get(name[:-len(".calls")], 0)
    if name.endswith(".s"):
        return trace["s"].get(name[:-len(".s")], 0.0)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(info: dict, attempted: int, failed: int, values: dict, specs: list) -> None:
    print("# " + json.dumps(info, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"run every workload once under the default seed and "
                             f"write the artifact digests to {DIGESTS.name}")
    args = parser.parse_args()
    if not (SRC / "torcrep" / "cli.py").is_file():
        print(f"error: no torcrep sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.workload and not args.record_digests:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    shutil.rmtree(PASS_DIR, ignore_errors=True)
    PASS_DIR.mkdir(parents=True)
    try:
        return measure(args, bench, digests)
    finally:
        shutil.rmtree(PASS_DIR, ignore_errors=True)


def measure(args, bench: dict, digests: dict) -> int:
    start = time.monotonic()
    try:
        spawn("setup")  # the first import in a fresh checkout byte-compiles src/
    except ChildFailed as exc:
        print(f"error: torcrep does not import: {exc}", file=sys.stderr)
        return 1

    if args.record_digests:
        recorded: dict = {}
        for name, make in WORKLOADS.items():
            p = run_pass(make(random.Random(DEFAULT_SEED), PASS_DIR), "pass", digests, recorded)
            if p.failed:
                print(f"error: {name} failed; digests not written", file=sys.stderr)
                return 1
        DIGESTS.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(recorded)} command digests to {DIGESTS}")
        return 0

    commands = WORKLOADS[args.workload](random.Random(args.seed), PASS_DIR)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
        "load": "one single-threaded Python process per pass; no worker threads or pools",
        "commands_per_pass": len(commands),
    }

    if args.trace:
        base = run_pass(commands, "pass", digests)
        spans_path = OUT / f"spans-{args.workload}.jsonl.gz"
        header = {k: info[k] for k in ("workload", "seed", "python", "git_sha")}
        traced = run_pass(commands, "trace", digests,
                          spans={"spans_path": str(spans_path), "header": header})
        if traced.trace is None:  # the traced process died: no spans to report
            print("error: the traced pass produced no spans", file=sys.stderr)
            return 1
        passes = [base, traced]
        info.update(untraced_pass_s=base.pass_s, traced_pass_s=traced.pass_s,
                    spans_file=str(spans_path.relative_to(ROOT)), spans=traced.trace["spans"])
        values = {m["name"]: layer_metric(m["name"], traced.trace, base, traced)
                  for m in bench["per_layer"]}
        specs = bench["per_layer"]
    else:
        # Set-up samples are spread over the run, so that they see the
        # machine in the same states as the passes do.
        starts, passes = [], []
        while True:
            starts += [spawn("setup") for _ in range(SETUP_SAMPLES)]
            passes.append(run_pass(commands, "pass", digests))
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(p.wall_s for p in passes) > args.seconds:
                break
        starts += [spawn("setup") for _ in range(SETUP_SAMPLES)]
        setups = [r["setup_s"] for r in starts]
        setup_walls = [r["setup_wall_s"] for r in starts]
        attempted = sum(p.attempted for p in passes)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": sum(statistics.median(times) for times in zip(*(p.cmd_s for p in passes))),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "ops_ok_frac": (attempted - sum(p.failed for p in passes)) / attempted,
        }
        info.update(setup_s_samples=setups, setup_wall_s_samples=setup_walls,
                    pass_s_samples=[p.pass_s for p in passes],
                    pass_wall_s_samples=[sum(p.cmd_wall_s) for p in passes],
                    peak_rss_mb_samples=[p.peak_rss_mb for p in passes])
        specs = bench["end_to_end"]

    emit(info, sum(p.attempted for p in passes), sum(p.failed for p in passes), values, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
