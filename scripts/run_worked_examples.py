#!/usr/bin/env python3
"""Reproduce the worked examples end to end and write all artifacts.

Runs the order-6, order-5, order-7 and order-2 groups through analysis,
resolution (or obstruction reporting), verification and graph export.
Outputs land in the directory given by --out (default ./worked_examples).
"""

import argparse
import json
from itertools import permutations
from pathlib import Path

from torcrep.cli import parse_group, write_json
from torcrep.cli import main as torcrep_main
from torcrep.errors import ResolutionNotFound
from torcrep.fans import Fan, fan_to_json, make_cone, make_fan, validate_fan
from torcrep.groups import close_group
from torcrep.lattice import LatticePoint, ScaledLattice
from torcrep.resolve import certify_fan, resolve, search_resolution

CASES = [
    ("z6", "6:(1,2,3)", "g1,g2,g3,g4"),
    ("z6_alt", "6:(1,2,3)", "g4,g3,g1,g2"),
    ("z5", "5:(1,2,2)", "g1,g2"),
    ("z7_hilbert", "7:(1,1,2,3)", None),  # via --search hilbert
]

OBSTRUCTED = ["2:(1,1,1,1)", "7:(1,1,2,3)"]


def run_ok(argv) -> None:
    """Run one torcrep command; stop unless it exits 0 (also under python -O)."""
    code = torcrep_main(argv)
    if code != 0:
        raise SystemExit(f"torcrep {' '.join(argv)} exited {code}")


def nonstar_order6_fan(lattice: ScaledLattice) -> Fan:
    """The hand-entered crepant model of the order-6 singularity ``6:(1,2,3)``.

    This triangulation has the edge g3-g4 instead of e1-g1 and cannot be
    produced by any star-subdivision sequence at the four junior points.
    """
    pts = {
        "e1": LatticePoint((6, 0, 0), 6), "e2": LatticePoint((0, 6, 0), 6),
        "e3": LatticePoint((0, 0, 6), 6), "g1": LatticePoint((1, 2, 3), 6),
        "g2": LatticePoint((2, 4, 0), 6), "g3": LatticePoint((3, 0, 3), 6),
        "g4": LatticePoint((4, 2, 0), 6),
    }
    triangles = [
        ("e3", "g1", "g3"), ("g3", "g1", "g4"), ("e1", "g3", "g4"),
        ("g4", "g1", "g2"), ("g2", "g1", "e2"), ("e2", "g1", "e3"),
    ]
    fan = make_fan(lattice, [make_cone([pts[a] for a in t]) for t in triangles])
    validate_fan(fan)
    return fan


def nonstar_model(outdir: Path) -> None:
    """Certify the non-star model and write its artifacts."""
    z6 = close_group([LatticePoint((1, 2, 3), 6)])
    fan = nonstar_order6_fan(z6.lattice)
    summary = certify_fan(fan)
    if not (summary.smooth and summary.crepant):
        raise SystemExit("the non-star model must be smooth and crepant")
    # not reachable by any star-subdivision order of the four juniors
    for perm in permutations(z6.juniors):
        if fan_to_json(resolve(z6, perm).fan) == fan_to_json(fan):
            raise SystemExit("the non-star model must not be a star sequence")
    path = outdir / "z6_nonstar.json"
    write_json(str(path), fan_to_json(fan))
    print(f"== hand-entered non-star model -> {path}")
    run_ok(["verify", str(path), "6:(1,2,3)",
            "--out", str(outdir / "z6_nonstar_report.json")])
    run_ok(["export-graph", str(path), "6:(1,2,3)",
            "--svg", str(outdir / "z6_nonstar.svg")])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="worked_examples")
    args = parser.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, group, sequence in CASES:
        print(f"== {name}: torcrep analyze {group}")
        torcrep_main(["analyze", group])
        fan_path = outdir / f"{name}.json"
        cmd = ["resolve", group, "--out", str(fan_path)]
        cmd += ["--sequence", sequence] if sequence else ["--search", "hilbert"]
        print(f"== {name}: torcrep {' '.join(cmd[:2])} ...")
        run_ok(cmd)
        run_ok(["verify", str(fan_path), group,
                "--out", str(outdir / f"{name}_report.json")])
        data = json.loads(fan_path.read_text(encoding="utf-8"))
        if data["fan"]["lattice"]["n"] == 3:
            run_ok(["export-graph", str(fan_path), group,
                    "--svg", str(outdir / f"{name}.svg")])

    print("== obstructed groups")
    for group in OBSTRUCTED:
        torcrep_main(["analyze", group])
        try:
            search_resolution(parse_group(group), "juniors")
            raise AssertionError("obstructed group must not resolve crepantly")
        except ResolutionNotFound as exc:
            # a budget stop proves nothing; only an exhausted search is an obstruction
            if not exc.exhausted:
                raise SystemExit(f"{group}: search stopped early: {exc}") from exc
            print(f"   {group}: {exc}")

    nonstar_model(outdir)
    print(f"all artifacts written to {outdir}/")


if __name__ == "__main__":
    main()
