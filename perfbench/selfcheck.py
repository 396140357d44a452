"""Determinism self-check: two traced runs of one workload must agree on
every exact count.

    python3 perfbench/selfcheck.py --workload random-gnp --seed 1 --seconds 40

Exits 0 when search.nodes, search.enumerated, closed_forms.rows and
failed_ratio are identical between the runs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("search.nodes", "search.enumerated", "closed_forms.rows", "failed_ratio")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, check=True,
                          cwd=HERE.parent)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


def differences(first: dict, second: dict) -> list[str]:
    return [name for name in EXACT if first[name] != second[name]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    args = p.parse_args(argv)
    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    for name in EXACT:
        print(f"{name}: {first[name]} {second[name]}")
    diffs = differences(first, second)
    print("deterministic" if not diffs else f"differs: {', '.join(diffs)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
