"""Benchmark of bchrom: one workload, one process, one instance at a time.

    python3 perfbench/run.py --workload family-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; bchrom is imported from its ``src``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A traced run also
writes its spans and overruns to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from harness import (Tracer, at_reference_speed, budget_timer, self_by_layer, tail,
                     totals_by_name)
from workloads import family_ladder, instrumented, measure, oracle_certify, random_gnp, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5             # at the start of a run, and again at its end
RUN_LIMIT_S = 165.0           # a run gives up (no result) past this
LAYERS = ("graphs", "search", "stats", "closed_forms", "io", "cli")


@dataclass(frozen=True)
class Workload:
    build: object             # (lib, tracer, args) -> list[Instance]
    budget_s: float           # per-instance budget


# Per-instance budgets.  random-gnp's is 2.5 times its slowest answered
# draw at the seed commit and a twelfth of its fastest overrun (see
# workloads.GNP_DRAWS); the other two are never reached.
WORKLOADS = {
    "family-ladder": Workload(lambda lib, tr, a: family_ladder(lib, tr, a.seconds), 30.0),
    "random-gnp": Workload(lambda lib, tr, a: random_gnp(lib, tr), 5.0),
    "oracle-certify": Workload(lambda lib, tr, a: oracle_certify(lib, tr), 60.0),
}


def fresh_import():
    """Import bchrom (and the modules the benchmark drives) from scratch."""
    for name in [m for m in sys.modules if m == "bchrom" or m.startswith("bchrom.")]:
        del sys.modules[name]
    lib = importlib.import_module("bchrom")
    importlib.import_module("bchrom.cli")
    return lib


def set_up(workload: Workload, args, tracer: Tracer, times: list[float]):
    """Import bchrom afresh and generate the workload's graphs SETUP_REPEATS
    times, appending each time, at the reference speed, to ``times``; return
    the last (lib, instances), whose graph generation ``tracer`` records."""
    def build(build_tracer):
        lib = fresh_import()
        return lib, workload.build(lib, build_tracer, args)

    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        (lib, instances), seconds = at_reference_speed(
            lambda: build(tracer if last else Tracer(False)))
        times.append(seconds)
    return lib, instances


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, setup_s: float) -> dict:
    seconds = [o.seconds for o in outcomes]
    metrics = {"setup_s": (setup_s, "s"),
               "solve_s": (sum(seconds), "s"),
               "instance_s_p50": (statistics.median(seconds), "s")}
    tail_stat = tail(seconds)
    if tail_stat is not None:
        metrics["instance_s_tail"] = (tail_stat[0], "s")
    answered = sum(o.status == "ok" for o in outcomes)
    metrics["answered_ratio"] = (answered / len(outcomes), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def per_layer(tracer: Tracer, outcomes, overruns) -> dict:
    spans = tracer.spans
    totals = totals_by_name(spans)
    counts = tracer.counts

    def total(*names):
        return sum(totals.get(name, 0.0) for name in names)

    def prefixed(prefix):
        return sum(v for k, v in totals.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    def overrun_count(*layers):
        return sum(o["layer"] in layers for o in overruns)

    nodes = counts.get("search.nodes", 0)
    enumerated = counts.get("search.enumerated", 0)
    naive_s = total("search.naive_b_chromatic_number", "search.naive_extremal")
    rows = counts.get("closed_forms.rows", 0)
    failed = sum(o.status != "ok" for o in outcomes)
    metrics = {
        "search.chromatic_number_s": (total("search.chromatic_number"), "s"),
        "search.b_chromatic_number_s": (total("search.b_chromatic_number"), "s"),
        "search.min_mean_s": (total("search.min_mean_b_colouring"), "s"),
        "search.max_mean_s": (total("search.max_mean_b_colouring"), "s"),
        "search.full_report_s": (total("search.full_report"), "s"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_s": (ratio(nodes, counts.get("search.full_report_done_s", 0.0)), "1/s"),
        "search.phi_overruns": (overrun_count("search.b_chromatic_number"), "count"),
        "search.extremal_overruns": (overrun_count("search.min_mean_b_colouring",
                                                   "search.max_mean_b_colouring"), "count"),
        "search.naive_s": (naive_s, "s"),
        "search.enumerated": (enumerated, "count"),
        "search.enumerated_per_s": (ratio(enumerated, naive_s), "1/s"),
        "stats.check_s": (prefixed("stats."), "s"),
        "closed_forms.sweep_s": (total("closed_forms.sweep"), "s"),
        "closed_forms.rows": (rows, "count"),
        "closed_forms.consistent_ratio": (ratio(counts.get("closed_forms.consistent", 0), rows),
                                          "ratio"),
        "cli.verify_s": (total("cli.main"), "s"),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0), "bytes"),
        "io.roundtrip_s": (prefixed("io."), "s"),
        "graphs.generate_s": (prefixed("graphs."), "s"),
        "failed_ratio": (failed / len(outcomes), "ratio"),
        "overruns": (len(overruns), "count"),
        "trace.overhead_s": (total("search.full_report")
                             - tracer.inner.get("search.full_report", 0.0), "s"),
    }
    own = self_by_layer(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    return metrics


def write_trace(args, tracer: Tracer, outcomes, overruns) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload, "seed": args.seed,
        "spans": [[s.name, s.start, s.end, s.parent, s.instance] for s in tracer.spans],
        "instances": [{"id": o.instance.id, "label": o.instance.label, "status": o.status,
                       "seconds": o.seconds, "detail": o.detail} for o in outcomes],
        "overruns": overruns,
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of bchrom (see perfbench/README.md)")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True, help="sets the order of the instances")
    p.add_argument("--seconds", type=float, required=True,
                   help="run length: repeats fill it, and it sizes the family ladder")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "bchrom" / "__init__.py").is_file():
        print(f"error: no bchrom sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message="trivial graph", category=UserWarning)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = Tracer(traced)
    setup_times: list[float] = []
    lib, instances = set_up(workload, args, tracer, setup_times)
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        print(f"error: bchrom imported from {lib.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    rng.shuffle(instances)
    budget_s = workload.budget_s
    deadline = started + RUN_LIMIT_S
    with budget_timer(tracer), instrumented(lib, tracer):
        try:
            if traced:
                outcomes, overruns = run_pass(lib, tracer, instances, budget_s, deadline)
            else:
                outcomes, overruns = measure(lib, tracer, instances, budget_s, args.seconds,
                                             rng, deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # Set up again after measuring, so that setup_s samples both ends of the run.
    set_up(workload, args, Tracer(False), setup_times)

    failed = [o for o in outcomes if o.status != "ok"]
    wrong = [o for o in outcomes if o.status in ("wrong", "error")]
    print(f"# workload {args.workload}, seed {args.seed}, {len(outcomes)} instances, "
          f"budget {budget_s} s each; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    for o in wrong:
        print(f"# {o.status}: {o.instance.label}: {o.detail}")
    for rec in overruns:
        print(f"# overrun in {rec['phase']}: {rec['label']} in {rec['layer']} "
              f"after {rec['seconds']:.3f} s")
    if traced:
        metrics = per_layer(tracer, outcomes, overruns)
        print(f"# spans written to {write_trace(args, tracer, outcomes, overruns)}")
    else:
        metrics = end_to_end(outcomes, statistics.median(setup_times))
        tail_stat = tail([o.seconds for o in outcomes])
        if tail_stat is not None:
            print(f"# instance_s_tail is p{tail_stat[1]:.1f} of {len(outcomes)} instances")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
