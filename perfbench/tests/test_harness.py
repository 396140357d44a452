"""Tests of the benchmark's own plumbing.

    python3 -m pytest perfbench/tests -q
"""

import random
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bchrom as b  # noqa: E402
import bchrom.cli  # noqa: E402,F401
import run  # noqa: E402
import selfcheck  # noqa: E402
import workloads  # noqa: E402
from harness import Span, Tracer, budget_timer, self_by_layer, self_times, tail, tail_rank  # noqa: E402
from workloads import MAX_RUNS, Instance, instrumented, measure, run_pass, solve_report  # noqa: E402


# --- the percentile rule -----------------------------------------------------

def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(100) == 89
    assert tail_rank(11) == 0
    assert tail_rank(10) is None
    assert tail_rank(0) is None


def test_tail_value_and_level_follow_the_sample_count():
    assert tail(list(range(1, 101))) == (90, 90.0)
    assert tail(list(range(20, 0, -1))) == (10, 50.0)
    value, level = tail([0.5] * 10 + [2.0])
    assert (value, level) == (0.5, pytest.approx(100 / 11))
    assert tail([1.0] * 10) is None


# --- self time -----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("closed_forms.sweep", 1.0, 9.0, 0, 0),
        Span("search.full_report", 2.0, 5.0, 1, 0),
        Span("search.full_report", 5.0, 8.5, 1, 0),
        Span("io.parse_graph", 10.0, 10.25, None, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.5, 3.0, 3.5, 0.25])
    layers = self_by_layer(spans)
    assert layers == pytest.approx({"cli": 2.0, "closed_forms": 1.5, "search": 6.5, "io": 0.25})
    assert sum(layers.values()) == pytest.approx(10.25)


def test_tracer_records_parent_and_instance():
    tracer = Tracer(True)
    tracer.instance = 7
    assert tracer.call("outer", lambda: tracer.call("inner", lambda: 3) + 1) == 4
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.instance == inner.instance == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.stack == []


# --- budgets and overruns --------------------------------------------------------

def _family(label, family, n):
    name = family.replace("-", "_")
    return (label, family, n, getattr(b, name)(n))


def test_forced_overrun_is_counted_and_attributed():
    cases = [_family("path(4)", "path", 4),
             _family("sunlet(13)", "sunlet", 13),                # phi alone takes seconds
             _family("closed-ladder(12)", "closed-ladder", 12)]  # the min scan takes seconds
    instances = [Instance(i, label, "report", g, family, n)
                 for i, (label, family, n, g) in enumerate(cases)]
    tracer = Tracer(True)
    with budget_timer(tracer), instrumented(b, tracer):
        outcomes, overruns = run_pass(b, tracer, instances, budget_s=0.4)

    assert [o.status for o in outcomes] == ["ok", "overrun", "overrun"]
    assert [o.seconds for o in outcomes[1:]] == [0.4, 0.4]
    assert {(o["label"], o["phase"], o["layer"]) for o in overruns} == {
        ("sunlet(13)", "solve", "search.full_report"),
        ("sunlet(13)", "breakdown", "search.b_chromatic_number"),
        ("closed-ladder(12)", "solve", "search.full_report"),
        ("closed-ladder(12)", "breakdown", "search.min_mean_b_colouring"),
    }
    assert tracer.stack == []
    assert all(s.end >= s.start for s in tracer.spans)

    layer = run.per_layer(tracer, outcomes, overruns)
    assert layer["failed_ratio"][0] == pytest.approx(2 / 3)
    assert layer["search.phi_overruns"][0] == 1
    assert layer["search.extremal_overruns"][0] == 1
    assert layer["overruns"][0] == 4
    e2e = run.end_to_end(outcomes, setup_s=0.01)
    assert e2e["answered_ratio"][0] == pytest.approx(1 / 3)
    assert e2e["solve_s"][0] >= 0.8


def test_measure_repeats_answered_instances_only(monkeypatch):
    instances = [Instance(0, "path(4)", "report", b.path(4), "path", 4),
                 Instance(1, "sunlet(13)", "report", b.sunlet(13), "sunlet", 13)]
    tracer = Tracer(False)
    runs = []

    def solve(lib, tr, inst):
        runs.append(inst.id)
        return solve_report(lib, tr, inst)

    monkeypatch.setitem(workloads.SOLVERS, "report", solve)
    with budget_timer(tracer):
        outcomes, overruns = measure(b, tracer, instances, 0.3, seconds=5.0,
                                     rng=random.Random(0))
    assert [o.status for o in outcomes] == ["ok", "overrun"]
    assert runs.count(0) == MAX_RUNS       # repeated while the run length lasts
    assert runs.count(1) == 1                # an overrun is not retried
    assert len(overruns) == 1


def test_wrong_answer_is_a_failure():
    g = b.cycle(5)
    inst = Instance(0, "cycle(5)", "report", g, "cycle", 5)
    report, problems = solve_report(b, Tracer(False), inst)
    assert problems == []

    class Lying:
        """Delegates to bchrom but claims a min mean one too small."""
        def __getattr__(self, name):
            return getattr(b, name)

        @staticmethod
        def full_report(graph):
            r = b.full_report(graph)
            wrong = b.ChromaStats(r.min_stats.mean - Fraction(1), r.min_stats.variance)
            return b.SearchReport(r.chi, r.phi, r.min_colouring, wrong, r.max_colouring,
                                  r.max_stats, r.nodes_explored, r.seconds)

    tracer = Tracer(False)
    with budget_timer(tracer):
        outcomes, _ = run_pass(Lying(), tracer, [inst], budget_s=5.0)
    assert outcomes[0].status == "wrong"
    assert "colouring_stats" in outcomes[0].detail


def test_trivial_graph_warning_is_not_a_failure():
    inst = Instance(0, "complete(1)", "report", b.complete(1), "complete", 1)
    tracer = Tracer(False)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="trivial graph", category=UserWarning)
        with budget_timer(tracer):
            outcomes, _ = run_pass(b, tracer, [inst], budget_s=5.0)
    assert outcomes[0].status == "ok"


# --- determinism and the command line ---------------------------------------------

def test_differences_names_each_exact_count():
    first = {"search.nodes": 5, "search.enumerated": 0, "closed_forms.rows": 3,
             "failed_ratio": 0.0}
    assert selfcheck.differences(first, dict(first)) == []
    assert selfcheck.differences(first, {**first, "search.nodes": 6}) == ["search.nodes"]


def test_two_traced_runs_agree():
    assert selfcheck.main(["--workload", "family-ladder", "--seed", "3",
                           "--seconds", "0"]) == 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "random-gnp",
                           "--seed", "1", "--seconds", "40", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
