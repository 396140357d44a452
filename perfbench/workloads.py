"""The three workloads: their instances, the per-instance pipelines and the
checks every answer must pass.

Every function takes the imported ``bchrom`` package as ``lib``, so that the
set-up time can include a fresh import of it.  Each call into the library
goes through ``tracer.call`` under the name of the public function.
"""

from __future__ import annotations

import functools
import io
import json
import random
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass

from harness import Tracer, at_reference_speed, run_budgeted

# The oracle corpus is the acceptance suite's criterion-3 corpus.
ORACLE_CORPUS_SEED = 20250809

# family-ladder: instances that are always run ...
LADDER_BASE = {
    "path": [*range(2, 13), 16, 20, 24, 28, 32],
    "cycle": [*range(3, 13), 16, 20, 24, 28, 32],
    "complete": list(range(1, 9)),
    "wheel": [*range(3, 11), 15, 20, 25, 30],
    "sunlet": list(range(3, 9)),
    "closed-ladder": list(range(3, 9)),
}
# ... and the large ones, in ascending cost, added while three times their
# reference cost (full_report seconds at the seed commit, Python 3.11.7 on
# 2 vCPUs of an Intel Xeon) fits in 80 % of the run length, so that
# ``measure`` has room to run each of them three times.
LADDER_EXTRA = [
    ("sunlet", 10, 0.22), ("sunlet", 9, 0.25), ("closed-ladder", 9, 0.39),
    ("sunlet", 12, 0.84), ("closed-ladder", 11, 1.04), ("sunlet", 11, 1.62),
    ("closed-ladder", 10, 1.96), ("sunlet", 14, 2.84), ("closed-ladder", 12, 5.1),
    ("sunlet", 16, 9.0),
]

# random-gnp: draws of connected G(n, p), p uniform in [0.2, 0.35], per n,
# each n drawing from its own random.Random(n).
# Only the two ends of n = 16..22 are drawn.  At the seed commit the n = 16
# draws answer in 0.02 to 2 s and the first draw at each of n = 20, 21, 22
# runs past 60 s, so a budget between them splits the corpus the same way on
# every run.  Draws with 17 to 19 vertices take 0.5 to 8 s and would pass or
# overrun any budget a run can afford depending on the machine's load.
GNP_DRAWS = {16: 20, 20: 1, 21: 1, 22: 1}

# oracle-certify: every family instance with at most 12 vertices that the
# acceptance suite's criterion 3 certifies, except complete(9): its naive
# enumeration (9! colourings) is one call of about 10 s, half the workload,
# too long to run the several times that give a steady figure ...
ORACLE_FAMILIES = {
    "path": range(2, 13),
    "cycle": range(3, 13),
    "complete": range(1, 9),
    "wheel": range(3, 12),
    "sunlet": range(3, 7),
    "closed-ladder": range(3, 7),
}
ORACLE_CORPUS_SIZE = 100
# ... and the ranges its criterion 6 runs ``bchrom verify`` over.
VERIFY_RANGES = {
    "path": range(2, 13),
    "cycle": range(3, 12),
    "complete": range(1, 9),
    "wheel": range(4, 11),
    "sunlet": range(3, 9),
    "closed-ladder": range(3, 9),
}


MIN_RUNS = 2
MAX_RUNS = 5
SHORT_S = 0.05


@dataclass
class Instance:
    id: int
    label: str
    kind: str                     # "report", "oracle" or "verify"
    graph: object = None
    family: str | None = None
    n: int | None = None          # family parameter of a "report" instance
    ns: range | None = None       # parameter range of a "verify" instance


@dataclass
class Outcome:
    instance: Instance
    seconds: float                # counted time: the budget for an overrun
    status: str                   # "ok", "overrun", "wrong" or "error"
    detail: str = ""


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def _family_graph(lib, tracer: Tracer, family: str, n: int):
    name = family.replace("-", "_")
    return tracer.call(f"graphs.{name}", getattr(lib.graphs, name), n)


def _add(out: list, tracer: Tracer, kind: str, label: str, make=None, **fields) -> None:
    tracer.instance = len(out)
    graph = make() if make else None
    out.append(Instance(len(out), label, kind, graph, **fields))


def family_ladder(lib, tracer: Tracer, seconds: float) -> list[Instance]:
    params = [(f, n) for f, ns in LADDER_BASE.items() for n in ns]
    allowance = 0.8 * seconds / 3
    for family, n, cost in LADDER_EXTRA:
        allowance -= cost
        if allowance < 0:
            break
        params.append((family, n))
    out: list[Instance] = []
    for family, n in params:
        _add(out, tracer, "report", f"{family}({n})",
             lambda: _family_graph(lib, tracer, family, n), family=family, n=n)
    return out


def random_gnp(lib, tracer: Tracer) -> list[Instance]:
    out: list[Instance] = []
    for n, draws in GNP_DRAWS.items():
        rng = random.Random(n)
        for i in range(draws):
            p = rng.uniform(0.2, 0.35)
            _add(out, tracer, "report", f"gnp(n={n},p={p:.3f},draw={i})",
                 lambda: tracer.call("graphs.random_connected_graph",
                                     lib.graphs.random_connected_graph, n, rng, p))
    return out


def oracle_certify(lib, tracer: Tracer) -> list[Instance]:
    out: list[Instance] = []
    for family, ns in ORACLE_FAMILIES.items():
        for n in ns:
            _add(out, tracer, "oracle", f"{family}({n})",
                 lambda: _family_graph(lib, tracer, family, n))
    rng = random.Random(ORACLE_CORPUS_SEED)
    for i in range(ORACLE_CORPUS_SIZE):
        n = rng.randint(4, 9)
        p = rng.uniform(0.3, 0.7)
        _add(out, tracer, "oracle", f"corpus#{i}(n={n})",
             lambda: tracer.call("graphs.random_connected_graph",
                                 lib.graphs.random_connected_graph, n, rng, p))
    for family, ns in VERIFY_RANGES.items():
        _add(out, tracer, "verify", f"verify {family} {ns.start}..{ns.stop - 1}",
             family=family, ns=ns)
    return out


# ---------------------------------------------------------------------------
# Calls the library makes internally
# ---------------------------------------------------------------------------

def _report(tracer: Tracer, full_report, *args, **kwargs):
    t0 = time.perf_counter()
    report = tracer.call("search.full_report", full_report, *args, **kwargs)
    tracer.count("search.full_report_done_s", time.perf_counter() - t0)
    tracer.count("search.nodes", report.nodes_explored)
    return report


def _counted(tracer: Tracer, colourings):
    for colouring in colourings:
        tracer.count("search.enumerated")
        yield colouring


@contextmanager
def instrumented(lib, tracer: Tracer):
    """Route the library's own calls to sweep and full_report (from the CLI
    and from sweep) through the tracer and, in a traced run, count the
    colourings the naive oracle streams.  Restores the library on exit."""
    cf, search = lib.closed_forms, lib.search
    saved = (cf.sweep, cf.full_report, search.enumerate_b_colourings)
    sweep, full_report, enumerate_ = saved
    cf.sweep = lambda *a, **kw: tracer.call("closed_forms.sweep", sweep, *a, **kw)
    cf.full_report = lambda *a, **kw: _report(tracer, full_report, *a, **kw)
    if tracer.enabled:
        search.enumerate_b_colourings = lambda *a, **kw: _counted(tracer, enumerate_(*a, **kw))
    try:
        yield
    finally:
        cf.sweep, cf.full_report, search.enumerate_b_colourings = saved


# ---------------------------------------------------------------------------
# Pipelines and checks
# ---------------------------------------------------------------------------

def _check_report(lib, tracer: Tracer, g, report, problems: list[str]) -> None:
    for tag, col, st in (("min", report.min_colouring, report.min_stats),
                         ("max", report.max_colouring, report.max_stats)):
        if col.k != report.phi or not tracer.call("stats.is_b_colouring",
                                                  lib.is_b_colouring, g, col):
            problems.append(f"{tag} colouring is not a b-colouring with phi colours")
        if tracer.call("stats.colouring_stats", lib.colouring_stats, g, col) != st:
            problems.append(f"{tag} statistics differ from colouring_stats")
    if report.max_stats.mean != report.phi + 1 - report.min_stats.mean:
        problems.append("max mean != phi + 1 - min mean")
    if not report.chi <= report.phi <= tracer.call("search.m_degree", lib.m_degree, g):
        problems.append("chi <= phi <= m_degree fails")


def _roundtrip(lib, tracer: Tracer, g, colourings, problems: list[str]) -> None:
    for fmt in ("dimacs", "edgelist"):
        text = tracer.call("io.format_graph", lib.format_graph, g, fmt)
        if tracer.call("io.parse_graph", lib.parse_graph, text, fmt) != g:
            problems.append(f"{fmt} round trip changed the graph")
    for col in colourings:
        text = tracer.call("io.format_colouring", lib.format_colouring, col)
        if tracer.call("io.parse_colouring", lib.parse_colouring, text) != col:
            problems.append("colouring round trip changed the colouring")


def solve_report(lib, tracer: Tracer, inst: Instance):
    """full_report, checked; on a family instance also against the
    corrected closed form."""
    problems: list[str] = []
    g = inst.graph
    report = _report(tracer, lib.full_report, g)
    _check_report(lib, tracer, g, report, problems)
    if inst.family is not None:
        mean, variance, _note = tracer.call("closed_forms.corrected_value",
                                            lib.closed_forms.corrected_value,
                                            inst.family, inst.n)
        if (report.min_stats.mean, report.min_stats.variance) != (mean, variance):
            problems.append("min statistics differ from corrected_value")
    _roundtrip(lib, tracer, g, (report.min_colouring, report.max_colouring), problems)
    return report, problems


def solve_oracle(lib, tracer: Tracer, inst: Instance):
    """The pruned search against the naive oracle, which must agree exactly
    (statistics and realizers)."""
    problems: list[str] = []
    g = inst.graph
    report = _report(tracer, lib.full_report, g)
    phi = tracer.call("search.naive_b_chromatic_number", lib.naive_b_chromatic_number, g)
    naive = tracer.call("search.naive_extremal", lib.naive_extremal, g, phi)
    pruned = (report.min_colouring, report.min_stats, report.max_colouring, report.max_stats)
    if report.phi != phi or pruned != tuple(naive):
        problems.append("pruned search differs from the naive oracle")
    _check_report(lib, tracer, g, report, problems)
    _roundtrip(lib, tracer, g, (report.min_colouring, report.max_colouring), problems)
    return report, problems


def solve_verify(lib, tracer: Tracer, inst: Instance):
    """closed_forms.sweep and ``bchrom verify`` over one family's range."""
    problems: list[str] = []
    rows = lib.closed_forms.sweep(inst.family, inst.ns)
    tracer.count("closed_forms.rows", len(rows))
    tracer.count("closed_forms.consistent", sum(row.consistent for row in rows))
    if not all(row.consistent for row in rows):
        problems.append("sweep has inconsistent rows")
    argv = ["verify", "--family", inst.family, "--range", f"{inst.ns.start}..{inst.ns.stop - 1}"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = tracer.call("cli.main", lib.cli.main, argv)
    text = out.getvalue()
    tracer.count("cli.stdout_bytes", len(text.encode()))
    record = json.loads(text)
    if code != 0 or record["status"] != "ok":
        problems.append(f"verify exited {code} with status {record['status']}")
    if [(r["n"], r["errata"]) for r in record["rows"]] != [(r.n, r.errata) for r in rows]:
        problems.append("verify rows differ from sweep")
    return None, problems


def breakdown(lib, tracer: Tracer, inst: Instance, report) -> list[str]:
    """The public calls full_report stands for, each in its own span, so a
    traced run can time chi, phi and each extremal scan apart."""
    g = inst.graph
    chi = tracer.call("search.chromatic_number", lib.chromatic_number, g)
    phi = tracer.call("search.b_chromatic_number", lib.b_chromatic_number, g)
    low = tracer.call("search.min_mean_b_colouring", lib.min_mean_b_colouring, g, phi)
    high = tracer.call("search.max_mean_b_colouring", lib.max_mean_b_colouring, g, phi)
    if report is not None and (chi, phi, low, high) != (
            report.chi, report.phi, (report.min_colouring, report.min_stats),
            (report.max_colouring, report.max_stats)):
        return ["public calls disagree with full_report"]
    return []


SOLVERS = {"report": solve_report, "oracle": solve_oracle, "verify": solve_verify}


def run_pass(lib, tracer: Tracer, instances: list[Instance], budget_s: float,
             deadline: float = float("inf")):
    """Run every instance once, one at a time, each under ``budget_s``.

    A traced run follows each graph instance with its ``breakdown``, under a
    budget of its own, whether or not the solve finished, so that the
    breakdown's overrun shows which call a failed solve was stuck in.
    Returns the outcomes and one record per overrun.  Needs
    ``harness.budget_timer`` active.
    """
    outcomes: list[Outcome] = []
    overruns: list[dict] = []

    def attempt(phase, inst, fn):
        value, elapsed, layer = run_budgeted(tracer, budget_s, fn)
        if layer is not None:
            overruns.append({"instance": inst.id, "label": inst.label, "phase": phase,
                             "layer": layer, "seconds": elapsed})
        return value, elapsed, layer

    for inst in instances:
        if time.perf_counter() > deadline:
            raise RuntimeError(f"run deadline passed before instance {inst.label}")
        tracer.instance = inst.id
        solve = functools.partial(SOLVERS[inst.kind], lib, tracer, inst)
        t0 = time.perf_counter()
        try:
            value, elapsed, layer = attempt("solve", inst, solve)
        except Exception as exc:   # any library error is a failed instance
            outcomes.append(Outcome(inst, time.perf_counter() - t0, "error", repr(exc)))
            continue
        report, problems = value if layer is None else (None, [])
        if tracer.enabled and inst.kind != "verify":
            try:
                extra, _spent, _layer = attempt(
                    "breakdown", inst, lambda: breakdown(lib, tracer, inst, report))
                problems.extend(extra or [])
            except Exception as exc:
                problems.append(f"breakdown raised {exc!r}")
        if layer is not None:
            outcomes.append(Outcome(inst, budget_s, "overrun", layer))
        else:
            outcomes.append(Outcome(inst, elapsed, "wrong" if problems else "ok",
                                    "; ".join(problems)))
    return outcomes, overruns


def measure(lib, tracer: Tracer, instances: list[Instance], budget_s: float,
            seconds: float, rng: random.Random, deadline: float = float("inf")):
    """Run every instance MIN_RUNS times, each round in a fresh order, then
    again while it fits in ``seconds`` or takes under SHORT_S, up to
    MAX_RUNS times.  An answered instance's time is the median of its runs,
    each scaled to the reference speed (``at_reference_speed``).  An
    instance that fails once stays failed, with its failed run's outcome.

    The machine the figures come from switches between two speeds, about
    60 % apart, for seconds to minutes at a time, often for a whole run.
    Scaling each run by a probe taken around it removes most of that.
    """
    end = time.perf_counter() + seconds
    samples: dict[int, list[float]] = {inst.id: [] for inst in instances}
    failed: dict[int, Outcome] = {}
    overruns: list[dict] = []
    order = list(instances)
    for runs in range(MAX_RUNS):
        if runs:
            rng.shuffle(order)
        ran = False
        for inst in order:
            if inst.id in failed:
                continue
            if runs >= MIN_RUNS:
                cost = statistics.median(samples[inst.id])
                if cost > SHORT_S and time.perf_counter() + cost > end:
                    continue
            ((outcome,), more), scaled = at_reference_speed(
                lambda: run_pass(lib, tracer, [inst], budget_s, deadline))
            overruns += more
            ran = True
            if outcome.status == "ok":
                samples[inst.id].append(scaled)
            else:
                failed[inst.id] = outcome
        if not ran:
            break
    return [failed.get(inst.id) or Outcome(inst, statistics.median(samples[inst.id]), "ok")
            for inst in instances], overruns
