"""Exact chromatic / b-chromatic search and extremal colouring statistics:
the pruned route (`chromatic_number`, `b_chromatic_number`,
`min_mean_b_colouring`, `max_mean_b_colouring`, `full_report`), which the
tests certify against the naive oracle in `oracle.py`.

chi, phi, the candidate scan (`_extremal_witnesses`) and realize
(`_realize`) all run one b-colouring search, `kernel._b_search`, in degree
order; its docstring gives the search state, the head a caller may fix and
the cuts.  chi is the least k with a b-colouring, because a proper
colouring with chi colours is always a b-colouring (Irving & Manlove 1999).

All statistics are exact rationals.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .graphs import Graph, _check_caps, m_degree
from .kernel import _b_search, _build, _Prepared, _settled
# perfbench/workloads.py's instrumented() reads this name on every run, and
# patches it when the run is traced
from .oracle import enumerate_b_colourings  # noqa: F401
from .stats import (ChromaStats, Colouring, NoBColouringError, _check_k, _moments,
                    stats_from_strengths)

DEFAULT_SEARCH_CAP = 32


class DisconnectedGraphError(ValueError):
    """Statistic requested on a disconnected graph without the override."""


@dataclass(frozen=True)
class SearchReport:
    """Full exact summary of one graph: chi, phi and extremal statistics."""

    chi: int
    phi: int
    min_colouring: Colouring
    min_stats: ChromaStats
    max_colouring: Colouring
    max_stats: ChromaStats
    nodes_explored: int
    seconds: float


def _prepare(g: Graph, max_n: int | None, allow_disconnected: bool) -> _Prepared:
    """Gate on the search cap and connectivity, then prepare g for the
    kernel."""
    _check_caps(g.n, max_n, DEFAULT_SEARCH_CAP)
    if not allow_disconnected and not g.connected:
        raise DisconnectedGraphError(
            "graph is disconnected; pass allow_disconnected=True to override")
    return _build(g)


def _first_k(p: _Prepared, ks: range) -> int:
    """The first k in ks with a b-colouring of exactly k colours, each k
    settled by one free search in degree order."""
    for k in ks:
        if _b_search(p, k, None) is not None:
            return k
    raise AssertionError("unreachable: every graph has a b-colouring with chi colours")


def _chi(p: _Prepared) -> int:
    """Chromatic number: the least k with a b-colouring."""
    return _first_k(p, range(1, len(p.adj) + 1))


def _phi(g: Graph, p: _Prepared) -> int:
    """b-chromatic number: k from m_degree(g) downward."""
    return _first_k(p, range(m_degree(g), 0, -1))


def _independence_number(adj: list[int]) -> int:
    """Exact independence number by branching on the leftmost remaining
    vertex v: take it, then leave it out.  When v has at most one remaining
    neighbour, some maximum independent set holds v (v can replace that
    neighbour in it), so v is taken without branching."""
    best = 0

    def rec(candidates: int, count: int) -> None:
        nonlocal best
        while count + candidates.bit_count() > best:
            if not candidates:
                best = count
                return
            b = candidates & -candidates
            candidates ^= b
            nbrs = candidates & adj[b.bit_length() - 1]
            if nbrs & (nbrs - 1):  # two or more: take v here, leave it out below
                rec(candidates & ~nbrs, count + 1)
            else:
                candidates &= ~nbrs
                count += 1

    rec((1 << len(adj)) - 1, 0)
    return best


def _partitions_desc(total: int, parts: int, largest: int) -> list[tuple[int, ...]]:
    """All non-increasing tuples of `parts` positive integers summing to
    total, none above largest.  The prefixes wait on an explicit stack, so
    a thousand parts do not meet Python's recursion limit."""
    out: list[tuple[int, ...]] = []
    stack = [((), total, largest)]
    while stack:
        prefix, remaining, cap = stack.pop()
        slots = parts - len(prefix)
        if slots == 1:
            if 1 <= remaining <= cap:
                out.append(prefix + (remaining,))
            continue
        for first in range(1, min(cap, remaining - (slots - 1)) + 1):
            stack.append((prefix + (first,), remaining - first, first))
    return out


def _extremal_witnesses(p: _Prepared, k: int) -> tuple[tuple[Colouring, int], ...]:
    """((min_witness, settled), (max_witness, settled)): b-colourings with
    exactly k colours whose class sizes by label are those of the minimum-
    and the maximum-mean b-colourings, each with the vertex below which
    `_realize` need not search it.

    Candidate size vectors, with descending labels, are ranked by their
    integer moments (`stats._moments`), then by the vector itself: all
    candidates sum to n, so the moments order and group them exactly as
    (mean, variance) do, without a Fraction per candidate.  Each vector in
    the first group of equal moments is tested with the capped search,
    which keeps the colouring of each hit.  A size multiset maximises the
    mean (ascending labels) exactly when it minimises it (descending
    labels): reversing labels maps one optimum onto the other.  So one pass
    serves both ends, which differ only in the strength-vector tie-break
    among the hits: the min end's witness is the first hit, as the group is
    sorted by sizes, and the max end's is the hit of least reversed sizes,
    with its labels reversed.  The min witness is a first solution of
    `_b_search`, so it comes with `kernel._settled(p, -1)`; reversed labels
    settle nothing, so the max witness comes with 0.
    """
    _check_k(k)
    candidates = _partitions_desc(len(p.adj), k, _independence_number(p.adj))
    for _, group in groupby(sorted((_moments(t), t) for t in candidates), key=itemgetter(0)):
        hits = []
        for _, theta in group:
            assignment = _b_search(p, k, theta)
            if assignment is not None:
                hits.append((theta, assignment))
        if hits:
            high = min(hits, key=lambda hit: hit[0][::-1])[1]
            return ((Colouring(k, hits[0][1]), _settled(p, -1)),
                    (Colouring(k, high).reversed_labels(), 0))
    raise NoBColouringError(f"no b-colouring of this graph uses exactly {k} colours")


def _realize(p: _Prepared, witness: Colouring, settled: int) -> tuple[Colouring, ChromaStats]:
    """(colouring, stats): the lexicographically smallest b-colouring with
    the class sizes of witness, itself a b-colouring whose vertices below
    settled already hold their least colours given those before them.

    Prefix fixing, vertex by vertex: the capped search with the witness's
    colours up to v as head (`_b_search` says what a head fixes) gives v the
    smallest colour below the witness's that any completion allows, and
    its completion becomes the witness, with the vertices below
    `kernel._settled(p, v)` settled.  If it finds none, v keeps the
    witness's colour, which the witness itself completes.  A vertex of
    colour 1, or below settled, needs no search.
    """
    k, caps, colours = witness.k, witness.strengths(), witness.colours
    for v in range(len(p.adj)):
        if v >= settled and colours[v] > 1:
            found = _b_search(p, k, caps, colours[:v + 1])
            if found is not None:
                colours = found
                settled = _settled(p, v)
    return Colouring(k, colours), stats_from_strengths(caps)


def chromatic_number(g: Graph, max_n: int | None = None,
                     allow_disconnected: bool = False) -> int:
    """Exact chromatic number: the least k admitting a b-colouring."""
    return _chi(_prepare(g, max_n, allow_disconnected))


def b_chromatic_number(g: Graph, max_n: int | None = None,
                       allow_disconnected: bool = False) -> int:
    """Exact b-chromatic number, testing k from m_degree(g) downward."""
    return _phi(g, _prepare(g, max_n, allow_disconnected))


def min_mean_b_colouring(g: Graph, k: int, max_n: int | None = None,
                         allow_disconnected: bool = False) -> tuple[Colouring, ChromaStats]:
    """Mean-minimising b-colouring with exactly k colours (labels significant).

    Ties are broken by minimum variance, then lexicographically smallest
    strength vector, then lexicographically smallest assignment.
    """
    p = _prepare(g, max_n, allow_disconnected)
    return _realize(p, *_extremal_witnesses(p, k)[0])


def max_mean_b_colouring(g: Graph, k: int, max_n: int | None = None,
                         allow_disconnected: bool = False) -> tuple[Colouring, ChromaStats]:
    """Mean-maximising mirror of min_mean_b_colouring (same tie-break order)."""
    p = _prepare(g, max_n, allow_disconnected)
    return _realize(p, *_extremal_witnesses(p, k)[1])


def full_report(g: Graph, max_n: int | None = None,
                allow_disconnected: bool = False) -> SearchReport:
    """chi, phi and the extremal b-colouring statistics at k = phi."""
    p = _prepare(g, max_n, allow_disconnected)
    if g.n == 1:
        warnings.warn("trivial graph: statistics are degenerate", stacklevel=2)
    t0 = time.perf_counter()
    chi = _chi(p)
    phi = _phi(g, p)
    low, high = _extremal_witnesses(p, phi)
    min_col, min_stats = _realize(p, *low)
    max_col, max_stats = _realize(p, *high)
    return SearchReport(chi=chi, phi=phi,
                        min_colouring=min_col, min_stats=min_stats,
                        max_colouring=max_col, max_stats=max_stats,
                        nodes_explored=p.nodes, seconds=time.perf_counter() - t0)
