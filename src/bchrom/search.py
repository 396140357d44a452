"""Exact chromatic / b-chromatic search and extremal colouring statistics.

Two independent routes are provided:

* the pruned search (`chromatic_number`, `b_chromatic_number`,
  `min_mean_b_colouring`, `max_mean_b_colouring`, `full_report`), which
  scans candidate class-size vectors in increasing-mean order and settles
  each one with a capped backtracking feasibility search.  chi, phi, the
  scan and the realize step all run that one b-colouring search: chi is
  the least k with a b-colouring, because a proper colouring with chi
  colours is always a b-colouring (Irving & Manlove 1999);

* the naive oracle (`enumerate_b_colourings`, `naive_b_chromatic_number`,
  `naive_extremal`), which walks every labelled colouring in lexicographic
  order with no optimisation-aware pruning, and is used by the test suite
  to certify the pruned route.

All statistics are exact rationals.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .graphs import Graph
from .stats import ChromaStats, Colouring, stats_from_strengths

DEFAULT_SEARCH_CAP = 32
DEFAULT_ORACLE_CAP = 12


class SearchCapError(RuntimeError):
    """Instance exceeds the configured vertex cap."""


class NoBColouringError(ValueError):
    """The graph admits no b-colouring with the requested colour count."""


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


def _adj0(g: Graph) -> list[list[int]]:
    """0-based sorted adjacency lists."""
    return [sorted(w - 1 for w in g.adjacency[v]) for v in g.vertices()]


def _check_caps(g: Graph, max_n: int | None, default: int) -> None:
    cap = default if max_n is None else max_n
    if g.n > cap:
        raise SearchCapError(f"graph has {g.n} vertices, cap is {cap}")


def _prepare(g: Graph, max_n: int | None,
             allow_disconnected: bool) -> tuple[list[list[int]], list[int]]:
    """Gate on the search cap and connectivity, then give the 0-based
    adjacency and the degree-descending vertex order the search runs on."""
    _check_caps(g, max_n, DEFAULT_SEARCH_CAP)
    if not allow_disconnected and not g.connected:
        raise DisconnectedGraphError(
            "graph is disconnected; pass allow_disconnected=True to override")
    adj = _adj0(g)
    return adj, _degree_desc_order(adj)


def m_degree(g: Graph) -> int:
    """Largest m such that at least m vertices have degree >= m - 1.

    Upper bound on the b-chromatic number: a b-colouring with k colours
    needs k distinct b-vertices, each of degree at least k - 1.
    """
    degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
    m = 0
    for i, d in enumerate(degrees, start=1):
        if d >= i - 1:
            m = i
    return m


# ---------------------------------------------------------------------------
# Pruned backtracking search
# ---------------------------------------------------------------------------

def _degree_desc_order(adj: list[list[int]]) -> list[int]:
    return sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))


def _first_k(adj: list[list[int]], order: list[int], ks: range) -> tuple[int, int]:
    """(first k in ks with a b-colouring of exactly k colours, nodes)."""
    nodes = 0
    for k in ks:
        assignment, explored = _b_search(adj, k, None, order)
        nodes += explored
        if assignment is not None:
            return k, nodes
    raise AssertionError("unreachable: every graph has a b-colouring with chi colours")


def _chi(adj: list[list[int]], order: list[int]) -> tuple[int, int]:
    """(chromatic number, nodes): the least k with a b-colouring."""
    return _first_k(adj, order, range(1, len(adj) + 1))


def _phi(adj: list[list[int]], order: list[int]) -> tuple[int, int]:
    """(b-chromatic number, nodes): k from max_degree + 1 downward."""
    top = max((len(a) for a in adj), default=0) + 1
    return _first_k(adj, order, range(min(top, len(adj)), 0, -1))


def _b_search(adj: list[list[int]], k: int, caps: tuple[int, ...] | None,
              order: list[int]) -> tuple[list[int] | None, int]:
    """First b-colouring with exactly k colours found by depth-first search.

    caps fixes each colour class size exactly (caps[i] is the size of class
    i+1, and sum(caps) must equal n); None leaves sizes free.  caps must be
    monotone (non-increasing or non-decreasing), so that labels with equal
    caps are adjacent.  Colours are tried in ascending label order, and
    labels with equal caps may only open in label order, so with the
    identity vertex order the first solution is the lexicographically
    smallest assignment in its symmetry class.

    Branches are cut when some colour class can no longer contain a
    b-vertex, when an uncoloured vertex has no usable colour left, or (in
    capped mode) when a class can no longer be filled to its cap.  All cuts
    are optimistic about uncoloured vertices, so a refutation is exact.
    Each bit an assignment sets in nbr_mask is cleared by its own undo.
    """
    n = len(adj)
    full = (1 << k) - 1
    caps_list = [n] * (k + 1) if caps is None else [0] + list(caps)

    eligible = [len(adj[v]) >= k - 1 for v in range(n)]
    if sum(eligible) < k:
        return None, 0

    col = [0] * n
    size = [0] * (k + 1)
    nbr_mask = [0] * n          # colours present among assigned neighbours
    avail = [0] * n             # usable colours of each uncoloured vertex
    members: list[list[int]] = [[] for _ in range(k + 1)]
    full_mask = 0               # classes at their cap
    nodes = 0

    def feasible(unassigned: list[int]) -> bool:
        for v in unassigned:
            m = full & ~nbr_mask[v] & ~full_mask
            if m == 0:
                return False
            avail[v] = m
        if caps is not None:
            fill = [0] * (k + 1)
            for v in unassigned:
                mm = avail[v]
                while mm:
                    b = mm & -mm
                    fill[b.bit_length()] += 1
                    mm ^= b
            for c in range(1, k + 1):
                if size[c] + fill[c] < caps_list[c]:
                    return False
        for c in range(1, k + 1):
            cbit = 1 << (c - 1)
            need = full & ~cbit
            # a b-vertex of class c: a member, or an uncoloured vertex that
            # may still join c, whose neighbours may still show every colour
            for v in chain(members[c], unassigned if size[c] < caps_list[c] else ()):
                if not eligible[v] or not (col[v] or avail[v] & cbit):
                    continue
                cover = nbr_mask[v]
                if cover & need != need:
                    for u in adj[v]:
                        if col[u] == 0:
                            cover |= avail[u]
                            if cover & need == need:
                                break
                if cover & need == need:
                    break
            else:
                return False
        return True

    def rec(idx: int) -> bool:
        nonlocal nodes, full_mask
        if idx == n:
            return True
        v = order[idx]
        for c in range(1, k + 1):
            cbit = 1 << (c - 1)
            if nbr_mask[v] & cbit or full_mask & cbit:
                continue
            if c > 1 and caps_list[c - 1] == caps_list[c] and size[c - 1] == 0:
                continue
            col[v] = c
            size[c] += 1
            members[c].append(v)
            saved_full = full_mask
            if size[c] == caps_list[c]:
                full_mask |= cbit
            newly = [u for u in adj[v] if not nbr_mask[u] & cbit]
            for u in newly:
                nbr_mask[u] |= cbit
            nodes += 1
            if feasible(order[idx + 1:]) and rec(idx + 1):
                return True
            for u in newly:
                nbr_mask[u] &= ~cbit
            full_mask = saved_full
            members[c].pop()
            size[c] -= 1
            col[v] = 0
        return False

    return (col if rec(0) else None), nodes


def _independence_number(adj: list[list[int]]) -> int:
    """Exact independence number by branching on leftmost remaining vertex."""
    n = len(adj)
    masks = [0] * n
    for v in range(n):
        for u in adj[v]:
            masks[v] |= 1 << u
    best = 0

    def rec(candidates: int, count: int) -> None:
        nonlocal best
        if count + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, count)
            return
        b = candidates & -candidates
        v = b.bit_length() - 1
        rec(candidates & ~b & ~masks[v], count + 1)
        rec(candidates & ~b, count)

    rec((1 << n) - 1, 0)
    return best


def _partitions_desc(total: int, parts: int, largest: int) -> list[tuple[int, ...]]:
    """All non-increasing tuples of `parts` positive integers summing to
    total, none above largest."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, slots: int, cap: int, prefix: tuple[int, ...]) -> None:
        if slots == 1:
            if 1 <= remaining <= cap:
                out.append(prefix + (remaining,))
            return
        upper = min(cap, remaining - (slots - 1))
        for first in range(upper, 0, -1):
            rec(remaining - first, slots - 1, first, prefix + (first,))

    rec(total, parts, largest, ())
    return out


def _moment_keys(theta: tuple[int, ...]) -> tuple[int, int]:
    """(sum i*theta_i, n * sum i^2*theta_i - (sum i*theta_i)^2): integer
    surrogates that order candidate vectors by mean, then variance."""
    n = sum(theta)
    m1 = sum(i * t for i, t in enumerate(theta, start=1))
    m2 = sum(i * i * t for i, t in enumerate(theta, start=1))
    return m1, n * m2 - m1 * m1


class _Extremal:
    """Shared scan for the minimum- and maximum-mean b-colourings at fixed k."""

    def __init__(self, k: int, adj: list[list[int]], order: list[int]):
        if k < 1:
            raise ValueError("colour count must be >= 1")
        self.k = k
        self.adj = adj
        self.order = order
        self.nodes = 0
        self._achievable: dict[tuple[int, ...], bool] = {}
        self.candidates = _partitions_desc(len(adj), k, _independence_number(adj))

    def achievable(self, theta: tuple[int, ...]) -> bool:
        hit = self._achievable.get(theta)
        if hit is None:
            assignment, nodes = _b_search(self.adj, self.k, theta, self.order)
            self.nodes += nodes
            hit = assignment is not None
            self._achievable[theta] = hit
        return hit

    def _scan(self, orient) -> tuple[Colouring, ChromaStats]:
        """Realize the first achievable candidate theta in (mean, variance,
        orient(theta)) order, with class sizes orient(theta) by label.

        A size multiset maximises the mean (ascending labels) exactly when
        it minimises it (descending labels): reversing labels maps one
        optimum onto the other.  So the two scans differ only in orient,
        which sets the strength-vector tie-break and the realized sizes.
        """
        ranked = sorted(self.candidates, key=lambda t: (*_moment_keys(t), orient(t)))
        for theta in ranked:
            if self.achievable(theta):
                caps = orient(theta)
                assignment, nodes = _b_search(self.adj, self.k, caps,
                                              list(range(len(self.adj))))
                self.nodes += nodes
                assert assignment is not None, "achievable size vector must realize"
                return Colouring(self.k, tuple(assignment)), stats_from_strengths(caps)
        raise NoBColouringError(
            f"no b-colouring of this graph uses exactly {self.k} colours")

    def minimum(self) -> tuple[Colouring, ChromaStats]:
        return self._scan(lambda t: t)

    def maximum(self) -> tuple[Colouring, ChromaStats]:
        return self._scan(lambda t: t[::-1])


def chromatic_number(g: Graph, max_n: int | None = None,
                     allow_disconnected: bool = False) -> int:
    """Exact chromatic number: the least k admitting a b-colouring."""
    return _chi(*_prepare(g, max_n, allow_disconnected))[0]


def b_chromatic_number(g: Graph, max_n: int | None = None,
                       allow_disconnected: bool = False) -> int:
    """Exact b-chromatic number, testing k from max_degree + 1 downward."""
    return _phi(*_prepare(g, max_n, allow_disconnected))[0]


def min_mean_b_colouring(g: Graph, k: int, max_n: int | None = None,
                         allow_disconnected: bool = False) -> tuple[Colouring, ChromaStats]:
    """Mean-minimising b-colouring with exactly k colours (labels significant).

    Ties are broken by minimum variance, then lexicographically smallest
    strength vector, then lexicographically smallest assignment.
    """
    return _Extremal(k, *_prepare(g, max_n, allow_disconnected)).minimum()


def max_mean_b_colouring(g: Graph, k: int, max_n: int | None = None,
                         allow_disconnected: bool = False) -> tuple[Colouring, ChromaStats]:
    """Mean-maximising mirror of min_mean_b_colouring (same tie-break order)."""
    return _Extremal(k, *_prepare(g, max_n, allow_disconnected)).maximum()


def full_report(g: Graph, max_n: int | None = None,
                allow_disconnected: bool = False) -> SearchReport:
    """chi, phi and the extremal b-colouring statistics at k = phi."""
    adj, order = _prepare(g, max_n, allow_disconnected)
    if g.n == 1:
        warnings.warn("trivial graph: statistics are degenerate", stacklevel=2)
    t0 = time.perf_counter()
    chi, chi_nodes = _chi(adj, order)
    phi, phi_nodes = _phi(adj, order)
    ext = _Extremal(phi, adj, order)
    min_col, min_stats = ext.minimum()
    max_col, max_stats = ext.maximum()
    return SearchReport(chi=chi, phi=phi,
                        min_colouring=min_col, min_stats=min_stats,
                        max_colouring=max_col, max_stats=max_stats,
                        nodes_explored=chi_nodes + phi_nodes + ext.nodes,
                        seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Naive enumeration oracle
# ---------------------------------------------------------------------------

def enumerate_b_colourings(g: Graph, k: int, max_n: int | None = None) -> Iterator[Colouring]:
    """Every labelled b-colouring of g with exactly k colours, exactly once,
    in lexicographic order of the assignment vector.

    Deliberately unoptimised: vertices are filled in index order, only
    propriety is enforced during descent, and the b-condition is checked on
    complete assignments.  Serves as the independent oracle for the pruned
    search.
    """
    _check_caps(g, max_n, DEFAULT_ORACLE_CAP)
    if k < 1:
        raise ValueError("colour count must be >= 1")
    n = g.n
    adj = _adj0(g)
    full = (1 << k) - 1
    col = [0] * n
    size = [0] * (k + 1)
    nbr_cnt = [[0] * (k + 1) for _ in range(n)]
    nbr_mask = [0] * n

    def rec(v: int) -> Iterator[Colouring]:
        if v == n:
            if any(size[c] == 0 for c in range(1, k + 1)):
                return
            for c in range(1, k + 1):
                need = full & ~(1 << (c - 1))
                if not any(nbr_mask[u] & need == need
                           for u in range(n) if col[u] == c):
                    return
            yield Colouring(k, tuple(col))
            return
        for c in range(1, k + 1):
            cbit = 1 << (c - 1)
            if nbr_mask[v] & cbit:
                continue
            col[v] = c
            size[c] += 1
            for u in adj[v]:
                nbr_cnt[u][c] += 1
                if nbr_cnt[u][c] == 1:
                    nbr_mask[u] |= cbit
            yield from rec(v + 1)
            for u in adj[v]:
                nbr_cnt[u][c] -= 1
                if nbr_cnt[u][c] == 0:
                    nbr_mask[u] &= ~cbit
            size[c] -= 1
            col[v] = 0

    return rec(0)


def naive_b_chromatic_number(g: Graph, max_n: int | None = None) -> int:
    """phi by brute force: largest k whose enumeration stream is non-empty.

    k above m_degree(g) is skipped: a b-colouring with k colours needs k
    b-vertices of degree >= k-1.
    """
    _check_caps(g, max_n, DEFAULT_ORACLE_CAP)
    for k in range(m_degree(g), 0, -1):
        if next(iter(enumerate_b_colourings(g, k, max_n=max_n)), None) is not None:
            return k
    raise AssertionError("unreachable: k = 1 succeeds on edgeless graphs only, "
                         "and chi-colour b-colourings always exist")


def naive_extremal(g: Graph, k: int, max_n: int | None = None,
                   ) -> tuple[Colouring, ChromaStats, Colouring, ChromaStats]:
    """Extremal labelled b-colourings at fixed k straight off the stream.

    Implements the tie-break order (mean, variance, strength vector,
    assignment) literally, with integer comparison keys.
    """
    n = g.n
    best_min = None
    best_max = None
    min_col = max_col = None
    for c in enumerate_b_colourings(g, k, max_n=max_n):
        theta = c.strengths()
        m1 = sum(i * t for i, t in enumerate(theta, start=1))
        varkey = n * sum(i * i * t for i, t in enumerate(theta, start=1)) - m1 * m1
        kmin = (m1, varkey, theta, c.colours)
        kmax = (-m1, varkey, theta, c.colours)
        if best_min is None or kmin < best_min:
            best_min, min_col = kmin, c
        if best_max is None or kmax < best_max:
            best_max, max_col = kmax, c
    if min_col is None:
        raise NoBColouringError(f"no b-colouring with exactly {k} colours")
    return (min_col, stats_from_strengths(min_col.strengths()),
            max_col, stats_from_strengths(max_col.strengths()))
