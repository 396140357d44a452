"""Exact chromatic / b-chromatic search and extremal colouring statistics.

Two independent routes are provided:

* the pruned search (`chromatic_number`, `b_chromatic_number`,
  `min_mean_b_colouring`, `max_mean_b_colouring`, `full_report`).  One
  pass ranks candidate class-size vectors by (mean, variance) and settles
  each one with a capped backtracking feasibility search; the first group
  with an achievable vector gives the class sizes of both the minimum-
  and the maximum-mean b-colouring, and a witness colouring for each.  A
  realize step then turns each witness into the lexicographically
  smallest assignment with its sizes, fixing one vertex at a time to the
  smallest colour the capped search can still complete, in one search
  per vertex.  chi, phi, the scan and the realize step all run that one
  b-colouring search, the kernel in `kernel.py`: chi is the least k with
  a b-colouring, because a proper colouring with chi colours is always a
  b-colouring (Irving & Manlove 1999).  The kernel's cuts, each a
  condition every completion must meet, are described in
  `kernel._b_search`.  Every phase runs the kernel in degree order alone;

* the naive oracle (`enumerate_b_colourings`, `naive_b_chromatic_number`,
  `naive_extremal`), which walks the proper colourings in lexicographic
  order and is used by the test suite to certify the pruned route.  It
  tests each vertex that can be a b-vertex once, at the depth where its
  closed neighbourhood is coloured, so its verdict is final there.  Its
  one cut: once every such vertex is coloured, a colour that is neither
  settled by a passed test nor held by a vertex still to be tested can
  get no b-vertex below, so the walk backs up.  That drops only subtrees
  without a b-colouring, and the stream is that of the unpruned walk.
  One walk serves two streams, which differ only in the colours vertex 1
  may take.  From every colour, each vertex may take every colour: the
  public labelled stream of `enumerate_b_colourings`.  From colour 1
  alone, each vertex may take at most one colour above those used so
  far, so colours first appear in the order 1..k: the canonical stream,
  one labelling per partition, k! times shorter.  Relabelling keeps a
  colouring proper and keeps its b-vertices, so the aggregates read the
  canonical stream: phi is its first non-empty k, and `naive_extremal`
  gets the smallest assignment of each strength vector by a greedy
  relabelling of each canonical colouring.  The oracle shares no code
  with the pruned search beyond `Graph`, `Colouring` and the cap check,
  so that the two stay independent (a test checks that it names nothing
  of the kernel's or the pruned route's); its phi starts at the m_degree
  bound, which is checked against the unfiltered enumeration.

All statistics are exact rationals.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterator

from .graphs import Graph
from .kernel import _b_search, _build, _Prepared
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


def _check_caps(n: int, max_n: int | None, default: int) -> None:
    cap = default if max_n is None else max_n
    if cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {cap}")
    if n > cap:
        raise SearchCapError(f"graph has {n} vertices, cap is {cap}")


def _check_k(k) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"colour count must be an int >= 1, got {k!r}")


def _prepare(g: Graph, max_n: int | None, allow_disconnected: bool) -> _Prepared:
    """Gate on the search cap and connectivity, then prepare g for the
    kernel."""
    _check_caps(g.n, max_n, DEFAULT_SEARCH_CAP)
    if not allow_disconnected and not g.connected:
        raise DisconnectedGraphError(
            "graph is disconnected; pass allow_disconnected=True to override")
    return _build(g)


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


def _extremal_witnesses(p: _Prepared, k: int) -> tuple[list[int], list[int]]:
    """(min_witness, max_witness): b-colourings with exactly k colours
    whose class sizes by label are those of the minimum- and the
    maximum-mean b-colourings.

    Candidate size vectors are ranked by (mean, variance) with descending
    labels, and each one in the first group of equal statistics is tested
    with the capped search, which keeps the colouring of each hit.  A size
    multiset maximises the mean (ascending labels) exactly when it
    minimises it (descending labels): reversing labels maps one optimum
    onto the other.  So one pass serves both ends, which differ only in
    the strength-vector tie-break among the hits: the min end's witness is
    the first hit, as the group is sorted by sizes, and the max end's is
    the hit of least reversed sizes, each colour c relabelled k + 1 - c.
    """
    _check_k(k)
    candidates = _partitions_desc(len(p.adj), k, _independence_number(p.adj))
    for _, group in groupby(sorted((stats_from_strengths(t), t) for t in candidates),
                            key=itemgetter(0)):
        hits = []
        for _, theta in group:
            assignment = _b_search(p, k, theta)
            if assignment is not None:
                hits.append((theta, assignment))
        if hits:
            low = hits[0][1]
            high = min(hits, key=lambda hit: hit[0][::-1])[1]
            return low, [k + 1 - c for c in high]
    raise NoBColouringError(f"no b-colouring of this graph uses exactly {k} colours")


def _realize(p: _Prepared, k: int, witness: list[int]) -> tuple[Colouring, ChromaStats]:
    """(colouring, stats): the lexicographically smallest b-colouring with
    the class sizes of witness, itself a b-colouring with k colours.

    Prefix fixing: one capped search with head witness[:v + 1] (vertices
    0..v-1 fixed, v coloured first and only below the witness's colour at
    v, the rest in p.order) gives v the smallest colour any completion
    allows, and its completion is the new witness.  If it finds none, v
    keeps the witness's colour, which the witness itself completes.  A
    vertex of colour 1 needs no search.
    """
    caps = Colouring(k, tuple(witness)).strengths()
    for v in range(len(p.adj)):
        if witness[v] > 1:
            found = _b_search(p, k, caps, witness[:v + 1])
            if found is not None:
                witness = found
    return Colouring(k, tuple(witness)), stats_from_strengths(caps)


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
    return _realize(p, k, _extremal_witnesses(p, k)[0])


def max_mean_b_colouring(g: Graph, k: int, max_n: int | None = None,
                         allow_disconnected: bool = False) -> tuple[Colouring, ChromaStats]:
    """Mean-maximising mirror of min_mean_b_colouring (same tie-break order)."""
    p = _prepare(g, max_n, allow_disconnected)
    return _realize(p, k, _extremal_witnesses(p, k)[1])


def full_report(g: Graph, max_n: int | None = None,
                allow_disconnected: bool = False) -> SearchReport:
    """chi, phi and the extremal b-colouring statistics at k = phi."""
    p = _prepare(g, max_n, allow_disconnected)
    if g.n == 1:
        warnings.warn("trivial graph: statistics are degenerate", stacklevel=2)
    t0 = time.perf_counter()
    chi = _chi(p)
    phi = _phi(g, p)
    min_witness, max_witness = _extremal_witnesses(p, phi)
    min_col, min_stats = _realize(p, phi, min_witness)
    max_col, max_stats = _realize(p, phi, max_witness)
    return SearchReport(chi=chi, phi=phi,
                        min_colouring=min_col, min_stats=min_stats,
                        max_colouring=max_col, max_stats=max_stats,
                        nodes_explored=p.nodes, seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Naive enumeration oracle
# ---------------------------------------------------------------------------

def enumerate_b_colourings(g: Graph, k: int, max_n: int | None = None) -> Iterator[Colouring]:
    """Every labelled b-colouring of g with exactly k colours, exactly once,
    in lexicographic order of the assignment vector.  The cap and k are
    checked at the call, before the first colouring is asked for.

    It fills vertices in index order, tries colours in ascending order and
    extends only proper partial colourings.  Each vertex that can be a
    b-vertex is tested once, as soon as its closed neighbourhood is
    coloured, and the walk backs up as soon as some colour can no longer
    get a b-vertex; that drops only subtrees without a b-colouring
    (`_proper_colourings_walk` gives the argument).  This is the walk from
    the full root mask, so every vertex may take every colour; the naive
    aggregates walk from colour 1 alone.  It shares no code with the
    pruned search, so it serves as the independent oracle that certifies
    it.
    """
    _check_caps(g.n, max_n, DEFAULT_ORACLE_CAP)
    _check_k(k)
    return map(Colouring, repeat(k), _proper_colourings_walk(g, k, (1 << k) - 1))


def _proper_colourings_walk(g: Graph, k: int, root: int) -> Iterator[tuple[int, ...]]:
    """The b-colourings of g with exactly k colours whose vertex 1 takes a
    colour of root, as assignment tuples in lexicographic order, over an
    explicit stack.  Colours are bits (colour c is 1 << (c - 1)); depth v
    colours vertex v, and depth 0 is a root with one branch.

    * Labels: may[v] holds the colours vertex v may take before propriety.
      Vertex v + 1 may take those and the one above v's colour, capped at
      k.  may[0] is root, and the root's one branch is a colour above k,
      which adds none, so vertex 1 may take root.  From the full root mask
      that is every colour at every depth: the labelled stream.  From
      colour 1 alone it is the colours up to one above the largest used so
      far, so colours first appear in the order 1, 2, ..., k: the
      canonical stream, one labelling per partition.
    * Propriety: depth v tries only the colours that no earlier neighbour
      of v holds.
    * The b-test, once per candidate: only a vertex u of degree >= k - 1
      can be a b-vertex.  At depth at[u] = max({u} | N(u)) its closed
      neighbourhood is coloured, and stays so below, so its verdict there
      is final: u's class has a b-vertex when u and its neighbours hold all
      k colours.  settled[v] holds the classes that the candidates tested
      above depth v have shown to have one, and a leaf is a b-colouring
      exactly when its mask is full, as on a complete assignment.
    * The back-up rule: from depth top, the last candidate, on, every
      candidate is coloured, so a class can still get a b-vertex only
      when it is settled or holds a candidate tested below depth v
      (later[v], filled in at depth top).  When these miss a colour, no
      leaf below is a b-colouring, and the walk tries v's next colour.  It
      drops only subtrees without a b-colouring, so the stream and its
      order are those of the walk without it.

    Neither the b-test nor the back-up rule reads a label, so both streams
    run them alike.  A node whose next vertex has no colour left is dropped
    before it tests anything.  Depths above first, the first that tests or
    may back up, check propriety alone, and the last vertex's colours are
    tried in place, as a leaf has nothing to push."""
    n = g.n
    full = (1 << k) - 1
    adjacency = g.adjacency
    earlier = [[] for _ in range(n + 1)]  # earlier[v]: v's neighbours below v
    at = [*range(n + 1)]
    for u, w in g.edges:
        earlier[w].append(u)
        if w > at[u]:
            at[u] = w
    tests = [()] * (n + 1)  # tests[v]: (u, N(u)) for each candidate u with at[u] = v
    top = 0
    first = n
    for u in range(1, n + 1):
        nbrs = adjacency[u]
        if len(nbrs) >= k - 1:
            tests[at[u]] += ((u, nbrs),)
            top = u
            first = min(first, at[u])
    first = min(first, top)
    leaf = tests[n]
    bits = [0] * (n + 1)     # bits[v]: the colour vertex v holds
    may = [0] * (n + 1)      # may[v]: the colours vertex v may take, before propriety
    may[0] = root
    settled = [0] * (n + 1)
    later = [0] * (n + 1)
    to_try = [0] * (n + 1)   # to_try[v]: the colours vertex v has yet to try
    to_try[0] = 1 << k
    v = 0
    while True:
        left = to_try[v]
        if not left:
            if not v:
                return
            v -= 1
            continue
        bit = left & -left
        to_try[v] = left ^ bit
        bits[v] = bit
        labels = may[v] | bit << 1 & full  # the colours vertex v + 1 may take
        taken = 0
        for u in earlier[v + 1]:
            taken |= bits[u]
        following = labels & ~taken  # those that no earlier neighbour holds
        if not following:
            continue
        if v >= first:
            s = settled[v]
            for u, nbrs in tests[v]:
                own = bits[u]
                if not s & own:
                    seen = own
                    for w in nbrs:
                        seen |= bits[w]
                    if seen == full:
                        s |= own
            if v >= top:
                if v == top:
                    pending = 0
                    for d in range(n, top, -1):
                        later[d] = pending
                        for u, _ in tests[d]:
                            pending |= bits[u]
                    later[top] = pending
                if s | later[v] != full:
                    continue
            settled[v + 1] = s
        v += 1
        if v < n:
            may[v] = labels
            to_try[v] = following
            continue
        left = following
        while left:
            bit = left & -left
            left ^= bit
            bits[v] = bit
            s = settled[v]
            for u, nbrs in leaf:
                own = bits[u]
                if not s & own:
                    seen = own
                    for w in nbrs:
                        seen |= bits[w]
                    if seen == full:
                        s |= own
            if s == full:
                # built from a list of known length: a tuple built straight from
                # an iterator is sized by reallocation, and the freed ones pile
                # up on CPython's tuple free list, up to 2,000 of each length
                yield tuple([*map(int.bit_length, bits[1:])])
        v -= 1


def _least_relabellings(sizes: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(theta, perm) for each distinct arrangement theta of the class sizes
    of a canonical colouring: relabelling its class i as perm[i] (perm[0]
    is unused) gives the smallest assignment whose strength vector is
    theta.

    A relabelling gives class i a colour c with theta_c = sizes[i - 1].
    Class i first appears after classes 1..i-1 do, so two relabellings'
    assignments first differ at the first vertex of the first class they
    label differently, and the smallest is greedy: in class order, each
    class takes the least colour of its size that no earlier class took.
    The arrangements are built one position at a time from the distinct
    sizes left, so a position never tries the same size twice and no
    k! orderings are walked."""
    out = []

    def arrange(left: tuple[int, ...], theta: tuple[int, ...]) -> None:
        if not left:
            pools: dict[int, list[int]] = {}
            for c, t in enumerate(theta, start=1):
                pools.setdefault(t, []).append(c)
            out.append((theta, (0, *[pools[t].pop(0) for t in sizes])))
            return
        for t in sorted(set(left)):
            i = left.index(t)
            arrange(left[:i] + left[i + 1:], theta + (t,))

    arrange(sizes, ())
    return out


def naive_b_chromatic_number(g: Graph, max_n: int | None = None) -> int:
    """phi by brute force: the largest k with a canonical b-colouring.

    Relabelling keeps a colouring proper and keeps its b-vertices, so k
    has a b-colouring exactly when it has one whose colours first appear
    in the order 1..k, and each refuted k walks up to k! fewer nodes than
    the labelled stream.  k above m_degree(g) is skipped: a b-colouring
    with k colours needs k b-vertices of degree >= k-1.
    """
    _check_caps(g.n, max_n, DEFAULT_ORACLE_CAP)
    for k in range(m_degree(g), 0, -1):
        if next(_proper_colourings_walk(g, k, 1), None) is not None:
            return k
    raise AssertionError("unreachable: k = 1 succeeds on edgeless graphs only, "
                         "and chi-colour b-colourings always exist")


def naive_extremal(g: Graph, k: int, max_n: int | None = None,
                   ) -> tuple[Colouring, ChromaStats, Colouring, ChromaStats]:
    """Extremal labelled b-colourings at fixed k, from the canonical stream.

    Implements the tie-break order (mean, variance, strength vector,
    assignment) literally: the smallest assignment of each strength
    vector, then the best vector, whose stats are computed once each.  The
    labelled b-colourings are the relabellings of the canonical ones, and
    for each canonical colouring and strength vector `_least_relabellings`
    gives the smallest, so the smallest of those over the canonical stream
    is the vector's smallest labelled b-colouring.  Only the two winners
    are built as `Colouring`s.
    """
    _check_caps(g.n, max_n, DEFAULT_ORACLE_CAP)
    _check_k(k)
    first: dict[tuple[int, ...], tuple[int, ...]] = {}  # strength vector -> its smallest assignment
    relabellings = {}  # canonical class sizes -> _least_relabellings of them
    for colours in _proper_colourings_walk(g, k, 1):
        sizes = tuple(map(colours.count, range(1, k + 1)))
        pairs = relabellings.get(sizes)
        if pairs is None:
            pairs = relabellings[sizes] = _least_relabellings(sizes)
        for theta, perm in pairs:
            relabelled = tuple([perm[c] for c in colours])
            seen = first.get(theta)
            if seen is None or relabelled < seen:
                first[theta] = relabelled
    if not first:
        raise NoBColouringError(f"no b-colouring with exactly {k} colours")
    ranked = {theta: stats_from_strengths(theta) for theta in first}
    low = min(first, key=lambda t: (ranked[t], t))
    high = min(first, key=lambda t: (-ranked[t].mean, ranked[t].variance, t))
    return Colouring(k, first[low]), ranked[low], Colouring(k, first[high]), ranked[high]
