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
  b-colouring search: chi is the least k with a b-colouring, because a
  proper colouring with chi colours is always a b-colouring (Irving &
  Manlove 1999).  The search works on vertex bitmasks and prunes with
  four cuts (no b-vertex, cap unfillable, class cannot stay independent,
  distinct b-vertices), each a condition every completion must meet, so
  its answers are exact.  The independence cut uses that a colour class
  takes at most one end of each edge of a matching among the vertices
  that may still join it.  The search is a generator that pauses every
  _SLICE_NODES nodes: chi and phi race it in degree order against a
  neighbourhood-clustered order, in alternating slices, and take the
  first answer, since no static order wins on every graph; the scan and
  realize run it in degree order alone;

* the naive oracle (`enumerate_b_colourings`, `naive_b_chromatic_number`,
  `naive_extremal`), which walks every proper labelled colouring in
  lexicographic order, pruning on propriety alone and testing the
  b-condition only on complete assignments, and is used by the test suite
  to certify the pruned route.  Its enumerator shares no code with the
  pruned search beyond `Graph`, `Colouring` and the cap check, so that the
  two stay independent; its phi starts at the m_degree bound, which is
  checked against the unfiltered enumeration.

All statistics are exact rationals.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Generator, Iterator, Sequence

from .graphs import Graph
from .stats import ChromaStats, Colouring, stats_from_strengths

DEFAULT_SEARCH_CAP = 32
DEFAULT_ORACLE_CAP = 12
_SLICE_NODES = 1024  # search nodes a walk explores between turns


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


@dataclass
class _Prepared:
    """One graph as every search phase on it sees it."""

    adj: list[int]          # adj[v]: neighbour bitmask of v (bit u set when u ~ v, 0-based)
    order: list[int]        # the vertex order the search colours in
    nbhd: list[list[int]]   # nbhd[j][m] = N(m << 8j): N(S) is one lookup per byte of S
    nodes: int = 0          # search nodes explored on this graph so far
    eligible: dict[int, int] = field(default_factory=dict)  # k -> vertices of degree >= k - 1

    @cached_property
    def clustered(self) -> list[int]:
        """The second vertex order chi and phi race: order, with each vertex
        not yet placed followed by its unplaced neighbours in order's rank.
        Built on first use, since most queries on small graphs end inside
        the degree-order walk's first slice.  Each vertex's neighbours are
        read off its bitmask, so the build is near-linear in the edges."""
        rank = {v: i for i, v in enumerate(self.order)}
        return list(dict.fromkeys(
            u for v in self.order
            for u in (v, *sorted(_vertices(self.adj[v]), key=rank.get))))


def _vertices(mask: int) -> Iterator[int]:
    """The vertices in a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# a resumable search: yields between slices of nodes, returns its colouring or None
_Walk = Generator[None, None, "list[int] | None"]


def _prepare(g: Graph, max_n: int | None, allow_disconnected: bool) -> _Prepared:
    """Gate on the search cap and connectivity, then prepare g for the
    search, in degree-descending vertex order (ties by index)."""
    _check_caps(g.n, max_n, DEFAULT_SEARCH_CAP)
    if not allow_disconnected and not g.connected:
        raise DisconnectedGraphError(
            "graph is disconnected; pass allow_disconnected=True to override")
    adj = [sum(1 << (w - 1) for w in g.adjacency[v]) for v in g.vertices()]
    nbhd = []
    for base in range(0, g.n, 8):
        table = [0]
        for u in range(base, min(base + 8, g.n)):
            table += [m | adj[u] for m in table]
        nbhd.append(table)
    order = sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v))
    return _Prepared(adj, order, nbhd)


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
    """The first k in ks with a b-colouring of exactly k colours.

    Each k races a free walk in p.order against one in p.clustered, one
    slice each in turn, degree order first.  Either walk's answer, a
    colouring or a refutation, is complete, so the first to finish
    decides, and a query costs at most twice what the better order needs,
    plus a slice.  No static order wins on every graph: on sunlet(15)
    degree order spends 13.3 million phi nodes and the clustered order
    352, while on random graphs the clustered order is the slower one."""
    for k in ks:
        if _race([_b_walk(p, p.order, k, None), _clustered_walk(p, k)]) is not None:
            return k
    raise AssertionError("unreachable: every graph has a b-colouring with chi colours")


def _clustered_walk(p: _Prepared, k: int) -> _Walk:
    """A free walk in p.clustered that reads the order on its first turn,
    so that a race the degree-order walk ends in one slice never builds it."""
    return (yield from _b_walk(p, p.clustered, k, None))


def _chi(p: _Prepared) -> int:
    """Chromatic number: the least k with a b-colouring."""
    return _first_k(p, range(1, len(p.adj) + 1))


def _phi(g: Graph, p: _Prepared) -> int:
    """b-chromatic number: k from m_degree(g) downward."""
    return _first_k(p, range(m_degree(g), 0, -1))


def _distinct_representatives(sets: list[int]) -> bool:
    """True when every bitmask in sets can be given a bit of its own that
    no other set is given, found by augmenting paths."""
    # most calls are settled by taking each set's lowest untaken bit
    taken = 0
    for s in sets:
        free = s & ~taken
        if not free:
            break
        taken |= free & -free
    else:
        return True
    owner: dict[int, int] = {}  # bit -> index of the set it represents
    seen = 0

    def augment(i: int) -> bool:
        # a set deeper on the path needs no bit of sets[i]: set i could
        # take that bit itself, so all of them are marked seen at once
        nonlocal seen
        rest = sets[i] & ~seen
        seen |= sets[i]
        while rest:
            b = rest & -rest
            rest ^= b
            if b not in owner or augment(owner[b]):
                owner[b] = i
                return True
        return False

    for i in range(len(sets)):
        seen = 0
        if not augment(i):
            return False
    return True


def _race(walks: list[_Walk]) -> list[int] | None:
    """Advance the walks one slice each in turn; the first to finish gives
    the result.  Every walk is closed on the way out, so each adds the
    nodes it explored to p.nodes, finished or not."""
    try:
        while True:
            for walk in walks:
                try:
                    next(walk)
                except StopIteration as done:
                    return done.value
    finally:
        for walk in walks:
            walk.close()


def _b_search(p: _Prepared, k: int, caps: tuple[int, ...] | None,
              prefix: Sequence[int] = (), below: int | None = None) -> list[int] | None:
    """_b_walk in p.order, run to the end.  The scan and realize call it
    and do not race: degree order is the better one on their capped
    queries (family-ladder scan: 186,264 nodes, 307,543 raced; realize on
    twenty random 16-vertex graphs: 66,201 nodes, 85,914 raced)."""
    return _race([_b_walk(p, p.order, k, caps, prefix, below)])


def _b_walk(p: _Prepared, order: list[int], k: int, caps: tuple[int, ...] | None,
            prefix: Sequence[int] = (), below: int | None = None) -> _Walk:
    """Generator: depth-first search for the first b-colouring with
    exactly k colours of the prepared graph p, colouring vertices in
    order.  It yields after each _SLICE_NODES nodes, so that walks can take
    turns, and returns the colouring or None.  The nodes it explores are
    counted on a local and added to p.nodes at each yield and when the walk
    returns or is closed.

    caps fixes each colour class size exactly (caps[i] is the size of
    class i+1, and sum(caps) must equal n); None leaves sizes free.  caps
    must be monotone (non-increasing or non-decreasing), so that labels
    with equal caps are adjacent.  prefix fixes the colours of vertices
    0..len(prefix)-1: they are the starting state, first tested by the
    cuts together with the next vertex placed (alone, as one node, when it
    colours every vertex), and only completions of it are searched.  The
    other vertices are coloured in order and take colours in ascending
    label order; of two labels with equal caps that are both still empty,
    only the lower may open, since swapping them maps any completion onto
    another.  So with the identity vertex order the first solution is the
    lexicographically smallest completion.  When below is given, vertex
    j = len(prefix) is coloured first, ahead of the rest of order, and
    only with colours 1..below-1, so the first solution gives j the
    smallest such colour that any completion allows.

    The state is colour-major: per class c, the vertex mask members[c] and
    blocked[c], the vertices adjacent to class c.  A vertex may still join c
    when it is uncoloured, outside blocked[c], and c is under its cap; it
    can still see colour d when it is in blocked[d] or is adjacent to a
    vertex that may still join d.  A b-vertex candidate of c is an eligible
    vertex (degree >= k - 1) that is in c or may still join it, and that
    can still see every other colour.  Four cuts drop a branch:
      * some class has no b-vertex candidate left;
      * in capped mode, some class can no longer be filled to its cap;
      * in capped mode, some class cannot reach its cap and stay
        independent: with mu disjoint edges among the vertices that may
        still join it, at most one end of each can, so it can grow by at
        most their number less mu;
      * the classes whose candidates are all uncoloured cannot be given
        distinct candidates (a class with a coloured candidate is settled;
        one vertex is the b-vertex of one class only).
    Every cut is a condition that each completion meets, optimistic about
    uncoloured vertices, so it prunes only subtrees without a solution:
    refutations are exact and the first solution is the one an uncut
    search would find.  The search is a loop over an explicit stack, so
    its depth is not bounded by Python's recursion limit: depth i keeps
    the colour its vertex holds and the blocked mask of that colour from
    before the vertex joined it, and undoes both on the way back.
    """
    adj, nbhd = p.adj, p.nbhd
    n = len(adj)
    cap = [n] * k if caps is None else list(caps)
    eligible = p.eligible.get(k)
    if eligible is None:  # built once per prepared graph and k
        eligible = p.eligible[k] = sum(1 << v for v in range(n) if adj[v].bit_count() >= k - 1)

    size = [0] * k
    members = [0] * k
    blocked = [0] * k
    colours = range(k)
    capped = caps is not None

    def feasible(free: int) -> bool:
        avail = []
        reach = []
        for c in colours:
            r = blocked[c]
            if size[c] < cap[c]:
                a = m = free & ~r
                for table in nbhd:
                    if not m:
                        break
                    r |= table[m & 255]
                    m >>= 8
                if capped:
                    # slack: how many of the vertices in a class c can leave out
                    slack = size[c] + a.bit_count() - cap[c]
                    if slack < 0:
                        return False
                    # class c is independent, so it leaves out an end of each
                    # edge of a greedy matching in G[a].  Only the vertices of
                    # a with a neighbour in a can be matched (a & r, as r is
                    # blocked[c] | N(a)), at most half of them, so the
                    # matching runs only when it can cut.
                    s = a & r
                    if s.bit_count() >> 1 > slack:
                        while s:
                            u = s & -s
                            s ^= u
                            e = s & adj[u.bit_length() - 1]
                            if e:
                                s ^= e & -e
                                slack -= 1
                                if slack < 0:
                                    return False
            else:
                a = 0
            avail.append(a)
            reach.append(r)
        # candidates of c: AND of reach[d] over d != c, as the AND over
        # d < c (below) and the AND over d > c (above[c])
        above = [eligible] * k
        for d in range(k - 1, 0, -1):
            above[d - 1] = above[d] & reach[d]
        below = eligible
        unsettled = []
        for c in colours:
            cand = (members[c] | avail[c]) & below & above[c]
            if not cand:
                return False
            if not cand & members[c]:
                unsettled.append(cand)
            below &= reach[c]
        return len(unsettled) < 2 or _distinct_representatives(unsettled)

    # the prefix is the starting state; an improper or overfull one has
    # no completion
    for v, c in enumerate(prefix):
        c -= 1
        if blocked[c] >> v & 1 or size[c] == cap[c]:
            return None
        size[c] += 1
        members[c] |= 1 << v
        blocked[c] |= adj[v]
    j = len(prefix)
    rest = [v for v in order if v > j or v == j and below is None]
    if below is not None:
        rest.insert(0, j)
    m = len(rest)
    # uncoloured[i]: the vertices left uncoloured once rest[:i] is coloured
    uncoloured = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        uncoloured[i] = uncoloured[i + 1] | 1 << rest[i]
    nodes = 0
    try:
        if not rest:  # a complete prefix is checked as a colouring
            nodes = 1
            if not feasible(0):
                return None

        held = [0] * m   # held[i]: the colour rest[i] holds
        saved = [0] * m  # saved[i]: blocked[held[i]] before rest[i] joined it
        i = c = 0        # the depth, and the next colour to try there
        while i < m:
            v = rest[i]
            vbit = 1 << v
            free = uncoloured[i + 1]
            top = k if i or below is None else below - 1  # colours open at depth i
            while c < top:
                if not (blocked[c] & vbit or size[c] == cap[c]
                        or c and cap[c - 1] == cap[c] and not size[c - 1] and not size[c]):
                    size[c] += 1
                    members[c] |= vbit
                    saved[i] = blocked[c]
                    blocked[c] |= adj[v]
                    nodes += 1
                    if nodes == _SLICE_NODES:
                        p.nodes += nodes
                        nodes = 0
                        yield
                    if feasible(free):
                        break
                    blocked[c] = saved[i]
                    members[c] ^= vbit
                    size[c] -= 1
                c += 1
            if c < top:
                held[i] = c
                i += 1
                c = 0
            elif i:
                i -= 1
                c = held[i]
                blocked[c] = saved[i]
                members[c] ^= 1 << rest[i]
                size[c] -= 1
                c += 1
            else:
                return None
        return [next(c + 1 for c in colours if members[c] >> v & 1) for v in range(n)]
    finally:
        p.nodes += nodes


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
    the strength-vector tie-break among the hits; the max end's witness is
    its hit with each colour c relabelled k + 1 - c.
    """
    if k < 1:
        raise ValueError("colour count must be >= 1")
    candidates = _partitions_desc(len(p.adj), k, _independence_number(p.adj))
    for _, group in groupby(sorted((stats_from_strengths(t), t) for t in candidates),
                            key=itemgetter(0)):
        hits = []
        for _, theta in group:
            assignment = _b_search(p, k, theta)
            if assignment is not None:
                hits.append((theta, assignment))
        if hits:
            low = min(hits, key=itemgetter(0))[1]
            high = min(hits, key=lambda hit: hit[0][::-1])[1]
            return low, [k + 1 - c for c in high]
    raise NoBColouringError(f"no b-colouring of this graph uses exactly {k} colours")


def _realize(p: _Prepared, k: int, witness: list[int]) -> tuple[Colouring, ChromaStats]:
    """(colouring, stats): the lexicographically smallest b-colouring with
    the class sizes of witness, itself a b-colouring with k colours.

    Prefix fixing: with vertices 0..v-1 fixed, one capped search (in
    p.order, bounded below the witness's colour at v) gives v the smallest
    colour any completion allows, and its completion is the new witness.
    If it finds none, v keeps the witness's colour, which the witness
    itself completes.  A vertex of colour 1 needs no search.
    """
    caps = Colouring(k, tuple(witness)).strengths()
    for v in range(len(p.adj)):
        if witness[v] > 1:
            found = _b_search(p, k, caps, witness[:v], witness[v])
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

    Deliberately unoptimised: it visits every proper colouring with colours
    1..k, filling vertices in index order and trying colours in ascending
    order; propriety is its only pruning, and the b-condition (which
    implies surjectivity) is tested only on complete assignments.  It
    shares no code with the pruned search, so it serves as the independent
    oracle that certifies it.
    """
    _check_caps(g.n, max_n, DEFAULT_ORACLE_CAP)
    if k < 1:
        raise ValueError("colour count must be >= 1")
    return _proper_colourings_walk(g, k)


def _proper_colourings_walk(g: Graph, k: int) -> Iterator[Colouring]:
    """enumerate_b_colourings' loop over an explicit stack.  Colours are
    bits (colour c is 1 << (c - 1)).  Depth v keeps the colours vertex v
    has yet to try, those that no earlier neighbour holds, and a complete
    assignment is a b-colouring when each class has a vertex whose own and
    neighbours' colours make up all k bits (only vertices of degree >=
    k - 1 can)."""
    n = g.n
    full = (1 << k) - 1
    earlier = [[u for u in nbrs if u < v] for v, nbrs in enumerate(g.adjacency)]
    candidates = [(v, g.adjacency[v]) for v in g.vertices() if g.degree(v) >= k - 1]
    bits = [0] * (n + 1)     # bits[v]: the colour vertex v holds
    # to_try[v]: the colours vertex v has yet to try; depth 0 is a root with
    # one branch, so the walk ends when it backs up to the root
    to_try = [1] * (n + 1)
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
        if v < n:
            v += 1
            taken = 0
            for u in earlier[v]:
                taken |= bits[u]
            to_try[v] = full & ~taken
            continue
        settled = 0  # the classes that have a b-vertex
        for u, nbrs in candidates:
            own = bits[u]
            if not settled & own:
                seen = own
                for w in nbrs:
                    seen |= bits[w]
                if seen == full:
                    settled |= own
        if settled == full:
            # built from a list of known length: a tuple built straight from
            # an iterator is sized by reallocation, and the freed ones pile
            # up on CPython's tuple free list, up to 2,000 of each length
            yield Colouring(k, tuple([*map(int.bit_length, bits[1:])]))


def naive_b_chromatic_number(g: Graph, max_n: int | None = None) -> int:
    """phi by brute force: largest k whose enumeration stream is non-empty.

    k above m_degree(g) is skipped: a b-colouring with k colours needs k
    b-vertices of degree >= k-1.
    """
    _check_caps(g.n, max_n, DEFAULT_ORACLE_CAP)
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
