"""The naive oracle: b-colourings by brute force.

`enumerate_b_colourings` streams every labelled b-colouring of a graph,
and `naive_b_chromatic_number` and `naive_extremal` compute phi and the
extremal colourings from the same walk.  The tests certify the pruned
search against them, so this module imports only the standard library,
`graphs` and `stats`, and names nothing of the pruned search (a test
checks both).

The walk (`_proper_colourings_walk`) extends proper partial colourings in
vertex order.  It tests each vertex that can be a b-vertex once, where
its closed neighbourhood is coloured, and backs up when a colour can no
longer get a b-vertex, which drops only subtrees without a b-colouring.
From every colour at the root it gives the labelled stream.  From colour
1 alone, colours first appear in the order 1..k: the canonical stream,
one labelling per partition, k! times shorter.  Relabelling keeps a
colouring proper and keeps its b-vertices, so the aggregates read the
canonical stream: phi is its largest non-empty k, and `naive_extremal`
relabels each canonical colouring greedily (`_least_relabellings`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .graphs import Graph, _check_caps, m_degree
from .stats import ChromaStats, Colouring, NoBColouringError, _check_k, stats_from_strengths

DEFAULT_ORACLE_CAP = 12


def enumerate_b_colourings(g: Graph, k: int, max_n: int | None = None) -> Iterator[Colouring]:
    """Every labelled b-colouring of g with exactly k colours, exactly once,
    in lexicographic order of the assignment vector.  The cap and k are
    checked at the call, before the first colouring is asked for."""
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
    """phi by brute force: the largest k with a canonical b-colouring.  k
    above m_degree(g) is skipped: a b-colouring with k colours needs k
    b-vertices of degree >= k-1."""
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
    vector, then the best vector, whose stats are computed once each.  A
    vector's smallest labelled b-colouring is the least of the smallest
    relabellings to it (`_least_relabellings`) of the canonical ones.
    Only the two winners are built as `Colouring`s.
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
