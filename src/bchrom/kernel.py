"""The b-colouring search kernel: one prepared graph, and the depth-first
search for a b-colouring with exactly k colours that chi, phi, the
candidate scan and realize all run on it (`_b_search` gives its state and
its cuts), and the vertices its first solution settles (`_settled`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graphs import Graph


@dataclass
class _Prepared:
    """One graph as every search phase on it sees it."""

    adj: list[int]          # adj[v]: neighbour bitmask of v (bit u set when u ~ v, 0-based)
    order: list[int]        # the vertex order the search colours in
    nbhd: tuple             # N(S) for a vertex mask S, by lookup (see _build)
    nodes: int = 0          # search nodes explored on this graph so far
    # k -> [live, slack, {s: U(k, s)}]: _b_search's starting state at k (see there)
    slack: dict[int, list] = field(default_factory=dict)


class _Chunk(dict):
    """One chunk's table past 33 vertices: self[m] is the union of adj, the
    chunk's neighbour masks, over the bits of m, kept from its first lookup."""

    def __init__(self, adj: list[int]):
        self.adj = adj

    def __missing__(self, m: int) -> int:
        r = 0
        s = m
        while s:
            u = s & -s
            s ^= u
            r |= self.adj[u.bit_length() - 1]
        self[m] = r
        return r


def _build(g: Graph) -> _Prepared:
    """g's bitmasks and neighbourhood tables, in degree-descending vertex
    order (ties by index).  nbhd = (t0, t1, t2, w, mask) gives N(S), the
    vertices adjacent to a vertex of the mask S, by three lookups.  The
    tables have width w = ceil(n/3), and mask = 2^w - 1: tj[m] = N(m << jw)
    for S's chunk j, so t0, t1, t2 cover every vertex.  Up to 33 vertices
    (w <= 11) each is a list of all its entries, which reads faster than a
    dict; past that each is a _Chunk, which fills an entry at its first
    lookup, so that memory grows with the masks a search meets, not 2^w."""
    adj = [sum(1 << (w - 1) for w in g.adjacency[v]) for v in g.vertices()]
    w = -(-g.n // 3)
    tables = []
    for base in range(0, 3 * w, w):
        if w > 11:
            tables.append(_Chunk(adj[base:base + w]))
            continue
        table = [0]
        for u in range(base, min(base + w, g.n)):
            table += [m | adj[u] for m in table]
        tables.append(table)
    order = sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v))
    return _Prepared(adj, order, (*tables, w, (1 << w) - 1))


def _b_search(p: _Prepared, k: int, caps: tuple[int, ...] | None,
              head: Sequence[int] = ()) -> list[int] | None:
    """Depth-first search for the first b-colouring with exactly k colours
    of the prepared graph p, colouring vertices in p.order; returns the
    colouring or None.  The nodes it explores are counted on a local and
    added to p.nodes when it returns.

    caps fixes each colour class size exactly (caps[i] is the size of
    class i+1, and sum(caps) must equal n); None leaves sizes free.  caps
    must be monotone (non-increasing or non-decreasing), so that labels
    with equal caps are adjacent.  A non-empty head fixes the colours of
    vertices 0..j-1 to head[:-1], where j = len(head) - 1, and head[:-1] is
    proper and within caps: it is the starting state, first tested by the
    cuts together with the next vertex placed, and only completions of it
    are searched.  Vertex j is then coloured first, ahead of the rest of
    order, and only with colours 1..head[-1]-1, so the first solution
    gives j the smallest such colour that any completion allows.  The
    other vertices are coloured in order and take colours in ascending
    label order; of two labels with equal caps that are both still empty,
    only the lower may open, since swapping them maps any completion onto
    another, smaller at the first vertex coloured either.  So the first
    solution is the lexicographically smallest completion along the order
    the search colours in (j, then the vertices above j in p.order), under
    any p.order; `_settled` reads realize's skips off this.  A
    colour is open to a vertex unless a coloured neighbour holds it, its
    class is full, or that rule keeps it shut.

    The state is colour-major: per class c, the vertex mask members[c] and
    blocked[c], the vertices adjacent to class c.  A vertex may still join c
    when it is uncoloured, outside blocked[c], and c is under its cap; it
    can still see colour d when it is in blocked[d] or is adjacent to a
    vertex that may still join d.  A b-vertex candidate of c is a live
    vertex that is in c or may still join it, and that can still see every
    other colour.  Live means slack[u] >= 0, where

        slack[u] = |N(u) & uncoloured| + 1 - #colours u does not see yet:

    a b-vertex gets each colour it does not see yet, its own aside, from a
    different neighbour that is uncoloured now, so a vertex with negative
    slack is no class's b-vertex.  At the start slack[u] = deg(u) + 1 - k,
    so the live vertices are those of degree >= k - 1.  Placing x in class
    c lowers by 1 the slack of each u in N(x) & blocked[c] (blocked[c]
    taken before x joins): u loses an uncoloured neighbour and already saw
    c.  Every other u in N(x) loses an uncoloured neighbour and sees c
    anew, and no other slack changes, so slack only falls along a path.
    Seven cuts drop a branch:
      * some class has no b-vertex candidate left;
      * a vertex whose slack fell below 0 is no class's candidate (the
        counting cut, one mask for every class);
      * in capped mode, some class can no longer be filled to its cap;
      * in capped mode, some class cannot reach its cap and stay
        independent: with mu disjoint edges among the vertices that may
        still join it, at most one end of each can, so it can grow by at
        most their number less mu;
      * in capped mode, an empty class of size 1 that no vertex of U(k, s)
        may join, where s is the number of caps equal to 1 (the singleton
        rule).  Take a b-colouring with k colours whose classes of size 1
        are {x} for x in a set K of s vertices.  The b-vertex of {x} is x
        itself (Irving & Manlove 1999), so x is live.  Every other y in K
        is the b-vertex of {y} and sees x's colour, which only x carries,
        so K is a clique.  The other k - s classes have distinct b-vertices,
        all live, and each sees the colour of every x in K, so each is
        adjacent to all of K: at least k - s live vertices are adjacent to
        every vertex of K.  Call an s-set with these properties an
        admissible clique, and U(k, s) the union of them all.  A vertex of
        one has k - 1 live neighbours (s - 1 in K, k - s outside), so
        U(k, 1) is ones, the live vertices with k - 1 live neighbours.
        `_admissible` builds U(k, s) once per prepared graph, k and s, at
        the first capped search at k with s caps equal to 1; free searches
        never read it.  When U(k, s) is empty, no b-colouring has these
        sizes, and the search returns None with no node explored, before
        the head is replayed;
      * in capped mode, a class c with one slot left and no member that
        can still be its b-vertex (the last-joiner cut): the vertex that
        joins c last must be c's b-vertex, so only a live vertex in reach
        of every other class may join c, and the branch is cut when there
        is none.  The vertices that can see c are then built from that
        narrowed set, which narrows the other classes' candidates too.
        The classes with more than one slot left, or none, are handled
        first; then the one-slot classes in label order, each one tested
        against live and the reach of every class handled before it, and
        its own reach added to that mask for the next;
      * the classes whose candidates are all uncoloured have, between
        them, fewer candidates than there are such classes (one vertex is
        the b-vertex of one class only).
    Every cut is a condition that each completion meets, optimistic about
    uncoloured vertices, so it prunes only subtrees without a solution:
    refutations are exact and the first solution is the one an uncut
    search would find.  The cuts run in feasible(), once per node: it
    builds reach[c] = blocked[c] | N(a), where a holds the vertices that may
    still join c, as one three-term lookup in p.nbhd, and writes its
    per-class masks to arrays allocated once per call.  The search is a
    loop over an explicit stack, so its depth is not bounded by Python's
    recursion limit: depth i keeps the colour its vertex holds, the blocked
    mask of that colour from before the vertex joined it and the live
    vertices whose slack it lowered, and undoes all three on the way back.
    The colouring is read from the head and the colours held per depth.
    """
    adj = p.adj
    t0, t1, t2, width, mask = p.nbhd
    n = len(adj)
    cap = [n] * k if caps is None else list(caps)
    known = p.slack.get(k)
    if known is None:  # built once per prepared graph and k
        base = [a.bit_count() + 1 - k for a in adj]
        live = sum(1 << v for v in range(n) if base[v] >= 0)
        known = p.slack[k] = [live, base, {}]
    live, slack = known[0], known[1].copy()
    singles = 0
    s = 0 if caps is None else cap.count(1)  # the classes of size 1
    if s:  # only capped searches with such a class read U(k, s)
        singles = known[2].get(s)
        if singles is None:  # built once per prepared graph, k and s
            singles = known[2][s] = _admissible(adj, live, k, s)
        if not singles:
            return None  # no admissible clique (the singleton rule): no node to explore

    size = [0] * k
    members = [0] * k
    blocked = [0] * k
    for v, c in enumerate(head[:-1]):  # the starting state
        c -= 1
        r = blocked[c]
        size[c] += 1
        members[c] |= 1 << v
        blocked[c] = r | adj[v]
        h = adj[v] & r & live  # the live neighbours of v that already saw c
        while h:
            u = h & -h
            h ^= u
            w = u.bit_length() - 1
            slack[w] -= 1
            if slack[w] < 0:
                live ^= u

    # feasible's scratch, rewritten at every node before it is read
    avail = [0] * k
    reach = [0] * k
    above = [0] * k
    last = [0] * k  # last[:nl]: the capped classes with one slot left

    def feasible(free: int, live: int, colours=range(k), downs=range(k - 1, 0, -1),
                 capped=caps is not None, size=size, cap=cap, members=members,
                 blocked=blocked, adj=adj, avail=avail, reach=reach, above=above,
                 last=last, singles=singles, t0=t0, t1=t1, t2=t2, width=width,
                 width2=2 * width, mask=mask) -> bool:
        common = live  # live, and in reach of each class handled so far
        nl = 0
        for c in colours:
            r = blocked[c]
            a = 0
            if size[c] < cap[c]:
                a = free & ~r
                if capped and size[c] + 1 == cap[c]:  # reach built below
                    if not size[c]:  # a class of one vertex: see the singleton rule
                        a &= singles
                    if not a:
                        return False
                    avail[c] = a
                    last[nl] = c
                    nl += 1
                    continue
                r |= t0[a & mask] | t1[a >> width & mask] | t2[a >> width2 & mask]
                if capped:
                    # spare: how many of the vertices in a class c can leave out
                    spare = size[c] + a.bit_count() - cap[c]
                    if spare < 0:
                        return False
                    # class c is independent, so it leaves out an end of each
                    # edge of a greedy matching in G[a].  Only the vertices of
                    # a with a neighbour in a can be matched (a & r, as r is
                    # blocked[c] | N(a)), at most half of them, so the
                    # matching runs only when it can cut.
                    s = a & r
                    if s.bit_count() >> 1 > spare:
                        while s:
                            u = s & -s
                            s ^= u
                            e = s & adj[u.bit_length() - 1]
                            if e:
                                s ^= e & -e
                                spare -= 1
                                if spare < 0:
                                    return False
            avail[c] = a
            reach[c] = r
            common &= r
        for c in last[:nl]:
            # common holds masks of classes other than c only: when no
            # member of c is in it, the vertex that joins c last must be
            # c's b-vertex, so only a vertex in common may join
            a = avail[c]
            if not members[c] & common:
                a &= common
                if not a:
                    return False
                avail[c] = a
            r = blocked[c] | t0[a & mask] | t1[a >> width & mask] | t2[a >> width2 & mask]
            reach[c] = r
            common &= r
        # candidates of c: AND of reach[d] over d != c, as the AND over
        # d < c (below) and the AND over d > c (above[c])
        above[-1] = live
        for d in downs:
            above[d - 1] = above[d] & reach[d]
        below = live
        need = pool = 0  # how many classes have no coloured candidate, and their candidates
        for c in colours:
            cand = (members[c] | avail[c]) & below & above[c]
            if not cand:
                return False
            if not cand & members[c]:
                need += 1
                pool |= cand
            below &= reach[c]
        return pool.bit_count() >= need

    j = len(head) - 1  # the bounded vertex, when head is not empty
    rest = ([j] if head else []) + [v for v in p.order if v > j]  # see _settled
    m = len(rest)
    # uncoloured[i]: the vertices left uncoloured once rest[:i] is coloured
    uncoloured = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        uncoloured[i] = uncoloured[i + 1] | 1 << rest[i]
    nodes = 0
    try:
        held = [0] * m   # held[i]: the colour rest[i] holds
        saved = [0] * m  # saved[i]: blocked[held[i]] before rest[i] joined it
        lost = [0] * m   # lost[i]: the live vertices whose slack rest[i] lowered
        i = c = 0        # the depth, and the next colour to try there
        while i < m:
            v = rest[i]
            vbit = 1 << v
            top = k if i or not head else head[-1] - 1  # colours open at depth i
            while c < top and (blocked[c] & vbit or size[c] == cap[c]
                               or c and cap[c - 1] == cap[c] and not size[c - 1] and not size[c]):
                c += 1
            if c < top:
                size[c] += 1
                members[c] |= vbit
                saved[i] = r = blocked[c]
                blocked[c] = r | adj[v]
                lost[i] = h = adj[v] & r & live
                while h:
                    u = h & -h
                    h ^= u
                    w = u.bit_length() - 1
                    slack[w] -= 1
                    if slack[w] < 0:
                        live ^= u
                nodes += 1
                if feasible(uncoloured[i + 1], live):
                    held[i] = c
                    i += 1
                    c = 0
                    continue
            elif i:  # no colour left at depth i: back up to depth i - 1
                i -= 1
                c = held[i]
                v = rest[i]
            else:
                return None
            # undo v's place in class c, then try the next colour at depth i
            blocked[c] = saved[i]
            members[c] ^= 1 << v
            size[c] -= 1
            h = lost[i]
            live |= h
            while h:
                u = h & -h
                h ^= u
                slack[u.bit_length() - 1] += 1
            c += 1
        colouring = list(head[:-1]) + [0] * m
        for v, c in zip(rest, held):
            colouring[v] = c + 1
        return colouring
    finally:
        p.nodes += nodes


def _settled(p: _Prepared, j: int) -> int:
    """The first vertex after j that a first solution of `_b_search` with a
    head ending at j (j = -1 for no head) may not hold at its least colour.
    The vertices from j + 1 up to it come first, in index order, in the
    order that search colours in after j; as the first solution is the
    smallest completion along that order (see `_b_search`), each of them
    holds its least colour."""
    b = j + 1
    for u in p.order:
        if u > j:
            if u != b:
                break
            b += 1
    return b


def _admissible(adj: list[int], live: int, k: int, s: int) -> int:
    """U(k, s), the union of the admissible cliques of s vertices (see the
    singleton rule in `_b_search`), for the live vertices at k.

    Every vertex of an admissible clique is in ones, the live vertices
    with k - 1 live neighbours.  For each vertex v of ones not yet in U, a
    depth-first search on an explicit stack looks for one admissible clique
    that holds v; the first one found adds all its vertices to U.  A frame
    is a clique K that holds v, its candidates (vertices of ones adjacent
    to all of K; a vertex added to K keeps only the candidates above it,
    so each clique is met once), common, the live vertices adjacent to all
    of K, and d = |K| + 1.  A candidate u extends K only when d plus
    |common & N(u)| is at least k: each of the s - d vertices still to add
    after u is in that set and leaves it, and k - s must stay.  K + u is
    then admissible when d = s, and otherwise a frame when d plus its
    candidates reaches s.
    """
    ones = sum(1 << v for v in range(len(adj))
               if live >> v & 1 and (adj[v] & live).bit_count() >= k - 1)
    if s == 1:  # each vertex of ones is an admissible clique by itself
        return ones
    union = 0
    todo = ones
    while todo:
        v = todo & -todo
        todo ^= v
        w = v.bit_length() - 1
        stack = [(v, ones & adj[w], live & adj[w], 2)]
        while stack:
            clique, cand, common, d = stack.pop()
            while cand:
                u = cand & -cand
                cand ^= u
                w = u.bit_length() - 1
                shared = common & adj[w]
                if d + shared.bit_count() < k:
                    continue
                if d == s:  # clique | u is admissible
                    union |= clique | u
                    todo &= ~union
                    stack.clear()
                    break
                further = cand & adj[w]
                if d + further.bit_count() >= s:
                    stack.append((clique | u, further, shared, d + 1))
    return union
