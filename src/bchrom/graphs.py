"""Simple undirected graphs: validated construction, family generators, products.

Vertices are numbered 1..n throughout (DIMACS convention).  Graphs are
immutable after construction and every operation here is pure, so instances
can be shared freely between threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    """Malformed graph construction input (bad endpoint, self-loop, bad size).

    `Graph` itself raises it for a vertex count or an edge that breaks its
    invariant, `build_graph` for a self-loop, and the generators for family
    parameters below their minimum.
    """


class SearchCapError(RuntimeError):
    """Instance exceeds the configured vertex cap."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    Edges are stored as a frozenset of (u, v) pairs with u < v, built from
    any iterable of such pairs, so a pair given twice is one edge and no
    self-loop can be represented.  Construction checks this invariant,
    n >= 1 and each edge a pair 1 <= u < v <= n, all of them exactly int
    (not a float, a bool or a NumPy integer), so every `Graph` holds it;
    use `build_graph` for pairs in either order.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if type(self.n) is not int or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        for e in self.edges:
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                    and 1 <= e[0] < e[1] <= self.n):
                raise GraphError(f"edge {e!r} is not a pair of integers 1 <= u < v <= {self.n}")

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """adjacency[v] is the neighbour set of vertex v (index 0 unused)."""
        nbrs: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def connected(self) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def build_graph(n: int, edges) -> Graph:
    """Build a graph from a vertex count and an iterable of endpoint pairs.

    Duplicate edges (in either orientation) are deduplicated and a
    self-loop raises GraphError here; `Graph` checks the vertex count and
    the endpoints' range.
    """
    normalized = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        normalized.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(normalized))


def max_degree(g: Graph) -> int:
    return max(g.degree(v) for v in g.vertices())


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


def _check_caps(n: int, max_n: int | None, default: int) -> None:
    cap = default if max_n is None else max_n
    if cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {cap}")
    if n > cap:
        raise SearchCapError(f"graph has {n} vertices, cap is {cap}")


# ---------------------------------------------------------------------------
# Family generators.  Vertex numbering is deterministic and documented so the
# same family parameters always produce identical edge sets.
# ---------------------------------------------------------------------------

def path(n: int) -> Graph:
    """Path on n vertices, numbered 1..n in traversal order."""
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, numbered 1..n in traversal order."""
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    return build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part one is 1..a, part two is a+1..a+b."""
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite requires a, b >= 1")
    return build_graph(a + b, [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)])


def wheel(n: int) -> Graph:
    """Wheel with an n-cycle rim (vertices 1..n) plus hub n+1 joined to the rim."""
    if n < 3:
        raise GraphError("wheel requires rim size n >= 3")
    spokes = [(i, n + 1) for i in range(1, n + 1)]
    return build_graph(n + 1, [*cycle(n).edges, *spokes])


def corona(g: Graph, h: Graph) -> Graph:
    """Corona product: one copy of h per vertex of g, joined to that vertex.

    Copy i of h occupies vertices g.n + (i-1)*h.n + 1 .. g.n + i*h.n.
    """
    n = g.n + g.n * h.n
    edges = list(g.edges)
    for i in g.vertices():
        base = g.n + (i - 1) * h.n
        edges.extend((base + u, base + v) for u, v in h.edges)
        edges.extend((i, base + w) for w in h.vertices())
    return build_graph(n, edges)


def corona_with_k1(g: Graph) -> Graph:
    """Attach one pendant neighbour to every vertex; pendant of i is g.n + i."""
    return corona(g, complete(1))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u in g, w in h) is numbered (w-1)*g.n + u.

    With this numbering cartesian_product(cycle(n), path(2)) has inner cycle
    1..n and outer cycle n+1..2n with rungs i -- n+i.
    """
    def num(u: int, w: int) -> int:
        return (w - 1) * g.n + u

    edges = []
    for w in h.vertices():
        edges.extend((num(u1, w), num(u2, w)) for u1, u2 in g.edges)
    for u in g.vertices():
        edges.extend((num(u, w1), num(u, w2)) for w1, w2 in h.edges)
    return build_graph(g.n * h.n, edges)


def sunlet(n: int) -> Graph:
    """Cycle 1..n with pendant n+i attached to cycle vertex i (2n vertices)."""
    if n < 3:
        raise GraphError("sunlet requires cycle length n >= 3")
    return corona_with_k1(cycle(n))


def closed_ladder(n: int) -> Graph:
    """Prism over an n-cycle: inner cycle 1..n, outer copy n+1..2n."""
    if n < 3:
        raise GraphError("closed-ladder requires cycle length n >= 3")
    return cartesian_product(cycle(n), path(2))


_MAX_TRIES = 10_000


def random_connected_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) resampled until connected; deterministic given rng state."""
    for _ in range(_MAX_TRIES):
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        g = build_graph(n, edges)
        if g.connected:
            return g
    raise GraphError(f"no connected sample after {_MAX_TRIES} tries (n={n}, p={p})")
