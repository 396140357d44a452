import pytest

import bchrom as b
from bchrom.graphs import GraphError


def test_build_graph_dedupes_and_normalizes():
    g = b.build_graph(3, [(1, 2), (2, 1), (3, 2)])
    assert g.n == 3
    assert g.sorted_edges() == [(1, 2), (2, 3)]


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        b.build_graph(2, [(1, 1)])


def test_build_graph_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError):
        b.build_graph(2, [(1, 3)])
    with pytest.raises(GraphError):
        b.build_graph(0, [])


@pytest.mark.parametrize("n, edges", [
    (0, frozenset()),
    ("3", frozenset()),
    (3, frozenset({(1, 5)})),
    (3, frozenset({(2, 1)})),
    (3, frozenset({(2, 2)})),
    (3, frozenset({(1, 2.5)})),
    (3, frozenset({(True, 2)})),
    (True, frozenset()),
])
def test_graph_checks_its_own_invariant(n, edges):
    with pytest.raises(GraphError):
        b.Graph(n, edges)


def test_graph_stores_its_edges_as_a_frozenset():
    # edges given as a list, with a repeated pair, or as an iterator make the
    # graph that build_graph makes: hashable, equal, and written back as is
    built = b.build_graph(3, [(1, 2), (2, 3)])
    for edges in ([(1, 2), (2, 3)], ((1, 2), (1, 2), (2, 3)), iter([(1, 2), (2, 3)])):
        g = b.Graph(3, edges)
        assert type(g.edges) is frozenset and g.m == 2
        assert g == built and hash(g) == hash(built)
        text = b.format_graph(g, "edgelist")
        assert text == b.format_graph(built, "edgelist")
        assert b.parse_graph(text, "edgelist") == g
    # a frozenset is kept as it is
    edges = frozenset({(1, 2)})
    assert b.Graph(2, edges).edges is edges
    # every edge of an iterator is checked
    with pytest.raises(GraphError):
        b.Graph(3, iter([(1, 2), (3, 1)]))


def test_edge_endpoints_must_be_ints():
    # an endpoint that only compares like an int is not enough: the search
    # indexes lists with it and calls int methods on it
    with pytest.raises(GraphError, match="not a pair of integers"):
        b.build_graph(3, [(1, 2.5), (2.5, 3)])
    np = pytest.importorskip("numpy")
    with pytest.raises(GraphError, match="not a pair of integers"):
        b.build_graph(3, [(np.int64(1), np.int64(2))])


def test_generators_leave_the_vertex_count_to_the_type():
    import random

    for make in (b.path, b.complete, lambda n: b.random_connected_graph(n, random.Random(0))):
        with pytest.raises(GraphError, match="^vertex count must be a positive integer, got 0$"):
            make(0)


def test_single_vertex_graph():
    g = b.build_graph(1, [])
    assert g.n == 1 and g.m == 0 and g.connected


@pytest.mark.parametrize("n", range(1, 9))
def test_path_counts(n):
    g = b.path(n)
    assert (g.n, g.m) == (n, n - 1)
    assert g.connected


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_counts(n):
    g = b.cycle(n)
    assert (g.n, g.m) == (n, n)
    assert all(g.degree(v) == 2 for v in g.vertices())


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_counts(n):
    g = b.complete(n)
    assert (g.n, g.m) == (n, n * (n - 1) // 2)


def test_complete_bipartite_counts():
    g = b.complete_bipartite(2, 3)
    assert (g.n, g.m) == (5, 6)
    # parts are independent sets
    assert not g.has_edge(1, 2) and not g.has_edge(3, 4)


@pytest.mark.parametrize("n", range(3, 9))
def test_wheel_counts_and_hub(n):
    g = b.wheel(n)
    assert (g.n, g.m) == (n + 1, 2 * n)
    hub = n + 1
    assert g.degree(hub) == n
    assert all(g.has_edge(hub, v) for v in range(1, n + 1))


@pytest.mark.parametrize("n", range(3, 9))
def test_sunlet_counts_and_pendants(n):
    g = b.sunlet(n)
    assert (g.n, g.m) == (2 * n, 2 * n)
    for i in range(1, n + 1):
        assert g.degree(n + i) == 1
        assert g.has_edge(i, n + i)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_ladder_counts_and_rungs(n):
    g = b.closed_ladder(n)
    assert (g.n, g.m) == (2 * n, 3 * n)
    for i in range(1, n + 1):
        assert g.has_edge(i, n + i)
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_corona_with_k1_examples():
    s3 = b.corona_with_k1(b.cycle(3))
    assert (s3.n, s3.m) == (6, 6)
    assert b.corona_with_k1(b.cycle(5)).n == 10
    p2 = b.corona_with_k1(b.path(2))
    assert (p2.n, p2.m) == (4, 3)


def test_corona_general_counts():
    g = b.corona(b.path(2), b.path(2))
    # each of 2 vertices gains a joined copy of P2
    assert (g.n, g.m) == (6, 1 + 2 * (1 + 2))


def test_cartesian_product_edge_count():
    g, h = b.cycle(3), b.path(2)
    prod = b.cartesian_product(g, h)
    assert (prod.n, prod.m) == (6, g.m * h.n + h.m * g.n)
    cl4 = b.cartesian_product(b.cycle(4), b.path(2))
    assert (cl4.n, cl4.m) == (8, 12)


def test_product_matches_closed_ladder_numbering():
    assert b.cartesian_product(b.cycle(5), b.path(2)) == b.closed_ladder(5)


def test_max_degree_examples():
    assert b.max_degree(b.path(5)) == 2
    assert b.max_degree(b.wheel(6)) == 6
    assert b.max_degree(b.sunlet(4)) == 3
    assert b.max_degree(b.wheel(7)) == 7


def test_generators_deterministic():
    for gen, n in [(b.path, 6), (b.cycle, 6), (b.wheel, 5), (b.sunlet, 4),
                   (b.closed_ladder, 4), (b.complete, 5)]:
        assert gen(n) == gen(n)


def test_parameter_minimums_enforced():
    with pytest.raises(GraphError):
        b.cycle(2)
    with pytest.raises(GraphError):
        b.wheel(2)
    with pytest.raises(GraphError):
        b.path(0)
    with pytest.raises(GraphError):
        b.complete_bipartite(0, 2)
    # built on a cycle, whose own error would name the wrong family
    with pytest.raises(GraphError, match="^sunlet requires cycle length n >= 3$"):
        b.sunlet(2)
    with pytest.raises(GraphError, match="^closed-ladder requires cycle length n >= 3$"):
        b.closed_ladder(2)


def test_random_connected_graph_deterministic():
    import random

    g1 = b.random_connected_graph(7, random.Random(11), 0.4)
    g2 = b.random_connected_graph(7, random.Random(11), 0.4)
    assert g1 == g2 and g1.connected


def test_random_connected_graph_gives_up_after_its_tries():
    import random

    # p = 0 never joins the two vertices, so every one of the 10,000 draws fails
    with pytest.raises(GraphError, match="^no connected sample after 10000 tries"):
        b.random_connected_graph(2, random.Random(0), 0.0)
