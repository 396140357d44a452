"""Property-based invariants over random small graphs and colourings."""

from fractions import Fraction as F
from itertools import permutations

from hypothesis import given, settings, strategies as st

import bchrom as b


@st.composite
def connected_graphs(draw, max_n=7):
    """Random connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    order = draw(st.permutations(range(1, n + 1)))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((order[i], order[j]))
    possible = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=n))
    return b.build_graph(n, edges + extra)


@st.composite
def graphs_with_colourings(draw, max_n=7, surjective=False):
    g = draw(connected_graphs(max_n=max_n))
    k = draw(st.integers(min_value=1, max_value=g.n))
    colours = [draw(st.integers(min_value=1, max_value=k)) for _ in range(g.n)]
    if surjective:
        spots = draw(st.permutations(range(g.n)))
        for c, v in zip(range(1, k + 1), spots):
            colours[v] = c
    return g, b.Colouring(k, tuple(colours))


@given(graphs_with_colourings())
@settings(max_examples=80, deadline=None)
def test_pmf_sums_to_one_exactly(gc):
    g, c = gc
    assert sum(b.distribution(g, c).pmf) == 1


@given(graphs_with_colourings(surjective=True))
@settings(max_examples=80, deadline=None)
def test_moment_bounds_for_surjective_colourings(gc):
    g, c = gc
    s = b.colouring_stats(g, c)
    assert 1 <= s.mean <= c.k
    assert 0 <= s.variance <= F((c.k - 1) ** 2, 4)


@given(graphs_with_colourings(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_permutation_covariance(gc, rnd):
    g, c = gc
    perm = list(range(1, c.k + 1))
    rnd.shuffle(perm)
    mapping = {i + 1: p for i, p in enumerate(perm)}
    relabelled = c.relabelled(mapping)
    assert sorted(relabelled.strengths()) == sorted(c.strengths())
    d = b.distribution(g, c)
    assert b.mean(b.distribution(g, relabelled)) == sum(
        mapping[i] * f for i, f in enumerate(d.pmf, start=1))


@given(graphs_with_colourings())
@settings(max_examples=80, deadline=None)
def test_reversal_identity(gc):
    g, c = gc
    s = b.colouring_stats(g, c)
    r = b.colouring_stats(g, c.reversed_labels())
    assert r.mean == c.k + 1 - s.mean
    assert r.variance == s.variance


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_complete_graph_pmf_uniform(n, rnd):
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    g = b.complete(n)
    c = b.Colouring(n, tuple(perm))
    assert b.is_b_colouring(g, c)
    assert set(b.distribution(g, c).pmf) == {F(1, n)}


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_graph_io_round_trip(g):
    for fmt in ("dimacs", "edgelist"):
        assert b.parse_graph(b.format_graph(g, fmt), fmt) == g


@given(graphs_with_colourings(surjective=True))
@settings(max_examples=60, deadline=None)
def test_b_vertices_decomposition_matches_validator(gc):
    g, c = gc
    expected = (b.is_proper(g, c)
                and all(t > 0 for t in c.strengths())
                and all(b.b_vertices(g, c, col) for col in range(1, c.k + 1)))
    assert b.is_b_colouring(g, c) == expected


@given(connected_graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_search_agrees_with_oracle_on_random_graphs(g):
    phi = b.b_chromatic_number(g)
    assert b.chromatic_number(g) <= phi <= b.max_degree(g) + 1
    assert phi == b.naive_b_chromatic_number(g)
    min_c, min_s, max_c, max_s = b.naive_extremal(g, phi)
    col, st_min = b.min_mean_b_colouring(g, phi)
    assert (col, st_min) == (min_c, min_s)
    col, st_max = b.max_mean_b_colouring(g, phi)
    assert (col, st_max) == (max_c, max_s)


@given(connected_graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_sorted_labelling_minimises_over_permutations(g):
    phi = b.b_chromatic_number(g)
    col, st_min = b.min_mean_b_colouring(g, phi)
    base = col.strengths()
    means = [sum(i * base[p - 1] for i, p in enumerate(perm, start=1))
             for perm in permutations(range(1, phi + 1))]
    assert min(means) == st_min.mean * g.n


@given(connected_graphs(max_n=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_full_report_invariant_under_vertex_relabelling(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    h = b.build_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
    r, s = b.full_report(g), b.full_report(h)
    # the realizing colourings may differ; the statistics may not
    assert (r.chi, r.phi, r.min_stats, r.max_stats) == (s.chi, s.phi, s.min_stats, s.max_stats)
