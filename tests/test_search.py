from fractions import Fraction as F

import pytest

import bchrom as b
from bchrom.search import (
    DisconnectedGraphError,
    NoBColouringError,
    SearchCapError,
    m_degree,
)


def test_chromatic_number_examples():
    assert b.chromatic_number(b.cycle(5)) == 3
    assert b.chromatic_number(b.complete(6)) == 6
    assert b.chromatic_number(b.cycle(6)) == 2
    assert b.chromatic_number(b.build_graph(1, [])) == 1
    assert b.chromatic_number(b.wheel(4)) == 3
    assert b.chromatic_number(b.wheel(5)) == 4
    assert b.chromatic_number(b.sunlet(5)) == 3
    assert b.chromatic_number(b.closed_ladder(4)) == 2
    assert b.chromatic_number(b.closed_ladder(5)) == 3
    # Mycielskian of C5 (Groetzsch graph): triangle-free, chromatic number 4;
    # 6..10 shadow 1..5 and 11 joins every shadow vertex
    cycle5 = [(i, i % 5 + 1) for i in range(1, 6)]
    shadows = [(u + 5, v) for u, v in cycle5] + [(v + 5, u) for u, v in cycle5]
    groetzsch = b.build_graph(11, cycle5 + shadows + [(w, 11) for w in range(6, 11)])
    assert b.chromatic_number(groetzsch) == 4
    assert b.chromatic_number(b.build_graph(3, []), allow_disconnected=True) == 1


def test_b_chromatic_number_examples():
    assert b.b_chromatic_number(b.path(5)) == 3
    assert b.b_chromatic_number(b.cycle(4)) == 2
    assert b.b_chromatic_number(b.sunlet(5)) == 3
    assert b.b_chromatic_number(b.complete(4)) == 4


def test_phi_of_path4_is_two():
    # the two interior vertices are the only possible b-vertices, so a
    # third colour class can never contain one
    assert b.b_chromatic_number(b.path(4)) == 2
    assert list(b.enumerate_b_colourings(b.path(4), 3)) == []


def test_enumerate_examples():
    assert [c.colours for c in b.enumerate_b_colourings(b.cycle(4), 2)] == [
        (1, 2, 1, 2), (2, 1, 2, 1)]
    assert len(list(b.enumerate_b_colourings(b.complete(3), 3))) == 6
    assert len(list(b.enumerate_b_colourings(b.path(2), 2))) == 2


def test_enumerate_is_lexicographic_and_valid():
    g = b.sunlet(3)
    seen = list(b.enumerate_b_colourings(g, 3))
    assert seen == sorted(seen, key=lambda c: c.colours)
    assert len(set(seen)) == len(seen)
    assert all(b.is_b_colouring(g, c) for c in seen)


def test_min_mean_examples():
    _, st = b.min_mean_b_colouring(b.path(6), 3)
    assert st.mean == F(5, 3) and st.variance == F(5, 9)
    _, st = b.min_mean_b_colouring(b.complete(4), 4)
    assert st.mean == F(5, 2) and st.variance == F(5, 4)
    prism = b.cartesian_product(b.cycle(3), b.path(2))
    _, st = b.min_mean_b_colouring(prism, 3)
    assert st.mean == 2 and st.variance == F(2, 3)


def test_max_mean_examples():
    _, st = b.max_mean_b_colouring(b.path(6), 3)
    assert st.mean == 4 - F(5, 3)
    _, st_min = b.min_mean_b_colouring(b.complete(5), 5)
    _, st_max = b.max_mean_b_colouring(b.complete(5), 5)
    assert st_min == st_max
    _, st = b.max_mean_b_colouring(b.cycle(5), 3)
    assert st.mean == 4 - F(9, 5) and st.variance == F(14, 25)


def test_min_mean_returns_valid_colouring():
    g = b.wheel(6)
    col, st = b.min_mean_b_colouring(g, 4)
    assert b.is_b_colouring(g, col)
    assert b.colouring_stats(g, col) == st
    # realizer strengths are sorted non-increasing (rearrangement optimality)
    assert list(col.strengths()) == sorted(col.strengths(), reverse=True)


def test_max_mean_returns_valid_colouring():
    g = b.wheel(6)
    col, st = b.max_mean_b_colouring(g, 4)
    assert b.is_b_colouring(g, col)
    assert b.colouring_stats(g, col) == st
    assert list(col.strengths()) == sorted(col.strengths())


def test_no_b_colouring_raises():
    with pytest.raises(NoBColouringError):
        b.min_mean_b_colouring(b.cycle(4), 3)
    with pytest.raises(NoBColouringError):
        b.max_mean_b_colouring(b.path(4), 3)
    # k above m_degree: the search returns before exploring a node
    with pytest.raises(NoBColouringError):
        b.min_mean_b_colouring(b.path(5), 4)
    # k > n: there is no candidate size vector at all
    with pytest.raises(NoBColouringError):
        b.max_mean_b_colouring(b.path(3), 5)
    with pytest.raises(ValueError):
        b.min_mean_b_colouring(b.path(3), 0)


def test_full_report_examples():
    r = b.full_report(b.wheel(4))
    assert (r.phi, r.min_stats.mean, r.min_stats.variance) == (3, F(9, 5), F(14, 25))
    r = b.full_report(b.sunlet(4))
    assert (r.phi, r.min_stats.mean, r.min_stats.variance) == (4, F(5, 2), F(5, 4))
    r = b.full_report(b.path(2))
    assert (r.phi, r.min_stats.mean, r.min_stats.variance) == (2, F(3, 2), F(1, 4))


def test_full_report_invariants():
    for g in [b.path(7), b.cycle(6), b.wheel(5), b.sunlet(4), b.closed_ladder(4)]:
        r = b.full_report(g)
        assert r.chi <= r.phi <= b.max_degree(g) + 1
        assert r.min_stats.mean <= r.max_stats.mean
        assert b.is_b_colouring(g, r.min_colouring) and r.min_colouring.k == r.phi
        assert b.is_b_colouring(g, r.max_colouring) and r.max_colouring.k == r.phi
        assert r.nodes_explored > 0


def test_full_report_deterministic():
    g = b.closed_ladder(5)
    r1, r2 = b.full_report(g), b.full_report(g)
    assert (r1.chi, r1.phi, r1.min_colouring, r1.max_colouring,
            r1.min_stats, r1.max_stats, r1.nodes_explored) == \
           (r2.chi, r2.phi, r2.min_colouring, r2.max_colouring,
            r2.min_stats, r2.max_stats, r2.nodes_explored)


def test_trivial_graph_report_warns():
    with pytest.warns(UserWarning, match="trivial"):
        r = b.full_report(b.build_graph(1, []))
    assert (r.chi, r.phi, r.min_stats.mean, r.min_stats.variance) == (1, 1, 1, 0)


def test_search_cap():
    big = b.path(33)
    with pytest.raises(SearchCapError):
        b.full_report(big)
    with pytest.raises(SearchCapError):
        b.chromatic_number(big)
    assert b.chromatic_number(big, max_n=40) == 2
    with pytest.raises(SearchCapError):
        list(b.enumerate_b_colourings(b.path(13), 3))
    assert b.naive_b_chromatic_number(b.path(13), max_n=13) == 3


def test_disconnected_gate():
    g = b.build_graph(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        b.full_report(g)
    r = b.full_report(g, allow_disconnected=True)
    assert r.chi == 2


def test_m_degree_bound_matches_unfiltered_oracle():
    # the degree bound used to shortcut the oracle must not change results:
    # no k it skips below the trivial bound has a b-colouring
    graphs = [b.path(5), b.cycle(6), b.wheel(4), b.complete(4),
              b.sunlet(3), b.build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])]
    for g in graphs:
        for k in range(m_degree(g) + 1, min(b.max_degree(g) + 1, g.n) + 1):
            assert next(b.enumerate_b_colourings(g, k), None) is None
        assert b.b_chromatic_number(g) <= m_degree(g)


def test_naive_extremal_tie_break_order():
    g = b.cycle(5)
    min_c, min_s, max_c, max_s = b.naive_extremal(g, 3)
    assert min_s.mean == F(9, 5) and max_s.mean == F(11, 5)
    assert min_s.variance == max_s.variance == F(14, 25)
    # the realizers are the lexicographically smallest optimal assignments
    all_colourings = list(b.enumerate_b_colourings(g, 3))
    best_min = min(c.colours for c in all_colourings
                   if b.colouring_stats(g, c) == min_s)
    assert min_c.colours == best_min
