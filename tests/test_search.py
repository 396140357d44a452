import ast
import random
import sys
import types
from dataclasses import replace
from fractions import Fraction as F
from functools import cache
from itertools import combinations, groupby, permutations, product
from math import factorial
from pathlib import Path

import pytest

import bchrom as b
from bchrom import (
    DisconnectedGraphError,
    NoBColouringError,
    SearchCapError,
    kernel,
    m_degree,
    oracle,
    search,
)
from bchrom.closed_forms import Family, generate, sweep
from bchrom.stats import _moments


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


_FILTERED_SIX = {"wheel(5)", "sunlet(3)", "closed-ladder(3)", "random#9"}


@cache
def _b_colourings_by_filter(g, k):
    """Every assignment of colours 1..k in lexicographic order, kept when
    it is a b-colouring of g."""
    return [a for a in product(range(1, k + 1), repeat=g.n)
            if b.is_b_colouring(g, b.Colouring(k, a))]


def test_enumerate_matches_filtering_every_assignment():
    # a third reference that shares no code with the enumerator: every
    # assignment in lexicographic order, kept when it is a b-colouring.
    # Six-vertex graphs cost about 0.3 s each, so four of them are kept
    # (_FILTERED_SIX).  sunlet(4) colours its cycle, the only candidates at
    # k = 3 and 4, by depth 4, so the walk backs up at depths 4 to 7 when a
    # colour can no longer get a b-vertex
    cases = [(label, g, k) for label, g in _small_graphs()
             if g.n <= 5 or label in _FILTERED_SIX
             for k in range(1, g.n + 1)]
    cases += [("sunlet(4)", b.sunlet(4), 3), ("sunlet(4)", b.sunlet(4), 4)]
    checks = 0
    for label, g, k in cases:
        expected = [b.Colouring(k, a) for a in _b_colourings_by_filter(g, k)]
        assert list(b.enumerate_b_colourings(g, k)) == expected, (label, k)
        checks += bool(expected)
    assert checks >= 42


def test_naive_aggregates_match_filtering_every_assignment():
    # the aggregates read the canonical stream and relabel it; their third
    # reference is the tie-break applied by hand to every assignment that
    # is a b-colouring, on the graphs of the filter test above, for every k
    cases = [(label, g) for label, g in _small_graphs() if g.n <= 5 or label in _FILTERED_SIX]
    checks = 0
    for label, g in cases:
        found = {k: _b_colourings_by_filter(g, k) for k in range(1, g.n + 1)}
        assert b.naive_b_chromatic_number(g) == max(k for k in found if found[k]), label
        for k, assignments in found.items():
            if not assignments:
                with pytest.raises(NoBColouringError):
                    b.naive_extremal(g, k)
                continue

            def sizes(a):
                return b.Colouring(k, a).strengths()

            def stats(a):
                return b.stats_from_strengths(sizes(a))

            low = min(assignments, key=lambda a: (stats(a), sizes(a), a))
            high = min(assignments, key=lambda a: (-stats(a).mean, stats(a).variance,
                                                   sizes(a), a))
            assert b.naive_extremal(g, k) == (b.Colouring(k, low), stats(low),
                                              b.Colouring(k, high), stats(high)), (label, k)
            checks += 1
    assert checks >= 40


def test_enumerate_stream_sizes_on_twelve_vertices():
    # past the filter's reach: the streams at phi = 4 of two 12-vertex
    # graphs, in strictly increasing order.  The canonical stream, which
    # the aggregates read, has its colours first appear in the order 1..4,
    # and relabelling it every way gives the labelled stream, 4! times its
    # size (219 * 24 = 5,256 and 339 * 24 = 8,136)
    for g, size, canonical_size in ((b.sunlet(6), 5256, 219), (b.closed_ladder(6), 8136, 339)):
        stream = [c.colours for c in b.enumerate_b_colourings(g, 4)]
        assert len(stream) == size
        assert all(a < c for a, c in zip(stream, stream[1:]))
        canonical = list(oracle._proper_colourings_walk(g, 4, 1))
        assert len(canonical) == canonical_size
        assert all([*dict.fromkeys(a)] == [1, 2, 3, 4] for a in canonical)
        assert sorted(tuple(perm[c - 1] for c in a) for a in canonical
                      for perm in permutations((1, 2, 3, 4))) == stream


def test_enumerate_validates_at_the_call():
    # the cap and k are checked before the first colouring is asked for
    with pytest.raises(SearchCapError):
        b.enumerate_b_colourings(b.path(13), 3)
    # a k that is not an int >= 1 raises here, not on the first next()
    for k in (0, 2.0, 2.5, True):
        with pytest.raises(ValueError, match="colour count"):
            b.enumerate_b_colourings(b.path(3), k)


def _referenced_names(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def test_oracle_shares_no_code_with_the_pruned_search():
    # the oracle certifies the pruned search, so it must not run any of it.
    # oracle.py imports only the standard library, graphs and stats ...
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in {"graphs", "stats"}, node.module
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert all(name.split(".")[0] in sys.stdlib_module_names for name in names), names
    # ... search holds none of the oracle's names but the one it imports ...
    functions = {name: fn for name, fn in vars(oracle).items()
                 if isinstance(fn, types.FunctionType) and fn.__module__ == oracle.__name__}
    assert set(functions) == {"enumerate_b_colourings", "_proper_colourings_walk",
                              "_least_relabellings", "naive_b_chromatic_number",
                              "naive_extremal"}
    own = set(functions) | {"DEFAULT_ORACLE_CAP"}
    assert {name for name, value in vars(search).items() if name in own
            or getattr(value, "__module__", None) == oracle.__name__} == {"enumerate_b_colourings"}
    assert search.enumerate_b_colourings is oracle.enumerate_b_colourings
    # ... the two routes share only these names, so moving a piece of the
    # pruned search into graphs or stats needs an edit here ...
    shared = {"Graph", "Colouring", "ChromaStats", "NoBColouringError", "_check_caps",
              "_check_k", "m_degree", "stats_from_strengths", "enumerate_b_colourings",
              "annotations"}
    pruned = {name for name in set(vars(search)) | set(vars(kernel))
              if not (name.startswith("__") and name.endswith("__"))}
    assert pruned & set(vars(oracle)) == shared
    # ... and the oracle's functions name nothing else that search or kernel binds
    forbidden = ({"search", "kernel"} | pruned) - shared
    assert {"_b_search", "_build", "_Prepared", "_realize", "full_report"} <= forbidden
    for name, fn in functions.items():
        assert not _referenced_names(fn.__code__) & forbidden, name


def test_search_reads_nothing_of_the_kernel_order():
    # the order a search colours in, and so what its first solution
    # settles, is read in kernel.py only: no function of search.py names
    # order, and the callers of realize pass on the bound each witness
    # comes with from the scan
    functions = {name: fn for name, fn in vars(search).items()
                 if isinstance(fn, types.FunctionType) and fn.__module__ == search.__name__}
    assert "_realize" in functions and search._settled is kernel._settled
    for name, fn in functions.items():
        assert "order" not in _referenced_names(fn.__code__), name
    tree = ast.parse(Path(search.__file__).read_text(encoding="utf-8"))
    callers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in {"full_report", "min_mean_b_colouring", "max_mean_b_colouring"}}
    assert len(callers) == 3
    for name, node in callers.items():
        assert "_settled" not in _referenced_names(functions[name].__code__), name
        realizes = [call for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == "_realize"]
        assert realizes and all(
            [type(arg) for arg in call.args] == [ast.Name, ast.Starred] for call in realizes), name


def test_settled_is_the_first_vertex_a_later_one_precedes():
    # kernel._settled(p, j) is the first vertex u > j that some w > u
    # precedes in p.order, or n when there is none: a fact about the order
    # alone, with no reference to j, that any other order must keep
    graphs = _small_graphs() + _small_graphs(max_vertices=16, draws=0)
    for label, g in graphs:
        p = kernel._build(g)
        position = {v: i for i, v in enumerate(p.order)}
        for j in range(-1, g.n):
            first = next((u for u in range(j + 1, g.n) if any(
                position[w] < position[u] for w in range(u + 1, g.n))), g.n)
            assert kernel._settled(p, j) == first, (label, j)
    assert len(graphs) > 100


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


def test_extremal_tie_break_on_strength_vector(monkeypatch):
    # (9,5,5,1) and (8,8,2,2) share mean 19/10 and variance 89/100 at
    # n = 20, the first tie between non-increasing size vectors; a fake
    # search admits only those two, so the tie-break alone picks the sizes
    def fake_search(p, k, caps, head=()):
        if tuple(sorted(caps, reverse=True)) not in {(9, 5, 5, 1), (8, 8, 2, 2)}:
            return None
        return [c for c, size in enumerate(caps, start=1) for _ in range(size)]

    monkeypatch.setattr(search, "_b_search", fake_search)
    col, _ = b.min_mean_b_colouring(b.path(20), 4)
    assert col.strengths() == (8, 8, 2, 2)
    col, _ = b.max_mean_b_colouring(b.path(20), 4)
    assert col.strengths() == (1, 5, 5, 9)


def test_no_b_colouring_raises():
    with pytest.raises(NoBColouringError):
        b.min_mean_b_colouring(b.cycle(4), 3)
    with pytest.raises(NoBColouringError):
        b.max_mean_b_colouring(b.path(4), 3)
    # k above m_degree: fewer than k vertices can be b-vertices, so the
    # capped search refutes every size vector
    with pytest.raises(NoBColouringError):
        b.min_mean_b_colouring(b.path(5), 4)
    # k > n: there is no candidate size vector at all
    with pytest.raises(NoBColouringError):
        b.max_mean_b_colouring(b.path(3), 5)
    with pytest.raises(ValueError):
        b.min_mean_b_colouring(b.path(3), 0)
    # a k that is not an int is refused by name, before any search
    for k in (2.5, True):
        with pytest.raises(ValueError, match=f"colour count must be an int >= 1, got {k}"):
            b.min_mean_b_colouring(b.path(3), k)
    # the naive oracle refuses the same pairs
    for g, k in [(b.cycle(4), 3), (b.path(4), 3), (b.path(5), 4), (b.path(3), 5)]:
        with pytest.raises(NoBColouringError):
            b.naive_extremal(g, k)
    with pytest.raises(ValueError):
        b.naive_extremal(b.path(3), 0)


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


def _gnp_draws():
    """The 20 random-gnp benchmark draws at n = 16."""
    rng = random.Random(16)
    return [b.random_connected_graph(16, rng, rng.uniform(0.2, 0.35)) for _ in range(20)]


def test_full_report_node_counts_are_pinned():
    # exact counts, so that a change to the search that moves them shows;
    # without the pooled count of the classes waiting for an uncoloured
    # b-vertex, draws[0] takes 1,528 nodes and draws[16] 2,966; without the
    # singleton rule, sunlet(8) takes 1,562, draws[0] 3,816, sunlet(11)
    # 8,932, draws[16] 3,613 and sunlet(16) 46,619; when it admitted to a
    # class of one vertex any vertex with k - 1 live neighbours, whatever
    # the other classes of one, sunlet(8) took 302, closed_ladder(8) 3,271,
    # draws[0] 3,680, sunlet(11) 1,519, draws[16] 2,024, sunlet(16) 770
    # and closed_ladder(16) 28,026.  When realize searched every vertex,
    # not only those its witness leaves unsettled, sunlet(8) took 281,
    # closed_ladder(8) 3,230, sunlet(11) 1,494, draws[16] 2,017, sunlet(16)
    # 745, closed_ladder(16) 27,937 and the square of a path 32,031.  The
    # square of a path (i ~ i+1, i+2) at 24 vertices is the baseline of a
    # wall: 373,081 nodes at 28 vertices and 2,077,469 at 32
    draws = _gnp_draws()
    square = b.build_graph(24, [(i, j) for i in range(1, 25) for j in (i + 1, i + 2) if j <= 24])
    for g, nodes in ((b.wheel(10), 237), (b.sunlet(8), 176), (b.closed_ladder(8), 3161),
                     (draws[0], 1445), (b.sunlet(11), 804), (draws[16], 1853),
                     (b.sunlet(16), 440), (b.closed_ladder(16), 27548), (square, 31777)):
        assert b.full_report(g).nodes_explored == nodes, g


def test_partitions_desc_matches_brute_force():
    # every non-increasing vector of positive parts, once each, against a
    # filter over all vectors; the enumerator keeps its prefixes on a
    # stack, so a thousand parts (K_1000 at k = 1000) meet no recursion limit
    for total in range(1, 7):
        for parts in range(1, total + 1):
            for largest in range(1, total + 1):
                expected = {t for t in product(range(1, largest + 1), repeat=parts)
                            if sum(t) == total and list(t) == sorted(t, reverse=True)}
                found = search._partitions_desc(total, parts, largest)
                assert len(found) == len(expected) and set(found) == expected
    assert search._partitions_desc(1000, 1000, 1) == [(1,) * 1000]


def test_moment_ranking_matches_the_statistics():
    # the scan ranks its candidates by (m1, m2), then by the vector: at a
    # fixed total that is the order and the grouping of (mean, variance)
    for n in range(1, 21):
        for k in range(1, n + 1):
            candidates = search._partitions_desc(n, k, n)
            by_moments = sorted(candidates, key=lambda t: (_moments(t), t))
            by_stats = sorted(candidates, key=lambda t: (b.stats_from_strengths(t), t))
            assert by_moments == by_stats, (n, k)
            assert [len(list(group)) for _, group in groupby(by_moments, _moments)] == \
                   [len(list(group)) for _, group in groupby(by_stats, b.stats_from_strengths)]
    # two vectors of 20 with equal mean and variance fall in one group
    assert _moments((9, 5, 5, 1)) == _moments((8, 8, 2, 2)) == (38, 90)
    assert b.stats_from_strengths((9, 5, 5, 1)) == b.stats_from_strengths((8, 8, 2, 2))


def test_independence_cut_refutes_capped_classes():
    # class 1 of cycle(32) can reach 16 only as one of the two alternate
    # halves, which the independence cut sees long before the last vertex;
    # without the cut this refutation takes 23,426 nodes
    p = search._prepare(b.cycle(32), None, False)
    assert search._b_search(p, 3, (16, 14, 2)) is None and p.nodes == 1529
    # the scan of closed_ladder(12) refutes 8 size vectors before its hit:
    # 147,396 nodes without the cut
    p = search._prepare(b.closed_ladder(12), None, False)
    search._extremal_witnesses(p, 4)
    assert p.nodes == 10804


def test_random_21_vertex_report_nodes_are_pinned():
    # the 21-vertex draw of the random-gnp benchmark: its scan refutes
    # vectors that end in classes of one vertex, where the last-joiner cut
    # admits only a vertex that can be the class's b-vertex; 56,781
    # nodes without that cut, 70,311 without the pooled count of the
    # classes waiting for an uncoloured b-vertex, 54,645 without the
    # singleton rule and 39,406 with it for one class of one vertex at a time
    rng = random.Random(21)
    g = b.random_connected_graph(21, rng, rng.uniform(0.2, 0.35))
    r = b.full_report(g)
    assert (r.chi, r.phi, r.nodes_explored) == (4, 6, 38311)


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


def test_naive_extremal_tie_break_on_strength_vector(monkeypatch):
    # the sizes of test_extremal_tie_break_on_strength_vector: (9,5,5,1)
    # ties (8,8,2,2) at the min end and (2,2,8,8) ties (1,5,5,9) at the
    # max end; relabelling reaches every arrangement of both, and each end
    # meets the vector that must lose first
    def fake_stream(g, k, root):
        # canonical colourings, as the aggregates read them
        for sizes in [(9, 5, 5, 1), (2, 2, 8, 8), (8, 8, 2, 2), (1, 5, 5, 9)]:
            yield tuple(c for c, size in enumerate(sizes, start=1) for _ in range(size))

    monkeypatch.setattr(oracle, "_proper_colourings_walk", fake_stream)
    min_c, _, max_c, _ = b.naive_extremal(b.path(20), 4, max_n=20)
    assert min_c.strengths() == (8, 8, 2, 2)
    assert max_c.strengths() == (1, 5, 5, 9)


def test_oracle_certifies_past_twelve_vertices():
    # the canonical stream takes each of these 14-vertex graphs in well
    # under a second, past the default cap of 12 (raised here with max_n)
    for g in (b.sunlet(7), b.closed_ladder(7), b.wheel(13), b.path(14), b.cycle(14)):
        assert g.n > b.DEFAULT_ORACLE_CAP
        r = b.full_report(g)
        phi = b.naive_b_chromatic_number(g, max_n=g.n)
        assert (r.phi, r.min_colouring, r.min_stats, r.max_colouring, r.max_stats) == \
               (phi, *b.naive_extremal(g, phi, max_n=g.n)), g


def _small_graphs(max_vertices=7, draws=30):
    """Every family instance and `draws` seeded random connected graphs,
    each with at most max_vertices vertices."""
    out = []
    for family in Family:
        for n in range(1, max_vertices + 1):
            try:
                g = generate(family, n)
            except ValueError:
                continue
            if g.n <= max_vertices:
                out.append((f"{family.value}({n})", g))
    rng = random.Random(20261018)
    for i in range(draws):
        g = b.random_connected_graph(rng.randint(2, max_vertices), rng, rng.uniform(0.3, 0.8))
        out.append((f"random#{i}", g))
    return out


def test_a_class_of_one_vertex_takes_only_a_vertex_with_k_minus_1_live_neighbours():
    # a class {x} has x as its b-vertex, and every other class's b-vertex
    # sees x's colour: x has k - 1 neighbours of degree >= k - 1.  No
    # sunlet vertex has three, so at k = 4 U(4, 1) is empty and a vector
    # ending in 1 is refuted with no node; (14, 9, 4, 1) took 13,465 nodes
    # without the rule
    p = search._prepare(b.sunlet(14), None, False)
    ending_in_1 = [t for t in search._partitions_desc(28, 4, 14) if t[-1] == 1]
    assert (14, 9, 4, 1) in ending_in_1
    for theta in ending_in_1:
        assert search._b_search(p, 4, theta) is None and p.nodes == 0, theta
    assert set(p.slack[4][2]) == {1, 2} and set(p.slack[4][2].values()) == {0}
    # the whole scan of sunlet(16): 46,163 nodes without the rule
    p = search._prepare(b.sunlet(16), None, False)
    search._extremal_witnesses(p, 4)
    assert p.nodes == 289
    # p.slack[k][2] maps s to U(k, s), built by the first capped search at
    # k with s caps equal to 1: a free search, as chi and phi run, never
    # reads it.  U(k, 1) is ones, the live vertices with k - 1 live
    # neighbours, and U(k, s) lies within it.  The rule binds on part of
    # the oracle's corpus, so the oracle tests below check it
    binding = 0
    for _, g in _small_graphs():
        p = search._prepare(g, None, False)
        for k in range(1, g.n + 1):
            search._b_search(p, k, None)
            assert p.slack[k][2] == {}
            theta = (g.n - k + 1,) + (1,) * (k - 1)
            search._b_search(p, k, theta)
            live, _, singles = p.slack[k]
            assert set(singles) == {theta.count(1)} - {0}
            ones = sum(1 << v for v in range(g.n)
                       if live >> v & 1 and (p.adj[v] & live).bit_count() >= k - 1)
            assert kernel._admissible(p.adj, live, k, 1) == ones
            assert all(not u & ~ones for u in singles.values())
            binding += any(u != live for u in singles.values())
    assert binding > 0


def _admissible_by_brute_force(adj, k, s):
    """U(k, s) from its definition: the union of the s-sets of vertices of
    degree >= k - 1 that are cliques and have k - s common neighbours of
    degree >= k - 1."""
    live = [v for v in range(len(adj)) if adj[v].bit_count() >= k - 1]
    live_mask = sum(1 << v for v in live)
    union = 0
    for clique in combinations(live, s):
        common = live_mask
        for v in clique:
            common &= adj[v]
        if all(adj[u] >> v & 1 for u, v in combinations(clique, 2)) and \
                common.bit_count() >= k - s:
            union |= sum(1 << v for v in clique)
    return union


def test_singleton_rule_is_exact_against_the_oracle():
    # for every k and every size vector in both label orders, the capped
    # search refutes exactly the vectors that no b-colouring of the oracle
    # has.  U(k, s), as the search builds it, is the union of admissible
    # cliques by their definition, and holds the vertices of the classes of
    # size 1 of every b-colouring with s of them (the singleton rule's
    # lemma).  When U(k, s) is empty, the search returns with no node
    checks = early = singletons = 0
    for label, g in _small_graphs():
        p = search._prepare(g, None, False)
        for k in range(1, g.n + 1):
            colourings = list(b.enumerate_b_colourings(g, k))
            sizes = {c.strengths() for c in colourings}
            thetas = {t for theta in search._partitions_desc(g.n, k, g.n)
                      for t in (theta, theta[::-1])}
            for theta in sorted(thetas):
                before = p.nodes
                found = search._b_search(p, k, theta)
                assert (found is None) == (theta not in sizes), (label, k, theta)
                s = theta.count(1)
                if s and not p.slack[k][2][s]:
                    assert p.nodes == before, (label, k, theta)
                    early += 1
                checks += 1
            for s, union in p.slack[k][2].items():
                assert union == _admissible_by_brute_force(p.adj, k, s), (label, k, s)
            for c in colourings:
                ones = [v for v in range(g.n) if c.strengths()[c.colours[v] - 1] == 1]
                if ones:
                    assert all(p.slack[k][2][len(ones)] >> v & 1 for v in ones), (label, c)
                    singletons += 1
    assert checks >= 600 and singletons >= 7000 and early >= 150, (checks, singletons, early)


def test_admissible_cliques_of_a_complete_graph():
    # K_32 at k = 32 has one size vector, all ones, and U(32, 32) is the
    # one clique of all 32 vertices: the clique search drops every branch
    # that cannot reach 32 vertices, so it walks one path, not 2^32 sets
    assert b.full_report(b.complete(32)).nodes_explored == 624
    p = search._prepare(b.complete(32), None, False)
    assert search._b_search(p, 32, (1,) * 32) == list(range(1, 33))
    assert p.slack[32][2] == {32: 2 ** 32 - 1}
    for s in range(1, 33):
        assert kernel._admissible(p.adj, p.slack[32][0], 32, s) == 2 ** 32 - 1, s


def test_prefix_search_is_exact_against_the_oracle():
    # the empty head and every head of one or two colours, proper or not,
    # in free mode and for every size vector in both orientations.  With
    # head = () the identity-order search finds the lexicographically
    # smallest b-colouring the oracle lists, and the degree-order search
    # refutes exactly when the oracle lists none.  Otherwise head[:-1]
    # fixes the first vertices and head[-1] bounds the colour of vertex
    # j = len(head) - 1: the identity-order search finds the first
    # colouring the oracle lists with prefix head[:-1] and a colour below
    # the bound at j, and the degree-order search gives j the smallest such
    # colour the oracle allows
    checks = 0
    for label, g in _small_graphs():
        degree_order = search._prepare(g, None, False)
        identity = replace(degree_order, order=list(range(g.n)))
        for k in range(1, g.n + 1):
            # (sizes or None, prefix) -> first colouring listed
            first = {}
            for c in b.enumerate_b_colourings(g, k):
                for j in (0, 1, 2):
                    for caps in (None, c.strengths()):
                        first.setdefault((caps, c.colours[:j]), c.colours)
            thetas = {t for theta in search._partitions_desc(g.n, k, g.n)
                      for t in (theta, theta[::-1])}
            heads = [()] + [h for j in range(1, min(2, g.n) + 1)
                            for h in product(range(1, k + 1), repeat=j)]
            for caps in [None] + sorted(thetas):
                for head in heads:
                    where = f"{label}, k={k}, caps={caps}, head={head}"
                    prefix = head[:-1]
                    j = len(prefix)
                    if head:
                        least = next((c for c in range(1, head[-1])
                                      if (caps, prefix + (c,)) in first), None)
                        expected = first.get((caps, prefix + (least,)))
                    else:
                        expected = first.get((caps, ()))
                    found = search._b_search(identity, k, caps, head)
                    assert (found and tuple(found)) == expected, where
                    found = search._b_search(degree_order, k, caps, head)
                    assert (found is None) == (expected is None), where
                    if found is not None:
                        assert not head or found[j] == least, where
                        colouring = b.Colouring(k, tuple(found))
                        assert colouring.colours[:j] == prefix, where
                        assert b.is_b_colouring(g, colouring), where
                        assert caps is None or colouring.strengths() == caps, where
                    checks += 1
    assert checks >= 10800


def test_a_bounded_vertex_with_no_open_colour_explores_no_node():
    # when no colour below head[-1] is open to the bounded vertex j, the
    # colour loop finds none at depth 0 and the search returns None with
    # no node explored.  A capped search whose s caps equal to 1 have no
    # admissible clique returns even before it replays the head: a copy
    # whose order is None gives the answer without raising
    def no_node(p, k, caps, head):
        before = p.nodes
        assert search._b_search(p, k, caps, head) is None and p.nodes == before, (k, caps, head)

    path4 = search._prepare(b.path(4), None, False)  # edges 0-1, 1-2, 2-3
    no_node(path4, 2, (2, 2), (1, 2))     # colour 1 is held by j's neighbour 0
    no_node(path4, 2, (1, 3), (1, 2, 2))  # class 1 is full, and 2 is not next to 0
    # the equal-caps rule shuts a colour only above an empty label with
    # the same cap, and the lowest empty label of such a run is open: so
    # it never shuts every colour below the bound by itself.  Here colour
    # 1 is held by a neighbour, colour 3 is shut by the rule and colour 2
    # is open, so the search explores a node
    path6 = search._prepare(b.path(6), None, False)
    search._b_search(path6, 3, (2, 2, 2), (1, 4))
    assert path6.nodes > 0
    # every head of up to three colours, proper and within caps, on the
    # small graphs: the search explores no node exactly when each colour
    # below the bound is shut by one of the three reasons, or the caps
    # have no admissible clique (the fourth reason), each applied here
    # apart from the kernel
    shut_by = {"neighbour": 0, "full": 0, "equal caps": 0, "no admissible clique": 0}
    early = 0
    for label, g in _small_graphs(max_vertices=6, draws=10):
        p = search._prepare(g, None, False)
        for k in range(1, min(g.n, 4) + 1):
            thetas = {t for theta in search._partitions_desc(g.n, k, g.n)
                      for t in (theta, theta[::-1])}
            for caps in [None] + sorted(thetas):
                cap = caps or (g.n,) * k
                s = cap.count(1)
                no_clique = bool(s) and not _admissible_by_brute_force(p.adj, k, s)
                for head in (h for length in (1, 2, 3) if length <= g.n
                             for h in product(range(1, k + 1), repeat=length)):
                    fixed, j = head[:-1], len(head) - 1
                    if any(fixed[u] == fixed[v] for v in range(j) for u in range(v)
                           if p.adj[v] >> u & 1) or \
                            any(fixed.count(c) > cap[c - 1] for c in range(1, k + 1)):
                        continue  # _b_search takes only a proper head within caps
                    reasons = []
                    for c in range(1, head[-1]):
                        if any(fixed[u] == c for u in range(j) if p.adj[j] >> u & 1):
                            reasons.append("neighbour")
                        elif fixed.count(c) == cap[c - 1]:
                            reasons.append("full")
                        elif c > 1 and cap[c - 2] == cap[c - 1] and c - 1 not in fixed \
                                and c not in fixed:
                            reasons.append("equal caps")
                    for reason in reasons:
                        shut_by[reason] += 1
                    shut_by["no admissible clique"] += no_clique
                    where = f"{label}, k={k}, caps={caps}, head={head}"
                    if no_clique:
                        q = replace(p, order=None, nodes=0)
                        assert search._b_search(q, k, caps, head) is None and q.nodes == 0, where
                    if no_clique or len(reasons) == head[-1] - 1:
                        no_node(p, k, caps, head)
                        early += 1
                    else:
                        before = p.nodes
                        search._b_search(p, k, caps, head)
                        assert p.nodes > before, where
    assert early > 1000 and min(shut_by.values()) > 100, (early, shut_by)


def test_realizers_past_the_oracle_match_the_identity_order_search():
    # 13 to 15 vertices, past the naive oracle's cap: each realizer of
    # full_report is the first solution of the identity-order search with
    # its sizes, the lexicographically smallest b-colouring with them; the
    # scan's witnesses are b-colourings with those sizes, the max end's
    # being a hit (non-increasing sizes) with its labels reversed
    rng = random.Random(20261019)
    for _ in range(30):
        g = b.random_connected_graph(rng.randint(13, 15), rng, rng.uniform(0.2, 0.5))
        r = b.full_report(g)
        p = search._prepare(g, None, False)
        (low, _), (high, _) = search._extremal_witnesses(p, r.phi)
        for witness, realizer in ((low, r.min_colouring), (high, r.max_colouring)):
            sizes = realizer.strengths()
            found = search._b_search(replace(p, order=list(range(g.n))), r.phi, sizes)
            assert tuple(found) == realizer.colours, g
            assert b.is_b_colouring(g, witness) and witness.strengths() == sizes, g
        assert list(r.max_colouring.strengths()) == sorted(r.max_colouring.strengths())


def test_independence_number_matches_brute_force():
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randint(1, 14)
        density = rng.random()
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        # independent[s]: no two vertices of the set s are adjacent
        independent = [True] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            independent[s] = independent[s ^ low] and not adj[low.bit_length() - 1] & s
        expected = max(s.bit_count() for s in range(1 << n) if independent[s])
        assert search._independence_number(adj) == expected, adj
    # long paths and cycles, whose vertices mostly have one remaining
    # neighbour when branched on
    assert search._independence_number(search._prepare(b.path(400), 400, False).adj) == 200
    assert search._independence_number(search._prepare(b.cycle(61), 61, False).adj) == 30


def test_free_search_above_m_degree_refutes_at_the_first_node():
    # fewer than k vertices have degree >= k - 1: the first vertex can
    # only open class 1, and that node fails the cuts, in degree order and
    # in identity order.  The pooled count refutes it when no class is
    # already left without a candidate: the empty classes, and class 1 too
    # when its vertex is not live, wait for an uncoloured b-vertex, and the
    # fewer than k live vertices leave them fewer candidates than classes
    checks = 0
    for _, g in _small_graphs(max_vertices=12, draws=40):
        p = search._prepare(g, None, False)
        for k in range(m_degree(g) + 1, g.n + 1):
            for q in (p, replace(p, order=list(range(g.n)))):
                q.nodes = 0
                assert search._b_search(q, k, None) is None, (g, k)
                assert q.nodes == 1, (g, k, q.order)
                checks += 1
    assert checks > 400


def test_first_k_is_exact():
    # chi and phi are the first and the last k with a free b-colouring,
    # each k settled by one degree-order search.  The graphs are the small
    # ones, the family ladder up to 24 vertices and the random-gnp draws
    # at n = 16; up to 12 vertices phi also equals the oracle's
    checks = 0
    gnp = [(f"gnp#{i}", g) for i, g in enumerate(_gnp_draws())]
    for label, g in _small_graphs() + _small_graphs(max_vertices=24, draws=0) + gnp:
        p = search._prepare(g, None, False)
        found = []
        for k in range(1, m_degree(g) + 1):
            colours = search._b_search(p, k, None)
            if colours is not None:
                assert b.is_b_colouring(g, b.Colouring(k, tuple(colours))), (label, k)
                found.append(k)
            checks += 1
        assert (search._chi(p), search._phi(g, p)) == (found[0], found[-1]), label
        if g.n <= 12:
            assert found[-1] == b.naive_b_chromatic_number(g), label
    assert checks > 300


def test_odd_sunlet_phi_tail():
    # without the counting cut these take 1,476,271 and 13,286,075 phi
    # nodes in degree order
    for n, nodes in ((13, 41), (15, 45)):
        g = b.sunlet(n)
        p = search._prepare(g, None, False)
        assert search._phi(g, p) == 4 and p.nodes == nodes, n
        assert b.b_chromatic_number(g) == 4, n


def test_random_22_vertex_phi_nodes_are_pinned():
    # the 22-vertex draw of the random-gnp benchmark: 323,962 phi nodes
    # when degree order raced a second order without the counting cut
    rng = random.Random(22)
    g = b.random_connected_graph(22, rng, rng.uniform(0.2, 0.35))
    p = search._prepare(g, None, False)
    assert search._phi(g, p) == 8 and p.nodes == 3384


def _record_b_search(monkeypatch):
    """Patch search._b_search to record each call's (k, caps, head) in the
    returned list, then run the real search."""
    real = search._b_search
    calls = []

    def recording(p, k, caps, head=()):
        calls.append((k, caps, head))
        return real(p, k, caps, head)

    monkeypatch.setattr(search, "_b_search", recording)
    return calls


def test_phi_search_tries_no_k_above_m_degree(monkeypatch):
    gnp = _gnp_draws()[0]
    calls = _record_b_search(monkeypatch)
    for g in (b.wheel(10), b.wheel(30), gnp, b.sunlet(11)):
        calls.clear()
        phi = b.b_chromatic_number(g)
        # phi runs one search for each k from m_degree down to phi
        tried = [k for k, _, _ in calls]
        assert tried == list(range(m_degree(g), phi - 1, -1)), (g.n, tried)
        b.full_report(g)
        tried = [k for k, _, _ in calls]
        assert max(tried) <= m_degree(g), (g.n, sorted(set(tried)))


def test_realize_passes_a_proper_head_within_caps(monkeypatch):
    # _b_search replays head[:-1] without checking it: realize must pass a
    # prefix that is proper and has no class past its cap, and it runs at
    # most one search per vertex
    gnp = _gnp_draws()[0]
    cases = []
    for g in (b.wheel(30), b.sunlet(8), b.closed_ladder(8), gnp):
        p = search._prepare(g, None, False)
        k = b.b_chromatic_number(g)
        cases += [(p, *witness) for witness in search._extremal_witnesses(p, k)]
    calls = _record_b_search(monkeypatch)
    searched = 0
    for p, witness, settled in cases:
        calls.clear()
        search._realize(p, witness, settled)
        assert len(calls) <= len(p.adj), (len(p.adj), [len(head) for *_, head in calls])
        for _, caps, head in calls:
            fixed = head[:-1]
            for v, c in enumerate(fixed):
                assert all(fixed[u] != c for u in range(v) if p.adj[v] >> u & 1), (head, v)
            assert all(fixed.count(c) <= cap for c, cap in enumerate(caps, start=1)), (head, caps)
        searched += len(calls)
    assert searched


def _realize_every_vertex(p, witness):
    """Realize without a settled bound: one search for every vertex of
    colour above 1."""
    k, caps, colours = witness.k, witness.strengths(), witness.colours
    for v in range(len(p.adj)):
        if colours[v] > 1:
            found = search._b_search(p, k, caps, colours[:v + 1])
            if found is not None:
                colours = found
    return b.Colouring(k, colours)


def test_realize_skips_only_searches_that_would_fail(monkeypatch):
    # a first solution of _b_search is the lexicographically smallest
    # completion along the order it coloured in, so the vertices where that
    # order runs in index order already hold their least colours: against
    # a realize that searches every vertex, both witnesses realize to the
    # same colouring, in no more nodes
    families = {"path", "cycle", "wheel", "sunlet", "closed-ladder"}
    graphs = (_small_graphs() + [(f"gnp#{i}", g) for i, g in enumerate(_gnp_draws())]
              + [(label, g) for label, g in _small_graphs(max_vertices=16, draws=0)
                 if label.split("(")[0] in families])
    fewer = 0
    for label, g in graphs:
        p = search._prepare(g, None, False)
        for witness, settled in search._extremal_witnesses(p, search._phi(g, p)):
            before = p.nodes
            expected = _realize_every_vertex(p, witness)
            every = p.nodes - before
            before = p.nodes
            assert search._realize(p, witness, settled)[0] == expected, label
            assert p.nodes - before <= every, label
            fewer += p.nodes - before < every
    assert len(graphs) > 120 and fewer > 50, (len(graphs), fewer)
    # in degree order a regular graph's vertices, and a sunlet's rim and then
    # its pendants, run in index order: the scan's min witness is the
    # realizer, and realize runs no search
    calls = _record_b_search(monkeypatch)
    for g in (b.cycle(12), b.closed_ladder(8), b.sunlet(8)):
        p = search._prepare(g, None, False)
        (low, settled), _ = search._extremal_witnesses(p, search._phi(g, p))
        assert settled == g.n
        calls.clear()
        assert search._realize(p, low, settled)[0] == low and calls == [], g.n
        assert b.full_report(g).min_colouring == low, g.n


def test_cubic_graphs_past_the_oracle():
    # Jakovac & Klavzar (2010): every cubic graph has b-chromatic number 4
    # except four graphs, among them the prism, the Petersen graph and K3,3
    for n in range(4, 17):
        assert b.b_chromatic_number(b.closed_ladder(n)) == 4, n
    assert b.b_chromatic_number(b.closed_ladder(3)) == 3
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    petersen = b.build_graph(10, outer + inner + spokes)
    assert all(petersen.degree(v) == 3 for v in petersen.vertices())
    assert b.b_chromatic_number(petersen) == 3
    assert b.b_chromatic_number(b.complete_bipartite(3, 3)) == 2


def _crown(n):
    """K_{n,n} less a perfect matching: u_i = i and v_i = n + i, with
    u_i ~ v_j exactly when i != j."""
    return b.build_graph(2 * n, [(i, n + j) for i in range(1, n + 1)
                                 for j in range(1, n + 1) if i != j])


def test_crown_graphs_past_the_oracle():
    """crown(n) has chi 2 and phi n, and for n >= 3 every b-colouring of it
    with n colours has the classes {u_i, v_i}.

    Proof.  Each vertex has degree n - 1 = k - 1, so the neighbours of a
    b-vertex carry the n - 1 other colours, one each.  Some side, say U,
    holds two b-vertices, u_i of colour c and u_l of colour c'.  Then
    V - v_i carries every colour but c, and V - v_l every colour but c'.
    Their common part V - {v_i, v_l} has n - 2 vertices and carries the
    n - 2 colours other than c and c', so v_i has colour c and v_l colour
    c'.  Then V is rainbow, and each u_j can take only v_j's colour.

    So the only size vector at k = n is (2, ..., 2), both extremal means
    are (n + 1)/2 with variance (n^2 - 1)/12, and both realizers colour
    the pairs 1..n in vertex order.  The search is checked against this up
    to 20 vertices, and the theorem itself against the oracle's stream on
    crown(3) and crown(4).
    """
    for n in range(3, 11):
        g = _crown(n)
        p = search._prepare(g, None, False)
        vectors = search._partitions_desc(2 * n, n, n)
        assert [t for t in vectors if search._b_search(p, n, t) is not None] == [(2,) * n], n
        r = b.full_report(g)
        pairs = b.Colouring(n, tuple(range(1, n + 1)) * 2)
        assert (r.chi, r.phi, r.min_colouring, r.max_colouring) == (2, n, pairs, pairs), n
        assert r.min_stats == r.max_stats == b.ChromaStats(F(n + 1, 2), F(n * n - 1, 12)), n
    for n in (3, 4):
        pairings = [c.colours for c in b.enumerate_b_colourings(_crown(n), n)]
        assert len(pairings) == factorial(n)
        assert all(c[:n] == c[n:] for c in pairings), n


def test_hypercube_b_spectra():
    # Q3 has b-colourings with 2 and 4 colours but none with 3, so it is
    # not b-continuous; Q4's b-spectrum is 2..5 and its phi is 5.  Each k
    # is settled by one free search; the oracle agrees on Q3
    q3 = b.cartesian_product(b.cycle(4), b.path(2))
    q4 = b.cartesian_product(q3, b.path(2))
    for g, spectrum in ((q3, [2, 4]), (q4, [2, 3, 4, 5])):
        assert all(g.degree(v) == g.n.bit_length() - 1 for v in g.vertices())
        p = search._prepare(g, None, False)
        assert [k for k in range(1, g.n + 1) if search._b_search(p, k, None) is not None] == spectrum
    assert [k for k in range(1, 9) if next(b.enumerate_b_colourings(q3, k), None)] == [2, 4]
    assert b.b_chromatic_number(q4) == 5


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one stack frame per vertex would overflow Python's limit of 1000
    assert b.b_chromatic_number(b.path(1000), max_n=1000) == 3


def test_cap_below_one_is_malformed():
    g = b.path(3)
    for call in (b.chromatic_number, b.b_chromatic_number, b.full_report,
                 b.naive_b_chromatic_number):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            call(g, max_n=0)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        sweep(Family.PATH, range(2, 5), max_n=-1)


def test_neighbourhood_tables_match_the_adjacency():
    # t0, t1, t2 each hold w = ceil(n/3) vertices, so three lookups cover
    # every vertex: up to 33 vertices as lists with an entry per subset of
    # the chunk's vertices, past that as dicts filled at each first lookup.
    # The lookup of a vertex set S is the union of adj over S
    rng = random.Random(5)
    for n in (*range(1, 41), 60, 100, 1000):
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < (0.3 if n <= 60 else 3 / n)]
        p = kernel._build(b.graphs.build_graph(n, edges))
        t0, t1, t2, w, mask = p.nbhd

        def union(vertices):
            out = 0
            for u in vertices:
                out |= p.adj[u]
            return out

        assert (w, mask) == (-(-n // 3), 2 ** w - 1)
        for j, table in enumerate((t0, t1, t2)):
            vertices = range(j * w, min(j * w + w, n))
            if w <= 11:
                assert type(table) is list and len(table) == 2 ** len(vertices), (n, j)
            else:
                assert isinstance(table, dict) and not table, (n, j)
            size = len(vertices)
            for m in {0, 2 ** size - 1, *(rng.getrandbits(size) for _ in range(40))}:
                assert table[m] == union(u for i, u in enumerate(vertices) if m >> i & 1), (n, j, m)
        for s in [1 << u for u in range(n)] + [rng.getrandbits(n) for _ in range(40)]:
            looked_up = t0[s & mask] | t1[s >> w & mask] | t2[s >> 2 * w & mask]
            assert looked_up == union(u for u in range(n) if s >> u & 1), (n, s)
    # path(1000)'s phi reads 1,168 entries of its three 334-vertex chunks
    g = b.path(1000)
    p = search._prepare(g, 1000, False)
    assert search._phi(g, p) == 3
    assert sum(len(table) for table in p.nbhd[:3]) == 1168
