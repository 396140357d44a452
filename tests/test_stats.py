from fractions import Fraction as F

import pytest

import bchrom as b
from bchrom.stats import ColouringMismatchError


def test_colouring_validation():
    with pytest.raises(ValueError):
        b.Colouring(2, (1, 3))
    with pytest.raises(ValueError):
        b.Colouring(0, ())
    # k and every colour are exactly int, so a float or a bool fails here,
    # not later in strengths()
    for k in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="colour count must be an int"):
            b.Colouring(k, (1, 1))
    for c in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="not an int in 1..2"):
            b.Colouring(2, (c, 2))
    c = b.Colouring(3, (1, 2, 3, 1))
    assert c.n == 4 and c.colour_of(4) == 1
    assert c.strengths() == (2, 1, 1)
    assert c.colour_class(1) == {1, 4}


def test_colouring_stores_its_colours_as_a_tuple():
    # colours given as a list or a generator are stored as a tuple, so the
    # forms are equal, hash, and a generator is not used up by the check
    listed = b.Colouring(2, [1, 2])
    assert type(listed.colours) is tuple
    assert listed == b.Colouring(2, (1, 2))
    assert hash(listed) == hash(b.Colouring(2, (1, 2)))
    generated = b.Colouring(2, (c for c in (1, 2)))
    assert generated.n == 2 and generated == listed


def test_is_proper_examples():
    assert b.is_proper(b.cycle(4), b.Colouring(2, (1, 2, 1, 2)))
    assert not b.is_proper(b.path(2), b.Colouring(1, (1, 1)))
    assert b.is_proper(b.complete(3), b.Colouring(3, (1, 2, 3)))


def test_vertex_set_mismatch():
    with pytest.raises(ColouringMismatchError):
        b.is_proper(b.path(3), b.Colouring(2, (1, 2)))
    with pytest.raises(ColouringMismatchError):
        b.distribution(b.path(3), b.Colouring(2, (1, 2, 1, 2)))


def test_is_b_colouring_examples():
    assert b.is_b_colouring(b.cycle(4), b.Colouring(2, (1, 2, 1, 2)))
    # colour-1 vertices of C4 never see colour 3 here
    assert not b.is_b_colouring(b.cycle(4), b.Colouring(3, (1, 2, 3, 2)))
    assert b.is_b_colouring(b.path(6), b.Colouring(3, (1, 2, 3, 1, 2, 1)))


def test_is_b_colouring_requires_all_colours_used():
    assert not b.is_b_colouring(b.cycle(4), b.Colouring(3, (1, 2, 1, 2)))


def test_monochromatic_k1_is_b_colouring():
    # no other classes, so the b-vertex condition is vacuous
    assert b.is_b_colouring(b.build_graph(1, []), b.Colouring(1, (1,)))


def test_b_vertices_examples():
    c4 = b.cycle(4)
    assert b.b_vertices(c4, b.Colouring(2, (1, 2, 1, 2)), 1) == {1, 3}
    assert b.b_vertices(c4, b.Colouring(3, (1, 2, 3, 2)), 1) == frozenset()
    k3 = b.complete(3)
    for colour in (1, 2, 3):
        assert b.b_vertices(k3, b.Colouring(3, (1, 2, 3)), colour) == {colour}
    with pytest.raises(ValueError):
        b.b_vertices(c4, b.Colouring(2, (1, 2, 1, 2)), 3)


def test_distribution_examples():
    d = b.distribution(b.path(3), b.Colouring(2, (1, 2, 1)))
    assert d.strengths == (2, 1)
    assert d.pmf == (F(2, 3), F(1, 3))

    d5 = b.distribution(b.complete(5), b.Colouring(5, (1, 2, 3, 4, 5)))
    assert all(f == F(1, 5) for f in d5.pmf)

    # improper assignments still have a well-defined p.m.f.
    mono = b.distribution(b.path(4), b.Colouring(1, (1, 1, 1, 1)))
    assert mono.pmf == (F(1),)


def test_distribution_lengths_must_match_k():
    # k, n and the p.m.f. are read from the class sizes, so they cannot disagree
    d = b.ColourDistribution((1, 1))
    assert (d.k, d.n, d.pmf) == (2, 2, (F(1, 2), F(1, 2)))
    assert d == b.distribution(b.path(2), b.Colouring(2, (1, 2)))
    # an unused colour stays an empty class instead of being silently dropped
    d3 = b.distribution(b.path(2), b.Colouring(3, (1, 2)))
    assert (d3.k, d3.strengths, d3.pmf) == (3, (1, 1, 0), (F(1, 2), F(1, 2), F(0)))


def test_colour_distribution_validates_its_sizes():
    # sizes given as a list are stored as a tuple, so the two forms are equal
    # and both hash
    listed = b.ColourDistribution([1, 1])
    assert listed.strengths == (1, 1) and type(listed.strengths) is tuple
    assert listed == b.ColourDistribution((1, 1))
    assert hash(listed) == hash(b.ColourDistribution((1, 1)))
    # sizes with no vertex, or a negative size, are refused at construction
    # with the ValueError that stats_from_strengths gives for them
    for sizes in ((0, 0), ()):
        with pytest.raises(ValueError, match="empty strength vector"):
            b.ColourDistribution(sizes)
        with pytest.raises(ValueError, match="empty strength vector"):
            b.stats_from_strengths(sizes)
    with pytest.raises(ValueError, match="negative class size"):
        b.ColourDistribution((3, -1))


def test_stats_from_strengths_reads_its_sizes_once():
    # an iterator of sizes gives the statistics of the same tuple
    assert b.stats_from_strengths(iter([2, 1])) == b.stats_from_strengths((2, 1))
    assert b.stats_from_strengths(t for t in (1, 1, 1)) == b.ChromaStats(F(2), F(2, 3))
    with pytest.raises(ValueError, match="negative class size"):
        b.stats_from_strengths(iter([3, -1]))


def test_mean_examples():
    d = b.distribution(b.path(3), b.Colouring(2, (1, 2, 1)))
    assert b.mean(d) == F(4, 3)
    d2 = b.distribution(b.path(2), b.Colouring(2, (1, 2)))
    assert b.mean(d2) == F(3, 2)
    for k in range(1, 7):
        uniform = b.stats_from_strengths((1,) * k)
        assert uniform.mean == F(k + 1, 2)
        assert uniform.variance == F(k * k - 1, 12)


def test_variance_examples():
    d = b.distribution(b.path(3), b.Colouring(2, (1, 2, 1)))
    assert b.variance(d) == F(2, 9)
    single = b.stats_from_strengths((7,))
    assert single.variance == 0
    # a class size below zero is no class at all; an empty class is one
    with pytest.raises(ValueError):
        b.stats_from_strengths((3, -1))
    with pytest.raises(ValueError):
        b.mean(b.ColourDistribution((3, -1)))
    assert b.stats_from_strengths((0, 2)) == b.ChromaStats(F(2), F(0))
    # statistics order by mean, then variance
    stats = [b.ChromaStats(F(2), F(1)), b.ChromaStats(F(1), F(5)), b.ChromaStats(F(2), F(0))]
    assert sorted(stats) == [stats[1], stats[2], stats[0]]


def test_normalization_is_exact():
    d = b.distribution(b.sunlet(4), b.Colouring(4, (1, 2, 3, 4, 3, 4, 1, 2)))
    assert sum(d.pmf) == 1


def test_reversal_identity():
    c = b.Colouring(3, (1, 2, 3, 1, 2, 1))
    g = b.path(6)
    s = b.colouring_stats(g, c)
    rs = b.colouring_stats(g, c.reversed_labels())
    assert rs.mean == c.k + 1 - s.mean
    assert rs.variance == s.variance


def test_popoviciu_bound_on_surjective_colourings():
    g = b.sunlet(4)
    for colours in [(1, 2, 3, 4, 3, 4, 1, 2), (1, 2, 1, 2, 2, 1, 2, 1)]:
        k = max(colours)
        st = b.colouring_stats(g, b.Colouring(k, colours))
        assert 1 <= st.mean <= k
        assert 0 <= st.variance <= F((k - 1) ** 2, 4)
