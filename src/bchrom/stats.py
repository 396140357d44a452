"""Colourings and their exact statistics: p.m.f., mean, variance.

Every quantity is an exact rational (fractions.Fraction); nothing here ever
touches floating point, so equality checks against closed forms are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph


class ColouringMismatchError(ValueError):
    """Colouring does not cover exactly the vertex set of the graph."""


class NoBColouringError(ValueError):
    """The graph admits no b-colouring with the requested colour count."""


def _check_k(k) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"colour count must be an int >= 1, got {k!r}")


@dataclass(frozen=True)
class Colouring:
    """Total assignment of colours 1..k to vertices 1..n.

    colours[i] is the colour of vertex i+1.  Declared colour count k may
    exceed the number of colours actually used; surjectivity is checked by
    validators, not by the type.  The colours are stored as a tuple, and k
    and every colour must be exactly int (not a float or a bool), or
    ValueError is raised here rather than in a later statistic.
    """

    k: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if type(self.colours) is not tuple:  # the oracle builds one per colouring
            object.__setattr__(self, "colours", tuple(self.colours))
        _check_k(self.k)
        for i, c in enumerate(self.colours):
            if type(c) is not int or not 1 <= c <= self.k:
                raise ValueError(f"vertex {i + 1} has colour {c!r}, not an int in 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.colours)

    def colour_of(self, v: int) -> int:
        return self.colours[v - 1]

    def strengths(self) -> tuple[int, ...]:
        """Class cardinalities theta(c_1)..theta(c_k)."""
        out = [0] * self.k
        for c in self.colours:
            out[c - 1] += 1
        return tuple(out)

    def colour_class(self, colour: int) -> frozenset[int]:
        if not (1 <= colour <= self.k):
            raise ValueError(f"colour {colour} outside 1..{self.k}")
        return frozenset(v for v in range(1, self.n + 1) if self.colours[v - 1] == colour)

    def reversed_labels(self) -> "Colouring":
        """Replace each colour i by k+1-i (mirror of the labelling)."""
        return Colouring(self.k, (self.k + 1 - c for c in self.colours))

    def relabelled(self, perm: dict[int, int]) -> "Colouring":
        """Apply a colour permutation {old: new}."""
        return Colouring(self.k, (perm[c] for c in self.colours))


@dataclass(frozen=True)
class ColourDistribution:
    """Class sizes theta(c_1)..theta(c_k); k, n and the p.m.f.
    f(i) = theta(c_i) / n are read from them.  The sizes are stored as a
    tuple, and a negative size or a total of 0 raises ValueError."""

    strengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "strengths", tuple(self.strengths))
        _total(self.strengths)

    @property
    def k(self) -> int:
        return len(self.strengths)

    @property
    def n(self) -> int:
        return sum(self.strengths)

    @property
    def pmf(self) -> tuple[Fraction, ...]:
        n = self.n
        return tuple(Fraction(t, n) for t in self.strengths)


@dataclass(frozen=True, order=True)
class ChromaStats:
    """Exact mean and variance of the colour index of a random vertex,
    ordered by mean, then variance."""

    mean: Fraction
    variance: Fraction


def _check_cover(n: int, c: Colouring) -> None:
    if c.n != n:
        raise ColouringMismatchError(f"colouring covers {c.n} vertices, graph has {n}")


def is_proper(g: Graph, c: Colouring) -> bool:
    """True iff no edge of g is monochromatic under c."""
    _check_cover(g.n, c)
    return all(c.colours[u - 1] != c.colours[v - 1] for u, v in g.edges)


def b_vertices(g: Graph, c: Colouring, colour: int) -> frozenset[int]:
    """Vertices of the given class whose neighbourhood meets every other class.

    Diagnostic decomposition of the b-colouring condition: a class is
    b-valid iff this set is non-empty (vacuously so when k = 1).
    """
    _check_cover(g.n, c)
    # colours lie in 1..k, so k - 1 distinct others are all of them
    return frozenset(v for v in c.colour_class(colour)
                     if len({c.colours[w - 1] for w in g.adjacency[v]} - {colour}) == c.k - 1)


def is_b_colouring(g: Graph, c: Colouring) -> bool:
    """Proper, and every class 1..k has a b-vertex (so none is empty)."""
    return is_proper(g, c) and all(b_vertices(g, c, colour) for colour in range(1, c.k + 1))


def distribution(g: Graph, c: Colouring) -> ColourDistribution:
    """Class sizes of any assignment, proper or not; validity is checked
    separately so callers can compose."""
    _check_cover(g.n, c)
    return ColourDistribution(c.strengths())


def _total(strengths) -> int:
    """n, the sum of the class sizes; ValueError when a size is negative or
    there is no vertex at all."""
    if min(strengths, default=0) < 0:
        raise ValueError(f"negative class size in {strengths}")
    n = sum(strengths)
    if n == 0:
        raise ValueError("empty strength vector")
    return n


def _moments(strengths: tuple[int, ...]) -> tuple[int, int]:
    """(m1, m2) = (sum of i * theta_i, sum of i^2 * theta_i) over the labels
    i = 1..k, unchecked.  mean = m1 / n and variance = m2 / n - (m1 / n)^2,
    so among vectors with one total n, (m1, m2) orders and groups them as
    (mean, variance) do, in integers."""
    m1 = m2 = i = 0
    for t in strengths:
        i += 1
        m1 += i * t
        m2 += i * i * t
    return m1, m2


def stats_from_strengths(strengths) -> ChromaStats:
    """Mean/variance of the colour index when class i has the given size."""
    strengths = tuple(strengths)
    n = _total(strengths)
    m1, m2 = _moments(strengths)
    mean_ = Fraction(m1, n)
    return ChromaStats(mean_, Fraction(m2, n) - mean_ * mean_)


def mean(d: ColourDistribution) -> Fraction:
    """Sum of i * f(i) over colours, exact."""
    return stats_from_strengths(d.strengths).mean


def variance(d: ColourDistribution) -> Fraction:
    """Sum of i^2 * f(i) minus the squared mean, exact."""
    return stats_from_strengths(d.strengths).variance


def colouring_stats(g: Graph, c: Colouring) -> ChromaStats:
    """Mean/variance of a colouring of g (any assignment)."""
    return stats_from_strengths(distribution(g, c).strengths)
