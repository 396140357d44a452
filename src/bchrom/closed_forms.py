"""Closed-form minimum-mean b-colouring statistics for six graph families.

Two tables are kept side by side:

* ``printed_value`` evaluates the published case-split formulas exactly as
  printed, including their slips;
* ``corrected_value`` evaluates the forms certified by exhaustive search
  (naive enumeration through 12 vertices, the oracle's cap; beyond it the
  pruned exact search, which matches the enumeration wherever both run).

Wherever the two disagree the discrepancy is a registered erratum.  One row
of ``ERRATA_REGISTRY`` (n-condition text, printed and corrected text, note,
and the class sizes of a b-colouring attaining the corrected value) is the
only place an erratum is defined: its condition is read from the text and
its mean and variance are ``stats_from_strengths`` of the sizes.
``corrected_value``, ``is_registered_erratum`` and ``errata_table_csv`` all
read it.

sweep() returns one ``ClosedFormEntry`` per n, whose fields, in order, are
the columns ``bchrom sweep`` and ``bchrom verify`` print.  ``errata``: the
printed and corrected values differ.  ``consistent``: a fresh exact search
ran and matches the corrected table, and the row has errata exactly when a
registered erratum covers it, so a regression in either table is caught.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from io import StringIO
from typing import NamedTuple

from . import graphs
from .graphs import Graph, SearchCapError, _check_caps
from .io import write_csv
from .search import DEFAULT_SEARCH_CAP, full_report
from .stats import Colouring, _check_cover, stats_from_strengths


class Family(str, Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    WHEEL = "wheel"
    SUNLET = "sunlet"
    CLOSED_LADDER = "closed-ladder"


class _FamilySpec(NamedTuple):
    generator: Callable[[int], Graph]
    min_n: int                      # least n the printed tables define
    vertices: Callable[[int], int]  # vertex count of generator(n), unbuilt


_FAMILIES = {
    Family.PATH: _FamilySpec(graphs.path, 2, lambda n: n),
    Family.CYCLE: _FamilySpec(graphs.cycle, 3, lambda n: n),
    Family.COMPLETE: _FamilySpec(graphs.complete, 1, lambda n: n),
    Family.WHEEL: _FamilySpec(graphs.wheel, 3, lambda n: n + 1),  # n is the rim size
    Family.SUNLET: _FamilySpec(graphs.sunlet, 3, lambda n: 2 * n),
    Family.CLOSED_LADDER: _FamilySpec(graphs.closed_ladder, 3, lambda n: 2 * n),
}


def generate(family: Family, n: int) -> Graph:
    return _FAMILIES[Family(family)].generator(n)


def checked_generate(family, n: int, max_n: int | None = None,
                     colouring: Colouring | None = None) -> Graph:
    """generate(family, n), its vertex count checked before it is built:
    against the colouring's length when one is given, else against the
    search cap (max_n, default 32).  Below the family's least n nothing is
    checked, so the generator's own error about n comes first."""
    spec = _FAMILIES[Family(family)]
    if n >= spec.min_n:
        vertices = spec.vertices(n)
        if colouring is None:
            _check_caps(vertices, max_n, DEFAULT_SEARCH_CAP)
        else:
            _check_cover(vertices, colouring)
    return spec.generator(n)


def printed_value(family, n: int) -> tuple[Fraction, Fraction]:
    """Mean and variance exactly as printed, including known slips.

    The closed-ladder variance list prints no branch for n = 6; the value
    131/144 from the misaligned n = 5 row is used there (see the errata
    registry note).
    """
    family = Family(family)
    lo = _FAMILIES[family].min_n
    if n < lo:
        raise ValueError(f"{family.value} closed forms require n >= {lo}, got {n}")
    F = Fraction
    if family is Family.PATH:
        if n == 2:
            return F(3, 2), F(1, 4)
        if n == 3:
            return F(4, 3), F(2, 9)
        if n % 2 == 0:
            return F(3 * n + 2, 2 * n), F(n * n + 8 * n - 4, 4 * n * n)
        return F(3 * n + 3, 2 * n), F(n * n + 8 * n - 9, 4 * n * n)
    if family is Family.CYCLE:
        if n == 4:
            return F(3, 2), F(1, 4)
        if n % 2 == 0:
            return F(3 * n + 6, 2 * n), F(n * n + 16 * n + 36, 4 * n * n)
        return F(3 * n + 3, 2 * n), F(n * n + 8 * n - 9, 4 * n * n)
    if family is Family.COMPLETE:
        return F(n + 1, 2), F(n * n - 1, 12)
    if family is Family.WHEEL:
        if n == 4:
            return F(9, 5), F(14, 25)
        if n % 2 == 0:
            return F(3 * n + 14, 2 * n + 2), F(n * n + 42 * n - 80, 4 * (n + 1) ** 2)
        return F(3 * n + 11, 2 * n + 2), F(n * n + 34 * n - 31, 4 * (n + 1) ** 2)
    if family is Family.SUNLET:
        if n == 3:
            return F(5, 3), F(5, 9)
        if n == 4:
            return F(5, 2), F(5, 4)
        if n == 5:
            return F(17, 10), F(61, 100)
        return F(3 * n + 7, 2 * n), F(n * n + 35 * n - 49, 4 * n * n)
    if family is Family.CLOSED_LADDER:
        if n == 3:
            return F(5), F(2)
        if n == 4:
            return F(5, 2), F(5, 4)
        if n == 5:
            return F(23, 10), F(131, 144)
        if n == 6:
            return F(23, 12), F(131, 144)
        if n % 2 == 1:
            return F(3 * n + 8, 2 * n), F(n * n + 28 * n - 64, 4 * n * n)
        return F(3 * n + 7, 2 * n), F(n * n + 24 * n - 49, 4 * n * n)
    raise AssertionError(family)


_APPLIES_TO = re.compile(r"(?:(even|odd) )?n (=|>=) (\d+)")


@dataclass(frozen=True)
class ErratumRule:
    """One registered printed-vs-corrected discrepancy: the n-condition it
    covers, the class sizes of a b-colouring that attains the corrected
    (mean, variance) there, and why."""

    family: Family
    applies_to: str         # the n-condition: "n = m", "n >= m", "even n >= m", ...
    printed: str
    corrected: str
    note: str
    sizes: Callable[[int], tuple[int, ...]] = field(repr=False, compare=False)

    def condition(self, n: int) -> bool:
        """n meets applies_to."""
        parity, op, m = _APPLIES_TO.fullmatch(self.applies_to).groups()
        return ((n == int(m) if op == "=" else n >= int(m))
                and (parity is None or n % 2 == (parity == "odd")))

    def value(self, n: int) -> tuple[Fraction, Fraction]:
        """The corrected (mean, variance): the statistics of sizes(n)."""
        stats = stats_from_strengths(self.sizes(n))
        return stats.mean, stats.variance


ERRATA_REGISTRY: tuple[ErratumRule, ...] = (
    ErratumRule(
        Family.PATH, "n = 4", "mean 7/4, variance 11/16", "mean 3/2, variance 1/4",
        "the 4-path admits no b-colouring with 3 colours (both size-1 "
        "classes would need interior b-vertices, leaving the endpoint "
        "pair without one), so the 2-colour statistics apply",
        sizes=lambda n: (2, 2)),
    ErratumRule(
        Family.CYCLE, "even n >= 6", "variance (n^2+16n+36)/(4n^2)",
        "variance (n^2+16n-36)/(4n^2)",
        "constant term of the printed variance has the wrong sign; "
        "the printed class sizes ((n-2)/2, (n-2)/2, 2) themselves "
        "yield (n^2+16n-36)/(4n^2)",
        sizes=lambda n: ((n - 2) // 2, (n - 2) // 2, 2)),
    ErratumRule(
        Family.SUNLET, "n = 5", "mean 17/10, variance 61/100", "mean 8/5, variance 11/25",
        "printed class sizes (5,3,2) are not mean-minimal: sizes "
        "(5,4,1) admit a b-colouring with mean 8/5",
        sizes=lambda n: (5, 4, 1)),
    ErratumRule(
        Family.SUNLET, "n >= 6",
        "mean (3n+7)/(2n), variance (n^2+35n-49)/(4n^2)",
        "mean (3n+6)/(2n), variance (n^2+32n-36)/(4n^2)",
        "printed class sizes (n-1, n-3, 2, 2) are not mean-minimal: "
        "sizes (n, n-4, 2, 2) admit a b-colouring, giving mean "
        "(3n+6)/(2n) and variance (n^2+32n-36)/(4n^2)",
        sizes=lambda n: (n, n - 4, 2, 2)),
    ErratumRule(
        Family.CLOSED_LADDER, "n = 3", "mean 5, variance 2", "mean 2, variance 2/3",
        "printed mean 5 exceeds the largest colour index; the uniform "
        "three-class colouring gives mean 2 and variance 2/3 (the printed "
        "variance 2 is also inconsistent with that same colouring)",
        sizes=lambda n: (2, 2, 2)),
    ErratumRule(
        Family.CLOSED_LADDER, "n = 5", "variance 131/144", "variance 121/100",
        "printed variance list is misaligned: class sizes (3,3,2,2) give "
        "121/100 at n = 5",
        sizes=lambda n: (3, 3, 2, 2)),
    ErratumRule(
        Family.CLOSED_LADDER, "n = 6", "mean 23/12 (variance branch missing)",
        "mean 25/12, variance 131/144",
        "printed mean 23/12 corresponds to class sizes (5,4,2,1), which "
        "admit no b-colouring; the minimum uses (4,4,3,1) with mean 25/12. "
        "The printed variance list has no n = 6 branch; the misaligned "
        "value 131/144 happens to equal the corrected variance",
        sizes=lambda n: (4, 4, 3, 1)),
    ErratumRule(
        Family.CLOSED_LADDER, "odd n >= 7",
        "mean (3n+8)/(2n), variance (n^2+28n-64)/(4n^2)",
        "mean (3n+7)/(2n), variance (n^2+24n-49)/(4n^2)",
        "printed class sizes (n-2, n-3, 4, 1) are not mean-minimal for "
        "odd n >= 7: sizes (n-2, n-2, 3, 1) admit a b-colouring, so the "
        "even-case formulas hold for odd n as well",
        sizes=lambda n: (n - 2, n - 2, 3, 1)),
)


def _erratum(family: Family, n: int) -> ErratumRule | None:
    """The first registered rule of this family that covers n, if any."""
    return next((rule for rule in ERRATA_REGISTRY
                 if rule.family is family and rule.condition(n)), None)


def corrected_value(family, n: int) -> tuple[Fraction, Fraction, str]:
    """Search-certified mean and variance, with a note where they differ
    from the printed forms (empty note means the row has no erratum)."""
    family = Family(family)
    # no rule covers an n below the family's least n: printed_value rejects it
    rule = _erratum(family, n)
    if rule is None:
        return (*printed_value(family, n), "")
    return (*rule.value(n), rule.note)


def is_registered_erratum(family, n: int) -> bool:
    return _erratum(Family(family), n) is not None


def errata_table_csv() -> str:
    """The errata registry as a CSV table."""
    buf = StringIO()
    write_csv([{"family": rule.family.value, "applies_to": rule.applies_to,
                "printed": rule.printed, "corrected": rule.corrected, "note": rule.note}
               for rule in ERRATA_REGISTRY], buf)
    return buf.getvalue()


@dataclass(frozen=True)
class ClosedFormEntry:
    """One sweep row: both table values, the fresh search result and the
    flags of the module docstring, read from them.  A row has a registered
    erratum when it has a note, as corrected_value gives it."""

    family: Family
    n: int
    phi: int | None
    printed_mean: Fraction
    printed_variance: Fraction
    corrected_mean: Fraction
    corrected_variance: Fraction
    search_mean: Fraction | None
    search_variance: Fraction | None
    errata: bool = field(init=False)
    consistent: bool = field(init=False)
    note: str
    error: str = ""

    def __post_init__(self):
        errata = (self.printed_mean != self.corrected_mean
                  or self.printed_variance != self.corrected_variance)
        object.__setattr__(self, "errata", errata)
        object.__setattr__(self, "consistent", (
            not self.error
            and (self.search_mean, self.search_variance)
            == (self.corrected_mean, self.corrected_variance)
            and errata == bool(self.note)))


def sweep(family, ns, max_n: int | None = None) -> list[ClosedFormEntry]:
    """Evaluate both tables over a range of n and cross-check each row
    against exact search.  Cap overruns are recorded per row, not raised."""
    family = Family(family)
    entries = []
    for n in ns:
        pm, pv = printed_value(family, n)
        cm, cv, note = corrected_value(family, n)
        try:
            report = full_report(checked_generate(family, n, max_n), max_n=max_n)
            phi, sm, sv = report.phi, report.min_stats.mean, report.min_stats.variance
            error = ""
        except SearchCapError as exc:
            phi = sm = sv = None
            error = str(exc)
        entries.append(ClosedFormEntry(
            family=family, n=n, phi=phi,
            printed_mean=pm, printed_variance=pv,
            corrected_mean=cm, corrected_variance=cv,
            search_mean=sm, search_variance=sv,
            note=note, error=error))
    return entries
