"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Every expected value below was derived by brute force before being frozen:
naive enumeration certifies each closed-form instance up to the oracle's
12-vertex cap, and the pruned search (itself checked against the
enumeration on every one of those instances plus the random corpus)
covers the rest.
Printed-table rows that brute force refutes are asserted in criterion 2
with their oracle values rather than in criterion 1; the registered errata
table is the single source of truth for which rows those are.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import permutations


import bchrom as b
from bchrom.cli import main as cli_main
from bchrom.closed_forms import (
    Family,
    corrected_value,
    is_registered_erratum,
    printed_value,
)

from conftest import ACCEPTANCE_RANGES


def _announce(num: int, desc: str):
    class _Context:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            self.seconds = time.perf_counter() - self.t0
            print(f"ACCEPTANCE {num} ({desc}): {verdict} [{self.seconds:.1f}s]")
            return False

    return _Context()


# --- criterion 1: golden closed-form values ---------------------------------
# (family, n, mean, variance); None marks a field whose printed value is a
# registered erratum and is therefore asserted in criterion 2 instead.

GOLDEN: list[tuple[Family, int, F | None, F | None]] = []
GOLDEN += [(Family.PATH, 2, F(3, 2), F(1, 4)), (Family.PATH, 3, F(4, 3), F(2, 9))]
GOLDEN += [(Family.PATH, n, F(3 * n + 2, 2 * n), F(n * n + 8 * n - 4, 4 * n * n))
           for n in (6, 8, 10, 12)]
GOLDEN += [(Family.PATH, n, F(3 * n + 3, 2 * n), F(n * n + 8 * n - 9, 4 * n * n))
           for n in (5, 7, 9, 11)]
GOLDEN += [(Family.CYCLE, 4, F(3, 2), F(1, 4))]
GOLDEN += [(Family.CYCLE, n, F(3 * n + 3, 2 * n), F(n * n + 8 * n - 9, 4 * n * n))
           for n in (3, 5, 7, 9, 11)]
GOLDEN += [(Family.CYCLE, n, F(3 * n + 6, 2 * n), None) for n in (6, 8, 10)]
GOLDEN += [(Family.WHEEL, 4, F(9, 5), F(14, 25))]
GOLDEN += [(Family.WHEEL, n, F(3 * n + 14, 2 * n + 2), F(n * n + 42 * n - 80, 4 * (n + 1) ** 2))
           for n in (6, 8, 10)]
GOLDEN += [(Family.WHEEL, n, F(3 * n + 11, 2 * n + 2), F(n * n + 34 * n - 31, 4 * (n + 1) ** 2))
           for n in (5, 7, 9)]
GOLDEN += [(Family.SUNLET, 3, F(5, 3), F(5, 9)), (Family.SUNLET, 4, F(5, 2), F(5, 4))]
GOLDEN += [(Family.CLOSED_LADDER, 4, F(5, 2), F(5, 4)),
           (Family.CLOSED_LADDER, 5, F(23, 10), None),
           (Family.CLOSED_LADDER, 6, None, F(131, 144)),
           (Family.CLOSED_LADDER, 8, F(31, 16), F(207, 256))]
GOLDEN += [(Family.COMPLETE, n, F(n + 1, 2), F(n * n - 1, 12)) for n in range(1, 9)]


def test_criterion_1_golden_values(get_report, recwarn):
    with _announce(1, "golden printed closed-form values") as ctx:
        from bchrom.closed_forms import generate

        for family, n, mean_, var_ in GOLDEN:
            report = get_report(generate(family, n))
            pm, pv = printed_value(family, n)
            if mean_ is not None:
                assert pm == mean_, (family, n)
                assert report.min_stats.mean == mean_, (family, n)
            if var_ is not None:
                assert pv == var_, (family, n)
                assert report.min_stats.variance == var_, (family, n)
    assert ctx.seconds < 60


# --- criterion 2: errata reproduction (oracle-amended table) -----------------
# Field-level mismatch sets certified by brute force.  Three of these rows
# amend the originally hypothesised table, which missed that some printed
# colourings are not mean-minimal: path n=4 (no 3-colour b-colouring
# exists), sunlet n=5 and n>=6 (means too, not just variances), closed
# ladder n=6 (printed mean unachievable) and odd n>=7.

EXPECTED_MISMATCHES: dict[tuple[Family, int], set[str]] = {}
EXPECTED_MISMATCHES[(Family.PATH, 4)] = {"mean", "variance"}
for _n in (6, 8, 10):
    EXPECTED_MISMATCHES[(Family.CYCLE, _n)] = {"variance"}
EXPECTED_MISMATCHES[(Family.SUNLET, 5)] = {"mean", "variance"}
for _n in (6, 7, 8):
    EXPECTED_MISMATCHES[(Family.SUNLET, _n)] = {"mean", "variance"}
EXPECTED_MISMATCHES[(Family.CLOSED_LADDER, 3)] = {"mean", "variance"}
EXPECTED_MISMATCHES[(Family.CLOSED_LADDER, 5)] = {"variance"}
EXPECTED_MISMATCHES[(Family.CLOSED_LADDER, 6)] = {"mean"}
EXPECTED_MISMATCHES[(Family.CLOSED_LADDER, 7)] = {"mean", "variance"}

CORRECTED_SPOT_VALUES = [
    (Family.PATH, 4, F(3, 2), F(1, 4)),
    (Family.CYCLE, 6, F(2), F(2, 3)),
    (Family.CYCLE, 8, F(15, 8), F(39, 64)),
    (Family.CYCLE, 10, F(9, 5), F(14, 25)),
    (Family.SUNLET, 5, F(8, 5), F(11, 25)),
    (Family.SUNLET, 6, F(2), F(4, 3)),
    (Family.SUNLET, 7, F(27, 14), F(237, 196)),
    (Family.SUNLET, 8, F(15, 8), F(71, 64)),
    (Family.CLOSED_LADDER, 3, F(2), F(2, 3)),
    (Family.CLOSED_LADDER, 5, F(23, 10), F(121, 100)),
    (Family.CLOSED_LADDER, 6, F(25, 12), F(131, 144)),
    (Family.CLOSED_LADDER, 7, F(2), F(6, 7)),
]


def test_criterion_2_errata_reproduction(get_report, get_oracle, recwarn):
    with _announce(2, "errata reproduced exactly and only where registered") as ctx:
        from bchrom.closed_forms import generate

        observed: dict[tuple[Family, int], set[str]] = {}
        for family, ns in ACCEPTANCE_RANGES.items():
            for n in ns:
                report = get_report(generate(family, n))
                pm, pv = printed_value(family, n)
                cm, cv, _note = corrected_value(family, n)
                # the corrected table must equal exact search everywhere
                assert report.min_stats.mean == cm, (family, n)
                assert report.min_stats.variance == cv, (family, n)
                fields = set()
                if pm != cm:
                    fields.add("mean")
                if pv != cv:
                    fields.add("variance")
                if fields:
                    observed[(family, n)] = fields
                assert bool(fields) == is_registered_erratum(family, n), (family, n)
        assert observed == EXPECTED_MISMATCHES

        for family, n, cm, cv in CORRECTED_SPOT_VALUES:
            got = corrected_value(family, n)
            assert got[:2] == (cm, cv), (family, n)
            g = generate(family, n)
            if g.n <= b.DEFAULT_ORACLE_CAP:
                # independent naive confirmation of every reachable erratum row
                phi, _minc, mins, _maxc, _maxs = get_oracle(g)
                assert (mins.mean, mins.variance) == (cm, cv), (family, n)
    assert ctx.seconds < 60


# --- criterion 3: oracle equivalence -----------------------------------------
# Family instances with <= 12 vertices beyond the sweep ranges are included
# too, so the equivalence claim covers every family instance within the
# oracle's default cap but complete(10..12).  The oracle takes each of those
# in under a millisecond, but criterion 4 checks the same targets and walks
# all k! label permutations of each, 12! = 479,001,600 at complete(12).

def _extra_oracle_instances():
    return [b.cycle(12), b.wheel(3), b.wheel(11), b.complete(9)]


def _oracle_targets(family_instances, random_corpus):
    targets = [g for _f, _n, g in family_instances if g.n <= b.DEFAULT_ORACLE_CAP]
    targets += _extra_oracle_instances()
    return targets + list(random_corpus)


def test_criterion_3_oracle_equivalence(family_instances, random_corpus,
                                        get_report, get_oracle, recwarn):
    with _announce(3, "pruned search equals naive enumeration") as ctx:
        targets = _oracle_targets(family_instances, random_corpus)
        assert len(random_corpus) == 100
        assert all(4 <= g.n <= 9 for g in random_corpus)
        for g in targets:
            report = get_report(g)
            phi, min_c, min_s, max_c, max_s = get_oracle(g)
            assert report.phi == phi
            assert report.min_stats.mean == min_s.mean
            assert report.min_stats.variance == min_s.variance
            assert report.max_stats.mean == max_s.mean
            # stronger than required: identical realizers and max variance
            assert report.max_stats.variance == max_s.variance
            assert report.min_colouring == min_c
            assert report.max_colouring == max_c
    assert ctx.seconds < 300


# --- criterion 4: property suite ---------------------------------------------

def test_criterion_4_property_suite(family_instances, random_corpus,
                                    get_report, recwarn):
    with _announce(4, "search-result invariants") as ctx:
        graphs = _oracle_targets(family_instances, random_corpus)
        for g in graphs:
            r = get_report(g)
            k = r.phi
            assert r.chi <= r.phi <= b.max_degree(g) + 1
            for col, st in ((r.min_colouring, r.min_stats),
                            (r.max_colouring, r.max_stats)):
                assert col.k == k and b.is_b_colouring(g, col)
                d = b.distribution(g, col)
                assert sum(d.pmf) == 1
                assert (b.mean(d), b.variance(d)) == (st.mean, st.variance)
                assert 0 <= st.variance <= F((k - 1) ** 2, 4)
                assert 1 <= st.mean <= k
            # reversal duality
            assert r.max_stats.mean == k + 1 - r.min_stats.mean
            assert r.max_stats.variance == r.min_stats.variance
            # sorted labelling beats every other label permutation
            theta = r.min_colouring.strengths()
            perm_means = [sum(i * theta[p - 1] for i, p in enumerate(perm, start=1))
                          for perm in permutations(range(1, k + 1))]
            assert min(perm_means) == r.min_stats.mean * g.n
            theta_max = r.max_colouring.strengths()
            perm_means = [sum(i * theta_max[p - 1] for i, p in enumerate(perm, start=1))
                          for perm in permutations(range(1, k + 1))]
            assert max(perm_means) == r.max_stats.mean * g.n
    assert ctx.seconds < 120


# --- criterion 5: complete graphs follow the discrete uniform ----------------

def test_criterion_5_complete_graph_distribution(recwarn):
    with _announce(5, "every b-colouring of K_n is uniform") as ctx:
        import math

        for n in range(1, 9):
            g = b.complete(n)
            count = 0
            for col in b.enumerate_b_colourings(g, n):
                count += 1
                assert set(b.distribution(g, col).pmf) == {F(1, n)}
            assert count == math.factorial(n)
    assert ctx.seconds < 60


# --- criterion 6: CLI verify contract ----------------------------------------

def _run_verify(family: Family, ns: range) -> tuple[int, bytes]:
    buf = io.StringIO()
    argv = ["verify", "--family", family.value,
            "--range", f"{ns.start}..{ns.stop - 1}"]
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode()


def test_criterion_6_cli_verify_contract(recwarn):
    with _announce(6, "verify sweeps exit 0 with byte-identical JSON") as ctx:
        for family, ns in ACCEPTANCE_RANGES.items():
            code1, out1 = _run_verify(family, ns)
            code2, out2 = _run_verify(family, ns)
            assert code1 == code2 == 0, family
            assert out1 == out2, family
            record = json.loads(out1)
            assert record["status"] == "ok"
            flagged = {row["n"] for row in record["rows"] if row["errata"]}
            expected = {n for (fam, n) in EXPECTED_MISMATCHES if fam is family}
            assert flagged == expected, family
    assert ctx.seconds < 180
