import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

import bchrom as b
from bchrom.closed_forms import (
    _FAMILIES,
    ERRATA_REGISTRY,
    ClosedFormEntry,
    Family,
    corrected_value,
    errata_table_csv,
    generate,
    is_registered_erratum,
    printed_value,
    sweep,
)


def test_printed_value_path_examples():
    assert printed_value(Family.PATH, 7) == (F(12, 7), F(24, 49))
    assert printed_value(Family.PATH, 2) == (F(3, 2), F(1, 4))
    assert printed_value(Family.PATH, 3) == (F(4, 3), F(2, 9))
    assert printed_value(Family.PATH, 4) == (F(7, 4), F(11, 16))


def test_printed_value_wheel_example():
    assert printed_value(Family.WHEEL, 5) == (F(13, 6), F(41, 36))
    assert printed_value(Family.WHEEL, 4) == (F(9, 5), F(14, 25))


def test_printed_value_sunlet_example():
    assert printed_value(Family.SUNLET, 5) == (F(17, 10), F(61, 100))


def test_printed_value_closed_ladder_statement_rows():
    assert printed_value(Family.CLOSED_LADDER, 3) == (F(5), F(2))
    assert printed_value(Family.CLOSED_LADDER, 5) == (F(23, 10), F(131, 144))


def test_corrected_value_spot_checks():
    assert corrected_value(Family.CYCLE, 6)[:2] == (F(2), F(2, 3))
    assert corrected_value(Family.SUNLET, 6)[:2] == (F(2), F(4, 3))
    assert corrected_value(Family.CLOSED_LADDER, 3)[:2] == (F(2), F(2, 3))
    assert corrected_value(Family.CLOSED_LADDER, 6)[:2] == (F(25, 12), F(131, 144))
    assert corrected_value(Family.PATH, 4)[:2] == (F(3, 2), F(1, 4))
    # no erratum -> identical to printed, empty note
    cm, cv, note = corrected_value(Family.WHEEL, 8)
    assert (cm, cv) == printed_value(Family.WHEEL, 8) and note == ""


def test_domain_errors():
    with pytest.raises(ValueError):
        printed_value(Family.PATH, 1)
    with pytest.raises(ValueError):
        corrected_value(Family.CYCLE, 2)
    with pytest.raises(ValueError):
        printed_value(Family.COMPLETE, 0)


@pytest.mark.parametrize("family", list(Family))
def test_case_split_is_total(family):
    for n in range(_FAMILIES[family].min_n, 30):
        pm, pv = printed_value(family, n)
        cm, cv, note = corrected_value(family, n)
        assert pm.denominator > 0 and cv.denominator > 0
        assert bool(note) == is_registered_erratum(family, n) == (pm != cm or pv != cv)


def test_sweep_path_errata_rows():
    entries = sweep(Family.PATH, range(2, 11))
    assert len(entries) == 9
    assert all(e.consistent for e in entries)
    assert [e.n for e in entries if e.errata] == [4]


def test_sweep_cycle_errata_rows():
    entries = sweep(Family.CYCLE, range(3, 11))
    assert all(e.consistent for e in entries)
    assert [e.n for e in entries if e.errata] == [6, 8, 10]
    for e in entries:
        if e.errata:  # variance-only errata: printed means are right
            assert e.printed_mean == e.corrected_mean
            assert e.printed_variance != e.corrected_variance


def test_sweep_complete_no_errata():
    with pytest.warns(UserWarning, match="trivial graph"):  # complete(1)
        entries = sweep(Family.COMPLETE, range(1, 9))
    assert all(e.consistent and not e.errata for e in entries)
    for e in entries:
        assert e.search_mean == F(e.n + 1, 2)
        assert e.search_variance == F(e.n * e.n - 1, 12)


def test_sweep_every_family_up_to_the_default_cap():
    # from past the acceptance ranges to the 32-vertex default cap: every
    # row agrees with the search, and has errata exactly where registered
    ranges = {
        Family.PATH: range(13, 33),
        Family.CYCLE: range(12, 33),
        Family.COMPLETE: range(9, 33),
        Family.WHEEL: range(11, 32),
        Family.SUNLET: range(9, 17),
        Family.CLOSED_LADDER: range(9, 17),
    }
    for family, ns in ranges.items():
        entries = sweep(family, ns)
        assert [e.n for e in entries] == list(ns)
        assert all(e.consistent for e in entries), family
        assert [e.n for e in entries if e.errata] == [
            n for n in ns if is_registered_erratum(family, n)], family


def test_sweep_records_cap_errors_per_row():
    entries = sweep(Family.PATH, [5, 6], max_n=5)
    assert entries[0].error == "" and entries[0].consistent
    assert entries[1].error != "" and not entries[1].consistent
    assert entries[1].search_mean is None


def test_sweep_checks_cap_before_building(monkeypatch):
    real = b.graphs.build_graph

    def capped_build(n, edges):
        assert n <= 32, "sweep built an over-cap graph"
        return real(n, edges)

    monkeypatch.setattr(b.graphs, "build_graph", capped_build)
    [entry] = sweep(Family.COMPLETE, range(2000, 2001))
    assert entry.error == "graph has 2000 vertices, cap is 32"


@pytest.mark.parametrize("family", list(Family))
def test_vertex_count_matches_generate(family):
    spec = _FAMILIES[family]
    for n in range(spec.min_n, 13):
        assert spec.vertices(n) == generate(family, n).n


def test_registry_and_csv():
    text = errata_table_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "family,applies_to,printed,corrected,note"
    assert len(lines) == len(ERRATA_REGISTRY) + 1
    # ClosedFormEntry reads a non-empty note as a registered erratum
    assert all(rule.note for rule in ERRATA_REGISTRY)
    assert is_registered_erratum(Family.SUNLET, 9)
    assert not is_registered_erratum(Family.SUNLET, 4)
    assert not is_registered_erratum(Family.WHEEL, 6)
    assert is_registered_erratum(Family.CLOSED_LADDER, 9)
    assert not is_registered_erratum(Family.CLOSED_LADDER, 8)
    # lookup takes the first matching rule, so an overlap would shadow a rule
    # silently: at most one rule may cover any n, and every rule covers some n
    used = set()
    for family in Family:
        rules = [r for r in ERRATA_REGISTRY if r.family is family]
        for n in range(_FAMILIES[family].min_n, 65):
            hits = [r for r in rules if r.condition(n)]
            assert len(hits) <= 1, (family, n, [r.applies_to for r in hits])
            used.update(hits)
    assert used == set(ERRATA_REGISTRY)
    # corrected_value leaves the domain check to printed_value, so no rule
    # may cover an n below its family's least n
    for rule in ERRATA_REGISTRY:
        assert not any(rule.condition(n) for n in range(-5, _FAMILIES[rule.family].min_n))


def test_rule_sizes_are_the_searched_minimum_colouring():
    # each rule's sizes are those of the minimum-mean b-colouring the
    # search realizes, wherever the rule's graph has at most 24 vertices
    checked = 0
    for rule in ERRATA_REGISTRY:
        spec = _FAMILIES[rule.family]
        for n in range(spec.min_n, 25):
            if rule.condition(n) and spec.vertices(n) <= 24:
                report = b.full_report(generate(rule.family, n))
                assert rule.sizes(n) == report.min_colouring.strengths(), (rule.applies_to, n)
                checked += 1
    assert checked == 25


def _stated(text: str, n: int) -> dict[str, F]:
    """The mean and variance a registry text states, evaluated at n: each
    ", "-separated part is "mean X" or "variance X", where X is a number
    such as 7/4 or a formula such as (n^2+16n-36)/(4n^2); a part may end
    in a parenthesised remark."""
    stated = {}
    for part in text.split(", "):
        name, value = re.fullmatch(r"(mean|variance) (\S+)(?: \(.*\))?", part).groups()
        num, _, den = value.partition("/")
        num, den = (eval(re.sub(r"(\d)n", r"\1*n", side).replace("^", "**"),
                         {"__builtins__": {}}, {"n": n}) for side in (num, den or "1"))
        stated[name] = F(num, den)
    return stated


def test_rule_texts_state_their_values():
    # the printed text states printed_value, the corrected text the rule's
    # value, at every n <= 64 the rule covers; a text may leave out one of
    # the two (closed-ladder n = 6 prints no variance)
    checked = 0
    for rule in ERRATA_REGISTRY:
        for n in range(_FAMILIES[rule.family].min_n, 65):
            if not rule.condition(n):
                continue
            for text, (mean, variance) in ((rule.printed, printed_value(rule.family, n)),
                                           (rule.corrected, rule.value(n))):
                stated = _stated(text, n)
                want = {"mean": mean, "variance": variance}
                assert stated == {name: want[name] for name in stated}, (
                    rule.applies_to, n, text)
            checked += 1
    assert checked == 123


def test_entry_consistency_flags_search_disagreement():
    entry = ClosedFormEntry(
        family=Family.PATH, n=5, phi=3,
        printed_mean=F(9, 5), printed_variance=F(14, 25),
        corrected_mean=F(9, 5), corrected_variance=F(14, 25),
        search_mean=F(2), search_variance=F(14, 25),
        note="")
    assert not entry.consistent


def test_entry_consistency_flags_registry_disagreement():
    # the search confirms the corrected table, so the row is consistent
    # exactly when it has errata where a rule's note registers one
    entry = ClosedFormEntry(
        family=Family.PATH, n=5, phi=3,
        printed_mean=F(9, 5), printed_variance=F(14, 25),
        corrected_mean=F(9, 5), corrected_variance=F(14, 25),
        search_mean=F(9, 5), search_variance=F(14, 25),
        note="")
    assert entry.consistent
    assert replace(entry, printed_mean=F(2), note="a rule").consistent
    # an erratum without a registered rule
    unregistered = replace(entry, printed_mean=F(2))
    assert unregistered.errata and not unregistered.consistent
    # a registered rule that corrects nothing
    idle = replace(entry, note="a rule")
    assert not idle.errata and not idle.consistent


def test_generate_dispatch():
    assert generate(Family.SUNLET, 4) == b.sunlet(4)
    assert generate(Family.CLOSED_LADDER, 3) == b.closed_ladder(3)
    assert generate("wheel", 5) == b.wheel(5)
