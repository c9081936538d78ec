"""Inner Folner sets: exact defects, slice construction, sequence reports."""

from fractions import Fraction

import pytest

from chainlab.contexts import battery_context, free_abelian_context, free_context, raag_context
from chainlab.errors import InputError, UndecidableContextError
from chainlab.folner import (
    commuting_conjugates_folner,
    folner_sequence_report,
    folner_set,
    inner_folner_defect,
)
from chainlab.words import free_graph, power, raag_graph

P3 = raag_graph(3, [(1, 2), (2, 3)])  # path a - b - c: b commutes with everything


def brute_defect(elements, gamma, ctx):
    """Independent defect computation from raw set algebra."""
    base = {ctx.normal_form(w) for w in elements}
    conj = {ctx.normal_form(tuple(gamma) + tuple(w) + tuple(-x for x in reversed(gamma))) for w in elements}
    return Fraction(len(base.symmetric_difference(conj)), len(base))


def test_singleton_defect_in_free_group():
    ctx = free_context(2)
    f = folner_set([(1,)], ctx)
    assert f.size == 1
    assert inner_folner_defect(f, (2,), ctx) == 2  # {a} vs {bab^-1}: disjoint
    assert inner_folner_defect(f, (1,), ctx) == 0  # a commutes with itself
    assert inner_folner_defect(f, (), ctx) == 0


def test_defect_matches_brute_force_free():
    ctx = free_context(2)
    elements = [(), (1,), (1, 1), (2,), (1, 2)]
    f = folner_set(elements, ctx)
    for gamma in [(1,), (2,), (1, 2), (2, -1)]:
        assert inner_folner_defect(f, gamma, ctx) == brute_defect(elements, gamma, ctx)


def test_defect_range_and_abelian_vanishing():
    ctx = free_abelian_context(2)
    f = folner_set([(), (1,), (1, 1), (2,), (1, 2)], ctx)
    for gamma in [(1,), (2,), (1, -2), (2, 2, 1)]:
        assert inner_folner_defect(f, gamma, ctx) == 0


def test_folner_set_deduplicates():
    ctx = free_abelian_context(2)
    f = folner_set([(1, 2), (2, 1), (1, -1)], ctx)
    assert f.size == 2  # ab == ba, and the identity
    assert f.elements == ((1, 2), ())


def test_folner_set_rejects_empty_and_battery():
    ctx = free_context(1)
    with pytest.raises(InputError):
        folner_set([], ctx)
    battery = battery_context(free_graph(2).presentation())
    with pytest.raises(UndecidableContextError):
        folner_set([(1,)], battery)
    f = folner_set([(1,)], ctx)
    with pytest.raises(UndecidableContextError):
        inner_folner_defect(f, (1,), battery)


def test_central_slices_have_zero_defect():
    # In the path group, b is central; conjugated slices of powers of b are
    # untouched by conjugation no matter what the conjugators are.
    ctx = raag_context(P3)
    enumeration = [power((2,), k) for k in range(6)]
    conjugators = [power((1,), n) for n in range(6)]
    sets = [commuting_conjugates_folner(enumeration, conjugators, n, ctx) for n in range(4)]
    assert [s.size for s in sets] == [1, 2, 3, 4]
    report = folner_sequence_report(sets, [(1,), (3,), (3, 1)], ctx)
    assert report.cardinalities == (1, 2, 3, 4)
    assert report.strictly_increasing
    assert report.max_defect == 0
    assert all(d == 0 for row in report.defects for d in row)


def test_noncentral_slices_show_positive_defect():
    ctx = free_context(2)
    enumeration = [power((1,), k) for k in range(4)]
    conjugators = [power((2,), n) for n in range(4)]
    s2 = commuting_conjugates_folner(enumeration, conjugators, 2, ctx)
    assert s2.size == 3  # {b^2 a^k b^-2}
    d = inner_folner_defect(s2, (1,), ctx)
    assert d == brute_defect(s2.elements, (1,), ctx)
    assert d > 0


def test_stage_validation():
    ctx = free_context(2)
    with pytest.raises(InputError):
        commuting_conjugates_folner([(1,)], [(2,)], 1, ctx)  # not enough elements
    with pytest.raises(InputError):
        commuting_conjugates_folner([(1,), (1, 1)], [(2,)], 1, ctx)  # not enough conjugators
    with pytest.raises(InputError):
        commuting_conjugates_folner([(1,)], [(2,)], -1, ctx)


def test_sequence_report_flags_non_growth():
    ctx = free_abelian_context(1)
    a = folner_set([(1,), (1, 1)], ctx)
    b = folner_set([(1,)], ctx)
    report = folner_sequence_report([a, b], [(1,)], ctx)
    assert not report.strictly_increasing
    with pytest.raises(InputError):
        folner_sequence_report([], [(1,)], ctx)
