"""Coset enumeration against groups of known order, plus chains and reports."""

from fractions import Fraction

import pytest

from chainlab.contexts import free_context
from chainlab.coset import (
    CosetTable,
    SubgroupChain,
    build_abelian_chain,
    cyclic_cover_chain,
    farber_prefix_check,
    fx,
    parse_chain_spec,
    residual_chain_check,
    subgroup_words_chain,
    todd_coxeter,
)
from chainlab.errors import BudgetExceededError, InputError
from chainlab.words import commutator, free_graph, presentation

Z = free_graph(1).presentation()
F2 = free_graph(2).presentation()
Z2 = presentation(("a", "b"), [commutator((1,), (2,))])
ZXF2 = presentation(("a", "b", "c"), [commutator((1,), (2,)), commutator((1,), (3,))])


# ----------------------------------------------------- enumerations of record


def test_cyclic_subgroup_of_z():
    t = todd_coxeter(Z, [(1, 1, 1)])
    assert t.index == 3
    assert t.action == ((2, 3, 1),)
    assert t.trace(1, (1, 1, 1)) == 1


@pytest.mark.parametrize(
    "p, subgroup, index",
    [
        # finite groups enumerated against the trivial subgroup = group order
        (presentation(("a",), [(1,) * 5]), [], 5),
        (presentation(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3]), [], 6),  # S3
        (presentation(("a", "b"), [(1, 1), (2, 2, 2), (1, 2) * 3]), [], 12),  # A4
        (presentation(("a", "b"), [(1, 1), (2, 2, 2), (1, 2) * 5]), [], 60),  # A5
        # dihedral of order 10 over its reflection subgroup
        (presentation(("a", "b"), [(1,) * 5, (2, 2), (1, 2) * 2]), [[2]], 5),
        # free group: the classic index-2 subgroup <a, bab^-1, b^2>
        (F2, [[1], [2, 1, -2], [2, 2]], 2),
        # Z^2 over <a^2, b^2>
        (Z2, [[1, 1], [2, 2]], 4),
        # whole group
        (F2, [[1], [2]], 1),
    ],
)
def test_known_indices(p, subgroup, index):
    t = todd_coxeter(p, subgroup)
    assert t.index == index
    t.verify()


def test_enumeration_is_deterministic():
    p = presentation(("a", "b"), [(1, 1), (2, 2, 2), (1, 2) * 5])
    t1 = todd_coxeter(p, [])
    t2 = todd_coxeter(p, [])
    assert t1.action == t2.action
    assert t1.transversal == t2.transversal


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        todd_coxeter(F2, [], max_cosets=50)  # infinite index
    with pytest.raises(BudgetExceededError):
        todd_coxeter(F2, [[1]], max_cosets=50)  # still infinite index
    # a generous budget on a finite problem is untouched
    assert todd_coxeter(Z, [(1,) * 7], max_cosets=50).index == 7


def test_transversal_represents_every_coset():
    t = todd_coxeter(F2, [[1], [2, 1, -2], [2, 2]])
    assert len(t.transversal) == t.index
    assert t.transversal[0] == ()
    for c, rep in enumerate(t.transversal, start=1):
        assert t.trace(1, rep) == c


@pytest.mark.parametrize("bad", [(3,), (-3,), (0,), (1.5,)])
def test_lookups_refuse_letters_outside_the_column_store(bad):
    # columns are indexed by the signed letter, so an unchecked 3 or -3
    # would read the inverse columns of a rank-2 table
    t = todd_coxeter(F2, [[1], [2, 1, -2], [2, 2]])
    with pytest.raises(InputError):
        t.trace(1, bad)
    with pytest.raises(InputError):
        t.word_permutation(bad)
    with pytest.raises(InputError):
        CosetTable(F2, (bad,), t.index, t.action).verify()


def test_table_validation():
    with pytest.raises(InputError):
        CosetTable(Z, (), 2, ((1, 1),))  # not a permutation
    with pytest.raises(InputError):
        CosetTable(Z, (), 0, ())
    # a legal permutation that violates a relator is caught by verify()
    bad = CosetTable(presentation(("a",), [(1, 1)]), (), 3, ((2, 3, 1),))
    with pytest.raises(InputError):
        bad.verify()


# ------------------------------------------------------------- fixed points


def test_fx_basics():
    t = todd_coxeter(Z, [(1,) * 4])
    assert fx((), t) == 1
    assert fx((1,), t) == 0
    assert fx((1,) * 4, t) == 1
    assert fx((1,) * 6, t) == 0


def test_fx_divisibility_on_z_chain():
    # In Z/n, translation by k fixes everything when n | k and nothing otherwise.
    for n in range(1, 13):
        t = todd_coxeter(Z, [(1,) * n])
        for k in range(0, 25):
            expected = Fraction(1) if k % max(n, 1) == 0 else Fraction(0)
            assert fx((1,) * k, t) == expected


# ------------------------------------------------------------------- chains


def test_abelian_chain_on_z():
    chain = build_abelian_chain(Z, [1, 2, 3, 4])
    assert chain.indices == (1, 2, 3, 4)
    assert all(t.known_normal for t in chain.levels)
    assert all(t.construction == "abelian-quotient-kernel" for t in chain.levels)
    assert chain.labels == ("abelian-n=1", "abelian-n=2", "abelian-n=3", "abelian-n=4")


def test_abelian_chain_indices_f2_and_zxf2():
    assert build_abelian_chain(F2, [2]).indices == (4,)
    assert build_abelian_chain(F2, [3]).indices == (9,)
    assert build_abelian_chain(ZXF2, [2]).indices == (8,)


def test_abelian_chain_mods_out_torsion():
    # <a, b | a^6> abelianizes to Z/6 x Z; the mod-2 kernel has index 2 because
    # the torsion generator a is sent into the subgroup.
    p = presentation(("a", "b"), [(1,) * 6])
    chain = build_abelian_chain(p, [2])
    assert chain.indices == (2,)
    assert chain.levels[0].trace(1, (1,)) == 1  # a lies in the kernel
    assert chain.levels[0].trace(1, (2,)) != 1


def test_abelian_chain_rejects_bad_moduli():
    with pytest.raises(InputError):
        build_abelian_chain(Z, [0])


def test_cyclic_cover_chain():
    chain = cyclic_cover_chain(F2, [2, 3, 4])
    assert chain.indices == (2, 3, 4)
    for t, n in zip(chain.levels, (2, 3, 4)):
        assert t.trace(1, (1,) * n) == 1  # a^n in the kernel
        assert t.trace(1, (2,)) == 1      # b maps to 0
        assert t.trace(1, (1,)) != 1
    other = cyclic_cover_chain(F2, [3], gen=2)
    assert other.indices == (3,)
    assert other.levels[0].trace(1, (1,)) == 1
    with pytest.raises(InputError):
        cyclic_cover_chain(F2, [2], gen=3)
    with pytest.raises(InputError):
        cyclic_cover_chain(F2, [0])


def test_subgroup_words_chain_and_validation():
    chain = subgroup_words_chain(Z, [[(1, 1)], [(1, 1, 1, 1)]], labels=("2Z", "4Z"))
    assert chain.indices == (2, 4)
    assert chain.labels == ("2Z", "4Z")
    with pytest.raises(InputError):
        SubgroupChain(Z, chain.levels, ("only-one",))
    with pytest.raises(InputError):
        SubgroupChain(F2, chain.levels, chain.labels)  # wrong presentation


# -------------------------------------------------------------- chain specs


def test_parse_chain_spec_forms():
    assert parse_chain_spec("abelian:n=1..3", Z).indices == (1, 2, 3)
    assert parse_chain_spec("abelian:n=2,4", Z).indices == (2, 4)
    assert parse_chain_spec("cyclic:n=2..3", F2).indices == (2, 3)
    assert parse_chain_spec("cyclic:n=3,gen=2", F2).indices == (3,)


@pytest.mark.parametrize(
    "spec",
    ["abelian", "abelian:", "abelian:n=", "abelian:n=x", "frobnicate:n=2", "cyclic:n=2,gen=zz"],
)
def test_parse_chain_spec_rejects(spec):
    with pytest.raises(InputError):
        parse_chain_spec(spec, F2)


# ----------------------------------------------------------------- evidence


def test_residual_chain_report_proven_normal():
    chain = build_abelian_chain(Z, [2, 4, 8])
    report = residual_chain_check(chain)
    assert report.nested
    assert report.all_normal_proven
    assert report.levels[0].nested_in_previous is None
    assert all(c.nested_in_previous for c in report.levels[1:])
    assert "finite" in report.note


def test_residual_chain_detects_non_nesting():
    chain = subgroup_words_chain(Z, [[(1, 1)], [(1, 1, 1)]])  # 2Z then 3Z
    report = residual_chain_check(chain)
    assert not report.nested
    assert report.levels[1].nested_in_previous is False


def test_residual_chain_detects_non_normal():
    s3 = presentation(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    chain = subgroup_words_chain(s3, [[(2,)]])  # <b> has index 3, not normal
    report = residual_chain_check(chain)
    assert not report.all_normal_proven
    assert report.levels[0].normality == "fails"
    assert not report.levels[0].conjugates_fix_base


def test_farber_prefix_check_on_z_chain():
    chain = build_abelian_chain(Z, [2, 4, 8, 16])
    report = farber_prefix_check(chain, [(1,) * 6], eps=Fraction(0))
    assert report.passed
    assert report.values == (((Fraction(1), Fraction(0), Fraction(0), Fraction(0))),)
    assert report.evidence == "finite-prefix"
    failing = farber_prefix_check(chain, [(1,) * 16], eps=Fraction(0))
    assert not failing.passed
    assert failing.values[0][-1] == 1


def test_farber_rejects_trivial_gamma():
    chain = build_abelian_chain(Z, [2, 4])
    with pytest.raises(InputError):
        farber_prefix_check(chain, [()], eps=Fraction(0))
    with pytest.raises(InputError):
        farber_prefix_check(chain, [(1, -1)], eps=Fraction(0), ctx=free_context(1))
