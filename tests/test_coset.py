"""Coset enumeration against groups of known order, plus chains and reports."""

from fractions import Fraction

import pytest
from coset_oracles import augmented_abelian_kernel, bfs_relabelled, schreier_cyclic_kernel
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainlab.contexts import context_for, exponent_counts, free_context
from chainlab.coset import (
    DEFAULT_BUDGET,
    CosetTable,
    SubgroupChain,
    build_abelian_chain,
    cyclic_cover_chain,
    farber_prefix_check,
    fx,
    parse_chain_spec,
    todd_coxeter,
)
from chainlab.errors import BudgetExceededError, InputError
from chainlab.words import commutator, free_graph, free_reduce, presentation

Z = free_graph(1).presentation()
F2 = free_graph(2).presentation()
Z2 = presentation(("a", "b"), [commutator((1,), (2,))])
Z3 = presentation(("a", "b", "c"), [commutator((1,), (2,)), commutator((1,), (3,)), commutator((2,), (3,))])
ZXF2 = presentation(("a", "b", "c"), [commutator((1,), (2,)), commutator((1,), (3,))])
GENUS2 = presentation(("a", "b", "c", "d"), [commutator((1,), (2,)) + commutator((3,), (4,))])
S3 = presentation(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
A6B4 = presentation(("a", "b"), [(1,) * 6 + (-2,) * 4])  # abelianization Z x Z/2


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


def test_transversal_words_are_built_on_demand():
    # verify() needs only the spanning tree; a cyclic level's words have quadratic total length
    level = cyclic_cover_chain(F2, [6]).levels[0]
    assert "transversal" not in vars(level)
    assert len(level.spanning_tree) == 5
    assert level.transversal == ((), (1,), (1, 1), (1, 1, 1), (-1, -1), (-1,))
    for c, rep in enumerate(level.transversal, start=1):
        assert level.trace(1, rep) == c


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


@pytest.mark.parametrize("n", [2_000_000, 10**30])
def test_finite_abelianization_lists_words_that_do_not_grow(n):
    # S3 abelianizes to Z/2, so every level is S3 itself whatever n is
    chain = build_abelian_chain(S3, [n])
    assert chain.indices == (1,)
    assert chain.levels[0].subgroup_generators == build_abelian_chain(S3, [2]).levels[0].subgroup_generators
    assert max(map(len, chain.levels[0].subgroup_generators)) <= 2


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


def test_cyclic_cover_index_divides_the_exponent_sums():
    # a has exponent sum 6 and b exponent sum -4 in a^6 b^-4
    assert cyclic_cover_chain(A6B4, [4, 8, 9]).indices == (2, 2, 3)
    assert cyclic_cover_chain(A6B4, [4, 8, 9], gen=2).indices == (4, 4, 1)
    level = cyclic_cover_chain(A6B4, [8]).levels[0]
    assert level.subgroup_generators == ((1, 1), (2,))
    assert level.construction == "cyclic-quotient-kernel"


def test_chain_budget_caps_the_index():
    assert cyclic_cover_chain(F2, [50], max_cosets=50).indices == (50,)
    with pytest.raises(BudgetExceededError):
        cyclic_cover_chain(F2, [50], max_cosets=49)
    assert build_abelian_chain(Z2, [7], max_cosets=49).indices == (49,)
    with pytest.raises(BudgetExceededError):
        build_abelian_chain(Z2, [7], max_cosets=48)


def test_large_levels_build_at_the_default_budget():
    level = build_abelian_chain(Z2, [316]).levels[0]
    assert level.index == 316 ** 2 <= DEFAULT_BUDGET
    assert level.trace(1, (1,) * 316) == 1 and level.trace(1, (1,) * 158) != 1
    one_relator = presentation(("a", "b"), [(1, 2, 1, -2, -1, 2, 2, -1, -2)])
    assert cyclic_cover_chain(one_relator, [10_000]).indices == (10_000,)


# -------------------------------------- the Todd-Coxeter constructions as oracles


@st.composite
def one_relator_groups(draw):
    """<a, b | r> with r cyclically reduced and a nonzero exponent sum of gen."""
    gen = draw(st.sampled_from([1, 2]))
    r = free_reduce(tuple(draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=2, max_size=10))))
    while len(r) > 1 and r[0] == -r[-1]:
        r = r[1:-1]
    assume(exponent_counts(r, 2)[gen - 1] != 0)
    return presentation(("a", "b"), [r]), gen


@st.composite
def quotient_kernel_cases(draw):
    """(kind, presentation, n, gen) with small Todd-Coxeter enumerations."""
    kind = draw(st.sampled_from(["cyclic", "abelian"]))
    if draw(st.integers(0, 3)) == 0:
        p, gen = draw(one_relator_groups())
    else:
        p = draw(st.sampled_from([F2, Z2, Z3, GENUS2, ZXF2, S3, A6B4]))
        gen = draw(st.sampled_from([1, 2]))
    if kind == "cyclic":
        n = draw(st.integers(1, 12))
    else:
        n = draw(st.integers(1, {2: 8, 3: 4, 4: 3}[p.rank]))
    return kind, p, n, gen


@settings(max_examples=150, deadline=None)
@given(quotient_kernel_cases())
def test_written_down_kernels_match_todd_coxeter(case):
    kind, p, n, gen = case
    if kind == "cyclic":
        direct = cyclic_cover_chain(p, [n], gen=gen).levels[0]
        oracle = schreier_cyclic_kernel(p, n, gen=gen)
    else:
        direct = build_abelian_chain(p, [n]).levels[0]
        oracle = augmented_abelian_kernel(p, n)
    assert direct.index == oracle.index
    assert bfs_relabelled(direct) == bfs_relabelled(oracle)


def test_subgroup_words_chain_and_validation():
    levels = (todd_coxeter(Z, [(1, 1)]), todd_coxeter(Z, [(1, 1, 1, 1)]))
    chain = SubgroupChain(Z, levels, ("2Z", "4Z"))
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


@pytest.mark.parametrize(
    "spec, key",
    [
        ("abelian:n=1..3,gen=5", "'gen'"),  # gen only on cyclic chains
        ("cyclic:n=2..4,foo=3", "'foo'"),
        ("abelian:n=1..3,n=7", "'n'"),  # would otherwise compute level 7 only
        ("cyclic:n=2,gen=1,gen=2", "'gen'"),
        ("abelian:n=", "'n'"),
        ("cyclic:n=2,gen=2,4", "'4'"),  # a bare value continues only an n list
    ],
)
def test_parse_chain_spec_names_the_offending_key(spec, key):
    with pytest.raises(InputError, match=key):
        parse_chain_spec(spec, F2)


# ----------------------------------------------------------------- evidence


def test_farber_prefix_check_on_z_chain():
    chain = build_abelian_chain(Z, [2, 4, 8, 16])
    ctx = context_for(chain.presentation)
    report = farber_prefix_check(chain, [(1,) * 6], eps=Fraction(0), ctx=ctx)
    assert report.passed
    assert report.values == (((Fraction(1), Fraction(0), Fraction(0), Fraction(0))),)
    assert report.evidence == "finite-prefix"
    failing = farber_prefix_check(chain, [(1,) * 16], eps=Fraction(0), ctx=ctx)
    assert not failing.passed
    assert failing.values[0][-1] == 1


def test_farber_rejects_trivial_gamma():
    chain = build_abelian_chain(Z, [2, 4])
    with pytest.raises(InputError):
        farber_prefix_check(chain, [()], eps=Fraction(0), ctx=context_for(chain.presentation))
    with pytest.raises(InputError):
        farber_prefix_check(chain, [(1, -1)], eps=Fraction(0), ctx=free_context(1))
