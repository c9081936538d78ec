"""Word-problem contexts, abelianization tools, and order certificates."""

import pytest

from chainlab.contexts import (
    CertificateStatus,
    EqualityVerdict,
    abelianized_image,
    battery_context,
    exponent_vector,
    free_abelian_context,
    free_context,
    infinite_order_certificate,
    raag_context,
    relator_exponent_matrix,
    torsion_basis_words,
)
from chainlab.coset import todd_coxeter
from chainlab.errors import UndecidableContextError
from chainlab.intmat import smith_normal_form
from chainlab.words import commutator, presentation, raag_graph, word

C4 = raag_graph(4, [(1, 3), (3, 2), (2, 4), (1, 4)])


# ----------------------------------------------------------- exact contexts


def test_free_context_equality():
    ctx = free_context(2)
    assert ctx.equal((1, 2, -2), (1,)) is EqualityVerdict.EQUAL
    assert ctx.equal((1, 2), (2, 1)) is EqualityVerdict.UNEQUAL
    assert ctx.normal_form((1, -1)) == ()
    assert ctx.is_trivial((1, -1)) is True
    assert ctx.is_trivial((1, 2)) is False


def test_free_abelian_context_sorts():
    ctx = free_abelian_context(3)
    assert ctx.normal_form((3, 1, 2)) == (1, 2, 3)
    assert ctx.equal((1, 2), (2, 1)) is EqualityVerdict.EQUAL
    assert ctx.equal((1, 2, -1), (2, 2)) is EqualityVerdict.UNEQUAL


def test_raag_context_respects_graph():
    ctx = raag_context(C4)
    # 1-3 is an edge, 1-2 is not
    assert ctx.is_trivial(commutator((1,), (3,))) is True
    assert ctx.is_trivial(commutator((1,), (2,))) is False


# ---------------------------------------------------------- battery context


def test_battery_refutes_but_never_proves():
    p = presentation(("a", "b"), [])
    mod2 = todd_coxeter(p, [(1, 1), (2,), (1, 2, -1)])  # kernel of a -> 1 in Z/2
    ctx = battery_context(p, [mod2])
    # a and b map to different permutations: inequality is proven
    assert ctx.equal((1,), (2,)) is EqualityVerdict.UNEQUAL
    # a and a^3 agree in this single probe: only consistency
    assert ctx.equal((1,), (1, 1, 1)) is EqualityVerdict.CONSISTENT
    assert ctx.is_trivial((1, 1)) is None
    # freely equal words are equal outright
    assert ctx.equal((1, 2, -2), (1,)) is EqualityVerdict.EQUAL
    with pytest.raises(UndecidableContextError):
        ctx.normal_form((1,))


# ----------------------------------------------------------- abelianization


def test_exponent_vector():
    assert exponent_vector((1, 2, -1, 2), 3) == (0, 2, 0)
    with pytest.raises(ValueError):
        exponent_vector((4,), 3)


def abelianization_structure(p):
    """(torsion-free rank, nontrivial torsion invariant factors) of the abelianization."""
    res = smith_normal_form(relator_exponent_matrix(p))
    return p.rank - res.rank, tuple(f for f in res.invariant_factors if f > 1)


def test_abelianization_structure_examples():
    assert abelianization_structure(presentation(("a", "b"), [])) == (2, ())
    assert abelianization_structure(presentation(("a",), [word((1,) * 6)])) == (0, (6,))
    assert abelianization_structure(
        presentation(("a", "b"), [(1, 1), (2, 2)])
    ) == (0, (2, 2))
    assert abelianization_structure(
        presentation(("a", "b"), [commutator((1,), (2,))])
    ) == (2, ())


def test_torsion_basis_words_generate_torsion():
    p = presentation(("a", "b"), [word((1,) * 6)])  # Z/6 * Z
    words = torsion_basis_words(p)
    assert len(words) == 1
    img = abelianized_image(words[0], p)
    assert not img.infinite_order_in_abelianization
    # the image must actually have order 6: its multiples 1..5 are nontrivial
    for k in range(1, 6):
        assert not abelianized_image(words[0] * k, p).in_relator_lattice
    assert abelianized_image(words[0] * 6, p).in_relator_lattice


def test_abelianized_image_positions():
    p = presentation(("a",), [word((1,) * 5)])  # Z/5
    img = abelianized_image((1,), p)
    assert img.vector == (1,)
    assert not img.in_relator_lattice          # nontrivial in Z/5
    assert not img.infinite_order_in_abelianization  # but torsion
    img5 = abelianized_image((1,) * 5, p)
    assert img5.in_relator_lattice


# ------------------------------------------------------- order certificates


def test_certificate_exact_context():
    ctx = raag_context(C4)
    cert = infinite_order_certificate((1, 2), ctx)
    assert cert.proven
    assert cert.method == "graph-group-normal-form"
    trivial = infinite_order_certificate(commutator((1,), (3,)), ctx)
    assert trivial.status is CertificateStatus.INCONCLUSIVE


def test_certificate_battery_is_sound_on_torsion():
    # a has order 5 in <a | a^5>; the certificate must NOT claim infinite order
    p = presentation(("a",), [word((1,) * 5)])
    ctx = battery_context(p)
    cert = infinite_order_certificate((1,), ctx)
    assert cert.status is CertificateStatus.INCONCLUSIVE
    # same for any power, including ones outside the relator lattice
    for k in (2, 3, 7):
        assert not infinite_order_certificate((1,) * k, ctx).proven


def test_certificate_battery_free_part():
    p = presentation(("a", "b"), [word((1,) * 5)])  # Z/5 * Z
    ctx = battery_context(p)
    assert infinite_order_certificate((2,), ctx).proven
    assert infinite_order_certificate((1, 2), ctx).proven  # image (1,1) survives
    assert not infinite_order_certificate((1,), ctx).proven
    assert not infinite_order_certificate((), ctx).proven
    # commutators die in the abelianization: inconclusive even though this
    # element has infinite order in the group
    assert not infinite_order_certificate(commutator((1,), (2,)), ctx).proven


def test_certificate_free_rank_one():
    ctx = free_context(1)
    assert infinite_order_certificate((1,), ctx).proven
    assert infinite_order_certificate((-1, -1), ctx).proven
    assert not infinite_order_certificate((1, -1), ctx).proven
