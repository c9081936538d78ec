"""Word-problem contexts, abelianization tools, and order certificates."""

import dataclasses
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlab.contexts as contexts_module
from chainlab.contexts import (
    CertificateStatus,
    EqualityVerdict,
    RaagContext,
    abelianized_image,
    battery_context,
    context_for,
    exponent_vector,
    free_abelian_context,
    free_abelianization,
    free_context,
    infinite_order_certificate,
    power_word,
    raag_context,
    torsion_basis_words,
)
from chainlab.coset import todd_coxeter
from chainlab.errors import InputError, UndecidableContextError
from chainlab.intmat import IntMatrix, Lattice, smith_normal_form
from chainlab.qnormal import QNormalStatus, QNormalWitness, QNormalWitnessSet, verify_qnormal
from chainlab.words import (
    RaagGraph,
    commutator,
    complete_graph,
    free_graph,
    inverse_word,
    presentation,
    raag_graph,
    word,
)
from contexts_oracles import fresh_exact_certificate

C4 = raag_graph(4, [(1, 3), (3, 2), (2, 4), (1, 4)])


# ----------------------------------------------------------- exact contexts


def test_free_context_equality():
    ctx = free_context(2)
    assert ctx.kind == "free"
    assert ctx.equal((1, 2, -2), (1,)) is EqualityVerdict.EQUAL
    assert ctx.equal((1, 2), (2, 1)) is EqualityVerdict.UNEQUAL
    assert ctx.normal_form((1, -1)) == ()
    assert ctx.is_trivial((1, -1)) is True
    assert ctx.is_trivial((1, 2)) is False


def test_free_abelian_context_sorts():
    ctx = free_abelian_context(3)
    assert ctx.kind == "free-abelian"
    assert ctx.normal_form((3, 1, 2)) == (1, 2, 3)
    assert ctx.equal((1, 2), (2, 1)) is EqualityVerdict.EQUAL
    assert ctx.equal((1, 2, -1), (2, 2)) is EqualityVerdict.UNEQUAL


def test_raag_context_respects_graph():
    ctx = raag_context(C4)
    # 1-3 is an edge, 1-2 is not
    assert ctx.is_trivial(commutator((1,), (3,))) is True
    assert ctx.is_trivial(commutator((1,), (2,))) is False


@pytest.mark.parametrize("graph, kind", [
    (raag_graph(1), "free"),
    (free_graph(3), "free"),
    (complete_graph(3), "free-abelian"),
    (C4, "raag"),
])
def test_context_kind_is_read_off_the_graph(graph, kind):
    # the same group gets the same kind however its context is built
    for ctx in (raag_context(graph), context_for(graph.presentation())):
        assert repr(ctx) == f"<{kind} context on {graph.vertex_count} generators>"


def test_a_context_takes_its_presentation_from_its_graph():
    # a context whose graph is Z^2 but whose presentation names F2 used to
    # decide one group and claim the other; no public constructor pairs them now
    assert list(inspect.signature(RaagContext).parameters) == ["graph", "names"]
    f2 = free_graph(2).presentation()
    with pytest.raises(TypeError):
        RaagContext(complete_graph(2), f2)
    with pytest.raises(InputError, match="need exactly one name per vertex"):
        RaagContext(complete_graph(2), ("a",))
    ctx = RaagContext(complete_graph(2), ("x", "y"))
    assert ctx.presentation == complete_graph(2).presentation(("x", "y"))
    assert ctx.presentation is ctx.presentation
    # context_for keeps the presentation it classified, relators as written
    written = presentation(("a", "b"), [(2, 1, -2, -1)])
    assert context_for(written).presentation is written
    assert context_for(written).graph == complete_graph(2)


def test_a_false_claim_in_f2_is_no_longer_proven():
    # <b> is not q-normal in F2 by these witnesses: for s = a, b = a b a^-1 fails
    f2 = free_graph(2).presentation()
    claim = QNormalWitnessSet(f2, ((2,),), ((1,), (2,)), (QNormalWitness((2,), (1,), (1,)),) * 2)
    with pytest.raises(InputError, match="different ambient groups"):
        verify_qnormal(claim, RaagContext(complete_graph(2)))
    report = verify_qnormal(claim, context_for(f2))
    assert report.status is QNormalStatus.FAILED
    assert report.witness_reports[0].in_conjugate is EqualityVerdict.UNEQUAL
    # the same witnesses do prove it in Z^2, the group the old pair decided
    z2 = dataclasses.replace(claim, ambient=complete_graph(2).presentation())
    assert verify_qnormal(z2, RaagContext(complete_graph(2))).status is QNormalStatus.PROVEN


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
    with pytest.raises(ValueError, match=r"word \(4,\) uses a generator beyond the 3 declared"):
        exponent_vector((4,), 3)


def columns_matrix(rank, vectors):
    """The rank x len(vectors) matrix whose columns are the given vectors."""
    return IntMatrix(rank, len(vectors), [[v[i] for v in vectors] for i in range(rank)])


def relator_vectors(p):
    return [exponent_vector(r, p.rank) for r in p.relators]


def abelianization_structure(p):
    """(torsion-free rank, nontrivial torsion invariant factors) of the abelianization."""
    res = smith_normal_form(columns_matrix(p.rank, relator_vectors(p)))
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


def test_free_abelianization_examples():
    assert free_abelianization(presentation(("a", "b"), [])) == ((1, 0), (0, 1))
    assert free_abelianization(presentation(("a", "b"), [commutator((1,), (2,))])) == ((1, 0), (0, 1))
    assert free_abelianization(presentation(("a", "b"), [(1, 1), (2, 2)])) == ()
    (k,) = free_abelianization(presentation(("a", "b"), [(1, 1, 2, 2, 2)]))  # a^2 b^3: Z
    assert 2 * k[0] + 3 * k[1] == 0 and abs(k[0]) == 3
    assert torsion_basis_words(presentation(("a", "b"), [(1, 1, 2, 2, 2)])) == ()
    assert sorted(torsion_basis_words(presentation(("a", "b"), [(1, 1), (2, 2)]))) == [(1,), (2,)]


@st.composite
def abelianizing_presentations(draw):
    """A presentation of rank <= 4 with <= 4 relators of exponents -6..6,
    each relator a shuffled product of generator powers."""
    rank = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
    relators = [draw(st.permutations(power_word(v))) for v in draw(st.lists(vector, max_size=4))]
    return presentation("abcd"[:rank], relators)


@settings(max_examples=300, deadline=None)
@given(abelianizing_presentations())
def test_free_abelianization_maps_onto_the_free_part(p):
    vectors = relator_vectors(p)
    lattice = Lattice(p.rank, vectors)
    k = free_abelianization(p)
    assert len(k) == p.rank - lattice.rank
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in k for v in vectors)
    res = smith_normal_form(IntMatrix(len(k), p.rank, [list(row) for row in k]))
    assert res.invariant_factors == (1,) * len(k)  # K maps onto Z^b


@settings(max_examples=300, deadline=None)
@given(abelianizing_presentations())
def test_torsion_words_fill_the_saturation(p):
    vectors = relator_vectors(p)
    lattice = Lattice(p.rank, vectors)
    torsion = [exponent_vector(w, p.rank) for w in torsion_basis_words(p)]
    assert all(lattice.in_saturation(t) and not lattice.contains(t) for t in torsion)
    res = smith_normal_form(columns_matrix(p.rank, vectors + torsion))
    assert res.invariant_factors == (1,) * lattice.rank


def test_abelianization_caches_stay_bounded():
    # each cached presentation stays alive as a key, so the caches must not grow with the inputs
    for k in range(1, 301):
        p = presentation(("a", "b"), [(1,) * k, (1, 2, -1, -2)])
        abelianized_image((2,), p)
        assert torsion_basis_words(p) == (((1,),) if k > 1 else ())
    for cached in (contexts_module._relator_lattice, contexts_module.free_abelianization):
        info = cached.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize < 300


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


@st.composite
def graphs_and_words(draw):
    """A graph on at most 6 vertices and up to five words of at most 10 letters."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letter, max_size=10).map(tuple), min_size=1, max_size=5))
    return RaagGraph(n, frozenset(edges)), words


@settings(max_examples=300, deadline=None)
@given(graphs_and_words())
def test_shared_certificates_equal_fresh_ones(case):
    graph, words = case
    ctx = raag_context(graph)
    fields = [f.name for f in dataclasses.fields(contexts_module.InfiniteOrderCertificate)]
    for w in words:
        cert = infinite_order_certificate(w, ctx)
        fresh = fresh_exact_certificate(w, ctx)
        assert [getattr(cert, f) for f in fields] == [getattr(fresh, f) for f in fields]
        # one object per normal form, whatever context or word it came from
        assert infinite_order_certificate(ctx.normal_form(w), RaagContext(graph)) is cert
    # trivial words stay inconclusive after nontrivial ones were cached
    for trivial in ((), words[0] + inverse_word(words[0])):
        cert = infinite_order_certificate(trivial, ctx)
        assert cert.status is CertificateStatus.INCONCLUSIVE
        assert cert == fresh_exact_certificate(trivial, ctx)
