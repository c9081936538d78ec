"""Inner-amenability verdicts and chain-commuting certificates for graph groups."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlab.qnormal as qnormal_module
import chainlab.raag as raag_module
from chainlab.contexts import EqualityVerdict, RaagContext, context_for
from chainlab.errors import InputError
from chainlab.qnormal import (
    QNormalChainCertificate,
    QNormalStatus,
    QNormalWitness,
    QNormalWitnessSet,
    verify_chain,
    verify_qnormal,
)
from chainlab.raag import (
    ArtinGraph,
    ChainCommutingSequence,
    artin_central_chain,
    artin_chain_commuting,
    artin_graph,
    artin_presentation,
    braiding_relator,
    chain_commuting_report,
    chain_commuting_sequence,
    cone_vertices,
    dihedral_central_element,
    emit_qnormal_chain,
    exact_chain_contexts,
    is_inner_amenable_raag,
    symmetric_quotient_probe,
)
from chainlab.words import RaagGraph, default_names, raag_graph


def cycle4():
    return raag_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def path3():
    return raag_graph(3, [(1, 2), (2, 3)])


def star4():
    return raag_graph(4, [(1, 2), (1, 3), (1, 4)])


class TestInnerAmenability:
    def test_cycle4_not_inner_amenable(self):
        # the 4-cycle group is the direct product of two rank-2 free groups
        rep = is_inner_amenable_raag(cycle4())
        assert not rep.inner_amenable
        assert rep.cone_vertices == ()
        assert "no cone vertex" in rep.reason

    def test_path3_inner_amenable_via_cone(self):
        rep = is_inner_amenable_raag(path3())
        assert rep.inner_amenable
        assert rep.cone_vertices == (2,)
        assert rep.centrality_verified
        assert not rep.is_complete

    def test_single_vertex_inner_amenable(self):
        rep = is_inner_amenable_raag(raag_graph(1, []))
        assert rep.inner_amenable
        assert rep.is_complete

    def test_two_isolated_vertices_not_inner_amenable(self):
        # rank-2 free group: no cone vertex
        rep = is_inner_amenable_raag(raag_graph(2, []))
        assert not rep.inner_amenable

    def test_complete_graph_free_abelian(self):
        rep = is_inner_amenable_raag(raag_graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert rep.inner_amenable
        assert rep.is_complete
        assert rep.cone_vertices == (1, 2, 3)
        assert "free abelian" in rep.reason

    def test_star_inner_amenable(self):
        rep = is_inner_amenable_raag(star4())
        assert rep.inner_amenable
        assert rep.cone_vertices == (1,)

    def test_cone_vertices_helper(self):
        assert cone_vertices(path3()) == (2,)
        assert cone_vertices(cycle4()) == ()


def _recursive_walk(g, start):
    """The recursive depth-first walk the iterative one replaced, kept as an oracle."""
    visited = {start}
    walk = [start]

    def dfs(u):
        for v in g.neighbors(u):
            if v not in visited:
                visited.add(v)
                walk.append(v)
                dfs(v)
                walk.append(u)

    dfs(start)
    if len(visited) != g.vertex_count:
        return None
    last_new = max(walk.index(v) for v in visited)
    return tuple(walk[: last_new + 1])


@st.composite
def graphs_with_a_start(draw):
    """Any graph on 1-12 vertices, connected or not, and a start vertex."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return RaagGraph(n, frozenset(edges)), draw(st.integers(1, n))


class TestCommutingWalks:
    """The depth-first walk, read off the generators of the chain-commuting sequence."""

    @staticmethod
    def walk(g, start=1):
        return tuple(v for (v,) in chain_commuting_sequence(g, start).elements)

    def test_cycle4_walk(self):
        assert self.walk(cycle4()) == (1, 2, 3, 4)

    def test_path3_walk(self):
        assert self.walk(path3()) == (1, 2, 3)

    def test_star_walk_backtracks_through_center(self):
        assert self.walk(star4()) == (1, 2, 1, 3, 1, 4)

    def test_walk_consecutive_entries_adjacent(self):
        g = cycle4()
        w = self.walk(g)
        assert all(g.adjacent(w[i], w[i + 1]) for i in range(len(w) - 1))

    def test_single_vertex_walk(self):
        assert self.walk(raag_graph(1, [])) == (1,)

    def test_sequence_leaves_the_connectivity_check_to_the_walk(self, monkeypatch):
        def no_second_check(self):
            raise AssertionError("connectivity is decided by the walk")

        monkeypatch.setattr(RaagGraph, "is_connected", no_second_check)
        assert chain_commuting_sequence(raag_graph(3, [(1, 2)])) is None
        assert chain_commuting_sequence(cycle4()).elements[0] == (1,)
        assert artin_chain_commuting(artin_graph(3, {(1, 2): 3})) is None

    def test_disconnected_walk_raises(self):
        assert chain_commuting_sequence(raag_graph(2, [])) is None
        with pytest.raises(InputError):  # the start is checked before connectivity
            chain_commuting_sequence(raag_graph(2, []), start=3)

    def test_bad_start_raises(self):
        with pytest.raises(InputError):
            chain_commuting_sequence(path3(), start=5)

    @settings(max_examples=400, deadline=None)
    @given(graphs_with_a_start())
    def test_walk_matches_the_recursive_walk(self, case):
        g, start = case
        assert raag_module._depth_first_walk(g, start) == _recursive_walk(g, start)

    def test_a_path_deeper_than_the_recursion_limit_is_walked(self):
        n = 2000
        g = raag_graph(n, [(i, i + 1) for i in range(1, n)])
        assert self.walk(g) == tuple(range(1, n + 1))


class TestChainCommutingSequences:
    def test_cycle4_sequence(self):
        seq = chain_commuting_sequence(cycle4())
        assert seq.elements == ((1,), (2,), (3,), (4,))
        assert all(p.machine_verified for p in seq.proofs)
        assert all(p.kind == "normal-form" for p in seq.proofs)
        assert all(c.proven for c in seq.order_certificates)

    def test_path3_sequence(self):
        seq = chain_commuting_sequence(path3())
        assert seq.elements == ((1,), (2,), (3,))
        assert all(p.machine_verified for p in seq.proofs)
        assert all(c.proven for c in seq.order_certificates)

    def test_disconnected_returns_none(self):
        assert chain_commuting_sequence(raag_graph(2, [])) is None
        assert chain_commuting_sequence(raag_graph(5, [(1, 2), (3, 4)])) is None

    def test_single_vertex_sequence(self):
        seq = chain_commuting_sequence(raag_graph(1, []))
        assert seq.elements == ((1,),)
        assert seq.proofs == ()
        assert seq.order_certificates[0].proven

    def test_sequence_meets_every_generator(self):
        seq = chain_commuting_sequence(star4())
        assert seq.letters_used() == frozenset({1, 2, 3, 4})

    def test_sequence_validation(self):
        with pytest.raises(InputError):
            ChainCommutingSequence((), (), ())
        seq = chain_commuting_sequence(path3())
        with pytest.raises(InputError):
            ChainCommutingSequence(seq.elements, (), seq.order_certificates)
        with pytest.raises(InputError):
            ChainCommutingSequence(seq.elements, seq.proofs, seq.order_certificates[:-1])


class TestEmittedChains:
    def test_cycle4_chain_proven(self):
        g = cycle4()
        seq = chain_commuting_sequence(g)
        cert = emit_qnormal_chain(seq, g)
        assert len(cert.steps) == 3
        assert cert.base == (1,)
        report = verify_chain(cert, exact_chain_contexts(cert))
        assert report.status is QNormalStatus.PROVEN

    def test_star_chain_proven_with_repeating_walk(self):
        g = star4()
        seq = chain_commuting_sequence(g)
        cert = emit_qnormal_chain(seq, g)
        assert len(cert.steps) == 3
        report = verify_chain(cert, exact_chain_contexts(cert))
        assert report.status is QNormalStatus.PROVEN

    def test_new_generator_witnessed_by_walk_predecessor(self):
        # in the star walk 1,2,1,3,1,4 every new leaf is witnessed by the hub
        g = star4()
        cert = emit_qnormal_chain(chain_commuting_sequence(g), g)
        for step in cert.steps:
            assert step.witnesses[-1].w == (1,)

    def test_single_vertex_zero_step_chain(self):
        g = raag_graph(1, [])
        cert = emit_qnormal_chain(chain_commuting_sequence(g), g)
        assert cert.steps == ()
        assert cert.base == (1,)
        report = verify_chain(cert, exact_chain_contexts(cert))
        assert report.status is QNormalStatus.PROVEN
        assert report.base_certificate.proven

    def test_invalid_sequence_rejected(self):
        g = cycle4()
        seq = chain_commuting_sequence(g)
        # meets every vertex, but 1 and 3 are not adjacent in the 4-cycle
        bad = ChainCommutingSequence(
            ((1,), (3,), (2,), (4,)), seq.proofs[:3], seq.order_certificates[:4]
        )
        with pytest.raises(InputError, match="consecutive sequence entries 1 and 3 do not commute"):
            emit_qnormal_chain(bad, g)
        with pytest.raises(InputError, match="need exactly one name per vertex"):
            emit_qnormal_chain(seq, g, ("a", "b", "c"))
        for element, message in (
            ((1, 2), "is not a single generator"),
            ((-1,), "is not a single generator"),
            ((0,), "must be nonzero integers"),
            ((5,), "beyond the 4 declared"),
        ):
            not_a_letter = ChainCommutingSequence(
                seq.elements[:1] + (element,) + seq.elements[2:], seq.proofs, seq.order_certificates
            )
            with pytest.raises(InputError, match=message):
                emit_qnormal_chain(not_a_letter, g)

    def test_sequence_missing_generator_rejected(self):
        g = cycle4()
        seq = chain_commuting_sequence(g)
        partial = ChainCommutingSequence(
            seq.elements[:2], seq.proofs[:1], seq.order_certificates[:2]
        )
        with pytest.raises(InputError):
            emit_qnormal_chain(partial, g)

    def test_report_wrapper(self):
        rep = chain_commuting_report(cycle4())
        assert rep.connected
        assert rep.chain_commuting
        rep = chain_commuting_report(raag_graph(2, []))
        assert not rep.connected
        assert rep.sequence is None and rep.certificate is None
        assert not rep.chain_commuting

    def test_cycle4_contrast_with_inner_amenability(self):
        # certifiably chain-commuting yet not inner amenable
        assert chain_commuting_report(cycle4()).chain_commuting
        assert not is_inner_amenable_raag(cycle4()).inner_amenable


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(2 ** len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        g = RaagGraph(n, edges)
        if n == 1 or g.is_connected():
            yield g


def _per_step_chain(seq, g):
    """The construction the walk-order prefixes replaced, kept as an oracle.

    Every step induces its own graph on the first-visit order's prefix and
    builds that graph's presentation and witnesses afresh.
    """
    walk = [e[0] for e in seq.elements]
    order, predecessor = [], {}
    for i, v in enumerate(walk):
        if v not in order:
            order.append(v)
            if i > 0:
                predecessor[v] = walk[i - 1]
    names = default_names(g.vertex_count)
    steps, graphs = [], []
    for k in range(1, len(order)):
        vs = order[: k + 1]
        sub = g.induced(vs)
        graphs.append(sub)
        position = {v: i + 1 for i, v in enumerate(vs)}
        prev = position[predecessor[order[k]]]
        witnesses = [QNormalWitness((j,), (j,), (j,)) for j in range(1, k + 1)]
        witnesses.append(QNormalWitness((prev,), (prev,), (prev,)))
        steps.append(QNormalWitnessSet(
            ambient=sub.presentation([names[v - 1] for v in vs]),
            subgroup_words=tuple((j,) for j in range(1, k + 1)),
            generating_set=tuple((j,) for j in range(1, k + 2)),
            witnesses=tuple(witnesses),
        ))
    return QNormalChainCertificate(steps=tuple(steps), base=(1,)), tuple(graphs)


def _checked_step_by_step(cert):
    """Each step's report from verify_qnormal in its own context: nothing is handed on."""
    return [verify_qnormal(step, context_for(step.ambient)) for step in cert.steps]


@st.composite
def connected_graphs(draw):
    """A connected graph on 6-12 vertices, each pair an edge with probability 0.2-0.8."""
    n = draw(st.integers(6, 12))
    density = draw(st.floats(0.2, 0.8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        g = RaagGraph(n, frozenset(p for p in pairs if rng.random() < density))
        if g.is_connected():
            return g


class TestChainReuse:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs())
    def test_walk_order_prefixes_match_the_per_step_oracle(self, g):
        rep = chain_commuting_report(g)
        cert, graphs = _per_step_chain(rep.sequence, g)
        assert rep.certificate == cert
        _, contexts = raag_module._parabolic_chain(rep.sequence, g)
        prefixes = tuple(ctx.graph for ctx in contexts)
        assert prefixes == graphs
        assert [h.non_commuters for h in prefixes] == [h.non_commuters for h in graphs]
        assert rep.verification.status is QNormalStatus.PROVEN
        assert [s.report for s in rep.verification.step_reports] == _checked_step_by_step(cert)

    def test_a_chain_checks_each_witness_once(self, monkeypatch):
        checked = []
        check = qnormal_module._check_witness

        def counting_check(*args):
            checked.append(args)
            return check(*args)

        monkeypatch.setattr(qnormal_module, "_check_witness", counting_check)
        n = 40
        rep = chain_commuting_report(raag_graph(n, [(i, i + 1) for i in range(1, n)]))
        assert rep.chain_commuting
        # each step adds one generator's self-witness and the new generator's witness
        assert len(checked) <= 2 * (n - 1)
        # a certificate read back gets the same reuse through exact_chain_contexts
        checked.clear()
        assert verify_chain(rep.certificate, exact_chain_contexts(rep.certificate)) == rep.verification
        assert len(checked) <= 2 * (n - 1)

    def test_no_report_is_handed_to_a_step_whose_graph_does_not_extend(self):
        # step 0 is Z^2 on a, b; step 1's graph has no edge ab, so it does
        # not restrict to step 0's graph.  The witness a for s = b is the same
        # in both steps, and a = b a b^-1 holds in step 0 only.
        g0, g1 = raag_graph(2, [(1, 2)]), raag_graph(3, [(1, 3), (2, 3)])
        p0, p1 = g0.presentation(), g1.presentation()
        a = QNormalWitness((1,), (1,), (1,))
        cert = QNormalChainCertificate(
            steps=(
                QNormalWitnessSet(p0, ((1,),), ((1,), (2,)), (a, a)),
                QNormalWitnessSet(p1, ((1,), (2,)), ((1,), (2,), (3,)), (a, a, a)),
            ),
            base=(1,),
        )
        report = verify_chain(cert, (RaagContext(g0), RaagContext(g1)))
        before = report.step_reports[0].report.witness_reports[1]
        after = report.step_reports[1].report.witness_reports[1]
        assert before.in_conjugate is EqualityVerdict.EQUAL
        assert after.in_conjugate is EqualityVerdict.UNEQUAL
        assert before != after
        assert report.status is QNormalStatus.FAILED
        assert [s.report for s in report.step_reports] == _checked_step_by_step(cert)


def _seeded_connected_graph(n, density, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        g = RaagGraph(n, frozenset(p for p in pairs if rng.random() < density))
        if g.is_connected():
            return g


class TestChainSharing:
    """A chain's data is built once and shared by its steps."""

    @pytest.mark.parametrize("g", [
        raag_graph(6, [(i, i + 1) for i in range(1, 6)]),
        cycle4(),
        _seeded_connected_graph(8, 0.4, seed=8),
    ], ids=["path6", "cycle4", "seeded8"])
    def test_steps_share_presentations_relators_and_certificates(self, g, monkeypatch):
        handed, walk_ordered = [], []
        verify, induced = raag_module.verify_chain, RaagGraph.induced
        monkeypatch.setattr(raag_module, "verify_chain",
                            lambda cert, contexts: handed.append(contexts) or verify(cert, contexts))
        monkeypatch.setattr(RaagGraph, "induced",
                            lambda graph, vs: walk_ordered.append(induced(graph, vs)) or walk_ordered[-1])
        rep = chain_commuting_report(g)
        assert rep.chain_commuting
        ((h,), (contexts,), steps) = walk_ordered, handed, rep.certificate.steps
        # each step is decided in the context of its prefix, whose presentation is its ambient
        assert [ctx.graph for ctx in contexts] == [h.prefix(k) for k in range(2, g.vertex_count + 1)]
        for step, ctx in zip(steps, contexts, strict=True):
            assert step.ambient is ctx.presentation
            assert step.ambient.relators is ctx.graph.commutators
        # every relator is one of the walk-ordered graph's own objects, never a re-reduced copy
        own = {id(r) for r in h.commutators}
        assert len(own) == len(g.edges)
        assert all(id(r) in own for step in steps for r in step.ambient.relators)
        # equal normal forms (single letters here) give the identical certificate object
        shared = {(1,): rep.verification.base_certificate}
        for step in rep.verification.step_reports:
            for r in step.report.witness_reports:
                assert shared.setdefault(r.w, r.order) is r.order
        for e, cert in zip(rep.sequence.elements, rep.sequence.order_certificates):
            assert shared.setdefault(e, cert) is cert
        assert len(shared) == g.vertex_count


class TestExhaustiveSweep:
    def test_all_connected_graphs_up_to_five_vertices_proven(self):
        total = 0
        for n in range(1, 6):
            for g in _connected_graphs(n):
                rep = chain_commuting_report(g)
                assert rep.chain_commuting, f"n={n}, edges={sorted(g.edges)}"
                total += 1
        assert total == 1 + 1 + 4 + 38 + 728

    def test_handed_over_contexts_match_exact_chain_contexts(self, monkeypatch):
        # chain_commuting_report builds each step's context from the induced
        # graph it emitted; the round trip through context_for must agree
        handed = []

        def recording_verify_chain(cert, contexts):
            handed.append(contexts)
            return verify_chain(cert, contexts)

        monkeypatch.setattr(raag_module, "verify_chain", recording_verify_chain)
        total = 0
        for n in range(1, 6):
            for g in _connected_graphs(n):
                handed.clear()
                rep = chain_commuting_report(g)
                (contexts,) = handed
                exact = exact_chain_contexts(rep.certificate)
                assert [(c.graph, c.presentation) for c in contexts] == [
                    (c.graph, c.presentation) for c in exact
                ], sorted(g.edges)
                # verify_chain hands reports on over exact contexts too, so
                # the independent reference checks every step on its own
                assert [s.report for s in rep.verification.step_reports] == _checked_step_by_step(
                    rep.certificate
                ), sorted(g.edges)
                reference = verify_chain(rep.certificate, exact)
                assert rep.verification.status is reference.status
                assert [s.report.witness_reports for s in rep.verification.step_reports] == [
                    s.report.witness_reports for s in reference.step_reports
                ]
                assert rep.verification == reference
                total += 1
        assert total == 772

    @pytest.mark.slow
    def test_all_connected_graphs_on_six_vertices_proven(self):
        total = 0
        for g in _connected_graphs(6):
            assert chain_commuting_report(g).chain_commuting, sorted(g.edges)
            total += 1
        assert total == 26704


class TestArtinGraphs:
    def test_braiding_relators(self):
        assert braiding_relator(1, 2, 2) == (1, 2, -1, -2)
        assert braiding_relator(1, 2, 3) == (1, 2, 1, -2, -1, -2)
        with pytest.raises(InputError):
            braiding_relator(1, 2, 1)

    def test_labels_must_cover_edges_exactly(self):
        with pytest.raises(InputError):
            ArtinGraph(raag_graph(3, [(1, 2), (2, 3)]), (((1, 2), 3),))
        with pytest.raises(InputError):
            ArtinGraph(raag_graph(2, []), (((1, 2), 3),))
        with pytest.raises(InputError):
            artin_graph(2, {(1, 2): 1})

    def test_is_raag_detection(self):
        # label 2 everywhere is read off the presentation: each braiding relator is a commutator
        ctx = context_for(artin_presentation(artin_graph(3, {(1, 2): 2, (2, 3): 2})))
        assert isinstance(ctx, RaagContext) and ctx.graph == path3()
        assert not context_for(artin_presentation(artin_graph(3, {(1, 2): 2, (2, 3): 3}))).decides_equality

    def test_label_lookup_is_symmetric(self):
        ag = artin_graph(3, {(1, 2): 4, (2, 3): 2})
        assert ag.label_of(2, 1) == 4
        with pytest.raises(InputError):
            ag.label_of(1, 3)

    def test_presentation_relators(self):
        ag = artin_graph(2, {(1, 2): 3})
        p = artin_presentation(ag)
        assert p.relators == ((1, 2, 1, -2, -1, -2),)

    def test_central_element(self):
        assert dihedral_central_element(1, 2, 3) == (1, 2, 1, 2, 1, 2)


class TestArtinChains:
    def test_all_label_two_fully_verified(self):
        ag = artin_graph(3, {(1, 2): 2, (2, 3): 2})
        seq = artin_chain_commuting(ag)
        assert seq.elements == ((1,), (1, 2, 1, 2), (2,), (2, 3, 2, 3), (3,))
        assert all(p.kind == "normal-form" and p.machine_verified for p in seq.proofs)
        assert all(c.proven for c in seq.order_certificates)

    def test_label_three_uses_cited_facts(self):
        ag = artin_graph(2, {(1, 2): 3})
        seq = artin_chain_commuting(ag)
        assert seq.elements == ((1,), (1, 2, 1, 2, 1, 2), (2,))
        assert all(p.kind == "cited-fact" and not p.machine_verified for p in seq.proofs)
        # infinite orders still certified through the abelianization
        assert all(c.proven for c in seq.order_certificates)

    def test_mixed_labels(self):
        ag = artin_graph(3, {(1, 2): 2, (2, 3): 5})
        seq = artin_chain_commuting(ag)
        kinds = [p.kind for p in seq.proofs]
        assert kinds == ["normal-form", "normal-form", "cited-fact", "cited-fact"]

    def test_disconnected_returns_none(self):
        assert artin_chain_commuting(artin_graph(3, {(1, 2): 3})) is None

    def test_central_elements_interleaved(self):
        ag = artin_graph(4, {(1, 2): 2, (1, 3): 3, (1, 4): 2})
        seq = artin_chain_commuting(ag)
        # odd positions are the dihedral central elements of the traversed edges
        for i in range(1, len(seq.elements), 2):
            z = seq.elements[i]
            a, b = abs(seq.elements[i - 1][0]), abs(seq.elements[i + 1][0])
            m = ag.label_of(a, b)
            assert z == dihedral_central_element(min(a, b), max(a, b), m)


class TestDihedralCentralChains:
    def test_m2_proven(self):
        cert, ctxs = artin_central_chain(2)
        report = verify_chain(cert, ctxs)
        assert report.status is QNormalStatus.PROVEN
        assert cert.base == (1, 2, 1, 2)

    def test_m3_consistent_with_battery(self):
        cert, ctxs = artin_central_chain(3)
        report = verify_chain(cert, ctxs)
        assert report.status is QNormalStatus.CONSISTENT

    def test_exact_chain_contexts_fall_back_to_a_battery(self):
        # the braid group is not a graph group: its step can only be consistent
        cert, _ = artin_central_chain(3)
        (ctx,) = exact_chain_contexts(cert)
        assert not ctx.decides_equality
        assert verify_chain(cert, (ctx,)).status is QNormalStatus.CONSISTENT
        (ctx,) = exact_chain_contexts(artin_central_chain(2)[0])
        assert ctx.decides_equality

    def test_symmetric_quotient_order(self):
        # adding s^2 = t^2 = 1 to the length-3 braiding gives 6 group elements
        table = symmetric_quotient_probe(3)
        assert table.index == 6

    def test_m4_consistent(self):
        cert, ctxs = artin_central_chain(4)
        report = verify_chain(cert, ctxs)
        assert report.status is QNormalStatus.CONSISTENT


def test_chain_commuting_report_computes_no_smith_normal_form(snf_calls):
    report = chain_commuting_report(cycle4())
    assert report.verification.status is QNormalStatus.PROVEN
    assert all(r.report.generating_set_spans_abelianization for r in report.verification.step_reports)
    assert snf_calls == []
