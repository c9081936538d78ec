"""Inner-amenability verdicts and chain-commuting certificates for graph groups."""

import itertools

import pytest

import chainlab.raag as raag_module
from chainlab.errors import InputError
from chainlab.qnormal import QNormalStatus, verify_chain
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
    commuting_vertex_walk,
    cone_vertices,
    dihedral_central_element,
    emit_qnormal_chain,
    exact_chain_contexts,
    is_inner_amenable_raag,
    symmetric_quotient_probe,
)
from chainlab.words import RaagGraph, raag_graph


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


class TestCommutingWalks:
    def test_cycle4_walk(self):
        assert commuting_vertex_walk(cycle4()) == (1, 2, 3, 4)

    def test_path3_walk(self):
        assert commuting_vertex_walk(path3()) == (1, 2, 3)

    def test_star_walk_backtracks_through_center(self):
        assert commuting_vertex_walk(star4()) == (1, 2, 1, 3, 1, 4)

    def test_walk_consecutive_entries_adjacent(self):
        g = cycle4()
        w = commuting_vertex_walk(g)
        assert all(g.adjacent(w[i], w[i + 1]) for i in range(len(w) - 1))

    def test_single_vertex_walk(self):
        assert commuting_vertex_walk(raag_graph(1, [])) == (1,)

    def test_sequence_leaves_the_connectivity_check_to_the_walk(self, monkeypatch):
        def no_second_check(self):
            raise AssertionError("connectivity is decided by the walk")

        monkeypatch.setattr(RaagGraph, "is_connected", no_second_check)
        assert chain_commuting_sequence(raag_graph(3, [(1, 2)])) is None
        assert chain_commuting_sequence(cycle4()).elements[0] == (1,)
        assert artin_chain_commuting(artin_graph(3, {(1, 2): 3})) is None
        with pytest.raises(InputError):
            commuting_vertex_walk(raag_graph(3, [(1, 2)]))

    def test_disconnected_walk_raises(self):
        with pytest.raises(InputError):
            commuting_vertex_walk(raag_graph(2, []))

    def test_bad_start_raises(self):
        with pytest.raises(InputError):
            commuting_vertex_walk(path3(), start=5)


class TestChainCommutingSequences:
    def test_cycle4_sequence(self):
        seq = chain_commuting_sequence(cycle4())
        assert seq.elements == ((1,), (2,), (3,), (4,))
        assert seq.all_machine_verified
        assert all(p.kind == "normal-form" for p in seq.proofs)
        assert all(c.proven for c in seq.order_certificates)

    def test_path3_sequence(self):
        seq = chain_commuting_sequence(path3())
        assert seq.elements == ((1,), (2,), (3,))
        assert seq.all_machine_verified

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
        bad = ChainCommutingSequence(
            ((1,), (3,)), seq.proofs[:1], seq.order_certificates[:2]
        )
        with pytest.raises(InputError):
            emit_qnormal_chain(bad, g)  # 1 and 3 are not adjacent in the 4-cycle

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
        assert artin_graph(3, {(1, 2): 2, (2, 3): 2}).is_raag
        assert not artin_graph(3, {(1, 2): 2, (2, 3): 3}).is_raag

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
        assert seq.all_machine_verified
        assert all(p.kind == "normal-form" for p in seq.proofs)

    def test_label_three_uses_cited_facts(self):
        ag = artin_graph(2, {(1, 2): 3})
        seq = artin_chain_commuting(ag)
        assert seq.elements == ((1,), (1, 2, 1, 2, 1, 2), (2,))
        assert all(p.kind == "cited-fact" and not p.machine_verified for p in seq.proofs)
        # infinite orders still certified through the abelianization
        assert all(c.proven for c in seq.order_certificates)
        assert not seq.all_machine_verified

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
