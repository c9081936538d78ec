"""Witness certificates, coset graphs, paths, trimming, and blow-ups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab.contexts import (
    EqualityVerdict,
    RaagContext,
    battery_context,
    free_abelian_context,
    free_context,
)
from chainlab.coset import build_abelian_chain, cyclic_cover_chain, todd_coxeter
from chainlab.errors import (
    BudgetExceededError,
    FactorizationNotFoundError,
    InputError,
    TruncationTooSmallError,
    UndecidableContextError,
)
from chainlab.fixtures import (
    golden_chain,
    plane_connectors,
    plane_context,
    plane_inner_ball,
    plane_line_ball,
    plane_line_solver,
    plane_outer_graph,
    plane_presentation,
    plane_rewriter,
)
from chainlab.qnormal import (
    _edge_orbit,
    AbelianCosetSolver,
    ParabolicCosetSolver,
    QNormalChainCertificate,
    QNormalStatus,
    QNormalWitness,
    QNormalWitnessSet,
    blow_up,
    build_coset_graph,
    chain_from_dict,
    chain_to_dict,
    compare_blowup_with_direct,
    connectedness_path,
    graph_to_dict,
    infer_solver,
    iota,
    trim_cocompact,
    verify_chain,
    verify_qnormal,
    weakest,
    witness_set_from_dict,
    witness_set_to_dict,
)
from chainlab.words import (
    RaagGraph,
    complete_graph,
    free_graph,
    inverse_word,
    presentation,
    raag_graph,
)

S3 = presentation(("s", "t"), [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)])


def witness(w, expr):
    return QNormalWitness(w=w, expr_in_subgroup=expr, expr_in_conjugate=expr)


# ------------------------------------------------------------- witness checks


class TestWitnessSets:
    def test_iota_substitutes_subgroup_generators(self):
        sub = ((1,), (2, 2))
        assert iota((1, 2), sub) == (1, 2, 2)
        assert iota((-2, 1), sub) == (-2, -2, 1)
        assert iota((), sub) == ()

    def test_witness_count_must_match_generating_set(self):
        p = plane_presentation()
        with pytest.raises(InputError):
            QNormalWitnessSet(
                ambient=p,
                subgroup_words=((1,),),
                generating_set=((1,), (2,)),
                witnesses=(witness((1,), (1,)),),
            )

    def test_expression_letters_must_index_subgroup_generators(self):
        p = plane_presentation()
        with pytest.raises(InputError):
            QNormalWitnessSet(
                ambient=p,
                subgroup_words=((1,),),
                generating_set=((1,),),
                witnesses=(witness((1,), (2,)),),
            )

    def test_empty_generating_set_rejected(self):
        p = plane_presentation()
        with pytest.raises(InputError):
            QNormalWitnessSet(
                ambient=p, subgroup_words=((1,),), generating_set=(), witnesses=()
            )

    def test_normal_subgroup_certifies_as_qnormal(self):
        # <x^2, y> is normal in Z^2; y witnesses both generators.
        p = plane_presentation()
        ws = QNormalWitnessSet(
            ambient=p,
            subgroup_words=((1, 1), (2,)),
            generating_set=((1,), (2,)),
            witnesses=(witness((2,), (2,)), witness((2,), (2,))),
        )
        report = verify_qnormal(ws, plane_context())
        assert report.status is QNormalStatus.PROVEN
        assert report.generating_set_spans_abelianization

    def test_spans_abelianization_flag_sees_small_generating_sets(self):
        p = plane_presentation()
        ws = QNormalWitnessSet(
            ambient=p,
            subgroup_words=((1,),),
            generating_set=((1,),),
            witnesses=(witness((1,), (1,)),),
        )
        report = verify_qnormal(ws, plane_context())
        assert report.status is QNormalStatus.PROVEN
        assert not report.generating_set_spans_abelianization

    def test_context_presentation_must_match(self):
        ws = QNormalWitnessSet(
            ambient=plane_presentation(),
            subgroup_words=((1,),),
            generating_set=((1,),),
            witnesses=(witness((1,), (1,)),),
        )
        with pytest.raises(InputError):
            verify_qnormal(ws, free_context(2))

    def test_battery_refutes_false_witness_claim(self):
        # In <a, b | b^2>, the claim a = b a b^-1 is false; the symmetric-group
        # quotient a -> (123), b -> (12) refutes it.
        amb = presentation(("a", "b"), [(2, 2)])
        s3 = presentation(("a", "b"), [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
        probe = todd_coxeter(s3, [], max_cosets=30)
        assert probe.index == 6
        ws = QNormalWitnessSet(
            ambient=amb,
            subgroup_words=((1,),),
            generating_set=((1,), (2,)),
            witnesses=(witness((1,), (1,)), witness((1,), (1,))),
        )
        refuting = verify_qnormal(ws, battery_context(amb, [probe]))
        assert refuting.status is QNormalStatus.FAILED
        assert refuting.witness_reports[1].in_conjugate is EqualityVerdict.UNEQUAL
        # Without probes nothing is refuted, but nothing is proven either.
        lenient = verify_qnormal(ws, battery_context(amb))
        assert lenient.status is QNormalStatus.CONSISTENT
        assert lenient.witness_reports[0].status is QNormalStatus.PROVEN

    def test_weakest_status_ordering(self):
        assert weakest([QNormalStatus.PROVEN, QNormalStatus.CONSISTENT]) is QNormalStatus.CONSISTENT
        assert weakest([QNormalStatus.CONSISTENT, QNormalStatus.FAILED]) is QNormalStatus.FAILED
        assert weakest([]) is QNormalStatus.PROVEN


class TestChains:
    def test_golden_chain_is_proven(self):
        cert, contexts = golden_chain()
        report = verify_chain(cert, contexts)
        assert report.status is QNormalStatus.PROVEN
        assert report.base_is_subgroup_generator
        assert report.base_certificate.proven
        assert report.failure_reasons == ()
        assert [r.composable_with_previous for r in report.step_reports] == [None, True, True]
        assert all(r.report.generating_set_spans_abelianization for r in report.step_reports)
        # The generator b^2 of the middle group is witnessed by c, not by a power of b.
        middle = report.step_reports[1].report.witness_reports[1]
        assert middle.s == (2,)
        assert middle.w == (3,)
        assert middle.status is QNormalStatus.PROVEN

    def test_chain_composability_mismatch_fails(self):
        cert, contexts = golden_chain()
        broken_step1 = QNormalWitnessSet(
            ambient=cert.steps[1].ambient,
            subgroup_words=cert.steps[1].subgroup_words[:2],  # drops d
            generating_set=cert.steps[1].generating_set,
            witnesses=tuple(
                QNormalWitness(
                    w=wit.w,
                    expr_in_subgroup=(1,),
                    expr_in_conjugate=(1,),
                )
                for wit in cert.steps[1].witnesses
            ),
        )
        broken = QNormalChainCertificate(
            steps=(cert.steps[0], broken_step1, cert.steps[2]), base=cert.base
        )
        report = verify_chain(broken, contexts)
        assert report.status is QNormalStatus.FAILED
        assert report.step_reports[1].composable_with_previous is False
        assert any("step 1" in reason for reason in report.failure_reasons)

    def test_chain_base_must_generate_bottom_subgroup(self):
        cert, contexts = golden_chain()
        wrong_base = QNormalChainCertificate(steps=cert.steps, base=(2,))
        report = verify_chain(wrong_base, contexts)
        assert not report.base_is_subgroup_generator
        assert report.status is QNormalStatus.FAILED

    def test_chain_requires_one_context_per_step(self):
        cert, contexts = golden_chain()
        with pytest.raises(InputError):
            verify_chain(cert, contexts[:2])

    def test_chain_json_roundtrip(self):
        cert, _ = golden_chain()
        again = chain_from_dict(chain_to_dict(cert))
        assert again == cert

    def test_witness_set_json_roundtrip(self):
        cert, _ = golden_chain()
        ws = cert.steps[1]
        assert witness_set_from_dict(witness_set_to_dict(ws)) == ws

    def test_malformed_chain_dict_rejected(self):
        with pytest.raises(InputError):
            chain_from_dict({"base": [1]})


# --------------------------------------------------------------- coset graphs


class TestCompleteGraphs:
    def test_index_two_line_quotient(self):
        # Z / <a^2>: two cosets, a single edge in a single orbit.
        p = presentation(("a",), [])
        g = build_coset_graph(p, [(1, 1)], [(1,)])
        assert g.kind == "complete"
        assert len(g.vertices) == 2
        assert g.edges == ((0, 1, 0),)
        assert g.edge_orbits() == (0,)
        assert g.is_connected()

    def test_symmetric_group_edge_family_is_full_orbit(self):
        # S3 over <t>: the s-edges form a triangle even though left
        # multiplication by s alone moves only two of the three cosets.
        g = build_coset_graph(S3, [(2,)], [(1,), (2,)])
        assert len(g.vertices) == 3
        s_edges = {(u, v) for u, v, label in g.edges if label == 0}
        assert s_edges == {(0, 1), (0, 2), (1, 2)}
        t_edges = {(u, v) for u, v, label in g.edges if label == 1}
        assert t_edges == {(0, 0), (1, 1), (2, 2)}  # t lies in the subgroup
        assert left_action_closed(g)

    def test_vertex_of_traces_left_cosets(self):
        g = build_coset_graph(S3, [(2,)], [(1,), (2,)])
        assert g.vertex_of(()) == 0
        assert g.vertex_of((2,)) == 0  # t is in the subgroup
        assert g.vertex_of((1,)) == g.vertex_of((1, 2))  # sL = stL
        assert len({g.vertex_of(()), g.vertex_of((1,)), g.vertex_of((2, 1))}) == 3

    def test_budget_must_be_positive(self):
        with pytest.raises(InputError):
            build_coset_graph(plane_presentation(), [(1,)], [(1,)], budget=0)

    def test_generating_set_must_be_nonempty(self):
        with pytest.raises(InputError):
            build_coset_graph(plane_presentation(), [(1,)], [])


class TestBallGraphs:
    def test_line_ball_shape(self):
        g = plane_line_ball()
        assert g.kind == "ball"
        assert g.radius == 3
        assert len(g.vertices) == 7
        assert len(g.edges) == 13
        assert g.edge_orbits() == (0, 1)
        loops = [e for e in g.edges if e[0] == e[1]]
        assert len(loops) == 7 and all(label == 0 for _, _, label in loops)
        assert len(g.frontier) == 2
        assert g.vertices[0] == ()

    def test_vertex_lookup_and_truncation(self):
        g = plane_line_ball()
        assert g.vertex_of((1,)) == 0  # x lies in the subgroup
        assert g.vertex_of((2, 1, 2, -1)) == g.vertex_of((2, 2))
        with pytest.raises(TruncationTooSmallError):
            g.vertex_of((2, 2, 2, 2))

    def test_solver_inference_refuses_unknown_shapes(self):
        # A non-graph-group relator with an infinite-index subgroup: no
        # canonicalizer is inferred and the build refuses to guess.
        p = presentation(("a", "b"), [(1, 2, 1, 2)])
        with pytest.raises(UndecidableContextError):
            build_coset_graph(p, [(1, 1, 2)], [(1,)], budget=40)

    def test_parabolic_inference_needs_single_letter_words(self):
        p = free_context(2).presentation
        assert infer_solver(p, [(1, 2)]) is None
        solver = infer_solver(p, [(1,)])
        assert isinstance(solver, ParabolicCosetSolver)

    def test_abelian_solver_accepts_arbitrary_words(self):
        solver = infer_solver(plane_presentation(), [(1, 2, 2)])
        assert isinstance(solver, AbelianCosetSolver)
        assert solver.canonical((1, 2, 2)) == ()
        assert solver.canonical((1,)) == solver.canonical((-2, -2))

    def test_abelian_solver_factors_its_lattice_once(self, monkeypatch, snf_calls):
        import chainlab.intmat as intmat
        import chainlab.qnormal as qnormal

        built = []
        monkeypatch.setattr(qnormal, "Lattice", lambda *a, **k: built.append(1) or intmat.Lattice(*a, **k))
        solver = infer_solver(plane_presentation(), [(1, 1), (2, 2, 2)])
        assert solver.to_subgroup_letters((1, 1, 2, 2, 2)) == (1, 2)
        assert solver.to_subgroup_letters((1, 2)) is None
        assert solver.to_subgroup_letters((-1, -1, -1, -1)) == (-1, -1)
        assert len(built) == 1
        assert snf_calls == []

    def test_parabolic_canonical_forms(self):
        c4 = raag_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        solver = ParabolicCosetSolver(c4, frozenset({1}))
        assert solver.canonical((1,)) == ()
        assert solver.canonical((1, 3)) == (3,)  # the subgroup letter commutes out
        assert solver.canonical((2, 1)) == (2,)
        assert solver.canonical((1, 2)) == (1, 2)  # blocked: 1 and 2 do not commute
        # Coset invariance under right multiplication by subgroup letters.
        for w in [(), (2,), (1, 2), (3, 2, -4)]:
            assert solver.canonical(tuple(w) + (1,)) == solver.canonical(w)
            assert solver.canonical(tuple(w) + (-1,)) == solver.canonical(w)

    def test_parabolic_ball_builds(self):
        c4 = raag_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        p = c4.presentation()
        g = build_coset_graph(p, [(1,)], [(1,), (2,), (3,), (4,)], budget=10, radius=2)
        assert g.kind == "ball"
        assert g.vertices[0] == ()
        assert g.vertex_of((1,)) == 0
        assert g.vertex_of((3,)) == g.vertex_of((1, 3))

    def test_ball_stops_past_the_coset_budget(self, monkeypatch):
        import chainlab.coset as coset

        p = plane_presentation()
        big = build_coset_graph(p, [(1,)], [(1,), (2,)], budget=10, radius=8)
        monkeypatch.setattr(coset, "DEFAULT_BUDGET", len(big.vertices))
        assert len(build_coset_graph(p, [(1,)], [(1,), (2,)], budget=10, radius=8).vertices) == 17
        monkeypatch.setattr(coset, "DEFAULT_BUDGET", len(big.vertices) - 1)
        with pytest.raises(BudgetExceededError):
            build_coset_graph(p, [(1,)], [(1,), (2,)], budget=10, radius=8)
        monkeypatch.setattr(coset, "DEFAULT_BUDGET", 50)
        with pytest.raises(BudgetExceededError):  # would otherwise never finish
            build_coset_graph(p, [(1, 1)], [(1,), (2,)], budget=10, radius=10**6)


# ----------------------------------------------- solver/rewriter agreement


def words_over(rank, max_size):
    letters = [g for v in range(1, rank + 1) for g in (v, -v)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


@st.composite
def abelian_cases(draw):
    rank = draw(st.integers(1, 3))
    subgroup_words = draw(st.lists(words_over(rank, 4), max_size=3))
    return complete_graph(rank), subgroup_words, draw(words_over(rank, 8))


@st.composite
def parabolic_cases(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    graph = RaagGraph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))
    vertices = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    letters = [v * draw(st.sampled_from((1, -1))) for v in vertices]
    return graph, [(x,) for x in letters], draw(words_over(n, 8))


def check_solver_agrees_with_rewriting(solver, ctx, subgroup_words, w):
    rewritten = solver.to_subgroup_letters(w)
    assert (rewritten is None) == (solver.canonical(w) != solver.canonical(()))
    if rewritten is not None:
        assert ctx.equal(iota(rewritten, subgroup_words), w) is EqualityVerdict.EQUAL


class TestSolverRewriting:
    """canonical() and to_subgroup_letters() of one solver decide membership alike."""

    @settings(max_examples=150, deadline=None)
    @given(abelian_cases())
    def test_abelian(self, case):
        graph, subgroup_words, w = case
        solver = infer_solver(graph.presentation(), subgroup_words)
        assert isinstance(solver, AbelianCosetSolver)
        ctx = free_abelian_context(graph.vertex_count)
        check_solver_agrees_with_rewriting(solver, ctx, subgroup_words, w)

    @settings(max_examples=150, deadline=None)
    @given(parabolic_cases())
    def test_parabolic(self, case):
        graph, subgroup_words, w = case
        solver = ParabolicCosetSolver(graph, [x for (x,) in subgroup_words])
        check_solver_agrees_with_rewriting(solver, RaagContext(graph), subgroup_words, w)

    def test_negative_parabolic_generator_maps_to_inverse_letter(self):
        c4 = raag_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        solver = infer_solver(c4.presentation(), [(3,), (-1,)])
        assert isinstance(solver, ParabolicCosetSolver)
        assert solver.to_subgroup_letters((1,)) == (-2,)
        assert solver.to_subgroup_letters((-1,)) == (2,)
        assert solver.to_subgroup_letters((3,)) == (1,)
        assert solver.to_subgroup_letters((1, 2)) is None

    def test_abelian_rewrites_through_the_lattice(self):
        solver = plane_rewriter()  # <x, y^2> in Z^2
        assert solver.to_subgroup_letters((2, 1, 2)) == (1, 2)
        assert solver.to_subgroup_letters((2,)) is None


class TestPathsAndTrim:
    def test_path_along_the_line(self):
        g = plane_line_ball()
        ctx = plane_context()
        path = connectedness_path((2, 2, 2), g, ctx)
        assert path.factorization == (2, 2, 2)
        assert path.vertices == ((), (2,), (2, 2), (2, 2, 2))
        assert all(path.edges_in_graph)

    def test_path_with_subgroup_detour_has_loop(self):
        g = plane_line_ball()
        path = connectedness_path((1, 2), g, plane_context())
        assert len(path.vertex_indices) == 3
        assert path.vertex_indices[0] == path.vertex_indices[1] == 0
        assert path.edges[0] == (0, 0, 0)

    def test_supplied_factorization_is_checked(self):
        g = plane_line_ball()
        ctx = plane_context()
        path = connectedness_path((2, 2), g, ctx, factorization=[2, 2])
        assert path.vertices[-1] == (2, 2)
        with pytest.raises(InputError):
            connectedness_path((2, 2), g, ctx, factorization=[2])
        with pytest.raises(InputError):
            connectedness_path((2, 2), g, ctx, factorization=[5])

    def test_path_leaving_the_ball_reports_truncation(self):
        g = plane_line_ball()
        with pytest.raises(TruncationTooSmallError):
            connectedness_path((2, 2, 2, 2), g, plane_context())

    def test_unreachable_target_exhausts_the_search(self):
        p = plane_presentation()
        g = build_coset_graph(p, [(1,)], [(1,)], budget=3, radius=2)
        with pytest.raises(FactorizationNotFoundError):
            connectedness_path((2,), g, plane_context(), bound=4)

    def test_stabilizer_witnesses_fix_both_endpoints(self):
        g = plane_line_ball()
        checks = g.check_stabilizer_witnesses()
        assert len(checks) == len(g.edges)
        assert all(checks)

    def test_stabilizer_witnesses_require_witness_data(self):
        g = build_coset_graph(plane_presentation(), [(1,)], [(1,), (2,)], budget=5)
        with pytest.raises(InputError):
            g.check_stabilizer_witnesses()

    def test_trim_keeps_only_used_orbits(self):
        p = plane_presentation()
        g = build_coset_graph(
            p, [(1,)], [(1,), (2,), (1, 2)], budget=5, radius=3
        )
        assert g.edge_orbits() == (0, 1, 2)
        trimmed, kept = trim_cocompact(g, [(1,), (2,)], plane_context())
        assert kept == (0, 1)
        assert trimmed.edge_orbits() == (0, 1)
        assert trimmed.vertices == g.vertices
        assert set(trimmed.edges) == {e for e in g.edges if e[2] != 2}

    def test_trim_of_minimal_generating_set_keeps_everything(self):
        g = plane_line_ball()
        trimmed, kept = trim_cocompact(g, [(1,), (2,)], plane_context())
        assert kept == (0, 1)
        assert set(trimmed.edges) == set(g.edges)


# -------------------------------------------------------------------- blow-up


class TestBlowUp:
    def build(self, inner_radius=3):
        outer = plane_outer_graph()
        inner = plane_inner_ball(inner_radius)
        return blow_up(
            outer,
            inner,
            plane_connectors(),
            plane_context(),
            [(1,)],
            plane_rewriter(),
            solver=plane_line_solver(),
        )

    def test_vertices_are_the_product_cosets(self):
        b = self.build()
        assert b.vertex_count_identity()
        assert len(b.vertices) == 2 * 7
        assert len(set(b.canonical_words)) == 14

    def test_blow_up_reproduces_the_direct_graph(self):
        b = self.build()
        direct = build_coset_graph(
            plane_presentation(),
            [(1,)],
            [(1,), (2, 2), (2,)],
            budget=3,
            radius=3,
        )
        comparison = compare_blowup_with_direct(b, direct)
        assert comparison.common_vertices == 13
        assert comparison.matches

    def test_connector_images_leaving_the_truncation_are_counted(self):
        b = self.build()
        assert b.dropped_edges >= 1

    def test_missing_connector_is_refused(self):
        outer = plane_outer_graph()
        inner = plane_inner_ball()
        with pytest.raises(InputError, match="missing connector"):
            blow_up(
                outer,
                inner,
                plane_connectors()[:1],
                plane_context(),
                [(1,)],
                plane_rewriter(),
            )

    def test_unproven_connector_witness_is_refused(self):
        from chainlab.qnormal import Connector

        outer = plane_outer_graph()
        inner = plane_inner_ball()
        bad = (
            plane_connectors()[0],
            Connector(
                outer_label=1,
                g_f=(2,),
                witness=(2,),  # y is not in <x>: the membership equality fails
                witness_in_subgroup=(1,),
                witness_in_conjugate=(1,),
            ),
        )
        with pytest.raises(InputError, match="witness"):
            blow_up(outer, inner, bad, plane_context(), [(1,)], plane_rewriter())

    def test_outer_graph_must_be_complete(self):
        inner = plane_inner_ball()
        ball = plane_line_ball()
        with pytest.raises(InputError, match="complete"):
            blow_up(
                ball,
                inner,
                plane_connectors(),
                plane_context(),
                [(1,)],
                plane_rewriter(),
            )


class TestGraphJson:
    def test_graph_dict_shape(self):
        g = plane_line_ball()
        d = graph_to_dict(g)
        assert d["completeness"] == "ball(3)"
        assert len(d["vertices"]) == 7
        assert len(d["edges"]) == 13
        assert {e["orbit"] for e in d["edges"]} == {0, 1}

    def test_complete_graph_dict(self):
        g = build_coset_graph(S3, [(2,)], [(1,), (2,)])
        d = graph_to_dict(g)
        assert d["completeness"] == "complete"
        assert d["radius"] is None
        assert d["frontier"] == []


# ------------------------- oracles: pair-BFS edge orbits, per-coset tracing


class OracleTable:
    """Reference lookups: the generator permutations and their inverses, one per letter."""

    def __init__(self, table):
        self.table = table
        self.inverse = []
        for perm in table.action:
            inv = [0] * table.index
            for c, img in enumerate(perm, start=1):
                inv[img - 1] = c
            self.inverse.append(tuple(inv))

    def apply(self, c, letter):
        if letter > 0:
            return self.table.action[letter - 1][c - 1]
        return self.inverse[-letter - 1][c - 1]

    def trace(self, c, w):
        for letter in w:
            c = self.apply(c, letter)
        return c

    def word_permutation(self, w):
        return tuple(self.trace(c, w) for c in range(1, self.table.index + 1))

    def edge_orbit(self, s):
        """Breadth-first closure of the base pair under the diagonal right action."""
        base = (1, self.trace(1, inverse_word(s)))
        seen = {base}
        queue = [base]
        letters = [g for g in range(1, self.table.presentation.rank + 1)]
        letters += [-g for g in range(1, self.table.presentation.rank + 1)]
        while queue:
            a, b = queue.pop()
            for letter in letters:
                nxt = (self.apply(a, letter), self.apply(b, letter))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return {(min(a, b) - 1, max(a, b) - 1) for a, b in seen}


def left_action_closed(graph):
    """For complete graphs: is the edge set closed under left translation?"""
    eset = set(graph.edges)
    for g in range(1, graph.presentation.rank + 1):
        for u, v, label in graph.edges:
            gu = graph.table.trace(u + 1, (-g,)) - 1
            gv = graph.table.trace(v + 1, (-g,)) - 1
            if (min(gu, gv), max(gu, gv), label) not in eset:
                return False
    return True


def coxeter_symmetric(n):
    """S_n on the simple transpositions s1..s(n-1)."""
    rels = []
    for i in range(1, n):
        rels.append((i, i))
        for j in range(i + 1, n):
            rels.append((i, j) * (3 if j == i + 1 else 2))
    return presentation(tuple(f"s{i}" for i in range(1, n)), rels)


Z3 = presentation(("a", "b", "c"), [(1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3)])


@st.composite
def table_cases(draw):
    """(table, words): an S_n parabolic, a cyclic cover or an abelian cover.

    Abelian covers come twice: as the kernel table of build_abelian_chain,
    whose listed words do not generate the stabilizer (no edge orbits), and
    as a subgroup enumeration of the same kernel.
    """
    kind = draw(st.sampled_from(["parabolic", "cyclic", "abelian"]))
    if kind == "parabolic":
        n = draw(st.integers(2, 6))
        J = draw(st.sets(st.integers(1, n - 1)))
        tables = [todd_coxeter(coxeter_symmetric(n), [(j,) for j in sorted(J)])]
    elif kind == "cyclic":
        p = draw(st.sampled_from([free_graph(2).presentation(), plane_presentation(), S3]))
        tables = [cyclic_cover_chain(p, [draw(st.integers(1, 7))], gen=draw(st.integers(1, 2))).levels[0]]
    else:
        p = draw(st.sampled_from([plane_presentation(), Z3]))
        n = draw(st.integers(1, 5 if p.rank == 2 else 3))
        tables = [
            build_abelian_chain(p, [n]).levels[0],
            todd_coxeter(p, [(g,) * n for g in range(1, p.rank + 1)]),
        ]
    rank = tables[0].presentation.rank
    letters = st.sampled_from([x for g in range(1, rank + 1) for x in (g, -g)])
    words = draw(st.lists(st.lists(letters, max_size=3).map(tuple), min_size=1, max_size=4))
    return tables, words


@settings(max_examples=150, deadline=None)
@given(table_cases())
def test_column_store_and_tree_walk_match_the_oracles(case):
    tables, words = case
    for table in tables:
        oracle = OracleTable(table)
        for w in words:
            assert table.word_permutation(w) == oracle.word_permutation(w)
            for c in range(1, table.index + 1):
                assert table.trace(c, w) == oracle.trace(c, w)
            if table.construction == "subgroup-enumeration":
                assert _edge_orbit(table, w) == oracle.edge_orbit(w)
            else:
                with pytest.raises(InputError):
                    _edge_orbit(table, w)


def test_complete_graphs_are_closed_under_left_translation():
    for J in [(), (1,), (2, 4), (1, 2, 3)]:
        p = coxeter_symmetric(5)
        g = build_coset_graph(p, [(j,) for j in J], [(1,), (2, 3), (4, 3, -2)])
        assert g.kind == "complete" and left_action_closed(g)
