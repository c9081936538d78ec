"""Worked example data shared by tests, demos, and the command line.

The centerpiece is a fully verified q-normality chain in the product of two
free groups of rank two with a central line,

    Gamma = F(a, b) x F(c, d) x Z(e),

descending through K = <a, b^2, c, d> and L = <a, c, d> to the infinite
cyclic group generated by a: each inclusion carries explicit witnesses, and
every abstract group in the chain is a graph group with an exact word
problem, so the whole certificate verifies to PROVEN.  The blow-up example
lives in the plane group Z^2 = <x, y>: the graph on Z^2 / <x> is assembled
from the graph on Z^2 / <x, y^2> and the graph on <x, y^2> / <x>.
"""

from __future__ import annotations

from .contexts import WordProblemContext, free_abelian_context, raag_context
from .qnormal import (
    Connector,
    CosetGraph,
    QNormalChainCertificate,
    QNormalWitness,
    QNormalWitnessSet,
    build_coset_graph,
)
from .words import Presentation, RaagGraph, raag_graph

GOLDEN_AMBIENT_NAMES = (("a", "c", "d"), ("a", "b2", "c", "d"), ("a", "b", "c", "d", "e"))


def star_acd_graph() -> RaagGraph:
    """a commutes with c and with d; c and d are free: Z x F2 on (a, c, d)."""
    return raag_graph(3, [(1, 2), (1, 3)])


def k22_graph() -> RaagGraph:
    """Complete bipartite graph on {a, b2} vs {c, d}: F2 x F2 on (a, b2, c, d)."""
    return raag_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


def coned_k22_graph() -> RaagGraph:
    """The previous graph plus a cone vertex e: (F2 x F2 x Z) on (a, b, c, d, e)."""
    return raag_graph(5, [(1, 3), (1, 4), (2, 3), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5)])


def golden_chain() -> tuple[QNormalChainCertificate, tuple[WordProblemContext, ...]]:
    """The verified chain <a> <= L <= K <= Gamma with all witnesses explicit.

    Step 0 certifies <a> inside L = <a> x F(c, d), where a is central: a
    itself witnesses every generator.  Step 1 certifies L inside
    K = F(a, b^2) x F(c, d): the generator b^2 is witnessed by c, which lies
    in L and commutes with b^2.  Step 2 certifies K inside Gamma: b is again
    witnessed by c, the central e by a, and the remaining generators witness
    themselves.
    """
    star, k22, cone = star_acd_graph(), k22_graph(), coned_k22_graph()
    step0 = QNormalWitnessSet(
        ambient=star.presentation(GOLDEN_AMBIENT_NAMES[0]),
        subgroup_words=((1,),),
        generating_set=((1,), (2,), (3,)),
        witnesses=(
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
        ),
    )
    # L-letters inside K: 1 = a, 2 = c, 3 = d.
    step1 = QNormalWitnessSet(
        ambient=k22.presentation(GOLDEN_AMBIENT_NAMES[1]),
        subgroup_words=((1,), (3,), (4,)),
        generating_set=((1,), (2,), (3,), (4,)),
        witnesses=(
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
            QNormalWitness(w=(3,), expr_in_subgroup=(2,), expr_in_conjugate=(2,)),
            QNormalWitness(w=(3,), expr_in_subgroup=(2,), expr_in_conjugate=(2,)),
            QNormalWitness(w=(4,), expr_in_subgroup=(3,), expr_in_conjugate=(3,)),
        ),
    )
    # K-letters inside Gamma: 1 = a, 2 = b^2, 3 = c, 4 = d.
    step2 = QNormalWitnessSet(
        ambient=cone.presentation(GOLDEN_AMBIENT_NAMES[2]),
        subgroup_words=((1,), (2, 2), (3,), (4,)),
        generating_set=((1,), (2,), (3,), (4,), (5,)),
        witnesses=(
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
            QNormalWitness(w=(3,), expr_in_subgroup=(3,), expr_in_conjugate=(3,)),
            QNormalWitness(w=(3,), expr_in_subgroup=(3,), expr_in_conjugate=(3,)),
            QNormalWitness(w=(4,), expr_in_subgroup=(4,), expr_in_conjugate=(4,)),
            QNormalWitness(w=(1,), expr_in_subgroup=(1,), expr_in_conjugate=(1,)),
        ),
    )
    cert = QNormalChainCertificate(steps=(step0, step1, step2), base=(1,))
    contexts = (
        raag_context(star, GOLDEN_AMBIENT_NAMES[0]),
        raag_context(k22, GOLDEN_AMBIENT_NAMES[1]),
        raag_context(cone, GOLDEN_AMBIENT_NAMES[2]),
    )
    return cert, contexts


# --------------------------------------------------- plane-group blow-up data


def plane_presentation() -> Presentation:
    return RaagGraph(2, frozenset({(1, 2)})).presentation(("x", "y"))


def plane_context():
    return free_abelian_context(2, ("x", "y"))


def plane_line_ball(radius: int = 3, budget: int = 40) -> CosetGraph:
    """The radius-r ball of the graph on Z^2 / <x> with generators x and y.

    The x edges are loops and the y edges walk along the line of cosets; the
    witness x certifies every edge's stabilizer.
    """
    return build_coset_graph(
        plane_presentation(),
        [(1,)],
        [(1,), (2,)],
        budget=budget,
        radius=radius,
        witnesses=[(1,), (1,)],
    )


def plane_outer_graph() -> CosetGraph:
    """The complete graph on Z^2 / <x, y^2>: two cosets."""
    return build_coset_graph(plane_presentation(), [(1,), (2, 2)], [(1,), (2,)])


def plane_inner_ball(radius: int = 3) -> CosetGraph:
    """The ball of the graph on H / <h1> for H = <h1, h2> free abelian.

    H stands for <x, y^2> with h1 = x and h2 = y^2; the subgroup is the image
    of <x>.
    """
    h = RaagGraph(2, frozenset({(1, 2)})).presentation(("h1", "h2"))
    return build_coset_graph(h, [(1,)], [(1,), (2,)], budget=2, radius=radius)


def plane_connectors() -> tuple[Connector, ...]:
    """One connector per outer edge orbit, both witnessed by x."""
    return (
        Connector(
            outer_label=0,
            g_f=(1,),
            witness=(1,),
            witness_in_subgroup=(1,),
            witness_in_conjugate=(1,),
        ),
        Connector(
            outer_label=1,
            g_f=(2,),
            witness=(1,),
            witness_in_subgroup=(1,),
            witness_in_conjugate=(1,),
        ),
    )

