"""Word-problem contexts and soundness-first element certificates.

A context packages what we are willing to assume about a group when deciding
word equality:

* ``free``, ``free-abelian`` and ``raag`` contexts decide equality exactly via
  graph-group normal forms (the first two are the edgeless and complete
  special cases);
* a ``finite-quotient-battery`` context only probes words through finite
  permutation quotients, so it can *refute* equality but never prove it.

``context_for`` is the one place that decides which of the two a presentation
gets: a graph-group presentation is recognized by its relators alone.

Certificates never overstate: a PROVEN verdict is backed by an exact
computation, everything else is labeled CONSISTENT or INCONCLUSIVE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError, UndecidableContextError
from .intmat import IntMatrix, Lattice, smith_normal_form
from .words import (
    Presentation,
    RaagGraph,
    Word,
    complete_graph,
    free_graph,
    free_reduce,
    pile_normal_form,
    word,
)


class EqualityVerdict(enum.Enum):
    EQUAL = "equal-proven"
    UNEQUAL = "unequal-proven"
    CONSISTENT = "consistent"  # equal in every probe; not a proof


class CertificateStatus(enum.Enum):
    PROVEN_INFINITE = "proven-infinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class InfiniteOrderCertificate:
    status: CertificateStatus
    method: str
    detail: str

    @property
    def proven(self) -> bool:
        return self.status is CertificateStatus.PROVEN_INFINITE


class WordProblemContext:
    """Common interface; see the concrete contexts below."""

    kind: str
    presentation: Presentation
    decides_equality: bool

    def normal_form(self, w: Sequence[int]) -> Word:
        raise NotImplementedError

    def equal(self, u: Sequence[int], v: Sequence[int]) -> EqualityVerdict:
        raise NotImplementedError

    def is_trivial(self, w: Sequence[int]) -> Optional[bool]:
        """True/False when decided, None when this context cannot tell."""
        verdict = self.equal(w, ())
        if verdict is EqualityVerdict.EQUAL:
            return True
        if verdict is EqualityVerdict.UNEQUAL:
            return False
        return None


class RaagContext(WordProblemContext):
    """Exact word problem for a graph group via pile normal forms.

    The presentation is the one the context decides: by default the graph's
    own, with sorted commutator relators.  A caller that already holds a
    presentation of this graph group (relators in any order or orientation)
    passes it in; only its rank is checked against the graph.
    """

    def __init__(self, graph: RaagGraph, presentation: Optional[Presentation] = None, kind: str = "raag"):
        if presentation is None:
            presentation = graph.presentation()
        elif presentation.rank != graph.vertex_count:
            raise InputError(
                f"a presentation on {presentation.rank} generators cannot present "
                f"the graph group on {graph.vertex_count} vertices"
            )
        self.graph = graph
        self.presentation = presentation
        self.kind = kind
        self.decides_equality = True
        self._n = graph.vertex_count
        self._non_commuters = graph.non_commuters

    def normal_form(self, w: Sequence[int]) -> Word:
        return pile_normal_form(self.presentation.check_word(w), self._n, self._non_commuters)

    def equal(self, u: Sequence[int], v: Sequence[int]) -> EqualityVerdict:
        u = self.presentation.check_word(u)
        v = self.presentation.check_word(v)
        if u == v:
            return EqualityVerdict.EQUAL
        n, non_commuters = self._n, self._non_commuters
        if pile_normal_form(u, n, non_commuters) == pile_normal_form(v, n, non_commuters):
            return EqualityVerdict.EQUAL
        return EqualityVerdict.UNEQUAL

    def __repr__(self) -> str:
        return f"<{self.kind} context on {self.presentation.rank} generators>"


def free_context(rank: int, names: Optional[Sequence[str]] = None) -> RaagContext:
    g = free_graph(rank)
    return RaagContext(g, g.presentation(names), kind="free")


def free_abelian_context(rank: int, names: Optional[Sequence[str]] = None) -> RaagContext:
    g = complete_graph(rank)
    return RaagContext(g, g.presentation(names), kind="free-abelian")


def raag_context(graph: RaagGraph, names: Optional[Sequence[str]] = None) -> RaagContext:
    return RaagContext(graph, graph.presentation(names))


class QuotientBatteryContext(WordProblemContext):
    """Probe words through finite quotients (permutation actions).

    Each probe must expose ``word_permutation(word) -> tuple``; coset tables
    do.  Inequality of images is a proof of inequality in the group; equality
    of all images is only consistency.  With no probes, the only sound
    equality proof is literal free-wise equality.
    """

    def __init__(self, presentation: Presentation, probes: Sequence[object] = ()):  #
        self.presentation = presentation
        self.probes = tuple(probes)
        self.kind = "finite-quotient-battery"
        self.decides_equality = False

    def normal_form(self, w: Sequence[int]) -> Word:
        raise UndecidableContextError(
            "a finite-quotient battery has no canonical normal form"
        )

    def equal(self, u: Sequence[int], v: Sequence[int]) -> EqualityVerdict:
        u = self.presentation.check_word(u)
        v = self.presentation.check_word(v)
        if free_reduce(u) == free_reduce(v):
            return EqualityVerdict.EQUAL
        for probe in self.probes:
            if probe.word_permutation(u) != probe.word_permutation(v):
                return EqualityVerdict.UNEQUAL
        return EqualityVerdict.CONSISTENT


def battery_context(presentation: Presentation, probes: Sequence[object] = ()) -> QuotientBatteryContext:
    return QuotientBatteryContext(presentation, probes)


def classify_raag_presentation(p: Presentation) -> Optional[RaagGraph]:
    """The defining graph when every relator is a commutator of two generators."""
    edges = set()
    for r in p.relators:
        if len(r) != 4:
            return None
        i, j = r[0], r[1]
        if not (i > 0 and j > 0 and i != j and r[2] == -i and r[3] == -j):
            return None
        edges.add((min(i, j), max(i, j)))
    return RaagGraph(p.rank, frozenset(edges))


def context_for(p: Presentation) -> WordProblemContext:
    """An exact context when the presentation is a graph group, else a probe-less battery."""
    graph = classify_raag_presentation(p)
    if graph is None:
        return battery_context(p)
    # the context keeps the relators in the order and orientation they were
    # written in, so it compares equal to the presentation it was classified from
    return RaagContext(graph, p)


# ------------------------------------------------------------- abelianization


def exponent_vector(w: Sequence[int], rank: int) -> tuple[int, ...]:
    w = word(w)
    for letter in w:
        if abs(letter) > rank:
            raise InputError(f"letter {letter} out of range for rank {rank}")
    return exponent_counts(w, rank)


def exponent_counts(w: Word, rank: int) -> tuple[int, ...]:
    """The exponent vector of a word already checked against the rank."""
    v = [0] * rank
    for x in w:
        if x > 0:
            v[x - 1] += 1
        else:
            v[-x - 1] -= 1
    return tuple(v)


def power_word(exponents: Sequence[int]) -> Word:
    """The word g1^e1 g2^e2 ... of an exponent vector (inverse of ``exponent_counts``)."""
    out: list[int] = []
    for g, e in enumerate(exponents, start=1):
        out.extend([g if e > 0 else -g] * abs(e))
    return tuple(out)


def relator_exponent_matrix(p: Presentation) -> IntMatrix:
    """Columns are the exponent vectors of the relators (rank x #relators)."""
    cols = [exponent_counts(r, p.rank) for r in p.relators]
    return IntMatrix(p.rank, len(cols), [[c[i] for c in cols] for i in range(p.rank)])


@lru_cache(maxsize=None)
def _relator_lattice(p: Presentation) -> Lattice:
    return Lattice(p.rank, [exponent_counts(r, p.rank) for r in p.relators])


@lru_cache(maxsize=None)
def _relator_snf(p: Presentation):
    return smith_normal_form(relator_exponent_matrix(p), transforms=True)


@dataclass(frozen=True)
class AbelianizedImage:
    """Exponent vector of a word with its position relative to the relator lattice."""

    vector: tuple[int, ...]
    in_relator_lattice: bool          # image is trivial in the abelianization
    infinite_order_in_abelianization: bool  # image survives in the free part


def abelianized_image(w: Sequence[int], p: Presentation) -> AbelianizedImage:
    vec = exponent_counts(p.check_word(w), p.rank)
    lattice = _relator_lattice(p)
    return AbelianizedImage(vec, lattice.contains(vec), not lattice.in_saturation(vec))


def torsion_basis_words(p: Presentation) -> tuple[Word, ...]:
    """Words whose abelianized images generate the torsion subgroup.

    For each invariant factor d > 1 of the abelianization, the corresponding
    basis vector pulled back through the Smith transform gives an explicit
    generator word (a product of generator powers).
    """
    res = _relator_snf(p)
    return tuple(
        power_word([res.U_inv.data[r][i] for r in range(p.rank)])
        for i, f in enumerate(res.invariant_factors)
        if f > 1
    )


# ------------------------------------------------------- order certificates


def infinite_order_certificate(w: Sequence[int], ctx: WordProblemContext) -> InfiniteOrderCertificate:
    """Certify that w has infinite order, or return INCONCLUSIVE.

    Soundness rules:

    * in a context with an exact word problem (graph groups are torsion-free),
      any nontrivial normal form is a proof;
    * otherwise the only tool is the abelianization: the image must survive in
      the *free part* (no positive multiple lies in the relator lattice).
      Surviving merely modulo the lattice is not enough -- the image could be
      a torsion class -- so that case stays INCONCLUSIVE.
    """
    if ctx.decides_equality:
        nf = ctx.normal_form(w)
        if nf == ():
            return InfiniteOrderCertificate(
                CertificateStatus.INCONCLUSIVE, "normal-form", "trivial element"
            )
        return InfiniteOrderCertificate(
            CertificateStatus.PROVEN_INFINITE,
            "graph-group-normal-form",
            f"nontrivial normal form {nf} in a torsion-free group",
        )
    img = abelianized_image(w, ctx.presentation)
    if img.infinite_order_in_abelianization:
        return InfiniteOrderCertificate(
            CertificateStatus.PROVEN_INFINITE,
            "abelianization-free-part",
            f"exponent vector {img.vector} survives in the free part of the abelianization",
        )
    detail = "exponent vector lies in the saturation of the relator lattice"
    if free_reduce(w) == ():
        detail = "trivial element"
    return InfiniteOrderCertificate(CertificateStatus.INCONCLUSIVE, "abelianization-free-part", detail)
