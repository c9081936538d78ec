"""Word-problem contexts and soundness-first element certificates.

A context packages what we are willing to assume about a group when deciding
word equality:

* ``free``, ``free-abelian`` and ``raag`` contexts decide equality exactly via
  graph-group normal forms; the kind is read off the graph (edgeless,
  complete, or neither);
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
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .errors import InputError, UndecidableContextError
from .intmat import Lattice
from .words import (
    Presentation,
    RaagGraph,
    Word,
    bounded_word,
    complete_graph,
    free_graph,
    free_reduce,
    pile_normal_form,
)


class EqualityVerdict(enum.Enum):
    EQUAL = "equal-proven"
    UNEQUAL = "unequal-proven"
    CONSISTENT = "consistent"  # equal in every probe; not a proof


class CertificateStatus(enum.Enum):
    PROVEN_INFINITE = "proven-infinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
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

    A graph group's presentation is determined by its graph, so the context
    takes none from its caller: it builds ``graph.presentation(names)``.
    """

    def __init__(self, graph: RaagGraph, names: Optional[Sequence[str]] = None):
        if names is not None and len(names) != graph.vertex_count:
            raise InputError("need exactly one name per vertex")
        self.graph = graph
        self._names = names
        self.kind = "free" if not graph.edges else "free-abelian" if graph.is_complete else "raag"
        self.decides_equality = True
        self._n = graph.vertex_count
        self._non_commuters = graph.non_commuters

    @cached_property
    def presentation(self) -> Presentation:
        """Built once, on first use: a context that only decides words never builds it."""
        return self.graph.presentation(self._names)

    @classmethod
    def _classified(cls, graph: RaagGraph, presentation: Presentation) -> "RaagContext":
        """For ``context_for`` alone: graph was just read off presentation's relators."""
        ctx = cls(graph)
        ctx.presentation = presentation
        return ctx

    def normal_form(self, w: Sequence[int]) -> Word:
        return pile_normal_form(bounded_word(w, self._n), self._n, self._non_commuters)

    def equal(self, u: Sequence[int], v: Sequence[int]) -> EqualityVerdict:
        u = bounded_word(u, self._n)
        v = bounded_word(v, self._n)
        if u == v:
            return EqualityVerdict.EQUAL
        n, non_commuters = self._n, self._non_commuters
        if pile_normal_form(u, n, non_commuters) == pile_normal_form(v, n, non_commuters):
            return EqualityVerdict.EQUAL
        return EqualityVerdict.UNEQUAL

    def __repr__(self) -> str:
        return f"<{self.kind} context on {self._n} generators>"


def free_context(rank: int, names: Optional[Sequence[str]] = None) -> RaagContext:
    return raag_context(free_graph(rank), names)


def free_abelian_context(rank: int, names: Optional[Sequence[str]] = None) -> RaagContext:
    return raag_context(complete_graph(rank), names)


raag_context = RaagContext  # named like free_context and free_abelian_context


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
    return RaagContext._classified(graph, p)


# ------------------------------------------------------------- abelianization


def exponent_vector(w: Sequence[int], rank: int) -> tuple[int, ...]:
    return exponent_counts(bounded_word(w, rank), rank)


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


@lru_cache(maxsize=64)  # bounded: every key keeps its presentation alive
def _relator_lattice(p: Presentation) -> Lattice:
    return Lattice(p.rank, [exponent_counts(r, p.rank) for r in p.relators])


@lru_cache(maxsize=64)
def free_abelianization(p: Presentation) -> tuple[tuple[int, ...], ...]:
    """Rows K of a map from Z^rank onto Z^b, b the torsion-free rank of the abelianization.

    K is a basis of the integer relations among the generators' rows of
    relator exponents: K v = 0 for every relator vector v.  Its kernel is the
    saturation of the relator lattice, so generator g -> column g of K is the
    abelianization followed by the quotient by its torsion.
    """
    vectors = [exponent_counts(r, p.rank) for r in p.relators]
    rows = [[v[g] for v in vectors] for g in range(p.rank)]
    return tuple(map(tuple, Lattice(len(vectors), rows).relations))


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

    The torsion subgroup is the saturation of the relator lattice modulo the
    lattice, and the saturation is the kernel of ``free_abelianization``.  The
    relations among K's columns are a basis of that kernel; those outside the
    relator lattice are written as words (products of generator powers).
    """
    k = free_abelianization(p)
    columns = [[row[g] for row in k] for g in range(p.rank)]
    lattice = _relator_lattice(p)
    return tuple(power_word(t) for t in Lattice(len(k), columns).relations if not lattice.contains(t))


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
        return _normal_form_certificate(ctx.normal_form(w))
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


@lru_cache(maxsize=1024)
def _normal_form_certificate(nf: Word) -> InfiniteOrderCertificate:
    """An exact context's certificate: immutable and a function of nf, so shared."""
    if nf == ():
        return InfiniteOrderCertificate(CertificateStatus.INCONCLUSIVE, "normal-form", "trivial element")
    return InfiniteOrderCertificate(
        CertificateStatus.PROVEN_INFINITE,
        "graph-group-normal-form",
        f"nontrivial normal form {nf} in a torsion-free group",
    )
