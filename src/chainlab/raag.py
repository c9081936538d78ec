"""Graph groups: inner-amenability verdicts and chain-commuting certificates.

A graph group (right-angled Artin group) is determined by a finite graph:
one generator per vertex, two generators commuting exactly when their
vertices are adjacent.  Two structural properties are decided here.

* Inner amenability.  A cone vertex (adjacent to every other vertex) splits
  the group as the direct product of an infinite cyclic group with the graph
  group on the remaining vertices; centrality of the cone generator is
  re-verified at runtime from normal forms rather than trusted from the
  graph.  Without a cone vertex the center is trivial and the verdict is
  negative.

* Chain-commuting structure.  A walk along edges visiting every vertex gives
  a sequence of generators in which consecutive entries commute, and from it
  an ascending chain of parabolic subgroups in which every step is certified
  q-normal: the new generator is witnessed by the walk entry before it.
  Vertices may repeat, so every connected graph has such a walk even without
  a Hamiltonian path.  The 4-cycle shows the two notions differ: its group
  is certifiably chain-commuting but not inner amenable.

General Artin groups enter through labeled graphs (the label m of an edge is
the length of its braiding relation; m = 2 everywhere is the graph-group
case).  Walking a connected labeled graph and inserting the central element
(st)^m of each traversed dihedral pair produces a chain-commuting sequence;
commutation is machine-verified on label-2 edges and recorded as a cited
fact on higher labels, where no normal form is available here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .contexts import (
    InfiniteOrderCertificate,
    RaagContext,
    WordProblemContext,
    battery_context,
    context_for,
    free_context,
    infinite_order_certificate,
    raag_context,
)
from .coset import todd_coxeter
from .errors import InputError
from .qnormal import (
    ChainReport,
    QNormalChainCertificate,
    QNormalStatus,
    QNormalWitness,
    QNormalWitnessSet,
    verify_chain,
)
from .words import (
    Presentation,
    RaagGraph,
    Word,
    bounded_word,
    default_names,
    free_reduce,
    max_letter,
    raag_normal_form,
    word,
)

# ----------------------------------------------------------- inner amenability


def cone_vertices(g: RaagGraph) -> tuple[int, ...]:
    """Vertices adjacent to every other vertex (a single vertex is a cone)."""
    return tuple(
        v
        for v in range(1, g.vertex_count + 1)
        if all(g.adjacent(v, u) for u in range(1, g.vertex_count + 1) if u != v)
    )


def is_central_generator(v: int, g: RaagGraph) -> bool:
    """Runtime check that generator v commutes with every generator."""
    for u in range(1, g.vertex_count + 1):
        if u == v:
            continue
        if raag_normal_form((v, u, -v, -u), g) != ():
            return False
    return True


@dataclass(frozen=True, slots=True)
class InnerAmenabilityReport:
    graph: RaagGraph
    cone_vertices: tuple[int, ...]
    is_complete: bool
    centrality_verified: bool
    inner_amenable: bool
    reason: str


def is_inner_amenable_raag(g: RaagGraph) -> InnerAmenabilityReport:
    """Decide inner amenability of the graph group from its defining graph.

    Positive verdicts split off an infinite cyclic direct factor generated by
    a cone vertex, whose centrality is re-verified from normal forms.
    Negative verdicts record that no cone vertex exists, so the center is
    trivial and no such splitting is available.
    """
    cones = cone_vertices(g)
    complete = g.is_complete
    if cones:
        v = cones[0]
        if not is_central_generator(v, g):  # pragma: no cover - cones are central
            raise InputError(f"vertex {v} looked like a cone but is not central")
        if complete:
            reason = (
                f"the graph is complete, so the group is free abelian of rank "
                f"{g.vertex_count}: amenable, hence inner amenable"
            )
        else:
            reason = (
                f"generator {v} is a cone vertex: the group splits as the direct "
                "product of the infinite cyclic group it generates (centrality "
                "verified from normal forms) with the group on the other vertices"
            )
        return InnerAmenabilityReport(g, cones, complete, True, True, reason)
    reason = (
        "no cone vertex: the center is trivial, so the group admits no direct "
        "factor of the form required for inner amenability of graph groups"
    )
    return InnerAmenabilityReport(g, (), False, False, False, reason)


# ------------------------------------------------------ commuting sequences


@dataclass(frozen=True, slots=True)
class CommutingProof:
    """Why two consecutive sequence elements commute.

    kind "normal-form" proofs are machine-verified; kind "cited-fact" records
    a commutation that holds by centrality of a dihedral element with braiding
    length at least three, where no normal form is implemented here.
    """

    left: Word
    right: Word
    kind: str  # "normal-form" | "cited-fact"
    machine_verified: bool
    detail: str


@dataclass(frozen=True, slots=True)
class ChainCommutingSequence:
    """Words with consecutive commutation proofs and order certificates.

    Every standard generator must appear among the letters of the sequence;
    consecutive elements commute (proofs aligned with the gaps); each element
    carries an infinite-order certificate.
    """

    elements: tuple[Word, ...]
    proofs: tuple[CommutingProof, ...]
    order_certificates: tuple[InfiniteOrderCertificate, ...]

    def __post_init__(self):
        if not self.elements:
            raise InputError("a commuting sequence needs at least one element")
        if len(self.proofs) != len(self.elements) - 1:
            raise InputError("need one commutation proof per consecutive pair")
        if len(self.order_certificates) != len(self.elements):
            raise InputError("need one order certificate per element")

    def letters_used(self) -> frozenset[int]:
        return frozenset(abs(x) for e in self.elements for x in e)


def _depth_first_walk(g: RaagGraph, start: int) -> Optional[tuple[int, ...]]:
    """A depth-first edge walk meeting every vertex, cut at the last first visit.

    Consecutive entries are adjacent and backtracking repeats vertices; None
    when the graph is disconnected.  An explicit stack of (vertex, neighbours
    left) lets it go deeper than the interpreter's recursion limit.
    """
    if not (1 <= start <= g.vertex_count):
        raise InputError(f"start vertex {start} out of range")
    visited = {start}
    walk = [start]
    stack = [(start, iter(g.neighbors(start)))]
    while stack and len(visited) < g.vertex_count:
        v = next((v for v in stack[-1][1] if v not in visited), None)
        if v is None:  # the top vertex is done: step back to the one it was reached from
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
        else:
            visited.add(v)
            walk.append(v)
            stack.append((v, iter(g.neighbors(v))))
    return tuple(walk) if len(visited) == g.vertex_count else None


def _raag_commuting_proof(u: Word, v: Word, g: RaagGraph) -> CommutingProof:
    comm = free_reduce(tuple(u) + tuple(v) + tuple(-x for x in reversed(u)) + tuple(-x for x in reversed(v)))
    verified = raag_normal_form(comm, g) == ()
    return CommutingProof(
        left=u,
        right=v,
        kind="normal-form",
        machine_verified=verified,
        detail="commutator reduces to the empty normal form",
    )


def chain_commuting_sequence(g: RaagGraph, start: int = 1) -> Optional[ChainCommutingSequence]:
    """A chain-commuting generator sequence for the graph group, or None.

    Connected graphs yield the depth-first walk as a sequence of generators
    with every consecutive commutation verified by normal forms and every
    generator certified of infinite order; disconnected graphs yield None,
    since no walk along edges can meet every vertex.
    """
    walk = _depth_first_walk(g, start)
    if walk is None:
        return None
    ctx = raag_context(g)
    elements = tuple((v,) for v in walk)
    proofs = tuple(
        _raag_commuting_proof(elements[i], elements[i + 1], g) for i in range(len(elements) - 1)
    )
    if not all(p.machine_verified for p in proofs):  # pragma: no cover - walk follows edges
        raise InputError("internal walk produced a non-commuting consecutive pair")
    certs = tuple(infinite_order_certificate(e, ctx) for e in elements)
    return ChainCommutingSequence(elements, proofs, certs)


# ---------------------------------------------------------- chain certificates


def emit_qnormal_chain(
    seq: ChainCommutingSequence,
    g: RaagGraph,
    names: Optional[Sequence[str]] = None,
) -> QNormalChainCertificate:
    """The q-normality chain of parabolic subgroups along a commuting sequence.

    Writing the distinct sequence vertices in first-visit order v_1, v_2, ...,
    the chain is <v_1> <= <v_1, v_2> <= ... <= the whole group, each subgroup
    the parabolic on an initial segment.  In the step adjoining v_{k+1}, the
    witness for the new generator is the sequence entry preceding its first
    appearance (the two commute); every old generator witnesses itself.  A
    single-vertex graph yields the zero-step chain consisting of the base
    element alone.
    """
    return _parabolic_chain(seq, g, names)[0]


def _parabolic_chain(
    seq: ChainCommutingSequence, g: RaagGraph, names: Optional[Sequence[str]] = None
) -> tuple[QNormalChainCertificate, tuple[RaagContext, ...]]:
    """emit_qnormal_chain's certificate, with the context of each step's ambient.

    The graph is relabeled once in walk order, h = g.induced(order), so that
    step k's ambient is the graph group of h's prefix on 1..k+1.  Each step's
    context is built on h.prefix(k + 1) under the names of order[:k+1], and
    the step's ambient is that context's presentation: h's sorted commutator
    relators on those letters, the very objects h holds.  Both equal what
    g.induced(order[:k+1]) and its presentation give.  Every step shares one
    word per letter and one self-witness per generator.
    """
    names = tuple(names) if names is not None else default_names(g.vertex_count)
    if len(names) != g.vertex_count:
        raise InputError("need exactly one name per vertex")
    for e in seq.elements:
        if len(e) != 1 or e[0] < 0:
            raise InputError(f"sequence element {e} is not a single generator of the graph group")
    walk = bounded_word(tuple(v for (v,) in seq.elements), g.vertex_count)
    if seq.letters_used() != frozenset(range(1, g.vertex_count + 1)):
        raise InputError("the sequence does not meet every generator")
    for i in range(len(walk) - 1):
        if not g.adjacent(walk[i], walk[i + 1]):
            raise InputError(
                f"consecutive sequence entries {walk[i]} and {walk[i + 1]} do not commute"
            )

    order: list[int] = []
    predecessor: dict[int, int] = {}
    for i, v in enumerate(walk):
        if v not in order:
            order.append(v)
            if i > 0:
                predecessor[v] = walk[i - 1]

    if len(order) == 1:
        return QNormalChainCertificate(steps=(), base=(1,)), ()

    h = g.induced(order)
    position = {v: i + 1 for i, v in enumerate(order)}
    ordered_names = tuple(names[v - 1] for v in order)
    letters = tuple((j,) for j in range(1, len(order) + 1))
    witnesses = tuple(QNormalWitness(w=x, expr_in_subgroup=x, expr_in_conjugate=x) for x in letters)
    steps: list[QNormalWitnessSet] = []
    contexts: list[RaagContext] = []
    for k in range(1, len(order)):
        contexts.append(RaagContext(h.prefix(k + 1), ordered_names[: k + 1]))
        prev = position[predecessor[order[k]]]
        steps.append(
            QNormalWitnessSet(
                ambient=contexts[-1].presentation,
                subgroup_words=letters[:k],
                generating_set=letters[: k + 1],
                witnesses=witnesses[:k] + (witnesses[prev - 1],),
            )
        )
    return QNormalChainCertificate(steps=tuple(steps), base=(1,)), tuple(contexts)


def exact_chain_contexts(cert: QNormalChainCertificate) -> tuple[WordProblemContext, ...]:
    """One word-problem context per chain step, from context_for.

    Graph-group ambients get exact contexts; any other ambient gets a
    probe-less finite-quotient battery, so its step can reach at most
    CONSISTENT.  The zero-step chain gets a single free-group context of the
    base word's rank.
    """
    if not cert.steps:
        return (free_context(max_letter(cert.base)),)
    return tuple(context_for(step.ambient) for step in cert.steps)


@dataclass(frozen=True, slots=True)
class ChainCommutingReport:
    graph: RaagGraph
    connected: bool
    sequence: Optional[ChainCommutingSequence]
    certificate: Optional[QNormalChainCertificate]
    verification: Optional[ChainReport]

    @property
    def chain_commuting(self) -> bool:
        return self.verification is not None and self.verification.status is QNormalStatus.PROVEN


def chain_commuting_report(g: RaagGraph) -> ChainCommutingReport:
    """Build and verify the parabolic q-normal chain, or record why none exists.

    Each step is decided in the context it was emitted from, whose
    presentation is the step's ambient; the zero-step chain of a single
    vertex is decided in the group of g itself.  The step graphs are
    prefixes of one another, so verify_chain checks each witness once.
    """
    seq = chain_commuting_sequence(g)
    if seq is None:
        return ChainCommutingReport(g, False, None, None, None)
    cert, contexts = _parabolic_chain(seq, g)
    report = verify_chain(cert, contexts or (raag_context(g),))
    return ChainCommutingReport(g, True, seq, cert, report)


# ------------------------------------------------------- labeled Artin graphs


@dataclass(frozen=True)
class ArtinGraph:
    """A finite graph with a braiding length m >= 2 on every edge.

    All labels equal to 2 is exactly the graph-group case.  The group has one
    generator per vertex and, per edge {s, t} with label m, the relation
    equating the two alternating products sts... and tst... of length m.
    """

    base: RaagGraph
    labels: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        declared = {edge: m for edge, m in self.labels}
        if set(declared) != set(self.base.edges):
            raise InputError("labels must be defined exactly on the edges of the graph")
        if any(m < 2 for m in declared.values()):
            raise InputError("braiding lengths must be at least 2")
        object.__setattr__(self, "labels", tuple(sorted(declared.items())))

    def label_of(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        for edge, m in self.labels:
            if edge == key:
                return m
        raise InputError(f"no edge between {i} and {j}")


def artin_graph(vertex_count: int, labeled_edges) -> ArtinGraph:
    """Build from {(i, j): m} or an iterable of ((i, j), m) pairs."""
    items = labeled_edges.items() if hasattr(labeled_edges, "items") else labeled_edges
    pairs = tuple(((min(int(i), int(j)), max(int(i), int(j))), int(m)) for (i, j), m in items)
    base = RaagGraph(vertex_count, frozenset(edge for edge, _ in pairs))
    return ArtinGraph(base, pairs)


def braiding_relator(i: int, j: int, m: int) -> Word:
    """prod(i,j; m) * prod(j,i; m)^-1, the braiding relation of length m."""
    if m < 2:
        raise InputError("braiding length must be at least 2")
    left = tuple((i, j)[k % 2] for k in range(m))
    right = tuple((j, i)[k % 2] for k in range(m))
    return free_reduce(left + tuple(-x for x in reversed(right)))


def artin_presentation(ag: ArtinGraph, names: Optional[Sequence[str]] = None) -> Presentation:
    names = tuple(names) if names else default_names(ag.base.vertex_count)
    rels = tuple(braiding_relator(i, j, m) for (i, j), m in ag.labels)
    return Presentation(names, rels)


def dihedral_central_element(i: int, j: int, m: int) -> Word:
    """(s_i s_j)^m: central in the dihedral Artin group on the edge, any m."""
    return word((i, j) * m)


def _dihedral_commuting_proof(generator: int, other: int, m: int) -> CommutingProof:
    """Commutation of a generator with (s t)^m inside the dihedral pair.

    For m = 2 the pair generates a rank-2 free abelian group and the
    commutator is checked by normal forms; for m >= 3 centrality of (st)^m
    holds in the dihedral Artin group but is recorded as a cited fact.
    """
    z = dihedral_central_element(generator, other, m) if generator < other else dihedral_central_element(other, generator, m)
    s = (generator,)
    if m == 2:
        pair = RaagGraph(2, frozenset({(1, 2)}))
        relabel = {min(generator, other): 1, max(generator, other): 2}
        sz = tuple(relabel[abs(x)] * (1 if x > 0 else -1) for x in s)
        zz = tuple(relabel[abs(x)] * (1 if x > 0 else -1) for x in z)
        comm = free_reduce(sz + zz + tuple(-x for x in reversed(sz)) + tuple(-x for x in reversed(zz)))
        verified = raag_normal_form(comm, pair) == ()
        return CommutingProof(s, z, "normal-form", verified, "label-2 edge: checked in the free abelian pair")
    return CommutingProof(
        s,
        z,
        "cited-fact",
        False,
        f"(st)^{m} is central in the dihedral Artin group of braiding length {m}",
    )


def artin_chain_commuting(ag: ArtinGraph, start: int = 1) -> Optional[ChainCommutingSequence]:
    """Chain-commuting sequence for a labeled graph, or None when disconnected.

    The base-graph walk s_1, s_2, ..., s_k is interleaved with the central
    elements z_i = (s_i s_{i+1})^{m_i} of the traversed dihedral pairs, giving
    (s_1, z_1, s_2, z_2, ..., s_k).  Commutation with z_i is machine-verified
    when the edge label is 2 and recorded as a cited centrality fact otherwise;
    infinite-order certificates come from ``context_for`` of the Artin
    presentation: exact when all labels are 2 (every braiding relator is then
    a commutator), from abelianization images otherwise.
    """
    g = ag.base
    walk = _depth_first_walk(g, start)
    if walk is None:
        return None
    ctx = context_for(artin_presentation(ag))

    elements: list[Word] = [(walk[0],)]
    proofs: list[CommutingProof] = []
    for i in range(len(walk) - 1):
        a, b = walk[i], walk[i + 1]
        m = ag.label_of(a, b)
        z = dihedral_central_element(min(a, b), max(a, b), m)
        proofs.append(_dihedral_commuting_proof(a, b, m))
        elements.append(z)
        proofs.append(_dihedral_commuting_proof(b, a, m))
        elements.append((b,))
    certs = tuple(infinite_order_certificate(e, ctx) for e in elements)
    return ChainCommutingSequence(tuple(elements), tuple(proofs), certs)


# --------------------------------------------- dihedral Artin central chains


def dihedral_artin_presentation(m: int, names: Sequence[str] = ("s", "t")) -> Presentation:
    return Presentation(tuple(names), (braiding_relator(1, 2, m),))


def symmetric_quotient_probe(m: int):
    """The finite quotient adding s^2 = t^2 = 1 to the braiding relation.

    For m = 3 this is the symmetric group on three letters; the coset table of
    the trivial subgroup provides an exact permutation probe for refutations.
    """
    p = Presentation(("s", "t"), (braiding_relator(1, 2, m), (1, 1), (2, 2)))
    return todd_coxeter(p, [], max_cosets=4 * (m + 1) ** 2)


def artin_central_chain(
    m: int,
) -> tuple[QNormalChainCertificate, tuple[WordProblemContext, ...]]:
    """The one-step chain <(st)^m> inside the dihedral Artin group of length m.

    Every generator is witnessed by the central element itself.  For m = 2 the
    group is free abelian of rank 2 and the matching context proves the
    certificate; for m >= 3 the context is a finite-quotient battery and the
    best attainable status is consistency.
    """
    pres = dihedral_artin_presentation(m)
    z = dihedral_central_element(1, 2, m)
    wit = QNormalWitness(w=z, expr_in_subgroup=(1,), expr_in_conjugate=(1,))
    ws = QNormalWitnessSet(
        ambient=pres,
        subgroup_words=(z,),
        generating_set=((1,), (2,)),
        witnesses=(wit, wit),
    )
    cert = QNormalChainCertificate(steps=(ws,), base=z)
    ctx = context_for(pres) if m == 2 else battery_context(pres, [symmetric_quotient_probe(m)])
    return cert, (ctx,)
