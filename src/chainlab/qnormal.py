"""q-normality certificates, coset graphs, blow-ups, and cocompact trimming.

A subgroup L of G is certified q-normal by a generating set S of G together
with, for every s in S, a witness element of infinite order lying in both L
and sLs^-1 (exhibited as two expressions over L's generators).  Chains of such
steps down to an infinite cyclic base are verified step by step.

Coset graphs realize the induced action: vertices are the left cosets G/L and
each s in S contributes the edge orbit {{gL, gsL}}.  When [G:L] is finite the
graph is computed completely from a coset table; otherwise a radius-r ball
over canonical coset representatives is built, with frontier vertices marked
and only edges between listed vertices included.  The blow-up construction
replaces the vertices of a graph on G/H by copies of a graph on H/L — inner
edges are translated through every vertex class and connector edges join
every pair of classes related by a chosen orbit representative, each carrying
an infinite-intersection witness.  Trimming keeps only the edge orbits met by
one connecting path per generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .contexts import (
    EqualityVerdict,
    InfiniteOrderCertificate,
    WordProblemContext,
    classify_raag_presentation,
    exponent_counts,
    exponent_vector,
    infinite_order_certificate,
    power_word,
)
from . import coset
from .coset import CosetTable, todd_coxeter
from .errors import (
    BudgetExceededError,
    FactorizationNotFoundError,
    InputError,
    TruncationTooSmallError,
    UndecidableContextError,
    VerificationFailure,
)
from .intmat import Lattice
from .words import (
    Presentation,
    RaagGraph,
    Word,
    free_reduce,
    inverse_word,
    pile_normal_form,
    raag_normal_form,
    word,
)

DEFAULT_GRAPH_BUDGET = 5_000
DEFAULT_RADIUS = 3
DEFAULT_SEARCH_BOUND = 6


class QNormalStatus(enum.Enum):
    PROVEN = "proven"
    CONSISTENT = "consistent"
    FAILED = "failed"


_STATUS_RANK = {QNormalStatus.FAILED: 0, QNormalStatus.CONSISTENT: 1, QNormalStatus.PROVEN: 2}


def weakest(statuses: Sequence[QNormalStatus]) -> QNormalStatus:
    return min(statuses, key=_STATUS_RANK.__getitem__, default=QNormalStatus.PROVEN)


# ----------------------------------------------------------------- witnesses


@dataclass(frozen=True)
class QNormalWitness:
    """For one generator s: an element w with w = expr in L and w = s(expr')s^-1.

    expr_in_subgroup and expr_in_conjugate are words over the *indices of L's
    generator list*, not over the ambient generators.
    """

    w: Word
    expr_in_subgroup: Word
    expr_in_conjugate: Word


@dataclass(frozen=True)
class QNormalWitnessSet:
    """One q-normality step: subgroup L inside an ambient presented group.

    subgroup_words give L's generators as ambient words; generating_set is the
    set S of ambient words, with witnesses aligned positionally to it.
    """

    ambient: Presentation
    subgroup_words: tuple[Word, ...]
    generating_set: tuple[Word, ...]
    witnesses: tuple[QNormalWitness, ...]

    def __post_init__(self):
        if not self.generating_set:
            raise InputError("the generating set of a q-normality step must be nonempty")
        if len(self.witnesses) != len(self.generating_set):
            raise InputError("need exactly one witness per generating-set element")
        if not self.subgroup_words:
            raise InputError("the subgroup needs at least one generator word")
        # keep the checked words, so that code below trusts them
        check = self.ambient.check_word
        object.__setattr__(self, "subgroup_words", tuple(map(check, self.subgroup_words)))
        object.__setattr__(self, "generating_set", tuple(map(check, self.generating_set)))
        for wit in self.witnesses:
            self.ambient.check_word(wit.w)
            for expr in (wit.expr_in_subgroup, wit.expr_in_conjugate):
                for letter in expr:
                    if not (1 <= abs(letter) <= len(self.subgroup_words)):
                        raise InputError(
                            f"witness expression letter {letter} does not index a subgroup generator"
                        )


def iota(expr: Sequence[int], subgroup_words: Sequence[Word]) -> Word:
    """Substitute subgroup generator words into a word over generator indices."""
    out: list[int] = []
    for letter in word(expr):
        target = subgroup_words[abs(letter) - 1]
        out.extend(target if letter > 0 else inverse_word(target))
    return free_reduce(out)


@dataclass(frozen=True)
class WitnessReport:
    s: Word
    w: Word
    in_subgroup: EqualityVerdict
    in_conjugate: EqualityVerdict
    order: InfiniteOrderCertificate
    status: QNormalStatus


@dataclass(frozen=True)
class QNormalReport:
    witness_reports: tuple[WitnessReport, ...]
    generating_set_spans_abelianization: bool
    status: QNormalStatus


def _spans_abelianization(ws: QNormalWitnessSet) -> bool:
    """Do the exponent images of S generate the abelianization of the ambient group?

    They do when the relator and S exponent vectors span all of Z^rank: full
    rank with every pivot 1.  The relators and S were checked when the
    witness set was built.
    """
    p = ws.ambient
    lattice = Lattice(p.rank, [exponent_counts(w, p.rank) for w in p.relators + ws.generating_set])
    return lattice.rank == p.rank and lattice.pivot_product == 1


def verify_qnormal(ws: QNormalWitnessSet, ctx: WordProblemContext) -> QNormalReport:
    """Check every witness in the given word-problem context.

    A witness is PROVEN when both defining equalities are proven and the
    element is certified of infinite order; UNEQUAL anywhere fails the whole
    certificate; everything else remains CONSISTENT (never overstated).
    """
    if ctx.presentation != ws.ambient:
        raise InputError("context and witness set describe different ambient groups")
    reports = []
    for s, wit in zip(ws.generating_set, ws.witnesses):
        v_sub = ctx.equal(wit.w, iota(wit.expr_in_subgroup, ws.subgroup_words))
        conj = free_reduce(tuple(s) + iota(wit.expr_in_conjugate, ws.subgroup_words) + inverse_word(s))
        v_conj = ctx.equal(wit.w, conj)
        cert = infinite_order_certificate(wit.w, ctx)
        if EqualityVerdict.UNEQUAL in (v_sub, v_conj):
            status = QNormalStatus.FAILED
        elif v_sub is EqualityVerdict.EQUAL and v_conj is EqualityVerdict.EQUAL and cert.proven:
            status = QNormalStatus.PROVEN
        else:
            status = QNormalStatus.CONSISTENT
        reports.append(WitnessReport(s, wit.w, v_sub, v_conj, cert, status))
    return QNormalReport(
        witness_reports=tuple(reports),
        generating_set_spans_abelianization=_spans_abelianization(ws),
        status=weakest([r.status for r in reports]),
    )


# -------------------------------------------------------------------- chains


@dataclass(frozen=True)
class QNormalChainCertificate:
    """An ascending chain of q-normality steps over an infinite-cyclic base.

    steps[k] certifies (subgroup of step k) q-normal in its ambient group;
    step k's ambient group is presented by the subgroup words of step k+1, so
    composability is positional: step k+1 must list exactly rank(ambient_k)
    subgroup words.  The base word generates step 0's subgroup.
    """

    steps: tuple[QNormalWitnessSet, ...]
    base: Word

    def __post_init__(self):
        if not self.base:
            raise InputError("the base element must be a nonempty word")
        if self.steps:
            self.steps[0].ambient.check_word(self.base)


@dataclass(frozen=True)
class ChainStepReport:
    report: QNormalReport
    composable_with_previous: Optional[bool]  # None for step 0


@dataclass(frozen=True)
class ChainReport:
    base_is_subgroup_generator: bool
    base_certificate: InfiniteOrderCertificate
    step_reports: tuple[ChainStepReport, ...]
    status: QNormalStatus
    failure_reasons: tuple[str, ...]


def verify_chain(
    cert: QNormalChainCertificate, contexts: Sequence[WordProblemContext]
) -> ChainReport:
    """Verify the base, every step, and positional composability between steps.

    A zero-step certificate (base only, the infinite-cyclic chain of length
    one) takes a single context for the group the base element lives in.
    """
    if not cert.steps:
        if len(contexts) != 1:
            raise InputError("a zero-step chain needs exactly one context for its base")
        base_cert = infinite_order_certificate(cert.base, contexts[0])
        status = QNormalStatus.PROVEN if base_cert.proven else QNormalStatus.CONSISTENT
        reasons = () if base_cert.proven else ("base element lacks an infinite-order proof",)
        return ChainReport(
            base_is_subgroup_generator=True,
            base_certificate=base_cert,
            step_reports=(),
            status=status,
            failure_reasons=reasons,
        )
    if len(contexts) != len(cert.steps):
        raise InputError("need exactly one word-problem context per chain step")
    reasons: list[str] = []
    statuses: list[QNormalStatus] = []

    bottom = cert.steps[0]
    base_ok = (
        len(bottom.subgroup_words) == 1
        and contexts[0].equal(bottom.subgroup_words[0], cert.base) is EqualityVerdict.EQUAL
    )
    if not base_ok:
        reasons.append("the bottom subgroup is not generated by the designated base element")
    base_cert = infinite_order_certificate(cert.base, contexts[0])
    if base_ok and base_cert.proven:
        statuses.append(QNormalStatus.PROVEN)
    elif base_ok:
        statuses.append(QNormalStatus.CONSISTENT)
        reasons.append("base element lacks an infinite-order proof")
    else:
        statuses.append(QNormalStatus.FAILED)

    step_reports = []
    for k, step in enumerate(cert.steps):
        composable: Optional[bool] = None
        if k > 0:
            composable = len(step.subgroup_words) == cert.steps[k - 1].ambient.rank
            if not composable:
                reasons.append(
                    f"step {k}: subgroup words do not match the {cert.steps[k - 1].ambient.rank} "
                    f"generators of the previous ambient group"
                )
                statuses.append(QNormalStatus.FAILED)
        report = verify_qnormal(step, contexts[k])
        statuses.append(report.status)
        if report.status is QNormalStatus.FAILED:
            reasons.append(f"step {k}: a witness equality failed")
        step_reports.append(ChainStepReport(report, composable))

    return ChainReport(
        base_is_subgroup_generator=base_ok,
        base_certificate=base_cert,
        step_reports=tuple(step_reports),
        status=weakest(statuses),
        failure_reasons=tuple(reasons),
    )


# ------------------------------------------------------------- coset solvers


class CosetSolver:
    """Canonical representatives for left cosets wL of a fixed subgroup L,
    and rewriting of ambient words that lie in L into L's own letters."""

    description: str

    def canonical(self, w: Sequence[int]) -> Word:
        raise NotImplementedError

    def to_subgroup_letters(self, w: Sequence[int]) -> Optional[Word]:
        """w as a word over L's generator indices, or None when w is not in L."""
        raise NotImplementedError


class AbelianCosetSolver(CosetSolver):
    """Cosets in a free-abelian group modulo the lattice of the subgroup words."""

    def __init__(self, rank: int, subgroup_words: Sequence[Sequence[int]]):
        self.rank = rank
        self.lattice = Lattice(rank, [exponent_vector(w, rank) for w in subgroup_words])
        self.description = f"free-abelian rank {rank} modulo a sublattice"

    def canonical(self, w: Sequence[int]) -> Word:
        return power_word(self.lattice.reduce(exponent_vector(w, self.rank)))

    def to_subgroup_letters(self, w: Sequence[int]) -> Optional[Word]:
        sol = self.lattice.solve(exponent_vector(w, self.rank))
        return None if sol is None else power_word(sol)


class ParabolicCosetSolver(CosetSolver):
    """Cosets of a graph-group parabolic subgroup (generated by a vertex subset).

    The subgroup is given by its generators as signed single letters, in
    order; the letter at position i is subgroup letter i, so a generator -v
    maps v to the inverse of its letter.  The canonical representative
    strips, from the normal form, every deletable subgroup letter: a letter
    lying in the parabolic set that commutes with the whole suffix to its
    right.  The result is the unique minimal-length coset representative,
    returned in normal form.
    """

    def __init__(self, graph: RaagGraph, letters: Sequence[int]):
        self.relabel = {}
        for i, letter in enumerate(letters, start=1):
            if not (1 <= abs(letter) <= graph.vertex_count):
                raise InputError(f"parabolic vertex {letter} out of range")
            self.relabel[abs(letter)] = i if letter > 0 else -i
        self.graph = graph
        self.parabolic = frozenset(self.relabel)
        self.description = f"graph-group parabolic on vertices {sorted(self.parabolic)}"

    def canonical(self, w: Sequence[int]) -> Word:
        current = raag_normal_form(w, self.graph)
        n, non_commuters = self.graph.vertex_count, self.graph.non_commuters
        while True:
            removed = False
            for i in range(len(current) - 1, -1, -1):
                letter = current[i]
                if abs(letter) not in self.parabolic:
                    continue
                if all(self.graph.adjacent(abs(letter), abs(t)) for t in current[i + 1:]):
                    current = pile_normal_form(current[:i] + current[i + 1:], n, non_commuters)
                    removed = True
                    break
            if not removed:
                return current

    def to_subgroup_letters(self, w: Sequence[int]) -> Optional[Word]:
        out = []
        for letter in raag_normal_form(w, self.graph):
            if abs(letter) not in self.relabel:
                return None
            new = self.relabel[abs(letter)]
            out.append(new if letter > 0 else -new)
        return tuple(out)


def infer_solver(p: Presentation, subgroup_words: Sequence[Sequence[int]]) -> Optional[CosetSolver]:
    """The coset solver for G/L when the presentation shape supports one.

    Free-abelian presentations admit arbitrary subgroup words (lattice
    reduction); other graph-group presentations admit parabolic subgroups
    (each word a single signed generator after free reduction).  Anything
    else returns None.
    """
    graph = classify_raag_presentation(p)
    if graph is None:
        return None
    if len(graph.edges) == p.rank * (p.rank - 1) // 2:
        return AbelianCosetSolver(p.rank, [p.check_word(w) for w in subgroup_words])
    letters = []
    for w in subgroup_words:
        w = free_reduce(p.check_word(w))
        if len(w) != 1:
            return None
        letters.append(w[0])
    return ParabolicCosetSolver(graph, letters)


# --------------------------------------------------------------- coset graph


@dataclass(frozen=True, eq=False)
class CosetGraph:
    """The graph on G/L with one edge orbit per generating-set element.

    vertices hold left-coset representative words (index 0 is the base coset);
    edges are (u, v, label) index triples with u <= v, label indexing the
    generating set; the orbit of an edge is its label class.  Complete graphs
    carry the coset table of the enumeration; balls carry the solver, the
    radius, and the frontier (vertices at distance exactly radius, whose
    incident edge lists may be incomplete).
    """

    presentation: Presentation
    subgroup_words: tuple[Word, ...]
    generating_set: tuple[Word, ...]
    vertices: tuple[Word, ...]
    edges: tuple[tuple[int, int, int], ...]
    kind: str  # "complete" | "ball"
    radius: Optional[int] = None
    frontier: tuple[int, ...] = ()
    table: Optional[CosetTable] = None
    solver: Optional[CosetSolver] = None
    witnesses: Optional[tuple[Word, ...]] = None
    _index: dict = field(default_factory=dict, repr=False)
    _edge_set: set = field(default_factory=set, repr=False)

    def __post_init__(self):
        self._index.update({v: i for i, v in enumerate(self.vertices)})
        self._edge_set.update(self.edges)
        if self.edges:
            us, vs, labels = zip(*self.edges)
            if min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= len(self.vertices):
                raise InputError("edge endpoint is not a listed vertex")
            if min(labels) < 0 or max(labels) >= len(self.generating_set):
                raise InputError("edge label does not index the generating set")

    @property
    def completeness(self) -> str:
        return self.kind if self.kind == "complete" else f"ball({self.radius})"

    def vertex_of(self, w: Sequence[int]) -> int:
        """Vertex index of the coset wL; raises if outside the truncation."""
        w = self.presentation.check_word(w)
        if self.kind == "complete":
            c = self.table.trace(1, inverse_word(w))
            return c - 1
        rep = self.solver.canonical(w)
        if rep not in self._index:
            raise TruncationTooSmallError(
                f"coset with representative {rep} lies outside the radius-{self.radius} ball"
            )
        return self._index[rep]

    def edge_orbits(self) -> tuple[int, ...]:
        return tuple(sorted({label for _, _, label in self.edges}))

    def has_edge(self, u: int, v: int, label: int) -> bool:
        return (min(u, v), max(u, v), label) in self._edge_set

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * len(self.vertices)
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            for m in adj[stack.pop()]:
                if not seen[m]:
                    seen[m] = True
                    reached += 1
                    stack.append(m)
        return reached == len(self.vertices)

    def _fixes_vertex(self, element: Word, vertex: int) -> bool:
        """Does left translation by the element fix the given coset?  Exact."""
        if self.kind == "complete":
            return self.table.trace(vertex + 1, inverse_word(element)) == vertex + 1
        rep = self.vertices[vertex]
        return self.solver.canonical(tuple(element) + tuple(rep)) == rep

    def check_stabilizer_witnesses(self) -> tuple[bool, ...]:
        """Per edge: does a conjugated witness fix both endpoints?

        For the edge {gL, gsL} with witness word w_s in L and sLs^-1, the
        element g w_s g^-1 fixes both cosets under left translation.  Both
        endpoint representatives are tried as the conjugator, and fixing is
        verified by tracing, so a True entry is always a genuine proof.
        """
        if self.witnesses is None:
            raise InputError("this graph carries no stabilizer witnesses")
        results = []
        for u, v, label in self.edges:
            w_s = self.witnesses[label]
            ok = False
            for source in (u, v):
                conj = free_reduce(
                    tuple(self.vertices[source]) + tuple(w_s) + inverse_word(self.vertices[source])
                )
                if self._fixes_vertex(conj, u) and self._fixes_vertex(conj, v):
                    ok = True
                    break
            results.append(ok)
        return tuple(results)


def _edge_orbit(table: CosetTable, s: Word) -> set[tuple[int, int]]:
    """The orbit of the base edge {L, sL} under left translation by G.

    Left translation by h sends gL to hgL; transported to the table's right
    cosets through gL <-> Lg^-1 it becomes right tracing by h^-1, so the orbit
    is {(1.h, t.h) : h in G} with t = 1.s^-1.  The h with 1.h = c form the
    coset Stab(1) r_c, r_c the spanning-tree word of c, so the orbit is
    {(c, d.r_c)} with d running over the orbit O of t under Stab(1).  The
    subgroup generators generate Stab(1) for a subgroup enumeration, so O is
    their orbit of t, and each d costs index - 1 lookups along the tree.  The
    result is the full family {{gL, gsL} : g in G} as 0-based vertex pairs.
    """
    if table.construction != "subgroup-enumeration":
        raise InputError(
            "edge orbits need a table whose subgroup generators generate the stabilizer "
            f"(a subgroup enumeration), not a {table.construction!r} table"
        )
    columns = table.columns
    t = table.trace(1, inverse_word(s))
    orbit = [t]
    seen = {t}
    for d in orbit:
        for w in table.subgroup_generators:
            e = table.trace(d, w)
            if e not in seen:
                seen.add(e)
                orbit.append(e)
    vertices = range(table.index)
    out = set()
    for d in orbit:
        image = [0] * (table.index + 1)
        image[1] = d
        for c, x, child in table.spanning_tree:
            image[child] = columns[x][image[c]]
        image = [c - 1 for c in image[1:]]
        out.update(zip(map(min, vertices, image), map(max, vertices, image)))
    return out


def _complete_graph_from_table(
    p: Presentation,
    subgroup_words: tuple[Word, ...],
    generating_set: tuple[Word, ...],
    table: CosetTable,
    witnesses: Optional[tuple[Word, ...]],
) -> CosetGraph:
    vertices = tuple(inverse_word(rep) for rep in table.transversal)
    edges = []
    for label, s in enumerate(generating_set):
        edges += [(u, v, label) for u, v in _edge_orbit(table, s)]
    return CosetGraph(
        presentation=p,
        subgroup_words=subgroup_words,
        generating_set=generating_set,
        vertices=vertices,
        edges=tuple(sorted(edges)),
        kind="complete",
        table=table,
        witnesses=witnesses,
    )


def _ball_graph(
    p: Presentation,
    subgroup_words: tuple[Word, ...],
    generating_set: tuple[Word, ...],
    solver: CosetSolver,
    radius: int,
    witnesses: Optional[tuple[Word, ...]],
) -> CosetGraph:
    limit = coset.DEFAULT_BUDGET
    base = solver.canonical(())
    dist = {base: 0}
    order = [base]
    queue = [base]
    depth = 0
    while queue and depth < radius:
        nxt = []
        for rep in queue:
            for s in generating_set:
                for step in (tuple(s), inverse_word(s)):
                    neighbor = solver.canonical(tuple(rep) + step)
                    if neighbor not in dist:
                        dist[neighbor] = depth + 1
                        order.append(neighbor)
                        nxt.append(neighbor)
            if len(order) > limit:
                raise BudgetExceededError(
                    f"the radius-{radius} ball has more than {limit} vertices"
                )
        queue = nxt
        depth += 1
    index = {rep: i for i, rep in enumerate(order)}
    edges = set()
    for rep in order:
        for label, s in enumerate(generating_set):
            partner = solver.canonical(tuple(rep) + tuple(s))
            if partner in index:
                u, v = index[rep], index[partner]
                edges.add((min(u, v), max(u, v), label))
    frontier = tuple(i for i, rep in enumerate(order) if dist[rep] == radius)
    return CosetGraph(
        presentation=p,
        subgroup_words=subgroup_words,
        generating_set=generating_set,
        vertices=tuple(order),
        edges=tuple(sorted(edges)),
        kind="ball",
        radius=radius,
        frontier=frontier,
        solver=solver,
        witnesses=witnesses,
    )


def build_coset_graph(
    p: Presentation,
    subgroup_words: Sequence[Sequence[int]],
    generating_set: Sequence[Sequence[int]],
    budget: int = DEFAULT_GRAPH_BUDGET,
    radius: int = DEFAULT_RADIUS,
    solver: Optional[CosetSolver] = None,
    witnesses: Optional[Sequence[Sequence[int]]] = None,
) -> CosetGraph:
    """The graph on G/L: complete if coset enumeration finishes within budget,
    otherwise a radius-r ball over canonical coset representatives.

    Truncation needs a coset canonicalizer; one is inferred for free-abelian
    and parabolic graph-group cases, and the construction refuses (rather than
    guess) for presentations without one.  A ball that grows past
    ``coset.DEFAULT_BUDGET`` vertices raises BudgetExceededError.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    subgroup_words = tuple(p.check_word(w) for w in subgroup_words)
    generating_set = tuple(p.check_word(s) for s in generating_set)
    if not generating_set:
        raise InputError("the generating set must be nonempty")
    wit = tuple(p.check_word(w) for w in witnesses) if witnesses is not None else None
    if wit is not None and len(wit) != len(generating_set):
        raise InputError("need one stabilizer witness per generating-set element")
    try:
        table = todd_coxeter(p, subgroup_words, max_cosets=budget)
        return _complete_graph_from_table(p, subgroup_words, generating_set, table, wit)
    except BudgetExceededError:
        pass
    if solver is None:
        solver = infer_solver(p, subgroup_words)
    if solver is None:
        raise UndecidableContextError(
            "coset enumeration exceeded its budget and no canonical-form solver is "
            "available for this subgroup shape; supply a solver or raise the budget"
        )
    return _ball_graph(p, subgroup_words, generating_set, solver, radius, wit)


# --------------------------------------------------------------------- paths


@dataclass(frozen=True)
class CosetPath:
    """A walk in a coset graph realized by a factorization over S.

    vertices[k] is the coset of the k-th prefix of the factorization; edges
    list (u, v, label) for each step, so len(edges) == len(factorization).
    """

    vertices: tuple[Word, ...]
    vertex_indices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    factorization: tuple[int, ...]  # signed 1-based indices into generating_set
    edges_in_graph: tuple[bool, ...] = ()


def _factorize(
    g: Word, generating_set: tuple[Word, ...], ctx: WordProblemContext, bound: int
) -> tuple[int, ...]:
    """Shortest expression of g as a product of generating-set letters (BFS)."""
    target = ctx.normal_form(g)
    start = ctx.normal_form(())
    if start == target:
        return ()
    seen = {start}
    layer: list[tuple[Word, tuple[int, ...]]] = [(start, ())]
    for _ in range(bound):
        nxt: list[tuple[Word, tuple[int, ...]]] = []
        for element, fact in layer:
            for i, s in enumerate(generating_set, start=1):
                for signed, step in ((i, tuple(s)), (-i, inverse_word(s))):
                    reached = ctx.normal_form(tuple(element) + step)
                    if reached in seen:
                        continue
                    if reached == target:
                        return fact + (signed,)
                    seen.add(reached)
                    nxt.append((reached, fact + (signed,)))
        layer = nxt
    raise FactorizationNotFoundError(
        f"no factorization of {g} over the generating set within {bound} letters"
    )


def connectedness_path(
    g: Sequence[int],
    graph: CosetGraph,
    ctx: WordProblemContext,
    factorization: Optional[Sequence[int]] = None,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> CosetPath:
    """The prefix-coset path from the base coset L to gL.

    The factorization of g over the generating set is either supplied (signed
    1-based indices into it) or found by bounded breadth-first search.  Every
    consecutive vertex pair is checked to be an edge of the graph.
    """
    g = graph.presentation.check_word(g)
    S = graph.generating_set
    if factorization is None:
        factorization = _factorize(tuple(g), S, ctx, bound)
    else:
        factorization = tuple(int(x) for x in factorization)
        product: tuple[int, ...] = ()
        for signed in factorization:
            if not (1 <= abs(signed) <= len(S)):
                raise InputError(f"factorization letter {signed} does not index the generating set")
            product += tuple(S[signed - 1]) if signed > 0 else inverse_word(S[-signed - 1])
        if ctx.equal(product, g) is not EqualityVerdict.EQUAL:
            raise InputError("the supplied factorization does not multiply to the target element")

    prefix: tuple[int, ...] = ()
    indices = [graph.vertex_of(prefix)]
    reps = [graph.vertices[indices[0]]]
    edges = []
    present = []
    for signed in factorization:
        label = abs(signed) - 1
        step = tuple(S[label]) if signed > 0 else inverse_word(S[label])
        prefix = free_reduce(prefix + step)
        nxt = graph.vertex_of(prefix)
        u, v = indices[-1], nxt
        found = graph.has_edge(u, v, label)
        if not found and graph.kind == "complete":  # full orbit: absence is a bug
            raise VerificationFailure(f"path step {signed} is not an edge of the graph")
        edges.append((min(u, v), max(u, v), label))
        present.append(found)
        indices.append(nxt)
        reps.append(graph.vertices[nxt])
    return CosetPath(
        tuple(reps), tuple(indices), tuple(edges), tuple(factorization), tuple(present)
    )


def trim_cocompact(
    graph: CosetGraph,
    generators: Sequence[Sequence[int]],
    ctx: WordProblemContext,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> tuple[CosetGraph, tuple[int, ...]]:
    """Keep only the edge orbits met by one base-to-generator path each.

    Returns the trimmed graph (same vertex set, edge subset = union of the
    used orbits, restricted to the truncation) and the sorted orbit labels
    kept.  A generator whose coset lies outside a truncated ball raises
    TruncationTooSmallError.
    """
    used: set[int] = set()
    for gen in generators:
        path = connectedness_path(gen, graph, ctx, bound=bound)
        used.update(label for _, _, label in path.edges)
    kept = tuple(sorted(used))
    trimmed_edges = tuple(e for e in graph.edges if e[2] in used)
    trimmed = CosetGraph(
        presentation=graph.presentation,
        subgroup_words=graph.subgroup_words,
        generating_set=graph.generating_set,
        vertices=graph.vertices,
        edges=trimmed_edges,
        kind=graph.kind,
        radius=graph.radius,
        frontier=graph.frontier,
        table=graph.table,
        solver=graph.solver,
        witnesses=graph.witnesses,
    )
    return trimmed, kept


# ------------------------------------------------------------------- blow-up


@dataclass(frozen=True)
class Connector:
    """One outer edge orbit's crossing data for the blow-up.

    g_f realizes the orbit representative {eH, g_f H}; the witness is an
    ambient element of L and of g_f L g_f^-1 (shown by the two expressions
    over L's generator indices) certifying the infinite intersection.
    """

    outer_label: int
    g_f: Word
    witness: Word
    witness_in_subgroup: Word
    witness_in_conjugate: Word


@dataclass(frozen=True, eq=False)
class BlowUpGraph:
    """The graph on G/L induced by a graph on G/H and one on H/L.

    Vertices are (outer class, inner coset) pairs with ambient representative
    words; edges are tagged ("inner", inner label) or ("connector", outer
    label).  dropped_edges counts connector or inner images that left the
    truncation.
    """

    outer: CosetGraph
    inner: CosetGraph
    connectors: tuple[Connector, ...]
    vertices: tuple[tuple[int, int], ...]
    vertex_words: tuple[Word, ...]
    canonical_words: tuple[Word, ...]
    edges: tuple[tuple[int, int, str, int], ...]
    dropped_edges: int

    def vertex_count_identity(self) -> bool:
        """|G x_H (H/L)| == [G:H] * [H:L] on the available truncation."""
        return len(self.vertices) == len(self.outer.vertices) * len(self.inner.vertices)


def blow_up(
    outer: CosetGraph,
    inner: CosetGraph,
    connectors: Sequence[Connector],
    ctx: WordProblemContext,
    subgroup_words: Sequence[Sequence[int]],
    rewriter: CosetSolver,
    solver: Optional[CosetSolver] = None,
) -> BlowUpGraph:
    """Blow up a graph on G/H through a graph on H/L to a graph on G/L.

    subgroup_words express L's generators as ambient (G) words; inner's
    presentation must be the abstract presentation of H on outer's subgroup
    words (positional correspondence).  rewriter is the coset solver of H
    (e.g. infer_solver on outer's subgroup words); it rewrites ambient words
    lying in H into H's letters.  Every outer edge orbit must come with
    a connector whose witness is verified here: the two membership expressions
    must hold in ctx and the witness must be of proven infinite order —
    otherwise the construction is refused.
    """
    if outer.kind != "complete":
        raise InputError("the outer graph must be complete (finite index) for the blow-up")
    if inner.presentation.rank != len(outer.subgroup_words):
        raise InputError(
            "inner presentation rank must match the number of outer subgroup words"
        )
    subgroup_words = tuple(ctx.presentation.check_word(w) for w in subgroup_words)

    def h_to_g(w: Sequence[int]) -> Word:
        return iota(w, outer.subgroup_words)

    by_label = {c.outer_label: c for c in connectors}
    needed = set(outer.edge_orbits())
    missing = needed - set(by_label)
    if missing:
        raise InputError(
            f"missing connector data for outer edge orbit(s) {sorted(missing)}: "
            "the blow-up demands an infinite-intersection witness per orbit"
        )
    for c in connectors:
        for expr in (c.witness_in_subgroup, c.witness_in_conjugate):
            for letter in expr:
                if not (1 <= abs(letter) <= len(subgroup_words)):
                    raise InputError("connector witness expression letter out of range")
        in_l = ctx.equal(c.witness, iota(c.witness_in_subgroup, subgroup_words))
        conj = free_reduce(
            tuple(c.g_f) + iota(c.witness_in_conjugate, subgroup_words) + inverse_word(c.g_f)
        )
        in_conj = ctx.equal(c.witness, conj)
        cert = infinite_order_certificate(c.witness, ctx)
        if in_l is not EqualityVerdict.EQUAL or in_conj is not EqualityVerdict.EQUAL or not cert.proven:
            raise InputError(
                f"connector for outer orbit {c.outer_label} lacks a proven "
                "infinite-intersection witness; construction refused"
            )
        base_idx = outer.vertex_of(())
        partner_idx = outer.vertex_of(c.g_f)
        if not outer.has_edge(base_idx, partner_idx, c.outer_label):
            raise InputError(
                f"connector word for orbit {c.outer_label} does not realize an edge at the base coset"
            )

    pairs = [(o, i) for o in range(len(outer.vertices)) for i in range(len(inner.vertices))]
    pair_index = {pair: k for k, pair in enumerate(pairs)}
    vertex_words = tuple(
        free_reduce(tuple(outer.vertices[o]) + h_to_g(inner.vertices[i])) for o, i in pairs
    )
    if solver is not None:
        canonical_words = tuple(solver.canonical(w) for w in vertex_words)
        if len(set(canonical_words)) != len(canonical_words):
            raise InputError("blow-up vertices are not in bijection with G/L cosets")
    else:
        canonical_words = vertex_words

    edges: set[tuple[int, int, str, int]] = set()
    dropped = 0
    for o in range(len(outer.vertices)):
        for u, v, label in inner.edges:
            a, b = pair_index[(o, u)], pair_index[(o, v)]
            edges.add((min(a, b), max(a, b), "inner", label))
    for c in connectors:
        for k, (o, i) in enumerate(pairs):
            target = free_reduce(tuple(vertex_words[k]) + tuple(c.g_f))
            o2 = outer.vertex_of(target)
            h_word_g = free_reduce(inverse_word(outer.vertices[o2]) + target)
            h_word = rewriter.to_subgroup_letters(h_word_g)
            if h_word is None:
                raise InputError(
                    "connector target left its outer class but cannot be rewritten in subgroup letters"
                )
            try:
                i2 = inner.vertex_of(h_word)
            except TruncationTooSmallError:
                dropped += 1
                continue
            a, b = k, pair_index[(o2, i2)]
            edges.add((min(a, b), max(a, b), "connector", c.outer_label))
    return BlowUpGraph(
        outer=outer,
        inner=inner,
        connectors=tuple(connectors),
        vertices=tuple(pairs),
        vertex_words=vertex_words,
        canonical_words=canonical_words,
        edges=tuple(sorted(edges)),
        dropped_edges=dropped,
    )


@dataclass(frozen=True)
class GraphComparison:
    """Labeled-edge comparison of two graphs over a shared coset space."""

    common_vertices: int
    only_in_first: tuple
    only_in_second: tuple

    @property
    def matches(self) -> bool:
        return not self.only_in_first and not self.only_in_second


def compare_blowup_with_direct(blowup: BlowUpGraph, direct: CosetGraph) -> GraphComparison:
    """Compare a blow-up with a directly built graph on the common truncation.

    Edges are identified by their canonical endpoint representatives and their
    ambient label word: inner labels map to the outer subgroup words, and
    connector labels map to the connector's g_f word.  Only edges with both
    endpoints in the common vertex set participate.
    """
    if direct.solver is None:
        raise InputError("the direct graph must be a ball built over a coset solver")
    blow_vertices = set(blowup.canonical_words)
    direct_vertices = set(direct.vertices)
    common = blow_vertices & direct_vertices

    def blow_label_word(tag: str, label: int) -> Word:
        if tag == "inner":
            return iota(blowup.inner.generating_set[label], blowup.outer.subgroup_words)
        return next(c.g_f for c in blowup.connectors if c.outer_label == label)

    first = set()
    for u, v, tag, label in blowup.edges:
        a, b = blowup.canonical_words[u], blowup.canonical_words[v]
        if a in common and b in common:
            first.add((frozenset((a, b)), blow_label_word(tag, label)))
    second = set()
    for u, v, label in direct.edges:
        a, b = direct.vertices[u], direct.vertices[v]
        if a in common and b in common:
            second.add((frozenset((a, b)), tuple(direct.generating_set[label])))
    return GraphComparison(
        common_vertices=len(common),
        only_in_first=tuple(sorted(first - second, key=repr)),
        only_in_second=tuple(sorted(second - first, key=repr)),
    )


# ----------------------------------------------------------------- JSON I/O


def witness_set_to_dict(ws: QNormalWitnessSet) -> dict:
    return {
        "ambient": {
            "generators": list(ws.ambient.generator_names),
            "relators": [list(r) for r in ws.ambient.relators],
        },
        "subgroup_words": [list(w) for w in ws.subgroup_words],
        "generating_set": [list(s) for s in ws.generating_set],
        "witnesses": [
            {
                "w": list(wit.w),
                "expr_in_subgroup": list(wit.expr_in_subgroup),
                "expr_in_conjugate": list(wit.expr_in_conjugate),
            }
            for wit in ws.witnesses
        ],
    }


def witness_set_from_dict(d: dict) -> QNormalWitnessSet:
    try:
        ambient = Presentation(
            tuple(d["ambient"]["generators"]),
            tuple(word(r) for r in d["ambient"]["relators"]),
        )
        witnesses = tuple(
            QNormalWitness(
                w=word(w["w"]),
                expr_in_subgroup=word(w["expr_in_subgroup"]),
                expr_in_conjugate=word(w["expr_in_conjugate"]),
            )
            for w in d["witnesses"]
        )
        return QNormalWitnessSet(
            ambient=ambient,
            subgroup_words=tuple(word(w) for w in d["subgroup_words"]),
            generating_set=tuple(word(s) for s in d["generating_set"]),
            witnesses=witnesses,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed witness-set data: {exc}") from None


def chain_to_dict(cert: QNormalChainCertificate) -> dict:
    return {
        "base": list(cert.base),
        "steps": [witness_set_to_dict(s) for s in cert.steps],
    }


def chain_from_dict(d: dict) -> QNormalChainCertificate:
    try:
        steps = tuple(witness_set_from_dict(s) for s in d["steps"])
        return QNormalChainCertificate(steps=steps, base=word(d["base"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed chain-certificate data: {exc}") from None


def graph_to_dict(g: CosetGraph) -> dict:
    return {
        "completeness": g.completeness,
        "radius": g.radius,
        "vertices": [list(v) for v in g.vertices],
        "frontier": list(g.frontier),
        "generating_set": [list(s) for s in g.generating_set],
        "edges": [
            {"u": u, "v": v, "label": label, "orbit": label} for u, v, label in g.edges
        ],
    }
