"""Words, presentations, and graph-group (RAAG) normal forms.

A word is a tuple of nonzero signed integers: letter +i is the i-th generator
(1-based), letter -i its inverse.  The empty tuple is the identity.

Normal forms in a graph group are computed by *piling*: each generator owns a
pile that records, left to right, its own occurrences (as the letters +-i) and
a marker 0 for every occurrence of a non-commuting generator.  Pushing a letter cancels
against the top of its own pile when the matching inverse is separated only by
commuting letters; reading the piles back greedily by least generator index
yields the shortlex-least geodesic representative.

Words are validated once, where they enter a public function: ``word``,
``free_reduce``, ``bounded_word`` (the one letter-range check, which
``Presentation.check_word`` and every other module call) and
``raag_normal_form`` raise ``InputError`` (exit code 2 on the command line)
for a zero or non-integer letter or a generator beyond the declared rank.
Below that boundary the pile kernel ``pile_normal_form`` trusts its word and
does no checking of its own, apart from asserting the pile invariants.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, Optional, Sequence

from .errors import InputError

Word = tuple[int, ...]


def word(letters: Iterable[int]) -> Word:
    """Validate and return a word as a tuple of nonzero integers.

    Letters must be integers (bools and other integer types are converted);
    a float or a string is refused rather than rounded or parsed.
    """
    try:
        w = tuple(map(index, letters))
    except (TypeError, ValueError) as exc:
        raise InputError(f"word letters must be nonzero integers: {exc}") from None
    if 0 in w:
        raise InputError("word letters must be nonzero integers")
    return w


def free_reduce(w: Sequence[int]) -> Word:
    """Delete adjacent inverse pairs until none remain."""
    out: list[int] = []
    try:
        for letter in w:
            if not letter:
                raise ValueError("zero letter")
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(index(letter))
    except (TypeError, ValueError):
        raise InputError(f"word letters must be nonzero integers, got {w!r}") from None
    return tuple(out)


def inverse_word(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def concat(*ws: Sequence[int]) -> Word:
    out: list[int] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def conjugate(g: Sequence[int], w: Sequence[int]) -> Word:
    """g w g^{-1} (not reduced)."""
    return concat(g, w, inverse_word(g))


def commutator(u: Sequence[int], v: Sequence[int]) -> Word:
    """u v u^{-1} v^{-1} (not reduced)."""
    return concat(u, v, inverse_word(u), inverse_word(v))


def power(w: Sequence[int], n: int) -> Word:
    if n >= 0:
        return tuple(w) * n
    return inverse_word(tuple(w) * (-n))


def max_letter(w: Sequence[int]) -> int:
    return max((abs(x) for x in w), default=0)


def format_word(w: Sequence[int], names: Optional[Sequence[str]] = None) -> str:
    if not w:
        return "e"
    if names is None:
        return ",".join(str(x) for x in w)
    parts = []
    for x in w:
        name = names[abs(x) - 1]
        parts.append(name if x > 0 else name + "^-1")
    return " ".join(parts)


@dataclass(frozen=True, slots=True)
class Presentation:
    """A finite presentation: named generators and freely reduced relators."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not self.generator_names:
            raise InputError("a presentation needs at least one generator")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise InputError("generator names must be distinct")
        if any(not n for n in self.generator_names):
            raise InputError("generator names must be nonempty")
        reduced = tuple(free_reduce(r) for r in self.relators)
        object.__setattr__(self, "relators", reduced)
        k = len(self.generator_names)
        for r in reduced:
            if r and (max(r) > k or min(r) < -k):
                raise InputError(f"relator {r} uses a generator beyond the {k} declared")

    @classmethod
    def _of_reduced(cls, names: tuple[str, ...], relators: tuple[Word, ...]) -> "Presentation":
        """The one trusted path: relators freely reduced over the names, kept unchecked."""
        p = cls(names, ())
        object.__setattr__(p, "relators", relators)
        return p

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    def check_word(self, w: Sequence[int]) -> Word:
        """w as a tuple of letters in +-1..rank; InputError otherwise."""
        return bounded_word(w, len(self.generator_names))


def bounded_word(w: Sequence[int], k: int) -> Word:
    """w as a tuple of letters in +-1..k, checked in one pass.

    A tuple of ints is returned as it is; anything else (a list, bools)
    goes through ``word``, which converts it or raises.
    """
    if type(w) is tuple:
        for x in w:
            if type(x) is not int or not (0 < x <= k or -k <= x < 0):
                break
        else:
            return w
    w = word(w)
    if max_letter(w) > k:
        raise InputError(f"word {w} uses a generator beyond the {k} declared")
    return w


def presentation(names: Sequence[str], relators: Iterable[Sequence[int]] = ()) -> Presentation:
    return Presentation(tuple(names), tuple(word(r) for r in relators))


def default_names(n: int) -> tuple[str, ...]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(alphabet):
        return tuple(alphabet[:n])
    return tuple(f"g{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class RaagGraph:
    """A finite simple graph on vertices 1..vertex_count; edges mean commuting."""

    vertex_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InputError("a graph needs at least one vertex")
        n = self.vertex_count
        normalized = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise InputError("self-loops are not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge {e} out of range")
            # an edge that is already a normalized tuple is kept, so graphs cut from one share it
            normalized.add(e if i < j and type(e) is tuple else (min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    @property
    def is_complete(self) -> bool:
        """Every two vertices adjacent: the group is free abelian."""
        n = self.vertex_count
        return len(self.edges) == n * (n - 1) // 2

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples indexed by vertex; index 0 is unused."""
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count + 1)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(vs)) for vs in nbrs)

    @cached_property
    def non_commuters(self) -> tuple[tuple[int, ...], ...]:
        """Per signed letter x, the other vertices not adjacent to |x|, ascending.

        The table has 2n + 1 entries and is indexed by the letter itself:
        entry i and entry -i (Python's negative indexing) hold the same
        tuple, so ``pile_normal_form`` needs no abs() per letter.  Entry 0 is
        empty.
        """
        vertices = range(1, self.vertex_count + 1)
        rows: list[tuple[int, ...]] = [()]
        for i in vertices:
            adjacent = self._adjacency[i]
            rows.append(tuple(j for j in vertices if j != i and j not in adjacent))
        return tuple(rows + rows[:0:-1])

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def is_connected(self) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.vertex_count

    def induced(self, vertices: Sequence[int]) -> "RaagGraph":
        """Induced subgraph, vertices relabeled 1..k in the order given."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise InputError("induced vertex list must be duplicate-free")
        pos = {v: i + 1 for i, v in enumerate(vs)}
        edges = frozenset(
            (min(pos[i], pos[j]), max(pos[i], pos[j]))
            for (i, j) in self.edges
            if i in pos and j in pos
        )
        return RaagGraph(len(vs), edges)

    def prefix(self, m: int) -> "RaagGraph":
        """The induced subgraph on vertices 1..m, equal to ``induced(range(1, m + 1))``.

        Its non-commuter rows are this graph's rows cut at m (they ascend),
        and its commutators this graph's, so a chain of prefixes builds both once.
        """
        if not 1 <= m <= self.vertex_count:
            raise InputError(f"prefix length {m} out of range 1..{self.vertex_count}")
        sub = RaagGraph(m, frozenset(e for e in self.edges if e[1] <= m))
        rows = [row[: bisect_right(row, m)] for row in self.non_commuters[: m + 1]]
        object.__setattr__(sub, "non_commuters", tuple(rows + rows[:0:-1]))
        object.__setattr__(sub, "commutators", tuple(r for r in self.commutators if r[1] <= m))
        return sub

    @cached_property
    def commutators(self) -> tuple[Word, ...]:
        """The relators (i, j, -i, -j) of the edges i < j, in sorted order."""
        return tuple((i, j, -i, -j) for i, j in sorted(self.edges))

    def presentation(self, names: Optional[Sequence[str]] = None) -> Presentation:
        """The graph group's presentation; it holds ``commutators`` itself, not a copy."""
        names = tuple(names) if names else default_names(self.vertex_count)
        if len(names) != self.vertex_count:
            raise InputError("need exactly one name per vertex")
        return Presentation._of_reduced(names, self.commutators)


def raag_graph(vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> RaagGraph:
    return RaagGraph(vertex_count, frozenset((int(i), int(j)) for i, j in edges))


def free_graph(n: int) -> RaagGraph:
    """Edgeless graph: the free group of rank n."""
    return RaagGraph(n)


def complete_graph(n: int) -> RaagGraph:
    """Complete graph: free abelian of rank n."""
    return RaagGraph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def raag_normal_form(w: Sequence[int], g: RaagGraph) -> Word:
    """Shortlex-least geodesic representative of w in the graph group of g.

    Two words map to equal normal forms exactly when they are related by free
    cancellations/insertions and swaps of adjacent commuting letters.
    """
    n = g.vertex_count
    return pile_normal_form(bounded_word(w, n), n, g.non_commuters)


def pile_normal_form(w: Word, n: int, non_commuters: Sequence[Sequence[int]]) -> Word:
    """The piling behind ``raag_normal_form``, for a word already checked.

    Trusts its input: every letter of w lies in +-1..n, and non_commuters is
    ``RaagGraph.non_commuters`` of the graph on n vertices.  Pile i (shared
    by letters i and -i) holds the letters +-i and a 0 marker per pushed
    non-commuting letter; it is read back from a head index.
    """
    if len(w) < 2:  # the empty word and a single letter are their own normal forms
        return w
    piles: list = [None] * (2 * n + 1)
    for i in range(1, n + 1):
        piles[i] = piles[-i] = []
    for x in w:
        pile = piles[x]
        if pile and pile[-1] == -x:
            pile.pop()
            for j in non_commuters[x]:
                top = piles[j].pop()
                assert top == 0, "pile invariant broken"
        else:
            pile.append(x)
            for j in non_commuters[x]:
                piles[j].append(0)
    # emit the least generator whose pile starts with a letter, then rescan
    heads = [0] * (n + 1)
    out: list[int] = []
    i = 1
    while i <= n:
        pile, h = piles[i], heads[i]
        if h < len(pile) and pile[h]:
            out.append(pile[h])
            heads[i] = h + 1
            for j in non_commuters[i]:
                assert piles[j][heads[j]] == 0, "pile invariant broken"
                heads[j] += 1
            i = 1
        else:
            i += 1
    assert heads[1:] == list(map(len, piles[1 : n + 1])), "pile invariant broken"
    return tuple(out)
