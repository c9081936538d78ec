"""Coset tables, coset enumeration and finite-index subgroup chains.

Chain levels are kernels of maps onto known finite abelian groups, Z/n or
(Z/n)^b, so their tables are written down from the quotient map: cosets are
the vectors of the quotient, each generator adds its image, and
``CosetTable.verify()`` proves the result is the cover (Reidemeister-Schreier
from a permutation representation; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005).  Subgroups given only by generating words
are found by coset enumeration.

The enumerator is a deterministic relator-scanning (HLT-style) Todd-Coxeter:
subgroup generator words are scanned at the base coset, every relator is
scanned at every live coset with gaps filled by new cosets, and coincidences
are merged immediately through a union-find queue.  Enumeration either
completes (finite index) or raises BudgetExceededError once the total number
of cosets ever defined passes the budget.

The enumeration scans column-index lists built once per relator and subgroup
word, skips without a call any relator scan that closes up with no gap, and
queues coincidences in a deque.

Tables act on the right: ``action[g-1][c-1]`` is the image of coset c under
the generator g.  The base coset 1 is the subgroup itself.  Every lookup reads
the column store ``CosetTable.columns``, one tuple per signed letter, padded
so that ``columns[x][c]`` is c.x and indexed by the letter itself (column -g
is Python's negative index).  Tracing a word is one lookup per letter, and a
word's permutation composes whole columns, one list comprehension per letter.
Fixed-point counts of left translation on left cosets equal those of the
right action of the same word (the inversion bijection between the two coset
spaces matches the fixed sets), so fixed-point ratios are computed directly
on the table.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Optional, Sequence

from .contexts import WordProblemContext, exponent_counts, free_abelianization, torsion_basis_words
from .errors import BudgetExceededError, InputError
from .words import Presentation, Word, free_reduce, power

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class CosetTable:
    """A completed permutation action of a presented group on coset numbers 1..index.

    subgroup_generators are words known to fix the base coset; when
    ``construction == "subgroup-enumeration"`` they generate the full point
    stabilizer.
    """

    presentation: Presentation
    subgroup_generators: tuple[Word, ...]
    index: int
    action: tuple[tuple[int, ...], ...]
    construction: str = "subgroup-enumeration"

    def __post_init__(self):
        if self.index < 1:
            raise InputError("a coset table needs at least one coset")
        if len(self.action) != self.presentation.rank:
            raise InputError("need one permutation per generator")
        for perm in self.action:
            if len(perm) != self.index or sorted(perm) != list(range(1, self.index + 1)):
                raise InputError(f"generator action {perm} is not a permutation of 1..{self.index}")

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The column store: per signed letter x, the tuple (0, 1.x, ..., index.x).

        The table has 2r + 1 columns and is indexed by the letter itself:
        column g holds the action of generator g, column -g (Python's negative
        indexing) its inverse, and column 0 the identity.  Each column is
        padded with a leading 0 so that coset c is read at position c.
        """
        inverse = []
        for perm in self.action:
            inv = [0] * (self.index + 1)
            for c, img in enumerate(perm, start=1):
                inv[img] = c
            inverse.append(tuple(inv))
        forward = [(0,) + perm for perm in self.action]
        return (tuple(range(self.index + 1)),) + tuple(forward) + tuple(reversed(inverse))

    def trace(self, coset: int, w: Sequence[int]) -> int:
        """coset.w, one column lookup per letter of the checked word."""
        columns = self.columns
        for letter in self.presentation.check_word(w):
            coset = columns[letter][coset]
        return coset

    def word_permutation(self, w: Sequence[int]) -> tuple[int, ...]:
        w = self.presentation.check_word(w)
        return self._compose(w)[1:]

    def _compose(self, w: Word) -> tuple[int, ...]:
        """The padded column of a checked word: one list comprehension per letter."""
        columns = self.columns
        perm = columns[0]
        for letter in w:
            column = columns[letter]
            perm = [column[c] for c in perm]
        return tuple(perm)

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int, int], ...]:
        """The BFS tree of the Schreier graph as index - 1 steps (c, x, c.x).

        One BFS from the base coset over letters +1..+r,-1..-r; each step is
        the edge, x a signed letter, that first reached c.x, in discovery
        order, so each step's c was reached before it.  Raises InputError
        unless the action is transitive.
        """
        rank = self.presentation.rank
        letters = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
        columns = self.columns
        seen = [False] * (self.index + 1)
        seen[1] = True
        steps: list[tuple[int, int, int]] = []
        queue = [1]
        while queue:
            nxt = []
            for c in queue:
                for letter in letters:
                    d = columns[letter][c]
                    if not seen[d]:
                        seen[d] = True
                        steps.append((c, letter, d))
                        nxt.append(d)
            queue = nxt
        if len(steps) != self.index - 1:
            raise InputError("the generator actions do not act transitively")
        return tuple(steps)

    @cached_property
    def transversal(self) -> tuple[Word, ...]:
        """Shortest representative words, read off the spanning tree.

        Built only when asked: the words of a cyclic level of index n have
        total length about n^2/4.
        """
        reps: list = [None] * (self.index + 1)
        reps[1] = ()
        for c, letter, d in self.spanning_tree:
            reps[d] = reps[c] + (letter,)
        return tuple(reps[1:])

    def verify(self) -> None:
        """Re-check the defining invariants (raises InputError on failure)."""
        identity = self.columns[0]
        for r in self.presentation.relators:
            if self._compose(r) != identity:
                raise InputError(f"relator {r} does not act trivially")
        for s in self.subgroup_generators:
            if self.trace(1, s) != 1:
                raise InputError(f"subgroup generator {s} does not fix the base coset")
        self.spanning_tree  # transitivity


def fx(gamma: Sequence[int], table: CosetTable) -> Fraction:
    """Fixed-point ratio of the translation action of gamma on the coset space."""
    perm = table.word_permutation(gamma)
    fixed = sum(1 for c, img in enumerate(perm, start=1) if img == c)
    return Fraction(fixed, table.index)


# ------------------------------------------------------------ Todd-Coxeter


def todd_coxeter(
    p: Presentation,
    subgroup_words: Sequence[Sequence[int]] = (),
    max_cosets: int = DEFAULT_BUDGET,
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by subgroup_words.

    Deterministic for a fixed input: cosets are scanned in increasing order,
    relators in presentation order, and new cosets are numbered by first
    definition.  The budget bounds the total number of cosets ever defined
    (including ones later merged away).
    """
    subgroup_words = [p.check_word(w) for w in subgroup_words]
    rank = p.rank
    ncols = 2 * rank

    def columns_of(w: Word) -> list[int]:
        """Column indices of a word's letters: 2(g-1) for g, 2(g-1)+1 for -g."""
        return [2 * x - 2 if x > 0 else -2 * x - 1 for x in w]

    # an empty relator scans to nothing, so it is left out
    relator_columns = [columns_of(r) for r in p.relators if r]

    table: list[Optional[list[int]]] = [None, [0] * ncols]  # 1-based rows
    rep: list[int] = [0, 1]
    defined = 1

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def new_coset() -> int:
        nonlocal defined
        if defined >= max_cosets:
            raise BudgetExceededError(
                f"coset enumeration exceeded the budget of {max_cosets} cosets"
            )
        table.append([0] * ncols)
        rep.append(len(table) - 1)
        defined += 1
        return len(table) - 1

    pending: deque[tuple[int, int]] = deque()

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        rep[b] = a
        pending.append((a, b))

    def process_coincidences() -> None:
        while pending:
            a, dead = pending.popleft()
            row = table[dead]
            table[dead] = None
            for x in range(ncols):
                d = row[x]
                if d == 0:
                    continue
                drow = table[find(d)]
                if drow is not None and drow[x ^ 1] == dead:
                    drow[x ^ 1] = 0
                mu, delta = find(dead), find(d)
                murow, deltarow = table[mu], table[delta]
                if murow[x] != 0:
                    merge(delta, murow[x])
                elif deltarow[x ^ 1] != 0:
                    merge(mu, deltarow[x ^ 1])
                else:
                    murow[x] = delta
                    deltarow[x ^ 1] = mu

    def scan_and_fill(alpha: int, w: list[int]) -> None:
        """Scan the column list w at alpha from both ends, filling the gap."""
        f, i = alpha, 0
        b, r = alpha, len(w) - 1
        while True:
            while i <= r:
                nxt = table[f][w[i]]
                if nxt == 0:
                    break
                f = nxt if rep[nxt] == nxt else find(nxt)
                i += 1
            if i > r:
                if f != alpha:
                    merge(f, alpha)
                    process_coincidences()
                return
            while r >= i:
                prv = table[b][w[r] ^ 1]
                if prv == 0:
                    break
                b = prv if rep[prv] == prv else find(prv)
                r -= 1
            if r < i:
                merge(f, b)
                process_coincidences()
                return
            x = w[i]
            if r == i:
                table[f][x] = b
                table[b][x ^ 1] = f
                return
            delta = new_coset()
            table[f][x] = delta
            table[delta][x ^ 1] = f
            f = delta
            i += 1

    for w in subgroup_words:
        reduced = free_reduce(w)
        if reduced:
            scan_and_fill(1, columns_of(reduced))
        if table[find(1)] is None:  # pragma: no cover - base coset always survives
            raise AssertionError("base coset died")

    alpha = 1
    while alpha < len(table):
        if rep[alpha] != alpha:
            alpha += 1
            continue
        for w in relator_columns:
            # fast path: a scan that closes up without a gap changes nothing
            f = alpha
            for x in w:
                f = table[f][x]
                if f == 0 or rep[f] != f:
                    break
            else:
                if f == alpha:
                    continue
            scan_and_fill(alpha, w)
            if rep[alpha] != alpha:
                break
        else:
            row = table[alpha]
            for x in range(ncols):
                if row[x] == 0:
                    delta = new_coset()
                    row[x] = delta
                    table[delta][x ^ 1] = alpha
        alpha += 1

    live = [c for c in range(1, len(table)) if table[c] is not None and find(c) == c]
    number = {c: i + 1 for i, c in enumerate(live)}
    index = len(live)
    action = []
    for g in range(1, rank + 1):
        perm = []
        for c in live:
            img = table[c][2 * g - 2]
            if img == 0:  # pragma: no cover - completed tables have no gaps
                raise AssertionError("incomplete table after enumeration")
            perm.append(number[find(img)])
        action.append(tuple(perm))
    result = CosetTable(
        presentation=p,
        subgroup_generators=tuple(subgroup_words),
        index=index,
        action=tuple(action),
    )
    result.verify()
    return result


# ------------------------------------------------------------------ chains


@dataclass(frozen=True)
class SubgroupChain:
    """A descending sequence of finite-index levels of one presented group."""

    presentation: Presentation
    levels: tuple[CosetTable, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.labels):
            raise InputError("need one label per level")
        if not self.levels:
            raise InputError("a chain needs at least one level")
        for t in self.levels:
            if t.presentation != self.presentation:
                raise InputError("all levels must share the chain's presentation")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(t.index for t in self.levels)


def _cover_index(moduli: Sequence[int], max_cosets: int) -> int:
    """The index m_1...m_b of a quotient kernel, checked against the budget
    before the level's subgroup words (powers as long as a modulus) are built."""
    index = prod(moduli)
    if index > max_cosets:
        raise BudgetExceededError(f"cover index {index} exceeds the budget of {max_cosets} cosets")
    return index


def _quotient_kernel(
    p: Presentation,
    images: Sequence[Sequence[int]],
    moduli: Sequence[int],
    subgroup_words: Sequence[Word],
    construction: str,
    index: int,
) -> CosetTable:
    """The kernel of g -> images[g-1] mod moduli, written down as a coset table.

    Coset 1 + v_1 + m_1 v_2 + m_1 m_2 v_3 + ... is the vector v of
    Z/m_1 x ... x Z/m_b (mixed radix, coset 1 the zero vector), and generator
    g adds its image to it.  ``verify()`` proves that this is an action of
    the presented group (every relator acts trivially), that the listed
    subgroup words lie in the kernel and that the map is onto (the action is
    transitive).  index is ``_cover_index(moduli, ...)``.
    """
    action = []
    for image in images:
        perm = [1]
        stride = 1
        for a, m in zip(image, moduli):
            shifted = [(v + a) % m * stride for v in range(m)]
            perm = [hi + lo for hi in shifted for lo in perm]
            stride *= m
        action.append(tuple(perm))
    table = CosetTable(
        presentation=p,
        subgroup_generators=tuple(subgroup_words),
        index=index,
        action=tuple(action),
        construction=construction,
    )
    table.verify()
    return table


def build_abelian_chain(
    p: Presentation,
    moduli: Sequence[int],
    max_cosets: int = DEFAULT_BUDGET,
) -> SubgroupChain:
    """Levels are kernels of the maps onto (Z/n)^b through the torsion-free
    abelianization Z^b, one per modulus n.

    A generator's image in Z^b is its column of ``free_abelianization``.
    The listed subgroup words are the n-th powers of the generators and
    words generating the abelianization's torsion; with [G, G] they generate
    the kernel.  When b = 0 every level is G, and the generators are listed
    to the first power, so no word grows with n.
    """
    moduli = [int(n) for n in moduli]
    if any(n < 1 for n in moduli):
        raise InputError("moduli must be positive")
    free_rows = free_abelianization(p)
    images = [[row[g] for row in free_rows] for g in range(p.rank)]
    torsion_words = list(torsion_basis_words(p))
    levels = []
    labels = []
    for n in moduli:
        index = _cover_index([n] * len(free_rows), max_cosets)
        subgroup = [power((g,), n if free_rows else 1) for g in range(1, p.rank + 1)] + torsion_words
        levels.append(_quotient_kernel(
            p, images, [n] * len(free_rows), subgroup, "abelian-quotient-kernel", index
        ))
        labels.append(f"abelian-n={n}")
    return SubgroupChain(p, tuple(levels), tuple(labels))


def cyclic_cover_chain(
    p: Presentation,
    ns: Sequence[int],
    gen: int = 1,
    max_cosets: int = DEFAULT_BUDGET,
) -> SubgroupChain:
    """Kernels of gen -> 1, other generators -> 0 into Z/n', one level per n.

    Here n' = gcd(n, exponent sums of gen over the relators): gen -> 1
    respects the relators in Z/n' and in no larger quotient of Z/n, so the
    level is the normal closure of gen^n and the other generators.  Its
    listed subgroup words are gen^n' and the other generators.
    """
    if not (1 <= gen <= p.rank):
        raise InputError(f"generator index {gen} out of range")
    sums = [exponent_counts(r, p.rank)[gen - 1] for r in p.relators]
    images = [[1 if g == gen else 0] for g in range(1, p.rank + 1)]
    levels = []
    labels = []
    for n in ns:
        if n < 1:
            raise InputError("cover degrees must be positive")
        m = gcd(n, *sums)
        index = _cover_index([m], max_cosets)
        subgroup = [power((gen,), m)] + [(h,) for h in range(1, p.rank + 1) if h != gen]
        levels.append(_quotient_kernel(p, images, [m], subgroup, "cyclic-quotient-kernel", index))
        labels.append(f"cyclic-n={n}")
    return SubgroupChain(p, tuple(levels), tuple(labels))


_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_CHAIN_KEYS = {"abelian": ("n",), "cyclic": ("n", "gen")}


def parse_chain_spec(spec: str, p: Presentation, max_cosets: int = DEFAULT_BUDGET) -> SubgroupChain:
    """Parse "abelian:n=2,4,8" / "abelian:n=1..5" / "cyclic:n=2..8[,gen=2]".

    n is required, once; gen is optional, once, and only on cyclic chains.
    Anything else is an InputError naming the offending key.
    """
    if max_cosets < 1:
        raise InputError("budget must be at least 1")
    kind, _, args = spec.partition(":")
    if kind not in _CHAIN_KEYS:
        raise InputError(f"unknown chain kind {kind!r} (expected abelian or cyclic)")
    params: dict[str, str] = {}
    key = None
    for part in args.split(",") if args else []:
        name, eq, val = part.partition("=")
        if not eq and key == "n":  # a bare value continues an n list such as n=2,4,8
            params["n"] += "," + part
            continue
        key = name
        if key not in _CHAIN_KEYS[kind]:
            raise InputError(f"chain spec {spec!r}: {kind} chains take no key {key!r}")
        if key in params:
            raise InputError(f"chain spec {spec!r}: key {key!r} is given twice")
        if not val:
            raise InputError(f"chain spec {spec!r}: key {key!r} has no value")
        params[key] = val
    if "n" not in params:
        raise InputError(f"chain spec {spec!r} needs an n= parameter")
    try:
        m = _RANGE.match(params["n"])
        if m:
            ns = list(range(int(m.group(1)), int(m.group(2)) + 1))
        else:
            ns = [int(tok) for tok in params["n"].split(",") if tok]
        if kind == "abelian":
            return build_abelian_chain(p, ns, max_cosets=max_cosets)
        return cyclic_cover_chain(p, ns, gen=int(params.get("gen", "1")), max_cosets=max_cosets)
    except (ValueError, IndexError, OverflowError) as exc:
        raise InputError(f"cannot parse chain spec {spec!r}: {exc}") from None


# --------------------------------------------------------------- evidence


@dataclass(frozen=True)
class FarberReport:
    """Fixed-point ratios of the test elements along the chain's levels.

    This is finite-prefix evidence: passing means every ratio at the deepest
    level is at most eps, nothing more.
    """

    gammas: tuple[Word, ...]
    indices: tuple[int, ...]
    values: tuple[tuple[Fraction, ...], ...]  # values[gamma][level]
    eps: Fraction
    passed: bool
    evidence: str = "finite-prefix"


def farber_prefix_check(
    chain: SubgroupChain,
    gammas: Sequence[Sequence[int]],
    eps: Fraction,
    ctx: WordProblemContext,
) -> FarberReport:
    """Check that fixed-point ratios of the gammas drop to <= eps at the last level."""
    checked: list[Word] = []
    for g in gammas:
        w = chain.presentation.check_word(g)
        if ctx.is_trivial(w) is True:
            raise InputError(f"gamma {w} is trivial in the given context")
        checked.append(w)
    values = tuple(
        tuple(fx(g, level) for level in chain.levels) for g in checked
    )
    passed = all(row[-1] <= eps for row in values)
    return FarberReport(
        gammas=tuple(checked),
        indices=chain.indices,
        values=values,
        eps=Fraction(eps),
        passed=passed,
    )
