"""Coset enumeration and finite-index subgroup chains.

The enumerator is a deterministic relator-scanning (HLT-style) Todd-Coxeter:
subgroup generator words are scanned at the base coset, every relator is
scanned at every live coset with gaps filled by new cosets, and coincidences
are merged immediately through a union-find queue.  Enumeration either
completes (finite index) or raises BudgetExceededError once the total number
of cosets ever defined passes the budget.

Tables act on the right: ``action[g-1][c-1]`` is the image of coset c under
the generator g.  The base coset 1 is the subgroup itself.  Fixed-point counts
of left translation on left cosets equal those of the right action of the
same word (the inversion bijection between the two coset spaces matches the
fixed sets), so fixed-point ratios are computed directly on the table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .contexts import WordProblemContext, torsion_basis_words
from .errors import BudgetExceededError, InputError
from .words import (
    Presentation,
    Word,
    commutator,
    free_reduce,
    power,
)

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class CosetTable:
    """A completed permutation action of a presented group on coset numbers 1..index.

    subgroup_generators are words known to fix the base coset; when
    ``construction == "subgroup-enumeration"`` they generate the full point
    stabilizer.  ``known_normal`` marks tables built as kernels of maps to
    abelian quotients, which are normal by construction.
    """

    presentation: Presentation
    subgroup_generators: tuple[Word, ...]
    index: int
    action: tuple[tuple[int, ...], ...]
    construction: str = "subgroup-enumeration"
    known_normal: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise InputError("a coset table needs at least one coset")
        if len(self.action) != self.presentation.rank:
            raise InputError("need one permutation per generator")
        for perm in self.action:
            if len(perm) != self.index or sorted(perm) != list(range(1, self.index + 1)):
                raise InputError(f"generator action {perm} is not a permutation of 1..{self.index}")

    @cached_property
    def _inverse_action(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for perm in self.action:
            inv = [0] * self.index
            for c, img in enumerate(perm, start=1):
                inv[img - 1] = c
            out.append(tuple(inv))
        return tuple(out)

    def apply(self, coset: int, letter: int) -> int:
        if letter > 0:
            return self.action[letter - 1][coset - 1]
        return self._inverse_action[-letter - 1][coset - 1]

    def trace(self, coset: int, w: Sequence[int]) -> int:
        for letter in w:
            coset = self.apply(coset, letter)
        return coset

    def word_permutation(self, w: Sequence[int]) -> tuple[int, ...]:
        w = self.presentation.check_word(w)
        return tuple(self.trace(c, w) for c in range(1, self.index + 1))

    @cached_property
    def _breadth_first(self) -> tuple[tuple[Word, ...], tuple[tuple[int, int], ...]]:
        """One BFS from the base coset over letters +1..+r,-1..-r.

        Returns the representative words and, for every coset reached after
        the base, the Schreier-graph edge (s, c) -- from c to c.s -- that first
        reached it.  Raises InputError unless the action is transitive.
        """
        letters = [g for g in range(1, self.presentation.rank + 1)]
        letters += [-g for g in range(1, self.presentation.rank + 1)]
        reps: dict[int, Word] = {1: ()}
        tree: list[tuple[int, int]] = []
        queue = [1]
        while queue:
            nxt = []
            for c in queue:
                for letter in letters:
                    d = self.apply(c, letter)
                    if d not in reps:
                        reps[d] = reps[c] + (letter,)
                        tree.append((letter, c) if letter > 0 else (-letter, d))
                        nxt.append(d)
            queue = nxt
        if len(reps) != self.index:
            raise InputError("the generator actions do not act transitively")
        return tuple(reps[c] for c in range(1, self.index + 1)), tuple(tree)

    @property
    def transversal(self) -> tuple[Word, ...]:
        """Shortest representative words, breadth-first over letters +1..+r,-1..-r."""
        return self._breadth_first[0]

    @property
    def spanning_tree(self) -> tuple[tuple[int, int], ...]:
        """index - 1 edges (s, c) of the Schreier graph forming a spanning tree."""
        return self._breadth_first[1]

    def verify(self) -> None:
        """Re-check the defining invariants (raises InputError on failure)."""
        identity = tuple(range(1, self.index + 1))
        for r in self.presentation.relators:
            if self.word_permutation(r) != identity:
                raise InputError(f"relator {r} does not act trivially")
        for s in self.subgroup_generators:
            if self.trace(1, s) != 1:
                raise InputError(f"subgroup generator {s} does not fix the base coset")
        self.transversal  # transitivity


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
    construction: str = "subgroup-enumeration",
    known_normal: bool = False,
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

    def col(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def inv_col(c: int) -> int:
        return c ^ 1

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

    pending: list[tuple[int, int]] = []

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
            a, dead = pending.pop(0)
            row = table[dead]
            table[dead] = None
            for x in range(ncols):
                d = row[x]
                if d == 0:
                    continue
                drow = table[find(d)]
                if drow is not None and drow[inv_col(x)] == dead:
                    drow[inv_col(x)] = 0
                mu, delta = find(dead), find(d)
                murow, deltarow = table[mu], table[delta]
                if murow[x] != 0:
                    merge(delta, murow[x])
                elif deltarow[inv_col(x)] != 0:
                    merge(mu, deltarow[inv_col(x)])
                else:
                    murow[x] = delta
                    deltarow[inv_col(x)] = mu

    def scan_and_fill(alpha: int, w: Word) -> None:
        if not w:
            return
        f, i = alpha, 0
        b, r = alpha, len(w) - 1
        while True:
            while i <= r:
                nxt = table[f][col(w[i])]
                if nxt == 0:
                    break
                f = find(nxt)
                i += 1
            if i > r:
                if f != alpha:
                    merge(f, alpha)
                    process_coincidences()
                return
            while r >= i:
                prv = table[b][col(-w[r])]
                if prv == 0:
                    break
                b = find(prv)
                r -= 1
            if r < i:
                merge(f, b)
                process_coincidences()
                return
            if r == i:
                table[f][col(w[i])] = b
                table[b][inv_col(col(w[i]))] = f
                return
            delta = new_coset()
            table[f][col(w[i])] = delta
            table[delta][inv_col(col(w[i]))] = f
            f = delta
            i += 1

    for w in subgroup_words:
        scan_and_fill(1, free_reduce(w))
        if table[find(1)] is None:  # pragma: no cover - base coset always survives
            raise AssertionError("base coset died")

    alpha = 1
    while alpha < len(table):
        if table[alpha] is None or find(alpha) != alpha:
            alpha += 1
            continue
        for r in p.relators:
            scan_and_fill(alpha, r)
            if table[alpha] is None or find(alpha) != alpha:
                break
        if table[alpha] is not None and find(alpha) == alpha:
            for x in range(ncols):
                if table[alpha][x] == 0:
                    delta = new_coset()
                    table[alpha][x] = delta
                    table[delta][inv_col(x)] = alpha
        alpha += 1

    live = [c for c in range(1, len(table)) if table[c] is not None and find(c) == c]
    number = {c: i + 1 for i, c in enumerate(live)}
    index = len(live)
    action = []
    for g in range(1, rank + 1):
        perm = []
        for c in live:
            img = table[c][col(g)]
            if img == 0:  # pragma: no cover - completed tables have no gaps
                raise AssertionError("incomplete table after enumeration")
            perm.append(number[find(img)])
        action.append(tuple(perm))
    result = CosetTable(
        presentation=p,
        subgroup_generators=tuple(subgroup_words),
        index=index,
        action=tuple(action),
        construction=construction,
        known_normal=known_normal,
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


def build_abelian_chain(
    p: Presentation,
    moduli: Sequence[int],
    max_cosets: int = DEFAULT_BUDGET,
) -> SubgroupChain:
    """Levels are kernels of the maps onto (Z/n)^k through the torsion-free
    abelianization, one per modulus n.

    Realized by coset enumeration over the presentation augmented with all
    generator commutators (whose quotient is the abelianization): the
    enumerated subgroup is generated by n-th powers of the generators together
    with words generating the abelianization's torsion, so its preimage is
    exactly the kernel.  These kernels are normal by construction.
    """
    moduli = [int(n) for n in moduli]
    if any(n < 1 for n in moduli):
        raise InputError("moduli must be positive")
    aug_relators = list(p.relators)
    for i in range(1, p.rank + 1):
        for j in range(i + 1, p.rank + 1):
            c = commutator((i,), (j,))
            if c not in aug_relators:
                aug_relators.append(c)
    p_ab = Presentation(p.generator_names, tuple(aug_relators))
    torsion_words = torsion_basis_words(p)
    levels = []
    labels = []
    for n in moduli:
        subgroup = [power((g,), n) for g in range(1, p.rank + 1)]
        subgroup += [w for w in torsion_words if w]
        t_ab = todd_coxeter(p_ab, subgroup, max_cosets=max_cosets)
        level = CosetTable(
            presentation=p,
            subgroup_generators=t_ab.subgroup_generators,
            index=t_ab.index,
            action=t_ab.action,
            construction="abelian-quotient-kernel",
            known_normal=True,
        )
        level.verify()
        levels.append(level)
        labels.append(f"abelian-n={n}")
    return SubgroupChain(p, tuple(levels), tuple(labels))


def cyclic_cover_chain(
    p: Presentation,
    ns: Sequence[int],
    gen: int = 1,
    max_cosets: int = DEFAULT_BUDGET,
) -> SubgroupChain:
    """Kernels of gen -> 1, other generators -> 0 into Z/n, one level per n.

    The level subgroup is enumerated from the Schreier-style generating words
    gen^n and gen^k h gen^-k (h a non-distinguished generator, 0 <= k < n).
    """
    if not (1 <= gen <= p.rank):
        raise InputError(f"generator index {gen} out of range")
    levels = []
    labels = []
    for n in ns:
        if n < 1:
            raise InputError("cover degrees must be positive")
        subgroup: list[Word] = [power((gen,), n)]
        for h in range(1, p.rank + 1):
            if h == gen:
                continue
            for k in range(n):
                subgroup.append(free_reduce(power((gen,), k) + (h,) + power((gen,), -k)))
        levels.append(todd_coxeter(p, subgroup, max_cosets=max_cosets))
        labels.append(f"cyclic-n={n}")
    return SubgroupChain(p, tuple(levels), tuple(labels))


def subgroup_words_chain(
    p: Presentation,
    level_words: Sequence[Sequence[Sequence[int]]],
    labels: Optional[Sequence[str]] = None,
    max_cosets: int = DEFAULT_BUDGET,
) -> SubgroupChain:
    """One level per supplied subgroup generating set."""
    levels = tuple(todd_coxeter(p, ws, max_cosets=max_cosets) for ws in level_words)
    if labels is None:
        labels = tuple(f"level-{i}" for i in range(len(levels)))
    return SubgroupChain(p, levels, tuple(labels))


_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


def parse_chain_spec(spec: str, p: Presentation, max_cosets: int = DEFAULT_BUDGET) -> SubgroupChain:
    """Parse "abelian:n=2,4,8" / "abelian:n=1..5" / "cyclic:n=2..8[,gen=2]"."""
    try:
        kind, _, args = spec.partition(":")
        params: dict[str, str] = {}
        for part in args.split(",") if args else []:
            key, _, val = part.partition("=")
            if not val:
                # bare continuation of an n-list such as n=2,4,8
                params["n"] = params.get("n", "") + "," + key
            else:
                params[key] = val
        if "n" not in params:
            raise InputError(f"chain spec {spec!r} needs an n= parameter")
        ns: list[int] = []
        m = _RANGE.match(params["n"])
        if m:
            ns = list(range(int(m.group(1)), int(m.group(2)) + 1))
        else:
            ns = [int(tok) for tok in params["n"].split(",") if tok]
        if kind == "abelian":
            return build_abelian_chain(p, ns, max_cosets=max_cosets)
        if kind == "cyclic":
            return cyclic_cover_chain(p, ns, gen=int(params.get("gen", "1")), max_cosets=max_cosets)
        raise InputError(f"unknown chain kind {kind!r} (expected abelian or cyclic)")
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse chain spec {spec!r}: {exc}") from None


# --------------------------------------------------------------- evidence


@dataclass(frozen=True)
class LevelCheck:
    label: str
    index: int
    nested_in_previous: Optional[bool]  # None for the first level
    conjugates_fix_base: bool
    normality: str  # "proven" or "evidence-only"


@dataclass(frozen=True)
class ResidualChainReport:
    levels: tuple[LevelCheck, ...]
    nested: bool
    all_normal_proven: bool
    note: str = (
        "finite-prefix check: nestedness and normality are certified per level; "
        "triviality of the intersection is not a finite property"
    )


def residual_chain_check(chain: SubgroupChain) -> ResidualChainReport:
    """Certify nestedness and normality of each level of the chain.

    Nestedness: every subgroup generator word of level k+1 fixes the base
    coset of level k.  Normality: conjugates of every subgroup generator by
    every signed group generator fix the base coset; this proves normality
    when the listed words generate the full stabilizer, and tables built as
    abelian-quotient kernels are normal by construction.
    """
    checks = []
    for k, level in enumerate(chain.levels):
        nested: Optional[bool] = None
        if k > 0:
            prev = chain.levels[k - 1]
            nested = all(prev.trace(1, w) == 1 for w in level.subgroup_generators)
        conj_ok = True
        for s in level.subgroup_generators:
            for g in range(1, chain.presentation.rank + 1):
                for signed in (g, -g):
                    if level.trace(1, free_reduce((signed,) + tuple(s) + (-signed,))) != 1:
                        conj_ok = False
        if level.known_normal:
            normality = "proven"
        elif conj_ok and level.construction == "subgroup-enumeration":
            # the words generate the stabilizer; generator conjugation closure
            # at finite index proves normality
            normality = "proven"
        else:
            normality = "evidence-only" if conj_ok else "fails"
        checks.append(LevelCheck(chain.labels[k], level.index, nested, conj_ok, normality))
    nested_all = all(c.nested_in_previous in (None, True) for c in checks)
    normal_all = all(c.normality == "proven" for c in checks)
    return ResidualChainReport(tuple(checks), nested_all, normal_all)


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
    ctx: Optional[WordProblemContext] = None,
) -> FarberReport:
    """Check that fixed-point ratios of the gammas drop to <= eps at the last level."""
    checked: list[Word] = []
    for g in gammas:
        w = chain.presentation.check_word(g)
        if ctx is not None:
            trivial = ctx.is_trivial(w)
            if trivial is True:
                raise InputError(f"gamma {w} is trivial in the given context")
        elif free_reduce(w) == ():
            raise InputError("gamma must be a nontrivial word")
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
