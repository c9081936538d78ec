"""Inner Folner sets: exact symmetric-difference defects under conjugation.

The defect of a finite set F against gamma is |(gamma F gamma^-1) \\triangle F| / |F|,
computed with exact rational arithmetic.  Element identity is decided by the
supplied word-problem context, so these measurements are only available in
contexts with an exact word problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .contexts import WordProblemContext
from .errors import InputError, UndecidableContextError
from .words import Word, conjugate


@dataclass(frozen=True)
class FolnerSet:
    """A finite set of group elements stored as canonical normal forms."""

    elements: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def folner_set(words: Sequence[Sequence[int]], ctx: WordProblemContext) -> FolnerSet:
    """Build a FolnerSet, deduplicating under the context's equality."""
    _require_decidable(ctx)
    seen = []
    for w in words:
        nf = ctx.normal_form(w)
        if nf not in seen:
            seen.append(nf)
    if not seen:
        raise InputError("a Folner set must be nonempty")
    return FolnerSet(tuple(seen))


def inner_folner_defect(f: FolnerSet, gamma: Sequence[int], ctx: WordProblemContext) -> Fraction:
    """|（gamma F gamma^-1) symmetric-difference F| / |F|, exactly."""
    _require_decidable(ctx)
    base = set(f.elements)
    conjugated = {ctx.normal_form(conjugate(gamma, w)) for w in f.elements}
    sym = base.symmetric_difference(conjugated)
    return Fraction(len(sym), len(base))


@dataclass(frozen=True)
class FolnerSequenceReport:
    """Cardinalities and defects along a sequence of Folner sets.

    Growing cardinalities are the finite, checkable surrogate for the sets
    witnessing a diffuse (non-atomic) limit: the report flags any failure of
    strict growth rather than claiming anything about the limit itself.
    """

    cardinalities: tuple[int, ...]
    strictly_increasing: bool
    defects: tuple[tuple[Fraction, ...], ...]  # defects[stage][gamma_index]
    max_defect: Fraction


def folner_sequence_report(
    sets: Sequence[FolnerSet],
    gammas: Sequence[Sequence[int]],
    ctx: WordProblemContext,
) -> FolnerSequenceReport:
    if not sets:
        raise InputError("need at least one Folner set")
    cards = tuple(s.size for s in sets)
    increasing = all(a < b for a, b in zip(cards, cards[1:]))
    defects = tuple(
        tuple(inner_folner_defect(s, g, ctx) for g in gammas) for s in sets
    )
    max_defect = max((d for row in defects for d in row), default=Fraction(0))
    return FolnerSequenceReport(cards, increasing, defects, max_defect)


def _require_decidable(ctx: WordProblemContext) -> None:
    if not ctx.decides_equality:
        raise UndecidableContextError(
            "Folner computations need a context with an exact word problem; "
            "a finite-quotient battery cannot decide membership"
        )
