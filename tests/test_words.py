import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab.contexts import (
    EqualityVerdict,
    RaagContext,
    battery_context,
    infinite_order_certificate,
)
from chainlab.errors import InputError
from chainlab.words import (
    RaagGraph,
    commutator,
    complete_graph,
    concat,
    conjugate,
    format_word,
    free_graph,
    free_reduce,
    inverse_word,
    max_letter,
    power,
    presentation,
    raag_graph,
    raag_normal_form,
    word,
)


# ---------------------------------------------------------------- oracles


def free_reduce_oracle(w):
    """Repeatedly delete the first adjacent inverse pair until stable."""
    w = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def shortlex_key(w):
    return (len(w), tuple((abs(x), 0 if x > 0 else 1) for x in w))


def swap_closure_min(w, g):
    """Shortlex-least word reachable by commuting swaps and cancellations.

    This brute-force closure is the equality oracle for graph groups on short
    words: it needs no insertions because swaps preserve length and
    cancellations strictly shorten.
    """
    start = tuple(w)
    seen = {start}
    queue = [start]
    best = start
    while queue:
        cur = queue.pop()
        if shortlex_key(cur) < shortlex_key(best):
            best = cur
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if a == -b:
                nxt = cur[:i] + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
            if abs(a) != abs(b) and g.adjacent(abs(a), abs(b)):
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return best


# ---------------------------------------------------------------- free reduction


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    assert free_reduce(()) == ()
    with pytest.raises(ValueError):
        free_reduce((1, 0))


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
def test_free_reduce_matches_oracle_and_props(letters):
    w = tuple(letters)
    r = free_reduce(w)
    assert r == free_reduce_oracle(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert free_reduce(concat(w, inverse_word(w))) == ()


def test_word_helpers():
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)
    assert power((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert power((1,), -2) == (-1, -1)
    assert free_reduce(conjugate((2,), (1,))) == (2, 1, -2)
    assert free_reduce(commutator((1,), (2,))) == (1, 2, -1, -2)
    assert format_word((1, -2), ("a", "b")) == "a b^-1"
    assert format_word(()) == "e"
    with pytest.raises(ValueError):
        word((1, 0))


# ---------------------------------------------------------------- graphs


def test_graph_validation():
    g = raag_graph(4, [(1, 3), (3, 2), (2, 4), (1, 4)])
    assert g.adjacent(1, 3) and g.adjacent(4, 2)
    assert not g.adjacent(1, 2) and not g.adjacent(3, 4)
    assert g.neighbors(1) == (3, 4)
    assert g.is_connected()
    assert not raag_graph(2).is_connected()
    with pytest.raises(ValueError):
        raag_graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        raag_graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        RaagGraph(0)


def test_graph_induced_and_presentation():
    g = raag_graph(4, [(1, 3), (3, 2), (2, 4), (1, 4)])
    sub = g.induced([1, 3, 2])  # path 1-3-2 relabeled to 1-2-3 path shape
    assert sub.vertex_count == 3
    assert sub.adjacent(1, 2) and sub.adjacent(2, 3) and not sub.adjacent(1, 3)
    p = sub.presentation(("a", "c", "b"))
    assert p.generator_names == ("a", "c", "b")
    assert set(p.relators) == {(1, 2, -1, -2), (2, 3, -2, -3)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
    if n > 1 else st.just(set()))))
def test_graph_prefix_is_the_induced_graph_with_a_cut_table(case):
    n, edges = case
    g = RaagGraph(n, frozenset(edges))
    for m in range(1, n + 1):
        sub = g.prefix(m)
        assert sub == g.induced(range(1, m + 1))
        assert sub.non_commuters == RaagGraph(m, sub.edges).non_commuters
    for m in (0, n + 1):
        with pytest.raises(InputError):
            g.prefix(m)


def test_presentation_validation():
    p = presentation(["a", "b"], [[1, 2, -1, -2]])
    assert p.relators == ((1, 2, -1, -2),)
    assert presentation(["a"], [[1, -1]]).relators == ((),)
    with pytest.raises(ValueError):
        presentation([], [])
    with pytest.raises(ValueError):
        presentation(["a", "a"], [])
    with pytest.raises(ValueError):
        presentation(["a"], [[2]])
    with pytest.raises(ValueError):
        p.check_word((3,))


# ---------------------------------------------------------------- normal forms

C4 = raag_graph(4, [(1, 3), (3, 2), (2, 4), (1, 4)])
P3 = raag_graph(3, [(1, 2), (2, 3)])
EDGE = raag_graph(3, [(1, 2)])
GRAPHS = [free_graph(3), EDGE, P3, complete_graph(3), C4]


def test_normal_form_frozen_examples():
    assert raag_normal_form((2, 1), raag_graph(2, [(1, 2)])) == (1, 2)
    assert raag_normal_form((2, 1), free_graph(2)) == (2, 1)
    assert raag_normal_form((1, -1), C4) == ()
    assert raag_normal_form((3, 1, -3), C4) == (1,)  # 3 commutes past 1
    assert raag_normal_form(commutator((1,), (2,)), C4) == (1, 2, -1, -2)
    assert raag_normal_form((2, -1, 2), complete_graph(2)) == (-1, 2, 2)
    # cancellation through a commuting separator
    assert raag_normal_form((1, 3, -1), C4) == (3,)
    with pytest.raises(ValueError):
        raag_normal_form((5,), C4)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(GRAPHS),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=7),
)
def test_normal_form_matches_swap_closure(g, letters):
    w = tuple(letters)
    assert raag_normal_form(w, g) == swap_closure_min(w, g)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=8))
def test_normal_form_c4_longer_words(letters):
    w = tuple(letters)
    assert raag_normal_form(w, C4) == swap_closure_min(w, C4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10))
def test_normal_form_edgeless_is_free_reduction(letters):
    w = tuple(letters)
    assert raag_normal_form(w, free_graph(3)) == free_reduce(w)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(GRAPHS),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6),
)
def test_normal_form_is_a_class_function(g, u, v):
    u, v = tuple(u), tuple(v)
    # u and w = (commuted/cancelled variants of u) share a normal form; and
    # the normal form of a product only depends on the factors' classes
    nu = raag_normal_form(u, g)
    assert raag_normal_form(nu, g) == nu
    prod = raag_normal_form(concat(u, v), g)
    assert prod == raag_normal_form(concat(nu, raag_normal_form(v, g)), g)
    assert raag_normal_form(concat(u, inverse_word(u)), g) == ()


def test_words_commute():
    def commute(u, v, g):
        return raag_normal_form(commutator(u, v), g) == ()

    assert commute((1,), (3,), C4)
    assert not commute((1,), (2,), C4)
    assert commute((1, 3), (3,), C4)
    # central element of the 2-strand even braid: (st)^2 in a 2-clique
    sq = power((1, 2), 2)
    assert commute(sq, (1,), complete_graph(2))


# ------------------------------------------- the deque pile kernel as oracle


def deque_normal_form_oracle(w, g):
    """The deque-based piling raag_normal_form used before its trusted kernel.

    Kept verbatim apart from computing the non-commuter lists inline: every
    pile holds +1/-1 per own letter and a 0 per non-commuting letter, and is
    read back with popleft.
    """
    n = g.vertex_count
    w = word(w)
    if max_letter(w) > n:
        raise ValueError(f"word {w} uses a generator beyond the {n} declared")
    non_comm = [
        tuple(j for j in range(1, n + 1) if j != i and not g.adjacent(i, j)) for i in range(1, n + 1)
    ]
    piles = [deque() for _ in range(n + 1)]  # 1-based
    for letter in w:
        i, eps = abs(letter), (1 if letter > 0 else -1)
        pile = piles[i]
        if pile and pile[-1] == -eps:
            pile.pop()
            for j in non_comm[i - 1]:
                top = piles[j].pop()
                assert top == 0, "pile invariant broken"
        else:
            pile.append(eps)
            for j in non_comm[i - 1]:
                piles[j].append(0)
    out = []
    while True:
        emitted = False
        for i in range(1, n + 1):
            pile = piles[i]
            if pile and pile[0] != 0:
                eps = pile.popleft()
                out.append(eps * i)
                for j in non_comm[i - 1]:
                    front = piles[j].popleft()
                    assert front == 0, "pile invariant broken"
                emitted = True
                break
        if not emitted:
            assert all(not p for p in piles), "pile invariant broken"
            return tuple(out)


@st.composite
def graph_and_two_words(draw):
    """A graph on 1-8 vertices, a word u of up to 40 letters, and a word v.

    v is either an independent word or u rewritten into an equal word: a
    cancelling pair inserted and adjacent commuting letters swapped.
    """
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = RaagGraph(n, frozenset(edges))
    letters = st.integers(1, n).flatmap(lambda i: st.sampled_from((i, -i)))
    u = tuple(draw(st.lists(letters, max_size=40)))
    if draw(st.booleans()):
        v = tuple(draw(st.lists(letters, max_size=40)))
    else:
        x = draw(letters)
        k = draw(st.integers(0, len(u)))
        v = list(u[:k] + (x, -x) + u[k:])
        for i in draw(st.lists(st.integers(0, len(v) - 2), max_size=10)):
            a, b = abs(v[i]), abs(v[i + 1])
            if a != b and g.adjacent(a, b):
                v[i], v[i + 1] = v[i + 1], v[i]
        v = tuple(v)
    return g, u, v


@settings(max_examples=400, deadline=None)
@given(graph_and_two_words())
def test_trusted_kernel_matches_deque_oracle(case):
    g, u, v = case
    ctx = RaagContext(g)
    nu, nv = deque_normal_form_oracle(u, g), deque_normal_form_oracle(v, g)
    assert raag_normal_form(u, g) == nu
    assert ctx.normal_form(u) == nu and ctx.normal_form(v) == nv
    expected = EqualityVerdict.EQUAL if nu == nv else EqualityVerdict.UNEQUAL
    assert ctx.equal(u, v) is expected


@pytest.mark.parametrize("bad", [(0,), (1, 0, 2), (5,), (2, -5)])
def test_every_entry_point_rejects_bad_letters(bad):
    ctx = RaagContext(C4)
    battery = battery_context(C4.presentation())
    with pytest.raises(InputError):
        raag_normal_form(bad, C4)
    with pytest.raises(InputError):
        ctx.normal_form(bad)
    with pytest.raises(InputError):
        ctx.equal(bad, (1,))
    with pytest.raises(InputError):
        ctx.equal((1,), bad)
    with pytest.raises(InputError):
        ctx.equal(bad, bad)  # identical words are checked before they are compared
    for context in (ctx, battery):
        with pytest.raises(InputError):
            infinite_order_certificate(bad, context)


@pytest.mark.parametrize("bad", [(1, "x"), (1, None), None, 3, (1.5,), [2.0], ["2"], (1.5, 0)])
def test_non_integer_letters_are_input_errors(bad):
    for check in (word, free_reduce, C4.presentation().check_word, lambda w: raag_normal_form(w, C4)):
        with pytest.raises(InputError):
            check(bad)


def test_check_word_returns_a_tuple_of_ints():
    # a tuple of ints passes the one-pass check as it is; a list or other
    # integer types are converted by word()
    p = C4.presentation()
    w = (1, -3)
    assert p.check_word(w) is w
    assert p.check_word([True, 2, -3]) == (1, 2, -3)
    assert type(p.check_word((True,))[0]) is int
    assert raag_normal_form([3, 1, -3], C4) == (1,)
