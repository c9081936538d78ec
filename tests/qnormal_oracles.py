"""The coset-graph constructions that faster ones replaced, kept as test oracles.

``ParabolicCosetSolver.canonical`` drops every deletable letter in one
right-to-left pass, and ``_ball_graph`` finds each neighbour once.  These are
what they replaced: a loop that deletes one letter, re-normalises and
rescans from the end, and a ball whose edges come from a second pass that
recomputes every s-step.
"""

from chainlab.words import inverse_word, pile_normal_form, raag_normal_form


def restart_loop_canonical(solver, w):
    """Delete the rightmost deletable letter, re-normalise, and start again."""
    graph = solver.graph
    current = raag_normal_form(w, graph)
    while True:
        for i in range(len(current) - 1, -1, -1):
            letter = current[i]
            if abs(letter) not in solver.parabolic:
                continue
            if all(graph.adjacent(abs(letter), abs(t)) for t in current[i + 1:]):
                current = pile_normal_form(current[:i] + current[i + 1:], graph.vertex_count,
                                           graph.non_commuters)
                break
        else:
            return current


def two_pass_ball(solver, generating_set, radius):
    """(vertices, edges, frontier) of the radius-r ball: a BFS, then every s-step again."""
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
    return tuple(order), tuple(sorted(edges)), frontier
