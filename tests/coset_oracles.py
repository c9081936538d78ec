"""The Todd–Coxeter constructions of the chain levels, kept as test oracles.

``cyclic_cover_chain`` and ``build_abelian_chain`` write their tables down
from the quotient map.  These are the enumerations they replaced: the same
kernels found by coset enumeration from generating words, with no knowledge
of the quotient.
"""

from chainlab.contexts import torsion_basis_words
from chainlab.coset import DEFAULT_BUDGET, CosetTable, todd_coxeter
from chainlab.words import Presentation, commutator, free_reduce, power


def schreier_cyclic_kernel(p: Presentation, n: int, gen: int = 1, max_cosets: int = DEFAULT_BUDGET) -> CosetTable:
    """Enumerate the subgroup generated by gen^n and gen^k h gen^-k
    (h a generator other than gen, 0 <= k < n): the kernel of gen -> 1,
    others -> 0 into Z/n', n' = gcd(n, gen's exponent sums over the relators)."""
    subgroup = [power((gen,), n)]
    for h in range(1, p.rank + 1):
        if h == gen:
            continue
        for k in range(n):
            subgroup.append(free_reduce(power((gen,), k) + (h,) + power((gen,), -k)))
    return todd_coxeter(p, subgroup, max_cosets=max_cosets)


def augmented_abelian_kernel(p: Presentation, n: int, max_cosets: int = DEFAULT_BUDGET) -> CosetTable:
    """Enumerate over p with every generator commutator added (a presentation
    of the abelianization) the subgroup generated by the n-th powers of the
    generators and the abelianization's torsion: the kernel of the map onto
    (Z/n)^b through the torsion-free abelianization Z^b."""
    relators = list(p.relators)
    for i in range(1, p.rank + 1):
        for j in range(i + 1, p.rank + 1):
            c = commutator((i,), (j,))
            if c not in relators:
                relators.append(c)
    p_ab = Presentation(p.generator_names, tuple(relators))
    subgroup = [power((g,), n) for g in range(1, p.rank + 1)]
    subgroup += [w for w in torsion_basis_words(p) if w]
    t_ab = todd_coxeter(p_ab, subgroup, max_cosets=max_cosets)
    table = CosetTable(p, t_ab.subgroup_generators, t_ab.index, t_ab.action)
    table.verify()
    return table


def bfs_relabelled(table: CosetTable) -> tuple[tuple[int, ...], ...]:
    """The action with cosets renumbered in breadth-first discovery order.

    Two transitive tables of one presentation give the same result exactly
    when their base cosets have the same stabilizer.
    """
    order = [1] + [d for _, _, d in table.spanning_tree]
    label = {c: i for i, c in enumerate(order, start=1)}
    return tuple(tuple(label[perm[c - 1]] for c in order) for perm in table.action)
