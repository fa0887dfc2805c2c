"""Closed-invariant-subspace helpers that only the tests use, as oracles:
one-shot canonicalization, the canonicalizations of every edge subset, the
eventual range of the induced image map, the rank of a map between direct
limits, the pairwise closure pass that ``enumerate_cis`` once ran after its
deletion closure, the lattice comparison over every node bijection, the
covering pairs by a scan of every third node, and a lattice's nonempty
proper nodes.
"""

import itertools

from substdyn.apcomplex import build_complex
from substdyn.cis import (CanonicalizeContext, CISLattice, Subcomplex, _limit_data,
                          _limit_data_rank, edge_image)
from substdyn.collar import CollaredSubstitution


def cis_canonicalize(edges: Subcomplex, collared: CollaredSubstitution,
                     context: CanonicalizeContext | None = None) -> Subcomplex:
    """Letters of the largest closed invariant subspace whose sequences use
    only the given letters.  Idempotent, monotone and deflationary."""
    if context is None:
        context = CanonicalizeContext(collared)
    return context.canonicalize(edges)


def eventual_range(edges: Subcomplex, collared: CollaredSubstitution,
                   power: int = 1) -> Subcomplex:
    """Union of the cycle of the iterated edge-image sets: the stable image
    of the subcomplex under the induced map.  Idempotent."""
    def step(k):
        out = k
        for _ in range(power):
            out = edge_image(out, collared)
        return out

    seen = {frozenset(edges): 0}
    orbit = [frozenset(edges)]
    while True:
        nxt = step(orbit[-1])
        if nxt in seen:
            start = seen[nxt]
            cycle = orbit[start:]
            union = set()
            for member in cycle:
                union.update(member)
            return frozenset(union)
        seen[nxt] = len(orbit)
        orbit.append(nxt)


def brute_force_canonical_sets(collared: CollaredSubstitution,
                               context: CanonicalizeContext | None = None
                               ) -> set[Subcomplex]:
    """All canonicalizations of all edge subsets; exponential, for
    cross-checking small complexes only."""
    complex_ = build_complex(collared)
    if context is None:
        context = CanonicalizeContext(collared)
    edges = sorted(complex_.edges)
    out = set()
    for bits in range(1 << len(edges)):
        subset = frozenset(e for i, e in enumerate(edges) if bits >> i & 1)
        out.add(context.canonicalize(subset))
    return out


def limit_map_rank(source_h1, source_graph, target_h1, target_graph, project):
    """Rank of the induced map between direct limits, computed as the rank
    of target_A^dim . projection . source_A^dim."""
    return _limit_data_rank(_limit_data(source_h1, source_graph),
                            _limit_data(target_h1, target_graph), project)


def closure_additions(family, context: CanonicalizeContext) -> list[Subcomplex]:
    """The canonicalized unions and meets of pairs of the family that the
    family lacks, found as the closure pass did: over the members in node
    order, each addition joining the family.  The ``enumerate_cis``
    docstring argues that a deletion closure lacks none."""
    family = set(family)
    added = []
    members = sorted(family, key=lambda k: (-len(k), tuple(sorted(k))))
    for a, b in itertools.combinations(members, 2):
        for candidate in (context.canonicalize(a | b),
                          context.canonicalize(a & b)):
            if candidate not in family:
                family.add(candidate)
                added.append(candidate)
    return added


def permutation_order_isomorphism_exists(nodes_a, order_a, nodes_b, order_b,
                                         labels=None):
    """Whether some bijection of the nodes preserves the order both ways
    (and the labels, when given), trying all N! bijections."""
    if len(nodes_a) != len(nodes_b):
        return False
    names_a = [n.name for n in nodes_a]
    names_b = [n.name for n in nodes_b]
    rel_a = {(x, y) for x, y in order_a}
    rel_b = {(x, y) for x, y in order_b}
    for perm in itertools.permutations(range(len(names_b))):
        if labels is not None:
            if any(labels[0][i] != labels[1][perm[i]] for i in range(len(names_a))):
                continue
        mapping = {names_a[i]: names_b[perm[i]] for i in range(len(names_a))}
        if all(((mapping[x], mapping[y]) in rel_b) == ((x, y) in rel_a)
               for x in names_a for y in names_a):
            return True
    return False


def hasse_pairs(lattice: CISLattice):
    """The covering pairs of the order, sorted: the strict pairs (a, b)
    with no node c between them, tried for every c."""
    strict = set(lattice.order)
    covers = []
    for a, b in strict:
        if any((a, c) in strict and (c, b) in strict
               for c in {n.name for n in lattice.nodes} - {a, b}):
            continue
        covers.append((a, b))
    return sorted(covers)


def nonempty_proper(lattice: CISLattice):
    """The nodes other than the whole complex and the empty one."""
    top = lattice.nodes[0].edges
    return [n for n in lattice.nodes if n.edges and n.edges != top]
