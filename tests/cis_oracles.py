"""Closed-invariant-subspace helpers that only the tests use, as oracles:
one-shot canonicalization, the canonicalizations of every edge subset, the
eventual range of the induced image map, the rank of a map between direct
limits, the quotient cohomology of each node read off its quotient graph,
the pairwise closure pass that ``enumerate_cis`` once ran after its
deletion closure, the lattice comparison over every node bijection, the
covering pairs by a scan of every third node, a lattice's nonempty proper
nodes, and a node by name.
"""

import itertools

from substdyn import intlin
from substdyn.apcomplex import Multigraph, build_complex, graph_h1
from substdyn.cis import CanonicalizeContext, CISLattice, CISNode, Subcomplex, edge_image
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
    of target_A^dim . projection . source_A^dim.  ``project`` sends a source
    cycle, as a dict edge -> coefficient, to a chain of the target, which
    is read in the target's chord coordinates."""
    if not (source_h1 and source_h1.rank and target_h1 and target_h1.rank):
        return 0
    chord_index = {c: i for i, c in enumerate(target_h1.chord_edges)}
    proj = [[0] * source_h1.rank for _ in range(target_h1.rank)]
    for j, cycle in enumerate(source_h1.basis):
        vec = {e: c for e, c in zip(source_graph.edges, cycle) if c}
        for e, coeff in project(vec).items():
            if e in chord_index:
                proj[chord_index[e]][j] = coeff
    a_src = intlin.mat_pow([list(r) for r in source_h1.matrix], source_h1.rank)
    a_tgt = intlin.mat_pow([list(r) for r in target_h1.matrix], target_h1.rank)
    return intlin.rank(intlin.mat_mul(a_tgt, intlin.mat_mul(proj, a_src)))


def quotient_multigraph(graph: Multigraph, collapsed_edges):
    """Collapse a subcomplex (edges and their vertices) to a single vertex;
    with nothing to collapse this is the graph itself."""
    collapsed_vertices = {graph.source[e] for e in collapsed_edges} | \
                         {graph.target[e] for e in collapsed_edges}
    edge_list = tuple(sorted(set(graph.edges) - set(collapsed_edges)))
    keep = sorted({v for e in edge_list
                   for v in (graph.source[e], graph.target[e])
                   if v not in collapsed_vertices})
    remap = {v: i for i, v in enumerate(keep)}
    labels = [graph.vertex_labels[v] for v in keep]
    star = None
    if collapsed_edges:
        star = len(keep)
        labels.append("*")

    def project(v):
        return star if v in collapsed_vertices else remap[v]

    return Multigraph(edge_list,
                      {e: project(graph.source[e]) for e in edge_list},
                      {e: project(graph.target[e]) for e in edge_list},
                      tuple(labels))


def quotient_paths(collared: CollaredSubstitution, edges_kept, power):
    """The quotient's cellular map: each kept edge's power-fold image path
    with the collapsed edges dropped."""
    out = {}
    for e in edges_kept:
        path = collared.sub.iterate((e,), power)
        out[e] = tuple(x for x in path if x in edges_kept)
    return out


def reference_quotient_ranks(lattice: CISLattice):
    """Per node name: (H0 rank, H1 rank, graph, H1 presentation or None) of
    the whole complex with the node collapsed, from that quotient graph,
    its cycle basis and its direct limit at the lattice power, as
    ``enumerate_cis`` computed them before it read them off the exact
    sequences."""
    graph = lattice.complex.graph
    out = {}
    for node in lattice.nodes:
        q_graph = quotient_multigraph(graph, node.edges)
        if q_graph.edges:
            q0, _ = q_graph.components()
            h1 = graph_h1(q_graph, quotient_paths(lattice.collared, set(q_graph.edges),
                                                  lattice.power))
        else:
            q0, h1 = (1 if node.edges else 0), None
        out[node.name] = (q0, h1.limit.eventual_rank if h1 else 0, q_graph, h1)
    return out


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


def node_named(lattice: CISLattice, name: str) -> CISNode:
    """The lattice's node of that name; KeyError for an unknown one."""
    return {n.name: n for n in lattice.nodes}[name]
