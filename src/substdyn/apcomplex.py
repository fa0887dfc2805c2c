"""Collared Anderson-Putnam complexes as directed multigraphs.

Edges are the legal collared letters; vertices are equivalence classes of
admissible transitions under the transitive closure of sharing either
endpoint letter.  The substitution induces a cellular self-map sending each
edge to the edge path spelled by its rule image.  First cohomology of the
inverse limit is presented as the direct limit of the transpose of the
induced matrix on a fundamental cycle basis.  One routine, ``graph_h1``,
computes that presentation for the complex and, in ``cis``, for every
closed invariant subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .core import Substitution
from .classify import decide_tameness
from .collar import CollaredSubstitution, collar, border_forcing_level
from .errors import EmptySubshiftError, InconsistentRuleError, WildInputError
from .graphs import UnionFind
from .language import periodic_point_search


@dataclass(frozen=True)
class Multigraph:
    """Directed multigraph with ordered edges; vertex ids are 0..V-1."""
    edges: tuple[str, ...]
    source: dict[str, int]
    target: dict[str, int]
    vertex_labels: tuple[str, ...]

    @property
    def vertex_count(self):
        return len(self.vertex_labels)

    def components(self):
        uf = UnionFind()
        for v in range(self.vertex_count):
            uf.add(v)
        for e in self.edges:
            uf.union(self.source[e], self.target[e])
        classes = uf.classes()
        roots = sorted(classes, key=lambda r: min(classes[r]))
        index = {root: i for i, root in enumerate(roots)}
        return len(roots), {v: index[uf.find(v)] for v in range(self.vertex_count)}


@dataclass(frozen=True)
class APComplex:
    graph: Multigraph
    transitions: tuple[tuple[str, str], ...]
    component_count: int

    @property
    def edges(self):
        return self.graph.edges

    @property
    def vertex_count(self):
        return self.graph.vertex_count

    def h1_rank(self):
        return len(self.edges) - self.vertex_count + self.component_count


def _build_graph(edges, transitions, letters):
    """Vertices as transition classes: out-port of the left edge is glued to
    the in-port of the right edge; sharing either edge merges classes.

    Ports are integers: with the edges ranked by ``repr``, the in-port of
    the edge of rank j is j and its out-port is E + j.  So a class's sorted
    ports order the classes as the sorted reprs of their ("in", edge) and
    ("out", edge) members do, in-ports first.  A class is labelled by the
    boundary word its members agree on, read off each edge's context: an
    out-port's is the context less its first letter, an in-port's less its
    last; it is positional ("v") when they disagree or the word is empty."""
    count = len(edges)
    ranked = sorted(edges, key=repr)
    rank = {e: j for j, e in enumerate(ranked)}
    uf = UnionFind()
    for port in range(2 * count):
        uf.add(port)
    for left, right in transitions:
        uf.union(count + rank[left], rank[right])
    classes = uf.classes()

    def boundary(port):
        context = letters[ranked[port % count]].context
        return "".join(context[1:] if port >= count else context[:-1])

    roots = sorted(classes, key=lambda r: sorted(classes[r]))
    labels = []
    root_index = {}
    used = {}
    for root in roots:
        root_index[root] = len(labels)
        words = {boundary(port) for port in classes[root]}
        label = words.pop() if len(words) == 1 else None
        if not label:
            label = "v"
        seen = used.get(label, 0)
        used[label] = seen + 1
        labels.append(label if seen == 0 else f"{label}#{seen}")
    source = {e: root_index[uf.find(rank[e])] for e in edges}
    target = {e: root_index[uf.find(count + rank[e])] for e in edges}
    return Multigraph(tuple(edges), source, target, tuple(labels))


def build_complex(collared: CollaredSubstitution) -> APComplex:
    """The collared rule's complex, built on the first call and kept on the
    rule (``collared.complex``) for later ones."""
    if collared.complex is None:
        edges = sorted(collared.legal)
        if not edges:
            raise EmptySubshiftError("no legal collared letters; the subshift is empty")
        transitions = tuple(collared.transitions())
        graph = _build_graph(edges, transitions, collared.letters)
        count, _ = graph.components()
        collared.complex = APComplex(graph, transitions, count)
    return collared.complex


@dataclass(frozen=True)
class CellularMap:
    on_edges: dict[str, tuple[str, ...]]
    on_vertices: dict[int, int]
    power: int = 1


def induced_map(collared: CollaredSubstitution, complex_: APComplex,
                power: int = 1) -> CellularMap:
    """Each edge maps to the path spelled by its (power-fold) rule image."""
    graph = complex_.graph
    rules = collared.sub.rules
    on_edges = {}
    for e in complex_.edges:
        path = rules[e] if power == 1 else collared.sub.iterate((e,), power)
        for step in path:
            if step not in graph.source:
                raise InconsistentRuleError(f"image of {e} leaves the complex at {step}")
        for a, b in zip(path, path[1:]):
            if graph.target[a] != graph.source[b]:
                raise InconsistentRuleError(f"image path of {e} is not connected")
        on_edges[e] = path
    on_vertices = {}
    for e in complex_.edges:
        path = on_edges[e]
        for vertex, image in ((graph.source[e], graph.source[path[0]]),
                              (graph.target[e], graph.target[path[-1]])):
            if vertex in on_vertices and on_vertices[vertex] != image:
                raise InconsistentRuleError("vertex image is inconsistent")
            on_vertices[vertex] = image
    return CellularMap(on_edges, on_vertices, power)


@dataclass(frozen=True)
class DirectLimit:
    """The abelian group lim(Z^k, A) presented by iterating an integer
    matrix; its free rank is the eventual rank of A."""
    matrix: tuple[tuple[int, ...], ...]
    eventual_rank: int
    unimodular_on_image: bool
    restricted: tuple[tuple[int, ...], ...]
    group_description: str


# The prime modulus of the determinant filter in ``eventual_rank``.
_DET_PRIME = 2 ** 61 - 1


def eventual_rank(matrix):
    """(rank of A^dim, whether A is unimodular on its eventual image, the
    restricted matrix in a lattice basis of that image).

    The rank is the size of the lattice basis of A^dim's columns: its
    vectors have distinct leading rows, so they are independent, and they
    span the column lattice.  A^dim comes from ``intlin.mat_pow``'s packed
    row steps, and the image of each basis vector from the nonzeros of A's
    rows alone: H1 matrices are sparse.  Each image is solved in the basis
    with every lattice check kept, the basis's leading rows found once.

    Unimodularity is |det(restricted)| = 1.  The determinant is first taken
    modulo a fixed prime p, by elimination with every entry below p.  A
    determinant of 1 or -1 leaves the residue 1 or p - 1, so any other
    residue proves |det| != 1.  Only those two residues fall through to the
    exact determinant, whose intermediate entries grow with the restricted
    matrix's (thousands of bits on random 6-letter rules at radius 2)."""
    n, m = intlin.dims(matrix)
    if n != m:
        raise intlin.DimensionError("eventual rank of a non-square matrix")
    if n == 0:
        return 0, True, []
    basis = intlin.column_lattice_basis(intlin.mat_pow(matrix, n))
    r = len(basis)
    if r == 0:
        return 0, True, []
    sparse = [[(k, x) for k, x in enumerate(row) if x] for row in matrix]
    leads = intlin._basis_leads(basis)
    restricted_cols = [intlin._solve_in_basis(
        basis, leads, [sum(x * col[k] for k, x in row) for row in sparse]) for col in basis]
    restricted = [[restricted_cols[j][i] for j in range(r)] for i in range(r)]
    unimodular = (intlin.det_mod(restricted, _DET_PRIME) in (1, _DET_PRIME - 1)
                  and abs(intlin.det(restricted)) == 1)
    return r, unimodular, restricted


def direct_limit(matrix) -> DirectLimit:
    r, unimodular, restricted = eventual_rank(matrix)
    if r == 0:
        description = "0"
    elif unimodular:
        description = f"Z^{r}"
    else:
        description = f"lim(Z^{r}, {restricted})"
    return DirectLimit(tuple(tuple(row) for row in matrix), r, unimodular,
                       tuple(tuple(row) for row in restricted), description)


@dataclass(frozen=True)
class H1Presentation:
    rank: int
    basis: tuple[tuple[int, ...], ...]     # cycles as edge-indexed vectors
    chord_edges: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]    # action on the cycle basis
    limit: DirectLimit                     # of the transpose


def _spanning_forest(graph: Multigraph):
    """Greedy forest over the undirected graph in edge order; returns
    (tree edges, chord edges)."""
    uf = UnionFind()
    for v in range(graph.vertex_count):
        uf.add(v)
    tree = []
    chords = []
    for e in graph.edges:
        s, t = graph.source[e], graph.target[e]
        if uf.find(s) != uf.find(t):
            uf.union(s, t)
            tree.append(e)
        else:
            chords.append(e)
    return tree, chords


def _forest_parents(graph: Multigraph, tree):
    """Root each tree of the forest at its least vertex.  Returns per vertex
    (parent vertex, tree edge to it, sign of walking that edge upwards: +1
    along its orientation), None at a root, and per vertex its depth."""
    adjacency = {}
    for e in tree:
        s, t = graph.source[e], graph.target[e]
        adjacency.setdefault(s, []).append((e, t, -1))
        adjacency.setdefault(t, []).append((e, s, 1))
    parent = [None] * graph.vertex_count
    depth = [-1] * graph.vertex_count
    for root in range(graph.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for e, child, up_sign in adjacency.get(v, ()):
                if depth[child] < 0:
                    parent[child] = (v, e, up_sign)
                    depth[child] = depth[v] + 1
                    stack.append(child)
    return parent, depth


def cycle_basis(graph: Multigraph):
    """Fundamental cycles of the lex-least spanning forest: one per chord,
    as integer vectors over the edge order.  A chord's cycle is the chord
    followed by the unique forest path from its target back to its source,
    read by climbing both ends to their common ancestor."""
    tree, chords = _spanning_forest(graph)
    parent, depth = _forest_parents(graph, tree)
    index = {e: i for i, e in enumerate(graph.edges)}
    basis = []
    for chord in chords:
        vector = [0] * len(graph.edges)
        vector[index[chord]] = 1
        start, goal = graph.target[chord], graph.source[chord]
        while start != goal:
            if depth[start] >= depth[goal]:
                start, edge, sign = parent[start]
                vector[index[edge]] += sign
            else:
                goal, edge, sign = parent[goal]
                vector[index[edge]] -= sign
        basis.append(tuple(vector))
    return tuple(basis), tuple(chords)


def _boundary(graph, vector):
    out = [0] * graph.vertex_count
    for i, e in enumerate(graph.edges):
        if vector[i]:
            out[graph.target[e]] += vector[i]
            out[graph.source[e]] -= vector[i]
    return out


def graph_h1(graph: Multigraph, on_edges) -> H1Presentation:
    """H1 of a graph under the cellular self-map sending each edge to the
    edge path ``on_edges[edge]`` (every step an edge of the graph): the
    action on the fundamental cycle basis, in chord coordinates, and the
    direct limit of its transpose."""
    basis, chords = cycle_basis(graph)
    index = {e: i for i, e in enumerate(graph.edges)}
    columns = []
    for cycle in basis:
        # the chain map sends an edge to the sum of its path steps
        image = [0] * len(graph.edges)
        for e, coeff in zip(graph.edges, cycle):
            if coeff:
                for step in on_edges[e]:
                    image[index[step]] += coeff
        if any(_boundary(graph, image)):
            raise InconsistentRuleError("image of a basis cycle has nonzero boundary")
        columns.append([image[index[c]] for c in chords])
    size = len(basis)
    matrix = [[columns[j][i] for j in range(size)] for i in range(size)]
    limit = direct_limit(intlin.transpose(matrix))
    return H1Presentation(size, basis, chords,
                          tuple(tuple(row) for row in matrix), limit)


def h1_presentation(complex_: APComplex, cell_map: CellularMap) -> H1Presentation:
    """H1 of the complex under its cellular self-map."""
    return graph_h1(complex_.graph, cell_map.on_edges)


@dataclass(frozen=True)
class InverseLimitPresentation:
    collared: CollaredSubstitution
    complex: APComplex
    cell_map: CellularMap
    h1: H1Presentation
    forcing_level: int
    n_sigma: int
    recognisable: str  # "evidenced" | "unknown"


def inverse_limit_presentation(sub: Substitution, radius: int | None = None,
                               max_letters: int | None = None) -> InverseLimitPresentation:
    """The tiling space as an inverse limit: the collared complex at the
    bounded-word radius, its cellular self-map, and the border-forcing
    level."""
    report = decide_tameness(sub)
    if report.empty_subshift:
        raise EmptySubshiftError("empty subshift has no tiling space presentation")
    if not report.tame:
        raise WildInputError("inverse-limit presentation requires a tame substitution")
    n_sigma = report.n_sigma
    if radius is None:
        radius = n_sigma
    collared = collar(sub, radius, max_letters=max_letters)
    complex_ = build_complex(collared)
    cell_map = induced_map(collared, complex_)
    h1 = h1_presentation(complex_, cell_map)
    level = border_forcing_level(collared) if radius >= n_sigma else 0
    period_bound = min(6, 2 + sub.max_image_len)
    hits = periodic_point_search(sub, period_bound)
    status = "evidenced" if not hits else "unknown"
    return InverseLimitPresentation(collared, complex_, cell_map, h1,
                                    level, n_sigma, status)


def complex_to_dot(complex_: APComplex, highlights: dict[str, str] | None = None) -> str:
    """DOT rendering: vertices by label, edges labelled by collared letter,
    optional per-edge colours (e.g. subcomplex membership)."""
    graph = complex_.graph
    lines = ['digraph "ap_complex" {', "  rankdir=LR;"]
    for i, label in enumerate(graph.vertex_labels):
        lines.append(f'  v{i} [label="{label}"];')
    for e in graph.edges:
        colour = (highlights or {}).get(e)
        attrs = f'label="{e}"'
        if colour:
            attrs += f', color="{colour}", fontcolor="{colour}"'
        lines.append(f"  v{graph.source[e]} -> v{graph.target[e]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
