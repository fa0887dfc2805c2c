"""Closed invariant subspaces of a tiling space via canonical subcomplexes.

At collaring radius >= the bounded-word bound, a closed invariant subspace
is determined by the set of collared letters occurring in it, and those
letter sets are exactly the fixed points of the canonicalization operator
(letters surviving on a bi-infinite path of the edge-restricted transition
graph).  Canonicalization is monotone, deflationary and idempotent, and any
canonical set strictly below another is reachable from it by deleting one
edge and re-canonicalizing; the lattice is therefore enumerated completely
by a downward deletion closure from the full complex, which is already
closed under joins and meets (see ``enumerate_cis``).

Almost every vertex of that transition graph has one predecessor and one
successor, and a bi-infinite path through such a vertex runs along the
whole maximal chain of them, from one special vertex (in- or out-degree
not 1) to the next.  So a chain's vertices live or die together: all of
them survive exactly when all are alive and both ends survive.
Canonicalization therefore trims only the reduced graph of special vertices
and chains (Cassaigne's reduced Rauzy graph), plus the pure cycles that
hold no special vertex, and each call costs the size of that graph.

The join of the lattice is the union, so every node is the union of the
join-irreducible nodes below it (those that are not the union of the nodes
strictly below them), and a lattice isomorphism is fixed by where it sends
them (Birkhoff).  Comparing two lattices therefore tries the bijections of
their join-irreducibles, not of all their nodes.

Each node carries the cohomology of its subcomplex and the ranks of the
cohomology of the whole complex with the node collapsed.  Only the
subcomplexes get H1 presentations: the quotient ranks and the quotient
arrows are read off the long exact sequences of the pair and of the triple
(see ``enumerate_cis``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .apcomplex import (APComplex, H1Presentation, Multigraph, build_complex,
                        graph_h1, induced_map)
from .classify import decide_tameness
from .collar import CollaredLetter, CollaredSubstitution, check_budget, collar
from .core import Substitution
from .errors import SubstdynError, SymbolError, WildInputError
from .graphs import biinfinite_path_nodes
from .language import LanguageTable, _once, default_margin, table_for

Subcomplex = frozenset

MAX_LATTICE_NODES = 512  # enumerate_cis raises past this many canonical sets


class CanonicalizeContext:
    """Restricted-legality engine: the Rauzy graph of the base language at
    the stabilized order, with each window carrying the set of collared
    letters it witnesses.  Canonicalizing an edge set keeps the windows
    whose letters lie inside it and returns the letters surviving on
    bi-infinite paths.  Order 2 alone is too coarse: it would admit
    spurious periodic patterns whose longer factors are illegal.

    ``table`` is used as given when it reaches length 2n + 2, and
    otherwise the context asks ``table_for`` for the length its order
    needs.

    A vertex's tokens are those of its (2n + 1)-windows.  The window ->
    token dict starts from the collared rule's ``tokens``, and a window
    the collar did not reach is decoded and formatted once.  An edge is
    its head vertex followed by one letter and its tail vertex preceded
    by one, so its windows, and hence its tokens, are the union of its
    head's and its tail's; both are vertices because the table's legal
    words are closed under taking factors.  So
    an edge's tokens lie inside an edge set exactly when both its ends'
    do, and canonicalizing keeps the edges whose ends are both alive,
    with no token set of their own to test.

    Canonicalizing runs on the reduced Rauzy graph, built once here.  Its
    nodes are the special vertices, whose in- or out-degree is not 1.
    Every other vertex has one predecessor and one successor, so it lies
    either on a chain, a maximal path from one special vertex to another
    through such vertices, or on a pure cycle made of them alone.  A path
    through a chain's internal vertex runs along the whole chain, so that
    vertex lies on a bi-infinite path exactly when every vertex of its
    chain is alive and both ends lie on bi-infinite paths; and a special
    vertex lies on one exactly when it does in the graph of special
    vertices and live chains, since a path leaving a special vertex
    follows a whole chain to the next.  A pure cycle survives exactly when
    all its vertices are alive.  Each chain and cycle carries the union of
    its vertices' tokens, so one call tests and trims only the special
    vertices, the chains and the cycles, and only the special vertices
    keep token sets of their own.  A chain's or a cycle's walk spells one
    word: its first vertex, then the last letter of each later vertex, as
    each vertex is its predecessor shifted by one letter.  Each walked
    vertex is a factor of that word, and each window of the word lies in
    one of them, as no window is longer than a vertex; so the union is the
    word's windows, read in one pass along it."""

    def __init__(self, collared: CollaredSubstitution,
                 table: LanguageTable | None = None):
        base = collared.base
        n = collared.radius
        if table is None or table.max_length < 2 * n + 2:
            # windows must outgrow the recurrence scale of the collared
            # letters themselves, so the order grows with the radius
            table = table_for(base, max(2 * n + 2, default_margin(base, 2 * n + 2),
                                        4 * (2 * n + 1)))
        self.collared = collared
        self.table = table
        self.exact = table.legal_exact
        self.order = table.max_length - 1  # vertex window length (base letters)
        width = 2 * n + 1
        window_tokens = dict(collared.tokens)

        def tokens_of(coded):
            out = set()
            for i in range(len(coded) - width + 1):
                window = coded[i:i + width]
                token = window_tokens.get(window)
                if token is None:
                    word = base.decode(window)
                    token = window_tokens[window] = CollaredLetter(word[n], word).token(base)
                out.add(token)
            return frozenset(out)

        self.edges = sorted(table.legal_coded(self.order + 1))
        vertices = sorted(table.legal_coded(self.order))
        succ: dict[str, list[str]] = {v: [] for v in vertices}
        in_degree = dict.fromkeys(vertices, 0)
        for e in self.edges:
            succ[e[:-1]].append(e[1:])
            in_degree[e[1:]] += 1
        self.special = [v for v in vertices if len(succ[v]) != 1 or in_degree[v] != 1]
        self.vertex_tokens = {v: tokens_of(v) for v in self.special}
        placed = set(self.special)

        def walk(v):
            # the end of the walk from v to a placed vertex, and the tokens
            # of the word it spells; a vertex off the special ones has one
            # predecessor, so no two walks share it
            spelled = [] if v in placed else [v[:-1]]
            while v not in placed:
                placed.add(v)
                spelled.append(v[-1])
                v = succ[v][0]
            return v, tokens_of("".join(spelled))

        # (head, tail, tokens of the internal vertices) per chain
        self.chains: list[tuple[str, str, frozenset]] = []
        for head in self.special:
            for v in succ[head]:
                self.chains.append((head, *walk(v)))
        # the vertices no chain reached make up the pure cycles
        self.cycles = [walk(v)[1] for v in vertices if v not in placed]

    def canonicalize(self, edge_set: Subcomplex) -> Subcomplex:
        keep = frozenset(edge_set)
        tokens_of = self.vertex_tokens
        alive = [v for v in self.special if tokens_of[v] <= keep]
        succ: dict[str, list[str]] = {v: [] for v in alive}
        pred: dict[str, list[str]] = {v: [] for v in alive}
        live = []
        for head, tail, tokens in self.chains:
            if head in succ and tail in succ and tokens <= keep:
                succ[head].append(tail)
                pred[tail].append(head)
                live.append((head, tail, tokens))
        surviving = biinfinite_path_nodes(alive, succ.__getitem__,
                                          pred.__getitem__)
        out = set()
        for v in surviving:
            out.update(tokens_of[v])
        for head, tail, tokens in live:
            if head in surviving and tail in surviving:
                out.update(tokens)
        for tokens in self.cycles:
            if tokens <= keep:
                out.update(tokens)
        return frozenset(out)


def image_period(edges: Subcomplex, collared: CollaredSubstitution,
                 context: CanonicalizeContext) -> int | None:
    """Least t >= 1 with the t-fold canonicalized image equal to the set
    itself, or None when the set is not on its own image cycle."""
    if not edges:
        return 1
    orbit = [frozenset(edges)]
    seen = {orbit[0]: 0}
    while True:
        nxt = context.canonicalize(edge_image(orbit[-1], collared))
        if nxt == orbit[0]:
            return len(orbit)
        if nxt in seen:
            return None
        seen[nxt] = len(orbit)
        orbit.append(nxt)


def edge_image(edges, collared: CollaredSubstitution) -> Subcomplex:
    out = set()
    for e in edges:
        out.update(collared.sub.rules[e])
    return frozenset(out)


@dataclass(frozen=True)
class CISNode:
    name: str
    edges: Subcomplex
    period: int | None          # least t with image^t fixing this node
    h0_rank: int
    h1: H1Presentation | None   # None for the empty node
    quotient_h0: int            # components of the complex with this node collapsed
    quotient_h1_rank: int       # H1 rank of that quotient, from the pair's sequence

    @property
    def h1_rank(self) -> int:
        return self.h1.limit.eventual_rank if self.h1 else 0


@dataclass
class CISLattice:
    collared: CollaredSubstitution
    complex: APComplex
    nodes: list[CISNode]
    order: list[tuple[str, str]]            # (smaller, larger) strict pairs
    power: int
    inclusion_arrows: list[dict]
    quotient_arrows: list[dict]
    exact: bool
    warnings: list[str] = field(default_factory=list)

    def inclusion_h1_profile(self):
        return [n.h1_rank for n in self.nodes]

    def quotient_h1_profile(self):
        return [n.quotient_h1_rank for n in self.nodes]


def _sub_multigraph(graph: Multigraph, edges):
    edge_list = tuple(sorted(edges))
    vertices = sorted({graph.source[e] for e in edge_list}
                      | {graph.target[e] for e in edge_list})
    remap = {v: i for i, v in enumerate(vertices)}
    return Multigraph(edge_list,
                      {e: remap[graph.source[e]] for e in edge_list},
                      {e: remap[graph.target[e]] for e in edge_list},
                      tuple(graph.vertex_labels[v] for v in vertices))


def enumerate_cis(collared: CollaredSubstitution,
                  context: CanonicalizeContext | None = None) -> CISLattice:
    """The full lattice of canonical subcomplexes, with per-node direct-limit
    presentations and quotient ranks, for a rule the session's
    ``decide_tameness`` finds tame.

    The deletion closure needs no second pass under joins and meets.  A
    union of canonical sets is canonical: monotonicity puts each set inside
    the canonicalized union, and deflation keeps that inside the union.
    canonicalize(a & b) is canonical by idempotence.  Both lie below the
    top, and the deletion closure holds every canonical set below the top,
    so it already holds both.

    The quotients are those of the whole complex X, every legal letter,
    which is the top node unless the warning below says the top omits
    some.  Write h0 and h1 for the ranks of the direct limits of H^0 and
    H^1 under the map at the lattice power, where every node and X are
    invariant, and met(S, B) for the number of B's components that S
    meets (0 when S is empty).  A graph has no 2-cells, so H^2 = 0, and
    for edge sets S ⊆ B the long exact sequence of the pair

        0 -> H^0(B, S) -> H^0(B) -> H^0(S) -> H^1(B, S) -> H^1(B) -> H^1(S) -> 0

    commutes with the maps the substitution induces.  A direct limit of
    exact sequences is exact, so the ranks of the limits sum alternately
    to zero.  H^0(B, S) is the functions on the components of B that S
    misses, of rank h0(B) - met(S, B), so

        rank H^1(B, S) = h0(S) - met(S, B) + h1(B) - h1(S).

    For K nonempty H^k(X, K) is the reduced cohomology of the quotient X/K,
    and for K empty it is that of X, so X/K has q0(K) = h0(X) - met(K, X)
    components, plus the collapsed one when K is nonempty, and H1 rank
    q1(K) = rank H^1(X, K).  For S ⊂ B the triple (X, B, S) gives the exact
    H^1(X, B) -> H^1(X, S) -> H^1(B, S) -> 0, so the quotient arrow
    X/S -> X/B has rank q1(S) - rank H^1(B, S).

    The H0 ranks are raw component counts, and a count is the rank of the
    direct limit when the map permutes the components.  For a node K of
    period p, deflation gives K = canonicalize(image^p K) ⊆ image^p K, so
    the p-fold image hits every component of K: an onto self-map of a
    finite set, hence a bijection, and so is its power at the lattice
    power.  For X, a point of the subshift is a shifted image of another
    (its central words lie in images of legal words, and compactness
    passes to the limit), so every legal collared letter lies in the image
    of one and again every component is hit.  As K is invariant, the
    permutation of X's components keeps those K meets among themselves,
    so it permutes the rest, and H^0(X, K) has limit rank h0(X) - met(K, X)
    too.  So each distinct edge set among the nodes and X gets one
    component map and one H1 presentation, and the quotients none."""
    tameness = decide_tameness(collared.base)
    if not tameness.tame:
        raise WildInputError("invariant-subspace enumeration requires a tame substitution")
    warnings = []
    if tameness.n_sigma is not None and collared.radius < tameness.n_sigma:
        warnings.append(
            f"radius {collared.radius} is below the bounded-word bound "
            f"{tameness.n_sigma}; distinct subspaces may collapse")
    complex_ = build_complex(collared)
    if context is None:
        context = CanonicalizeContext(collared)
    if not context.exact:
        warnings.append("legality did not stabilise at the margin order; "
                        "the lattice is exact only to that order")
    whole = frozenset(complex_.edges)
    top = context.canonicalize(whole)
    if top != whole:
        warnings.append("some legal letters are not on any bi-infinite path; "
                        "the top node omits them")

    # downward deletion closure: complete because canonicalization is
    # monotone, so any canonical K' < K is below canonicalize(K - {e}) for
    # every edge e of K outside K'
    family = {top, frozenset()}
    stack = [top]
    while stack:
        current = stack.pop()
        for e in sorted(current):
            candidate = context.canonicalize(current - {e})
            if candidate not in family:
                if len(family) >= MAX_LATTICE_NODES:
                    raise SubstdynError(f"lattice exceeded {MAX_LATTICE_NODES} nodes")
                family.add(candidate)
                stack.append(candidate)
    members = sorted(family, key=lambda k: (-len(k), tuple(sorted(k))))

    # node periods under the induced image map; a genuine invariant
    # subspace's subcomplex is fixed by a power of the map, so canonical
    # sets without a period are margin artifacts and are dropped
    periods = {}
    for k in members:
        periods[k] = image_period(k, collared, context)
        if periods[k] is None:
            warnings.append(f"dropped a size-{len(k)} canonical set that is "
                            "not image-periodic (margin artifact)")
    members = [k for k in members if periods[k] is not None]
    power = math.lcm(*(periods[k] for k in members))

    # per nonempty edge set: its component count, its edges' component
    # ids and its H1 presentation, under the one cellular map at the power
    paths = induced_map(collared, complex_, power).on_edges
    counts, components, presentations = {}, {}, {}
    for k in [*members, whole]:
        if k and k not in counts:
            if any(not k.issuperset(paths[e]) for e in k):
                raise SubstdynError(f"subcomplex is not invariant at power {power}")
            sub_graph = _sub_multigraph(complex_.graph, k)
            counts[k], comp = sub_graph.components()
            components[k] = {e: comp[sub_graph.source[e]] for e in k}
            presentations[k] = graph_h1(sub_graph, paths)

    def h0(k):
        return counts.get(k, 0)

    def h1(k):
        return presentations[k].limit.eventual_rank if k else 0

    def met(small, big):
        return len({components[big][e] for e in small})

    def relative_h1(small, big, meets):
        # rank of H^1(big, small), given met(small, big)
        return h0(small) - meets + h1(big) - h1(small)

    nodes = []
    for idx, k in enumerate(members):
        if k == top:
            name = "omega"
        elif not k:
            name = "empty"
        else:
            name = f"cis_{idx}"
        meets = met(k, whole)
        nodes.append(CISNode(name=name, edges=k, period=periods[k],
                             h0_rank=h0(k), h1=presentations.get(k),
                             quotient_h0=h0(whole) - meets + (1 if k else 0),
                             quotient_h1_rank=relative_h1(k, whole, meets)))

    # the restriction H^1(big) -> H^1(small) is onto (H^2(big, small) = 0,
    # and exact in the limit), so its rank is small's H1 rank; the H0 rank
    # is the number of big's components that small meets.  The quotient
    # arrow's rank is the triple's (see above)
    order, inclusion_arrows, quotient_arrows = [], [], []
    for small in nodes:
        for big in nodes:
            if not small.edges < big.edges:
                continue
            meets = met(small.edges, big.edges)
            order.append((small.name, big.name))
            inclusion_arrows.append({
                "from": small.name, "to": big.name,
                "h1_map_rank": small.h1_rank,
                "h0_map_rank": meets,
            })
            quotient_arrows.append({
                "from": small.name, "to": big.name,
                "h1_map_rank": small.quotient_h1_rank
                - relative_h1(small.edges, big.edges, meets),
            })
    return CISLattice(collared=collared, complex=complex_, nodes=nodes,
                      order=order, power=power,
                      inclusion_arrows=inclusion_arrows,
                      quotient_arrows=quotient_arrows,
                      exact=context.exact, warnings=warnings)


def lattice_for(sub: Substitution, radius: int,
                max_letters: int | None = None) -> CISLattice:
    """``enumerate_cis(collar(sub, radius, max_letters=max_letters))``, with
    the collared rule and the lattice each built once per (sub, radius)
    inside ``language.session()``.  A shared collared rule over the budget
    raises the EdgeBudgetError ``collar`` would, before the lattice is read,
    so a lattice kept as failed under a looser budget does not hide it."""
    collared = _once(collar, sub, radius, max_letters=max_letters)
    check_budget(len(collared.sub.alphabet), max_letters)
    return _once(_lattice, sub, radius, collared=collared)


def _lattice(sub: Substitution, radius: int, collared: CollaredSubstitution) -> CISLattice:
    return enumerate_cis(collared)


@dataclass(frozen=True)
class DiagramComparison:
    shape_isomorphic: bool
    profiles_match: bool
    witness: str | None

    @property
    def distinguishable(self):
        return not (self.shape_isomorphic and self.profiles_match)


def _node_label(node: CISNode):
    return (node.h0_rank, node.h1_rank, node.quotient_h0, node.quotient_h1_rank)


def _join_irreducibles(nodes):
    """Positions of the nodes that are not the union of the nodes strictly
    below them."""
    return [i for i, x in enumerate(nodes) if x.edges != frozenset().union(
        *(y.edges for y in nodes if y.edges < x.edges))]


def _order_isomorphism_exists(nodes_a, order_a, nodes_b, order_b, labels=None):
    """Whether a bijection of the nodes preserves the order both ways (and
    the labels, when given), tried through the join-irreducibles."""
    irr_a, irr_b = _join_irreducibles(nodes_a), _join_irreducibles(nodes_b)
    if len(nodes_a) != len(nodes_b) or len(irr_a) != len(irr_b):
        return False
    rel_a, rel_b = set(order_a), set(order_b)
    position_b = {y.edges: j for j, y in enumerate(nodes_b)}
    below = [[i for i in irr_a if nodes_a[i].edges <= x.edges] for x in nodes_a]
    for perm in itertools.permutations(irr_b):
        image = dict(zip(irr_a, perm))
        mapping = [position_b.get(frozenset().union(
            *(nodes_b[image[i]].edges for i in irrs))) for irrs in below]
        if None in mapping or len(set(mapping)) < len(mapping) or (
                labels and any(labels[0][i] != labels[1][j]
                               for i, j in enumerate(mapping))):
            continue
        # a bijection made by unions can still fail to reflect the order
        # when the lattice is not distributive
        names = {x.name: nodes_b[j].name for x, j in zip(nodes_a, mapping)}
        if all(((names[x], names[y]) in rel_b) == ((x, y) in rel_a)
               for x in names for y in names):
            return True
    return False


def diagram_compare(first: CISLattice, second: CISLattice) -> DiagramComparison:
    """Compare lattice shapes and per-node cohomology rank profiles along
    order-preserving bijections."""
    shape = _order_isomorphism_exists(first.nodes, first.order,
                                      second.nodes, second.order)
    if not shape:
        return DiagramComparison(False, False,
                                 f"lattice shapes differ: {len(first.nodes)} nodes "
                                 f"vs {len(second.nodes)}")
    labels = ([_node_label(n) for n in first.nodes],
              [_node_label(n) for n in second.nodes])
    if sorted(labels[0]) != sorted(labels[1]):
        profile_a = sorted(n.h1_rank for n in first.nodes)
        profile_b = sorted(n.h1_rank for n in second.nodes)
        if profile_a != profile_b:
            witness = (f"inclusion H1 rank multisets differ: {profile_a} vs {profile_b}")
        else:
            witness = (f"node (H0, H1, quotient) rank profiles differ: "
                       f"{sorted(labels[0])} vs {sorted(labels[1])}")
        return DiagramComparison(True, False, witness)
    if _order_isomorphism_exists(first.nodes, first.order, second.nodes,
                                 second.order, labels=labels):
        return DiagramComparison(True, True, None)
    return DiagramComparison(True, False,
                             "rank profiles agree but no order-preserving "
                             "bijection matches them")


def lattice_to_dot(lattice: CISLattice) -> str:
    lines = ['digraph "cis_lattice" {', "  rankdir=BT;"]
    for node in lattice.nodes:
        label = f"{node.name}\\nE={len(node.edges)} H1={node.h1_rank}"
        lines.append(f'  "{node.name}" [label="{label}", shape=box];')
    covers = _hasse_pairs(lattice)
    for small, big in covers:
        lines.append(f'  "{small}" -> "{big}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hasse_pairs(lattice: CISLattice):
    """The covering pairs of the order, sorted: the covers of a node are
    its up-set less the up-sets of its members."""
    above = {node.name: set() for node in lattice.nodes}
    for small, big in lattice.order:
        above[small].add(big)
    covers = []
    for small, bigger in above.items():
        covers += [(small, big) for big in bigger.difference(*(above[c] for c in bigger))]
    return sorted(covers)


def extend_substitution(base: Substitution, handle: Substitution,
                        injection: dict[str, str],
                        subsequences: dict[str, tuple[int, ...]] | None = None,
                        power: int | None = None) -> Substitution:
    """Extend a primitive substitution by another along interior
    subsequences: new letters substitute like their injected images except
    at the chosen positions, which carry the handle letters instead."""
    if not base.is_primitive():
        raise SubstdynError("extension requires a primitive carrier substitution")
    if set(injection) != set(handle.alphabet):
        raise SymbolError("injection must be defined exactly on the handle alphabet")
    if len(set(injection.values())) != len(injection):
        raise SymbolError("injection is not injective")
    for target in injection.values():
        if target not in base.alphabet:
            raise SymbolError(f"injection target {target!r} not in the carrier alphabet")
    if set(base.alphabet) & set(handle.alphabet):
        raise SymbolError("carrier and handle alphabets must be disjoint")

    def find_interior(image, wanted):
        # earliest strictly increasing interior positions carrying the wanted
        # letters (1-based); backtracking keeps completeness
        m = len(image)

        def search(start, remaining):
            if not remaining:
                return ()
            for pos in range(start, m - 1):
                if image[pos] == remaining[0]:
                    rest = search(pos + 1, remaining[1:])
                    if rest is not None:
                        return (pos,) + rest
            return None

        return search(1, wanted)

    if subsequences is not None:
        chosen_power = power or 1
        lifted = base.power(chosen_power)
        plans = {}
        for b in handle.alphabet:
            image = lifted.rules[injection[b]]
            wanted = tuple(injection[x] for x in handle.rules[b])
            if b not in subsequences:
                raise SubstdynError(f"no positions for {b!r}, though other "
                                    f"handle letters have them")
            positions = tuple(p - 1 for p in subsequences[b])
            if len(positions) != len(wanted):
                raise SubstdynError(f"need {len(wanted)} positions for {b!r}")
            if list(positions) != sorted(set(positions)):
                raise SubstdynError(f"positions for {b!r} must be strictly increasing")
            if any(not 1 <= p <= len(image) - 2 for p in positions):
                raise SubstdynError(f"positions for {b!r} are not interior")
            if any(image[p] != w for p, w in zip(positions, wanted)):
                raise SubstdynError(f"positions for {b!r} do not carry the "
                                    "injected handle letters")
            plans[b] = positions
    else:
        chosen_power = None
        plans = None
        for t in ([power] if power else range(1, 13)):
            lifted = base.power(t)
            candidate = {}
            for b in handle.alphabet:
                image = lifted.rules[injection[b]]
                wanted = tuple(injection[x] for x in handle.rules[b])
                positions = find_interior(image, wanted)
                if positions is None:
                    candidate = None
                    break
                candidate[b] = positions
            if candidate is not None:
                chosen_power = t
                plans = candidate
                break
        if plans is None:
            raise SubstdynError("no power admits interior subsequences for the handle")
    lifted = base.power(chosen_power)
    rules = [(a, lifted.rules[a]) for a in base.alphabet]
    for b in handle.alphabet:
        image = list(lifted.rules[injection[b]])
        for p, letter in zip(plans[b], handle.rules[b]):
            image[p] = letter
        rules.append((b, tuple(image)))
    return Substitution(rules, alphabet=tuple(base.alphabet) + tuple(handle.alphabet))
