"""Shared helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the library's language machinery: they
expand rule images by hand and enumerate factors directly, so they can
cross-check it.  The generators may use the library to select their inputs.
"""

import functools
import random
import weakref

import pytest

from substdyn import intlin
from substdyn.apcomplex import H1Presentation, _spanning_forest, direct_limit
from substdyn.classify import decide_tameness, is_minimal
from substdyn.cis import enumerate_cis
from substdyn.collar import collar
from substdyn.core import Substitution, parse_substitution
from substdyn.errors import SubstdynError


def brute_iterate(sub: Substitution, word, n):
    word = tuple(word)
    for _ in range(n):
        out = []
        for letter in word:
            out.extend(sub.rules[letter])
        word = tuple(out)
    return word


def brute_admitted(sub: Substitution, max_len, max_power=12, length_cap=2_000_000):
    """Union of factors of sigma^k(a) for all letters and k <= max_power, by
    direct expansion.  Raises if an iterate outgrows the cap (use the span
    oracle for fast-growing rules)."""
    # |sigma^k(a)| from the image lengths alone, so that an iterate past the
    # cap raises before anything is expanded
    lengths = {a: 1 for a in sub.alphabet}
    for _ in range(max_power + 1):
        lengths = {a: sum(lengths[x] for x in sub.rules[a]) for a in sub.alphabet}
        if max(lengths.values()) > length_cap:
            raise OverflowError("iterate outgrew the brute-force cap")
    factors = {length: set() for length in range(max_len + 1)}
    factors[0].add(())
    for letter in sub.alphabet:
        word = (letter,)
        for _ in range(max_power + 1):
            for length in range(1, max_len + 1):
                for i in range(len(word) - length + 1):
                    factors[length].add(word[i:i + length])
            grown = brute_iterate(sub, word, 1)
            if grown == word:
                break
            word = grown
    return factors


def span_admitted(sub: Substitution, max_len, max_power=12):
    """Same union, via the span identity: every factor of sigma(W) of
    length <= L lies inside sigma(w) for a factor w of W with |w| <= L
    (interior images contribute at least one letter each)."""
    per_k = {a: {(a,)} for a in sub.alphabet}
    union = {length: set() for length in range(max_len + 1)}
    union[0].add(())

    def harvest(words):
        for word in words:
            for length in range(1, max_len + 1):
                for i in range(len(word) - length + 1):
                    union[length].add(word[i:i + length])

    for a in sub.alphabet:
        harvest(per_k[a])
    for _ in range(max_power):
        nxt = {}
        for a in sub.alphabet:
            grown = set()
            for word in per_k[a]:
                image = brute_iterate(sub, word, 1)
                if len(image) <= max_len:
                    grown.add(image)
                else:
                    for i in range(len(image) - max_len + 1):
                        grown.add(image[i:i + max_len])
            nxt[a] = grown
            harvest(grown)
        per_k = nxt
    return union


def brute_bounded_letters(sub: Substitution):
    """Direct-iteration classification: a letter is bounded when its iterate
    sequence revisits a word, expanding when the length outgrows the bound
    |A| * max|rule|^(|A|+1)."""
    bound = len(sub.alphabet) * sub.max_image_len ** (len(sub.alphabet) + 1)
    out = set()
    for letter in sub.alphabet:
        seen = set()
        word = (letter,)
        while True:
            word = brute_iterate(sub, word, 1)
            if word in seen:
                out.add(letter)
                break
            seen.add(word)
            if len(word) > bound:
                break
    return out


def random_substitution(rng: random.Random, max_letters=3, max_image=4):
    size = rng.randint(1, max_letters)
    letters = list("abcd"[:size])
    rules = []
    for letter in letters:
        image = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_image)))
        rules.append((letter, image))
    return Substitution(rules, alphabet=tuple(letters))


def retoken(sub, names):
    """The same rule with each letter renamed by ``names``."""
    return Substitution([(names[a], tuple(names[x] for x in sub.rules[a]))
                         for a in sub.alphabet],
                        alphabet=tuple(names[a] for a in sub.alphabet))


def random_minimal_nonprimitive(rng):
    """A rule on expanding letters a, b with the bounded letters c -> c
    (and d -> c) spliced into their images, kept once it is tame, not
    primitive and linearly recurrent to its table bound."""
    while True:
        bounded = ["c", "d"][:rng.randint(1, 2)]
        rules = []
        for letter in ("a", "b"):
            image = [rng.choice("ab") for _ in range(rng.randint(2, 4))]
            for _ in range(rng.randint(1, 2)):
                image.insert(rng.randint(1, len(image) - 1), rng.choice(bounded))
            rules.append((letter, tuple(image)))
        rules.append(("c", ("c",)))
        if "d" in bounded:
            rules.append(("d", ("c",)))
        sub = Substitution(rules)
        if sub.is_primitive():
            continue
        report = decide_tameness(sub)
        if report.tame and not report.empty_subshift and \
                is_minimal(sub, use_cis=False).verdict == "yes":
            return sub


def reference_forest_path(graph, tree, start, goal):
    """Signed edge path start -> goal inside the forest, by a breadth-first
    search from scratch: list of (edge, +1/-1)."""
    adjacency = {}
    for e in tree:
        adjacency.setdefault(graph.source[e], []).append((e, graph.target[e], 1))
        adjacency.setdefault(graph.target[e], []).append((e, graph.source[e], -1))
    parent = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for edge, other, sign in adjacency.get(node, ()):
            if other not in parent:
                parent[other] = (node, edge, sign)
                queue.append(other)
    path = []
    node = goal
    while parent[node] is not None:
        prev, edge, sign = parent[node]
        path.append((edge, sign))
        node = prev
    path.reverse()
    return path


def reference_cycle_basis(graph):
    """Fundamental cycles of the greedy spanning forest, each chord closed
    by a forest path searched for that chord alone."""
    tree, chords = _spanning_forest(graph)
    index = {e: i for i, e in enumerate(graph.edges)}
    basis = []
    for chord in chords:
        vector = [0] * len(graph.edges)
        vector[index[chord]] = 1
        for edge, sign in reference_forest_path(graph, tree, graph.target[chord],
                                                graph.source[chord]):
            vector[index[edge]] += sign
        basis.append(tuple(vector))
    return tuple(basis), tuple(chords)


def reference_graph_h1(graph, on_edges):
    """H1 presentation through the dense edge-by-edge chain matrix and a
    dense product per basis cycle; steps outside the graph are dropped."""
    basis, chords = reference_cycle_basis(graph)
    index = {e: i for i, e in enumerate(graph.edges)}
    chain = {e: [0] * len(graph.edges) for e in graph.edges}
    for e in graph.edges:
        for step in on_edges[e]:
            if step in index:
                chain[e][index[step]] += 1
    columns = []
    for cycle in basis:
        image = [0] * len(graph.edges)
        for i, e in enumerate(graph.edges):
            if cycle[i]:
                for j in range(len(graph.edges)):
                    image[j] += cycle[i] * chain[e][j]
        boundary = [0] * graph.vertex_count
        for i, e in enumerate(graph.edges):
            boundary[graph.target[e]] += image[i]
            boundary[graph.source[e]] -= image[i]
        if any(boundary):
            raise SubstdynError("cycle image has nonzero boundary")
        columns.append([image[index[c]] for c in chords])
    size = len(basis)
    matrix = [[columns[j][i] for j in range(size)] for i in range(size)]
    return H1Presentation(size, basis, chords,
                          tuple(tuple(row) for row in matrix),
                          direct_limit(intlin.transpose(matrix)))


def reference_biinfinite_path_nodes(nodes, succ, pred):
    """Nodes through which a bi-infinite path runs, as the nodes with both
    a forward and a backward walk of |V| steps: such a walk repeats a node,
    so it runs into (or out of) a cycle, which it can go round forever."""
    nodes = list(nodes)

    def walk_starts(step):
        # after j rounds: the nodes with a walk of j steps along ``step``
        starts = set(nodes)
        for _ in nodes:
            starts = {v for v in starts if any(w in starts for w in step(v))}
        return starts

    return walk_starts(succ) & walk_starts(pred)


def _per_context(build):
    """``build(context)``, computed once per live context."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(context):
        if context not in memo:
            memo[context] = build(context)
        return memo[context]
    return cached


def reference_tokens_of(context, coded):
    """Tokens of a coded window, by decoding the whole word and formatting
    every (2n+1)-window (the construction before the window memo)."""
    sub = context.collared.base
    n = context.collared.radius
    word = sub.decode(coded)
    out = set()
    for i in range(n, len(word) - n):
        out.add(f"{word[i]}|" + sub.format_word(word[i - n:i + n + 1]).replace(" ", "."))
    return frozenset(out)


@_per_context
def reference_vertex_tokens(context):
    """Every Rauzy vertex of the context's table at its order, with its
    ``reference_tokens_of``; the context itself keeps only the special
    vertices' tokens."""
    return {v: reference_tokens_of(context, v)
            for v in sorted(context.table.legal_coded(context.order))}


@_per_context
def reference_reduced_graph(context):
    """The reduced Rauzy graph rebuilt from the context's table: the special
    vertices (in- or out-degree not 1), the chains as (head, tail, internal
    vertices), and the vertex lists of the pure cycles."""
    vertices = sorted(context.table.legal_coded(context.order))
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    for e in context.table.legal_coded(context.order + 1):
        succ[e[:-1]].append(e[1:])
        pred[e[1:]].append(e[:-1])
    special = [v for v in vertices if len(succ[v]) != 1 or len(pred[v]) != 1]
    ends = set(special)
    seen = set(special)
    chains = []
    for head in special:
        for v in succ[head]:
            inside = []
            while v not in ends:
                inside.append(v)
                v = succ[v][0]
            seen.update(inside)
            chains.append((head, v, inside))
    cycles = []
    for v in vertices:
        cycle = []
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = succ[v][0]
        if cycle:
            cycles.append(cycle)
    return special, chains, cycles


def reference_canonicalize(context, edge_set):
    """A context's canonicalization vertex by vertex on the whole Rauzy
    graph: keep the vertices whose reference tokens lie inside the edge set
    and the edges between them, trim with the cycle-closure construction,
    and return the surviving vertices' tokens (the construction before the
    reduced graph)."""
    keep = frozenset(edge_set)
    tokens_of = reference_vertex_tokens(context)
    vertices = [v for v, tokens in tokens_of.items() if tokens <= keep]
    alive = set(vertices)
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    for e in context.edges:
        head, tail = e[:-1], e[1:]
        if head in alive and tail in alive:
            succ[head].append(tail)
            pred[tail].append(head)
    out = set()
    for v in reference_biinfinite_path_nodes(vertices, succ.__getitem__,
                                             pred.__getitem__):
        out.update(tokens_of[v])
    return frozenset(out)


def tame_lattices(subs, limit, radius_cap=None, max_letters=None):
    """(collared, lattice) for the first ``limit`` tame non-empty rules, at
    the bounded-word radius (capped at ``radius_cap``); rules whose collar
    exceeds ``max_letters`` or is empty are skipped."""
    out = []
    for sub in subs:
        report = decide_tameness(sub)
        if report.empty_subshift or not report.tame:
            continue
        radius = report.n_sigma if radius_cap is None else min(report.n_sigma, radius_cap)
        try:
            collared = collar(sub, radius, max_letters=max_letters)
        except SubstdynError:
            continue
        if not collared.legal:
            continue
        out.append((collared, enumerate_cis(collared)))
        if len(out) >= limit:
            break
    return out

@pytest.fixture(scope="session")
def fib():
    return parse_substitution("0 -> 001\n1 -> 01\n")


@pytest.fixture(scope="session")
def wild_ab():
    return parse_substitution("a -> ab\nb -> b\n")


@pytest.fixture(scope="session")
def chacon():
    return parse_substitution("a -> aaba\nb -> b\n")


@pytest.fixture(scope="session")
def fib_handle():
    return parse_substitution("0 -> 001\n1 -> 01\n2 -> 021\n")
