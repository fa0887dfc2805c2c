import contextlib
import io
import itertools
import random
from collections import Counter

import pytest

from substdyn import cis, intlin
from substdyn.cis import (CanonicalizeContext, CISLattice, CISNode, diagram_compare,
                          edge_image, enumerate_cis, extend_substitution,
                          _node_label, _order_isomorphism_exists, _sub_multigraph)
from substdyn.collar import collar
from substdyn.core import parse_substitution
from substdyn.corpus import CORPUS
from substdyn.errors import SubstdynError, SymbolError, WildInputError
from substdyn.graphs import UnionFind
from substdyn.language import LanguageTable

from cis_oracles import (brute_force_canonical_sets, cis_canonicalize, closure_additions,
                         eventual_range, hasse_pairs, limit_map_rank, node_named,
                         nonempty_proper, permutation_order_isomorphism_exists,
                         quotient_multigraph, reference_quotient_ranks)
from conftest import (reference_canonicalize, reference_graph_h1, reference_reduced_graph,
                      reference_tokens_of, reference_vertex_tokens, tame_lattices)
from test_properties import SUBSTITUTIONS


def test_fib_handle_lattice(fib_handle):
    collared = collar(fib_handle, 1)
    lattice = enumerate_cis(collared)
    assert len(lattice.nodes) == 3
    assert lattice.inclusion_h1_profile() == [3, 2, 0]
    assert lattice.quotient_h1_profile() == [0, 1, 3]
    middle = lattice.nodes[1]
    assert middle.edges == frozenset({"0|001", "1|010", "0|100", "0|101"})
    assert middle.quotient_h1_rank == 1
    assert [n.h0_rank for n in lattice.nodes] == [1, 1, 0]
    assert [n.quotient_h0 for n in lattice.nodes] == [1, 1, 1]
    assert lattice.power == 1
    arrows = {(a["from"], a["to"]): a["h1_map_rank"] for a in lattice.inclusion_arrows}
    assert arrows[(middle.name, "omega")] == 2
    h0 = {(a["from"], a["to"]): a["h0_map_rank"] for a in lattice.inclusion_arrows}
    assert h0[(middle.name, "omega")] == 1


def test_fib_handle_brute_agreement(fib_handle):
    collared = collar(fib_handle, 1)
    lattice = enumerate_cis(collared)
    brute = brute_force_canonical_sets(collared)
    assert brute == {n.edges for n in lattice.nodes}


def test_canonicalize_properties(fib_handle):
    collared = collar(fib_handle, 1)
    context = CanonicalizeContext(collared)
    full = frozenset(collared.legal)
    subsets = [full, frozenset(list(full)[:3]), frozenset()]
    for subset in subsets:
        once = context.canonicalize(subset)
        assert once <= subset
        assert context.canonicalize(once) == once
    small = context.canonicalize(frozenset(list(sorted(full))[:4]))
    big = context.canonicalize(full)
    assert small <= big


def test_lattice_exact_follows_its_own_table():
    # the context's table is inexact at this margin while the collar's own
    # table is exact; the lattice must report the table it was computed on
    sub = parse_substitution("a -> acc\nb -> bc\nc -> b\n")
    collared = collar(sub, 0)
    narrow = LanguageTable(sub, 3, margin=3)
    assert collared.table.legal_exact and not narrow.legal_exact
    context = CanonicalizeContext(collared, table=narrow)
    lattice = enumerate_cis(collared, context=context)
    assert lattice.exact is context.table.legal_exact


def test_eventual_range_examples(fib_handle, chacon):
    collared = collar(fib_handle, 1)
    full = frozenset(collared.legal)
    assert eventual_range(full, collared) == full
    deep = collar(chacon, 2)
    b_edge = sorted(e for e in deep.legal if e.startswith("b|"))[0]
    stable = eventual_range(frozenset({b_edge}), deep)
    assert stable  # a collared b-tile cycle survives
    assert cis_canonicalize(stable, deep) == frozenset()


def test_eventual_range_idempotent(fib_handle):
    collared = collar(fib_handle, 1)
    for edge in sorted(collared.legal):
        stable = eventual_range(frozenset({edge}), collared)
        assert eventual_range(stable, collared) == stable


def test_augmented_handle_eventual_range_is_not_invariant():
    sub = parse_substitution("a -> aab\nb -> ab\nc -> c\nd -> bca\n")
    collared = collar(sub, 2)
    gamma = frozenset({
        "a|abaab", "a|ababa", "a|ababc", "a|baaba", "a|bcaab", "a|caaba",
        "b|aabaa", "b|aabab", "b|babaa", "b|babca"})
    assert gamma <= set(collared.letters)
    assert eventual_range(gamma, collared) == gamma
    assert cis_canonicalize(gamma, collared) < gamma
    lattice = enumerate_cis(collared)
    assert gamma not in {n.edges for n in lattice.nodes}


def test_chacon_lattice_is_trivial(chacon):
    lattice = enumerate_cis(collar(chacon, 2))
    assert [n.name for n in lattice.nodes] == ["omega", "empty"]


def test_one_proper_cis():
    sub = parse_substitution("a -> aba\nb -> bbab\nc -> aa\n")
    lattice = enumerate_cis(collar(sub, 1))
    proper = nonempty_proper(lattice)
    assert len(proper) == 1
    # the proper subspace avoids the aa patch: no context contains aa
    letters = {e for e in proper[0].edges}
    for token in letters:
        context = token.split("|", 1)[1]
        assert "aa" not in context


def test_lattice_invariants(fib_handle):
    collared = collar(fib_handle, 1)
    lattice = enumerate_cis(collared)
    names = {n.name for n in lattice.nodes}
    by_name = {n.name: n for n in lattice.nodes}
    # distinctness and closure under union/intersection with canonicalization
    assert len({n.edges for n in lattice.nodes}) == len(lattice.nodes)
    context = CanonicalizeContext(collared)
    sets = {n.edges for n in lattice.nodes}
    for a in sets:
        for b in sets:
            assert context.canonicalize(a | b) in sets
            assert context.canonicalize(a & b) in sets
    # stability at the lattice power
    from substdyn.cis import edge_image
    for node in lattice.nodes:
        image = node.edges
        for _ in range(lattice.power):
            image = context.canonicalize(edge_image(image, collared))
        assert image == node.edges
    # leaflessness: within each nonempty node every edge extends both ways
    for node in lattice.nodes:
        if not node.edges:
            continue
        for token in node.edges:
            succ = [t for (s, t) in lattice.collared.transitions()
                    if s == token and t in node.edges]
            pred = [s for (s, t) in lattice.collared.transitions()
                    if t == token and s in node.edges]
            assert succ and pred
    assert ("empty", "omega") in lattice.order
    assert names == {"omega", "cis_1", "empty"}
    assert by_name["omega"].h0_rank == 1


def test_radius_stability(fib_handle, chacon):
    # lattices computed above the bounded-word bound agree with the bound;
    # canonical-but-drifting letter sets at higher radii are dropped with a
    # warning rather than reported as subspaces
    base = enumerate_cis(collar(fib_handle, 1))
    above = enumerate_cis(collar(fib_handle, 2))
    assert above.inclusion_h1_profile() == base.inclusion_h1_profile()
    assert above.quotient_h1_profile() == base.quotient_h1_profile()
    chacon_above = enumerate_cis(collar(chacon, 3))
    assert [len(n.edges) > 0 for n in chacon_above.nodes] == [True, False]
    assert chacon_above.nodes[0].h1_rank == 2
    assert any("not image-periodic" in w for w in chacon_above.warnings)


def test_two_trib_arrow_ranks():
    # long-exact-sequence predictions: restriction to the disjoint union of
    # the two minimal systems is injective (rank 6); restriction to either
    # system alone is onto (rank 3)
    sub = parse_substitution(
        "0 -> 0 2 0 1\n1 -> 0 0 1\n2 -> 0\n"
        "0b -> 0b 2b 0b 1b\n1b -> 0b 0b 1b\n2b -> 0b\nX -> 1 0b\n")
    lattice = enumerate_cis(collar(sub, 1))
    union_node = next(n for n in lattice.nodes if len(n.edges) == 14)
    arrows = {(a["from"], a["to"]): a["h1_map_rank"]
              for a in lattice.inclusion_arrows}
    assert arrows[(union_node.name, "omega")] == 6
    for node in lattice.nodes:
        if len(node.edges) == 7:
            assert arrows[(node.name, "omega")] == 3
            assert arrows[(node.name, union_node.name)] == 3


def test_swapped_pair_has_period_two_nodes():
    # images of {a,b} letters live in {c,d} and vice versa: the two systems
    # are exchanged by the substitution, so their subcomplexes are fixed only
    # by its square
    sub = parse_substitution("a -> cdc\nb -> cc\nc -> aba\nd -> aa\n")
    collared = collar(sub, 1)
    lattice = enumerate_cis(collared)
    assert lattice.power == 2
    middles = [n for n in lattice.nodes
               if n.edges and n.edges != lattice.nodes[0].edges]
    assert len(middles) == 2
    assert all(n.period == 2 for n in middles)
    assert middles[0].h1_rank == middles[1].h1_rank
    assert lattice.nodes[0].h0_rank == 2
    from substdyn.cis import CanonicalizeContext, edge_image
    context = CanonicalizeContext(collared)
    image = context.canonicalize(edge_image(middles[0].edges, collared))
    assert image == middles[1].edges


def test_wild_guard(wild_ab):
    with pytest.raises(WildInputError):
        enumerate_cis(collar(wild_ab, 1))


def test_diagram_compare_identity(fib_handle):
    lattice = enumerate_cis(collar(fib_handle, 1))
    comparison = diagram_compare(lattice, lattice)
    assert comparison.shape_isomorphic and comparison.profiles_match
    assert not comparison.distinguishable


def test_diagram_compare_tribonacci(fib_handle):
    lattice = enumerate_cis(collar(fib_handle, 1))
    trib = parse_substitution("0 -> 0201\n1 -> 001\n2 -> 0\n")
    trib_lattice = enumerate_cis(collar(trib, 1))
    comparison = diagram_compare(lattice, trib_lattice)
    assert not comparison.shape_isomorphic
    assert comparison.distinguishable
    assert "3 nodes" in comparison.witness or "nodes" in comparison.witness


def test_extend_substitution_solenoid():
    carrier = parse_substitution("0 -> 00100101\n1 -> 00101\n")
    handle = parse_substitution("a -> aa\n")
    extended = extend_substitution(carrier, handle, {"a": "0"},
                                   subsequences={"a": (4, 5)})
    assert extended.format_word(extended.rules["a"]) == "001aa101"
    assert extended.rules["0"] == carrier.rules["0"]
    # the result has exactly one nonempty proper invariant subspace
    from substdyn.classify import decide_tameness
    lattice = enumerate_cis(collar(extended, decide_tameness(extended).n_sigma))
    assert len(nonempty_proper(lattice)) == 1


def test_extend_single_handle(fib):
    handle = parse_substitution("x -> x\n")
    extended = extend_substitution(fib, handle, {"x": "0"})
    assert set(extended.alphabet) == {"0", "1", "x"}
    occurrences = [i for i, letter in enumerate(extended.rules["x"]) if letter == "x"]
    assert len(occurrences) == 1
    position = occurrences[0]
    assert 0 < position < len(extended.rules["x"]) - 1


def test_extend_errors(fib):
    handle = parse_substitution("x -> xx\n")
    with pytest.raises(SymbolError):
        extend_substitution(fib, handle, {"x": "0", "y": "1"})
    with pytest.raises(SubstdynError):
        extend_substitution(fib, handle, {"x": "0"}, subsequences={"x": (1, 2)},
                            power=1)
    wild = parse_substitution("a -> ab\nb -> b\n")
    with pytest.raises(SubstdynError):
        extend_substitution(wild, handle, {"x": "a"})


def _tame_corpus():
    from substdyn import corpus
    from substdyn.classify import decide_tameness
    out = []
    for name in corpus.names():
        sub = corpus.get(name)
        report = decide_tameness(sub)
        if report.tame and not report.empty_subshift:
            out.append((name, sub, report))
    return out


def test_context_tokens_match_reference():
    # the special vertices keep their own tokens, and each chain and pure
    # cycle carries the union of its vertices' tokens; all are checked
    # against tokens formatted vertex by vertex from the table's vertices
    checked = 0
    for name, sub, report in _tame_corpus():
        for radius in (report.n_sigma, report.n_sigma + 1):
            context = CanonicalizeContext(collar(sub, radius))
            tokens = reference_vertex_tokens(context)
            special, chains, cycles = reference_reduced_graph(context)

            def union(vertices):
                return frozenset().union(*(tokens[v] for v in vertices))

            assert context.special == special, (name, radius)
            assert context.vertex_tokens == {v: tokens[v] for v in special}, (name, radius)
            assert Counter(context.chains) == Counter(
                (head, tail, union(inside)) for head, tail, inside in chains), (name, radius)
            assert Counter(context.cycles) == Counter(map(union, cycles)), (name, radius)
            for e in context.edges:
                assert tokens[e[:-1]] | tokens[e[1:]] == reference_tokens_of(context, e), \
                    (name, radius, e)
            checked += 1
    assert checked >= 40


def test_context_keeps_tokens_of_special_vertices_only():
    # canonicalize reads the tokens of the special vertices alone; sigma_5
    # at its bounded-word radius keeps at most 8 of its 464 vertices'
    checked = 0
    for name, sub, report in _tame_corpus():
        context = CanonicalizeContext(collar(sub, report.n_sigma))
        assert list(context.vertex_tokens) == context.special, name
        if name == "sigma_5":
            assert len(context.table.legal_coded(context.order)) == 464
            assert len(context.vertex_tokens) <= 8
            checked += 1
    assert checked == 1


def test_context_reuses_only_the_table_it_would_build(fib_handle):
    from substdyn import language
    from substdyn.classify import decide_tameness
    report = decide_tameness(fib_handle)
    collared = collar(fib_handle, report.n_sigma)
    own = CanonicalizeContext(collared)
    length = own.table.max_length
    # outside a session every context builds its own table
    assert CanonicalizeContext(collared).table is not own.table
    with language.session():
        wider = language.table_for(fib_handle, length, margin=own.table.margin + 5)
        shared = CanonicalizeContext(collared)
        assert shared.table is language.table_for(fib_handle, length)
        assert shared.table is not wider
        assert CanonicalizeContext(collared).table is shared.table
    assert (shared.table.max_length, shared.table.margin) == (length, own.table.margin)
    assert shared.vertex_tokens == own.vertex_tokens and shared.edges == own.edges
    assert (shared.chains, shared.cycles) == (own.chains, own.cycles)


def _analyze_contexts(monkeypatch):
    """Every context that ``analyze`` builds over the corpus, in order."""
    from substdyn import cli
    contexts = []
    build = CanonicalizeContext.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(CanonicalizeContext, "__init__", recording)
    for name in CORPUS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["analyze", f"corpus:{name}"])
    monkeypatch.undo()
    return contexts


def _canonicalize_inputs(context, lattice, rng):
    """Single-token deletions from every lattice node, every pair's union
    and meet, each node's edge image, and seeded random subsets."""
    nodes = [node.edges for node in lattice.nodes]
    inputs = [node - {e} for node in nodes for e in sorted(node)]
    for a, b in itertools.combinations(nodes, 2):
        inputs += [a | b, a & b]
    inputs += [edge_image(node, context.collared) for node in nodes]
    letters = sorted(context.collared.legal)
    for _ in range(20):
        density = rng.random()
        inputs.append(frozenset(e for e in letters if rng.random() < density))
    return inputs


def _shapes(context, keep):
    """The reduced-graph shapes one canonicalization of ``keep`` exercises,
    read off the reference reduced graph and tokens."""
    tokens = reference_vertex_tokens(context)
    special, chains, cycles = reference_reduced_graph(context)

    def inside(vertices):
        return all(tokens[v] <= keep for v in vertices)

    alive = {v for v in special if tokens[v] <= keep}
    live = [(head, tail) for head, tail, internal in chains
            if head in alive and tail in alive and inside(internal)]
    live_cycle = any(inside(cycle) for cycle in cycles)
    shapes = set()
    if live_cycle:
        shapes.add("pure cycle beside special vertices" if special
                   else "pure cycle alone")
    if any(head == tail for head, tail in live):
        shapes.add("self-loop chain")
    if len(set(live)) < len(live):
        shapes.add("parallel chains")
    if tokens and not alive and not live_cycle:
        shapes.add("empty vertex set")
    return shapes


def test_canonicalize_matches_per_vertex_reference(monkeypatch):
    corpus_contexts = _analyze_contexts(monkeypatch)
    assert len(corpus_contexts) == 25
    cases = [(context, enumerate_cis(context.collared, context=context))
             for context in corpus_contexts]
    # the first 50 tame seeded rules at radius at most 2; the 49th has a
    # pure cycle beside special vertices
    cases += [(CanonicalizeContext(collared), lattice) for collared, lattice
              in tame_lattices(SUBSTITUTIONS, 50, radius_cap=2, max_letters=600)]
    rng = random.Random(20261018)
    shapes = set()
    checked = 0
    for context, lattice in cases:
        for keep in _canonicalize_inputs(context, lattice, rng):
            assert context.canonicalize(keep) == reference_canonicalize(context, keep)
            shapes |= _shapes(context, keep)
            checked += 1
    assert shapes == {"pure cycle alone", "pure cycle beside special vertices",
                      "self-loop chain", "parallel chains", "empty vertex set"}
    assert checked >= 3000


def test_canonicalize_trims_only_special_vertices(monkeypatch):
    # sigma_5 at its bounded-word radius has 464 Rauzy vertices, of which 8
    # are special, joined by 12 chains; trimming per vertex would pass all
    # 464 (or those alive) to the trimming routine
    from substdyn.classify import decide_tameness
    sub = CORPUS["sigma_5"].substitution()
    report = decide_tameness(sub)
    collared = collar(sub, report.n_sigma)
    context = CanonicalizeContext(collared)
    assert (report.n_sigma, len(context.table.legal_coded(context.order))) == (6, 464)
    assert len(context.special) <= 8 and len(context.chains) <= 12
    trimmed = []
    trim = cis.biinfinite_path_nodes

    def counting(nodes, succ, pred):
        nodes = list(nodes)
        trimmed.append(len(nodes))
        return trim(nodes, succ, pred)

    monkeypatch.setattr(cis, "biinfinite_path_nodes", counting)
    enumerate_cis(collared, context=context)
    monkeypatch.undo()
    assert trimmed and max(trimmed) <= len(context.special)


@pytest.fixture(scope="module")
def lattice_cases():
    """Lattices of every tame corpus entry at its bounded-word radius, and
    of the first 40 seeded tame rules at radius at most 2."""
    corpus = tame_lattices([entry.substitution() for entry in CORPUS.values()],
                           len(CORPUS))
    seeded = tame_lattices(SUBSTITUTIONS, 40, radius_cap=2, max_letters=600)
    return corpus, seeded


def test_node_and_quotient_h1_match_reference(lattice_cases):
    checked = 0
    for collared, lattice in lattice_cases[0] + lattice_cases[1]:
        graph = lattice.complex.graph
        # nothing collapsed: the quotient is the graph on its touched vertices
        assert quotient_multigraph(graph, frozenset()) == \
            _sub_multigraph(graph, graph.edges)
        quotients = reference_quotient_ranks(lattice)
        for node in lattice.nodes:
            if node.edges:
                paths = {e: collared.sub.iterate((e,), lattice.power) for e in node.edges}
                assert node.h1 == reference_graph_h1(
                    _sub_multigraph(graph, node.edges), paths)
                checked += 1
            q0, q1, q_graph, q_h1 = quotients[node.name]
            assert (node.quotient_h0, node.quotient_h1_rank) == (q0, q1), node.name
            if q_graph.edges:
                paths = {e: collared.sub.iterate((e,), lattice.power) for e in q_graph.edges}
                assert q_h1 == reference_graph_h1(q_graph, paths)
                checked += 1
    assert checked >= 150


def test_inclusion_arrows_match_limit_map_oracle(lattice_cases):
    corpus, seeded = lattice_cases
    for _, lattice in corpus + seeded:
        graph = lattice.complex.graph
        for arrow in lattice.inclusion_arrows:
            small = node_named(lattice, arrow["from"])
            big = node_named(lattice, arrow["to"])
            s_graph = _sub_multigraph(graph, small.edges) if small.edges else None
            b_graph = _sub_multigraph(graph, big.edges)
            assert arrow["h1_map_rank"] == limit_map_rank(
                small.h1, s_graph, big.h1, b_graph, lambda vec: vec)
            # components of the larger node met by the smaller one
            uf = UnionFind()
            for e in big.edges:
                uf.union(graph.source[e], graph.target[e])
            met = {uf.find(graph.source[e]) for e in small.edges} | \
                  {uf.find(graph.target[e]) for e in small.edges}
            assert arrow["h0_map_rank"] == len(met)
    assert sum(len(lattice.inclusion_arrows) for _, lattice in corpus) == 148


def test_long_exact_sequence_of_each_node(lattice_cases):
    # the exact sequence of the pair (omega, node), with H^k(omega, node)
    # the reduced cohomology of the quotient, forces over Q:
    # (q0 - 1) - h0(omega) + h0(node) - q1 + h1(omega) - h1(node) = 0,
    # with q0 and q1 read off each quotient graph
    corpus, seeded = lattice_cases
    checked = 0
    for _, lattice in corpus + seeded:
        omega = lattice.nodes[0]
        quotients = reference_quotient_ranks(lattice)
        for node in nonempty_proper(lattice):
            q0, q1 = quotients[node.name][:2]
            assert (q0 - 1) - omega.h0_rank + node.h0_rank \
                - q1 + omega.h1_rank - node.h1_rank == 0, node.name
            checked += 1
    assert sum(len(nonempty_proper(lattice)) for _, lattice in corpus) == 34
    assert checked > 34


def fibonacci_sum(copies):
    """The direct sum of ``copies`` Fibonacci rules on disjoint alphabets;
    its lattice is Boolean, with 2^copies nodes."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:2 * copies]
    return parse_substitution("".join(f"{x} -> {x}{y}\n{y} -> {x}\n"
                                      for x, y in zip(letters[::2], letters[1::2])))


def test_hasse_pairs_match_the_scan(lattice_cases):
    from substdyn.classify import decide_tameness
    corpus, _ = lattice_cases
    lattices = [lattice for _, lattice in corpus]
    assert len(lattices) == 25
    sub = fibonacci_sum(6)
    lattices.append(enumerate_cis(collar(sub, decide_tameness(sub).n_sigma)))
    assert len(lattices[-1].nodes) == 64
    for lattice in lattices:
        assert cis._hasse_pairs(lattice) == hasse_pairs(lattice)
    # a Boolean lattice on six atoms: each node covers one node per atom it holds
    assert len(hasse_pairs(lattices[-1])) == 6 * 2 ** 5


def assert_quotients_match_oracle(lattice):
    """Every node's quotient ranks and every quotient arrow equal those
    read off the quotient graphs; the number of arrows checked."""
    quotients = reference_quotient_ranks(lattice)
    for node in lattice.nodes:
        assert (node.quotient_h0, node.quotient_h1_rank) == quotients[node.name][:2]
    for arrow in lattice.quotient_arrows:
        small, big = node_named(lattice, arrow["from"]), node_named(lattice, arrow["to"])
        _, _, s_graph, s_h1 = quotients[small.name]
        _, _, b_graph, b_h1 = quotients[big.name]

        def project(vec, extra=big.edges):
            # the map collapsing the extra edges
            return {e: c for e, c in vec.items() if e not in extra}

        assert arrow["h1_map_rank"] == limit_map_rank(s_h1, s_graph, b_h1, b_graph, project)
    return len(lattice.quotient_arrows)


def test_quotient_arrows_match_per_pair_reference(lattice_cases):
    corpus, seeded = lattice_cases
    checked = sum(assert_quotients_match_oracle(lattice) for _, lattice in corpus + seeded)
    assert sum(len(lattice.quotient_arrows) for _, lattice in corpus) == 148
    assert checked > 148


def test_enumerate_presents_each_edge_set_once_and_takes_no_rank(monkeypatch):
    # the quotients are read off the exact sequences, so only the nodes and
    # the whole complex get an H1 presentation, once per edge set, and no
    # matrix rank is taken
    from substdyn.classify import decide_tameness
    presented, ranks = [], []
    present, rank = cis.graph_h1, intlin.rank

    def counting_h1(graph, on_edges):
        presented.append(frozenset(graph.edges))
        return present(graph, on_edges)

    def counting_rank(matrix):
        ranks.append(len(matrix))
        return rank(matrix)

    monkeypatch.setattr(cis, "graph_h1", counting_h1)
    monkeypatch.setattr(intlin, "rank", counting_rank)
    checked = 0
    for entry in CORPUS.values():
        sub = entry.substitution()
        report = decide_tameness(sub)
        if report.empty_subshift or not report.tame:
            continue
        presented.clear()
        lattice = enumerate_cis(collar(sub, report.n_sigma))
        allowed = {node.edges for node in lattice.nodes if node.edges}
        allowed.add(frozenset(lattice.complex.edges))
        assert len(presented) == len(set(presented)), entry.name
        assert set(presented) <= allowed, entry.name
        checked += 1
    assert checked == 25
    assert ranks == []


def fibonacci_sum_summands(collared, copies):
    """Per summand of ``fibonacci_sum(copies)``, its collared letters."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:2 * copies]
    out = [set() for _ in range(copies)]
    for e in collared.legal:
        out[letters.index(collared.letters[e].center) // 2].add(e)
    return [frozenset(s) for s in out]


@pytest.mark.parametrize("copies", [2, 3, 4, 5, 6])
def test_fibonacci_sum_known_answers(copies):
    # the direct sum of k Fibonacci rules: a node made of j summands has
    # j components and H1 rank 2j, its quotient is a wedge of the other
    # k - j summands beside the collapsed one, so (q0, q1) =
    # (k - j + 1, 2(k - j)), and the empty node's quotient is the whole
    # complex, (k, 2k).  Collapsing more summands only kills the quotient's
    # cycles of those summands, so a quotient arrow into a node of b
    # summands has rank 2(k - b)
    from substdyn.classify import decide_tameness
    k = copies
    sub = fibonacci_sum(k)
    collared = collar(sub, decide_tameness(sub).n_sigma)
    lattice = enumerate_cis(collared)
    summands = fibonacci_sum_summands(collared, k)
    assert len(lattice.nodes) == 2 ** k
    count = {}
    for node in lattice.nodes:
        held = [s for s in summands if s <= node.edges]
        assert node.edges == frozenset().union(*held)
        j = count[node.name] = len(held)
        if node.edges:
            expected = (j, 2 * j, k - j + 1, 2 * (k - j))
        else:
            expected = (0, 0, k, 2 * k)
        assert (node.h0_rank, node.h1_rank, node.quotient_h0,
                node.quotient_h1_rank) == expected, node.name
    for arrow in lattice.inclusion_arrows:
        j = count[arrow["from"]]
        assert (arrow["h0_map_rank"], arrow["h1_map_rank"]) == (j, 2 * j)
    for arrow in lattice.quotient_arrows:
        assert arrow["h1_map_rank"] == 2 * (k - count[arrow["to"]])
    assert len(lattice.quotient_arrows) == 3 ** k - 2 ** k


class InsideNode:
    """A canonicalization confined to one node's edges: still monotone,
    deflationary and idempotent, so its lattice is the part of the
    context's below that node, whose top then omits legal letters."""

    def __init__(self, inner, edges):
        self.inner, self.edges, self.exact = inner, edges, inner.exact

    def canonicalize(self, edge_set):
        return self.inner.canonicalize(frozenset(edge_set) & self.edges)


@pytest.mark.parametrize("name", ["two_components", "fib_plus_fixed",
                                  "two_trib_bridge", "fib_handle"])
def test_quotients_are_of_the_whole_complex_when_the_top_omits_letters(name):
    from substdyn.classify import decide_tameness
    sub = CORPUS[name].substitution()
    collared = collar(sub, decide_tameness(sub).n_sigma)
    context = CanonicalizeContext(collared)
    inside = enumerate_cis(collared, context=context).nodes[1]
    assert inside.edges
    lattice = enumerate_cis(collared, context=InsideNode(context, inside.edges))
    assert lattice.nodes[0].edges == inside.edges < frozenset(lattice.complex.edges)
    assert any("the top node omits them" in w for w in lattice.warnings)
    assert assert_quotients_match_oracle(lattice) > 0


def test_closure_pass_adds_no_node(lattice_cases, monkeypatch):
    # the pairwise closure pass, run on each deletion closure (every set
    # whose period enumerate_cis asks for), finds nothing to add; nor does
    # it on the nodes kept, so their join is the union, as the compare
    # through join-irreducibles needs
    corpus, seeded = lattice_cases
    family = []
    period = cis.image_period

    def recording(edges, collared, context):
        family.append(edges)
        return period(edges, collared, context)

    monkeypatch.setattr(cis, "image_period", recording)
    for collared, lattice in corpus + seeded:
        context = CanonicalizeContext(collared)
        family.clear()
        assert enumerate_cis(collared, context=context).nodes == lattice.nodes
        assert {node.edges for node in lattice.nodes} <= set(family)
        assert closure_additions(family, context) == []
        assert closure_additions([node.edges for node in lattice.nodes], context) == []
    assert len(corpus) == 25


@pytest.mark.parametrize("name", ["fib_handle", "mixed_types"])
def test_each_node_subgraph_is_built_once(name, monkeypatch):
    from substdyn.classify import decide_tameness
    sub = CORPUS[name].substitution()
    collared = collar(sub, decide_tameness(sub).n_sigma)
    built = []
    build = cis._sub_multigraph

    def counting(graph, edges):
        built.append(frozenset(edges))
        return build(graph, edges)

    monkeypatch.setattr(cis, "_sub_multigraph", counting)
    lattice = enumerate_cis(collared)
    nonempty = [node.edges for node in lattice.nodes if node.edges]
    assert len(nonempty) >= 2
    assert sorted(built, key=sorted) == sorted(nonempty, key=sorted)


def set_lattice(sets, marked=None):
    """The lattice of the given edge sets under inclusion, with node names
    as ``enumerate_cis`` gives them.  Each node's H0 rank records whether
    it holds ``marked``, a label that no order isomorphism needs to keep."""
    sets = sorted({frozenset(k) for k in sets}, key=lambda k: (-len(k), tuple(sorted(k))))
    nodes = [CISNode(name="omega" if i == 0 else "empty" if not k else f"cis_{i}",
                     edges=k, period=1, h0_rank=int(marked in k), h1=None,
                     quotient_h0=0, quotient_h1_rank=0)
             for i, k in enumerate(sets)]
    order = [(a.name, b.name) for a in nodes for b in nodes if a.edges < b.edges]
    return CISLattice(collared=None, complex=None, nodes=nodes, order=order,
                      power=1, inclusion_arrows=[], quotient_arrows=[], exact=True)


def down_set_lattice(elements, below):
    """The lattice of down-sets of a poset, whose strict pairs (x, y) with
    x < y are ``below``; the first element is marked."""
    return set_lattice([s for r in range(len(elements) + 1)
                        for s in itertools.combinations(elements, r)
                        if all(x in s for x, y in below if y in s)],
                       marked=elements[0])


def _posets(elements):
    """Every partial order on the elements, as its set of strict pairs."""
    pairs = [(x, y) for x in elements for y in elements if x != y]
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, chosen) if keep}
        if all((y, x) not in rel for x, y in rel) and \
                all((x, z) in rel for x, y in rel for w, z in rel if y == w):
            yield rel


def test_compare_through_join_irreducibles_matches_all_bijections(lattice_cases):
    lattices = [lattice for _, lattice in lattice_cases[0] + lattice_cases[1]]
    # the down-set lattices of every poset on at most three points, for
    # equal-size pairs that are not isomorphic
    for size in (1, 2, 3):
        lattices += [down_set_lattice("xyz"[:size], rel) for rel in _posets("xyz"[:size])]
    outcomes = set()
    pairs = 0
    for first, second in itertools.product(lattices, repeat=2):
        if len(first.nodes) != len(second.nodes) or len(first.nodes) > 8:
            continue
        labels = ([_node_label(n) for n in first.nodes],
                  [_node_label(n) for n in second.nodes])
        for given in (None, labels):
            found = _order_isomorphism_exists(first.nodes, first.order,
                                              second.nodes, second.order, given)
            assert found == permutation_order_isomorphism_exists(
                first.nodes, first.order, second.nodes, second.order, given)
            outcomes.add((given is None, found))
        pairs += 1
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    assert pairs >= 2700


def test_compare_of_twenty_node_lattices_tries_few_bijections(monkeypatch):
    # the down-sets of V + {d, e} and of its dual, Lambda + {d, e}: 20 nodes
    # each, not isomorphic; trying every node bijection would take 20!
    v_shape = down_set_lattice("xyzde", {("x", "y"), ("x", "z")})
    dual = down_set_lattice("xyzde", {("y", "x"), ("z", "x")})
    renamed = down_set_lattice("zyxed", {("z", "y"), ("z", "x")})
    assert len(v_shape.nodes) == len(dual.nodes) == 20
    tried = []
    permutations = itertools.permutations

    def counting(*args):
        for perm in permutations(*args):
            tried.append(perm)
            if len(tried) > 10 ** 5:
                raise AssertionError("more than 10^5 bijections tried")
            yield perm

    monkeypatch.setattr(cis.itertools, "permutations", counting)
    assert not diagram_compare(v_shape, dual).shape_isomorphic
    assert diagram_compare(v_shape, renamed).shape_isomorphic
    assert len(tried) <= 10 ** 5


def test_compare_checks_the_order_of_each_bijection():
    # the pentagon and a square on a one-step tail: both are closed under
    # union and have three join-irreducibles, and one bijection of those
    # extends by unions to a bijection of the nodes that is not an order
    # isomorphism
    pentagon = set_lattice([(), (1,), (1, 3), (2, 3), (1, 2, 3)])
    tailed_square = set_lattice([(), (1,), (0, 1), (1, 3), (0, 1, 3)])
    assert not diagram_compare(pentagon, tailed_square).shape_isomorphic
    assert not permutation_order_isomorphism_exists(
        pentagon.nodes, pentagon.order, tailed_square.nodes, tailed_square.order)
