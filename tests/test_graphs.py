import random

from substdyn.graphs import biinfinite_path_nodes

from conftest import reference_biinfinite_path_nodes


def random_digraph(rng):
    """Nodes 0..n-1 and an edge list with self-loops, parallel edges,
    sources, sinks and isolated nodes all likely."""
    n = rng.randint(1, 12)
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        edges.extend([(u, v)] * (2 if rng.random() < 0.2 else 1))
    return list(range(n)), edges


def adjacency(nodes, edges):
    succ = {v: [] for v in nodes}
    pred = {v: [] for v in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def test_trimming_matches_cycle_closure_reference():
    rng = random.Random(20261018)
    seen = {"self_loop": 0, "parallel": 0, "source": 0, "sink": 0,
            "isolated": 0, "nonempty": 0, "empty": 0}
    for _ in range(3000):
        nodes, edges = random_digraph(rng)
        succ, pred = adjacency(nodes, edges)
        expected = reference_biinfinite_path_nodes(nodes, succ.__getitem__,
                                                   pred.__getitem__)
        assert biinfinite_path_nodes(nodes, succ.__getitem__,
                                     pred.__getitem__) == expected, (nodes, edges)
        # the answer does not depend on the order of the nodes
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        assert biinfinite_path_nodes(shuffled, succ.__getitem__,
                                     pred.__getitem__) == expected
        seen["self_loop"] += any(u == v for u, v in edges)
        seen["parallel"] += len(set(edges)) < len(edges)
        seen["source"] += any(succ[v] and not pred[v] for v in nodes)
        seen["sink"] += any(pred[v] and not succ[v] for v in nodes)
        seen["isolated"] += any(not succ[v] and not pred[v] for v in nodes)
        seen["nonempty" if expected else "empty"] += 1
    assert min(seen.values()) >= 100, seen


def test_trimming_examples():
    # a path into a cycle, a cycle out to a path, and a bridge between two
    # self-loops: only the sources' and sinks' tails are trimmed
    edges = [(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (5, 5), (5, 6), (6, 7), (7, 7)]
    succ, pred = adjacency(range(8), edges)
    assert biinfinite_path_nodes(range(8), succ.__getitem__,
                                 pred.__getitem__) == {2, 3, 5, 6, 7}
    succ, pred = adjacency(range(3), [(0, 1), (1, 2), (0, 1)])
    assert biinfinite_path_nodes(range(3), succ.__getitem__, pred.__getitem__) == set()
