"""Graph helpers: a union-find, and the nodes of a finite directed graph
that lie on bi-infinite paths, found by trimming.  Both are iterative, and
their results depend only on the nodes and edges passed in.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return groups


def biinfinite_path_nodes(nodes, succ, pred):
    """Nodes through which a bi-infinite path runs.

    In a finite graph these are the nodes that survive trimming: delete
    every node with no successor or no predecessor among the nodes left,
    and repeat until none can be deleted.  By induction a deleted node lies
    on no bi-infinite path: all its successors, or all its predecessors,
    were deleted before it.  Every node left has a successor and a
    predecessor that are left, so a path through it extends both ways
    forever.  One queue and
    two degree counters do the trimming in time linear in the graph.

    ``succ`` and ``pred`` must describe the same edges (an edge u -> v is
    listed once in ``succ(u)`` and once in ``pred(v)``, parallel edges and
    self-loops included), between the given nodes only."""
    nodes = list(nodes)
    out_degree = {v: len(succ(v)) for v in nodes}
    in_degree = {v: len(pred(v)) for v in nodes}
    queue = [v for v in nodes if not out_degree[v] or not in_degree[v]]
    removed = set(queue)
    while queue:
        node = queue.pop()
        for child in succ(node):
            if child not in removed:
                in_degree[child] -= 1
                if not in_degree[child]:
                    removed.add(child)
                    queue.append(child)
        for parent in pred(node):
            if parent not in removed:
                out_degree[parent] -= 1
                if not out_degree[parent]:
                    removed.add(parent)
                    queue.append(parent)
    return {v for v in nodes if v not in removed}
