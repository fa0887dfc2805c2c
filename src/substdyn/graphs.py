"""Small graph utilities: union-find, strongly connected components,
reachability closures, and the nodes on bi-infinite paths (by trimming).
All iterative; node order is whatever the caller passes in, so results are
deterministic for deterministic input order.
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


def strongly_connected_components(nodes, succ):
    """Tarjan's algorithm, iterative.  Returns a list of components (lists of
    nodes); within a component, nodes appear in discovery order."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(succ(start)))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ(child))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.reverse()
                components.append(component)
    return components


def cyclic_nodes(nodes, succ):
    """Nodes lying on some directed cycle: members of an SCC with an internal
    edge (size > 1, or a self-loop)."""
    result = set()
    for component in strongly_connected_components(nodes, succ):
        if len(component) > 1:
            result.update(component)
        else:
            node = component[0]
            if node in succ(node):
                result.add(node)
    return result


def forward_closure(seeds, succ):
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        for child in succ(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


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
