"""Collar helpers that only the tests use, as oracles: forgetting collars
down to a smaller radius, as a checked collared substitution and as a
token map, and forgetting them altogether; and the token-based
construction that the coded collar replaced, as the reference it is
compared with: the closure over formatted tokens, the transitions, the
vertex labels parsed back out of the tokens, and border forcing from whole
supertiles.
"""

from substdyn.classify import classify_letters, decide_tameness
from substdyn.collar import (CollaredLetter, CollaredSubstitution, check_budget,
                             collar)
from substdyn.core import Substitution
from substdyn.errors import BorderForcingError, InconsistentRuleError, PaddingError
from substdyn.graphs import UnionFind
from substdyn.language import table_for


def decollar_rules(collared: CollaredSubstitution) -> Substitution:
    """Forget all collars; recovers the base substitution on the letters
    that carry collared versions."""
    base = collared.base
    letters = sorted({cl.center for cl in collared.letters.values()},
                     key=base.letter_index)
    return Substitution([(a, base.rules[a]) for a in letters], alphabet=tuple(letters))


def forget(collared: CollaredSubstitution, target_radius: int) -> CollaredSubstitution:
    """Truncate contexts symmetrically down to the target radius; the result
    agrees letterwise with collaring directly at that radius."""
    n, m = collared.radius, target_radius
    if not 0 <= m <= n:
        raise ValueError("target radius must satisfy 0 <= m <= n")
    if m == n:
        return collared
    fresh = collar(collared.base, m, padding=collared.padding)
    trim = n - m

    def drop(cl: CollaredLetter) -> str:
        return CollaredLetter(cl.center, cl.context[trim:len(cl.context) - trim]
                              ).token(collared.base)

    # consistency of the projection: truncated rules must agree with the
    # directly built radius-m rules
    for tok, cl in collared.letters.items():
        target = drop(cl)
        if target not in fresh.letters:
            raise PaddingError(f"forgetful image {target} missing at radius {m}")
        image = tuple(drop(collared.letters[t]) for t in collared.sub.rules[tok])
        if image != fresh.sub.rules[target]:
            raise PaddingError(f"forgetful map does not intertwine at {tok}")
    return fresh


def forgetful_map(collared: CollaredSubstitution, target_radius: int) -> dict[str, str]:
    """Token-level forgetful map from radius n to radius m <= n."""
    n, m = collared.radius, target_radius
    trim = n - m
    out = {}
    for tok, cl in collared.letters.items():
        out[tok] = CollaredLetter(cl.center,
                                  cl.context[trim:len(cl.context) - trim]
                                  ).token(collared.base)
    return out


def _reference_image_letters(sub: Substitution, letter: CollaredLetter, radius: int):
    """Collared letters of the induced image: the image of the center read
    inside the image of the context at the center offset."""
    context_image = sub.apply(letter.context)
    offset = len(sub.apply(letter.context[:radius]))
    out = []
    for i in range(len(sub.rules[letter.center])):
        pos = offset + i
        window = context_image[pos - radius:pos + radius + 1]
        out.append(CollaredLetter(context_image[pos], window))
    return out


def reference_collar(base: Substitution, radius: int, padding: str | None = None,
                     max_letters: int | None = None) -> CollaredSubstitution:
    """The closure over formatted tokens, with a first-in first-out
    worklist, and the alphabet sorted by (context indices, center index).
    Two letters of one token merge silently here."""
    if padding is None:
        padding = base.alphabet[0]
    table = table_for(base, 2 * radius + 2)
    legal_letters = [CollaredLetter(w[radius], w) for w in table.legal(2 * radius + 1)]
    legal_base_letters = {w[0] for w in table.legal(1)}
    padded = [CollaredLetter(a, ((padding,) * radius) + (a,) + ((padding,) * radius))
              for a in base.alphabet if a not in legal_base_letters]
    known: dict[str, CollaredLetter] = {}
    worklist = []
    for cl in legal_letters + padded:
        tok = cl.token(base)
        if tok not in known:
            check_budget(len(known) + 1, max_letters)
            known[tok] = cl
            worklist.append(cl)
    rules: dict[str, tuple[str, ...]] = {}
    while worklist:
        cl = worklist.pop(0)
        image_tokens = []
        for img in _reference_image_letters(base, cl, radius):
            itok = img.token(base)
            if itok not in known:
                check_budget(len(known) + 1, max_letters)
                known[itok] = img
                worklist.append(img)
            image_tokens.append(itok)
        rules[cl.token(base)] = tuple(image_tokens)

    def sort_key(tok):
        cl = known[tok]
        return (tuple(base.letter_index(x) for x in cl.context),
                base.letter_index(cl.center))

    alphabet = tuple(sorted(known, key=sort_key))
    return CollaredSubstitution(
        base=base, radius=radius, padding=padding,
        sub=Substitution([(t, rules[t]) for t in alphabet], alphabet=alphabet),
        letters=dict(known),
        legal=frozenset(cl.token(base) for cl in legal_letters),
        from_padding=frozenset(cl.token(base) for cl in padded),
        table=table,
        tokens={base.encode(cl.context): tok for tok, cl in known.items()})


def reference_transitions(collared: CollaredSubstitution) -> list[tuple[str, str]]:
    """Legal collared 2-words as token pairs, each token formatted from the
    decoded legal (2n+2)-word."""
    n = collared.radius
    pairs = set()
    for word in collared.table.legal(2 * n + 2):
        pairs.add((CollaredLetter(word[n], word[:2 * n + 1]).token(collared.base),
                   CollaredLetter(word[n + 1], word[1:]).token(collared.base)))
    return sorted(pairs)


def reference_build_graph(edges, transitions):
    """(source, target, vertex labels) with ("out", token) and ("in", token)
    ports, vertices sorted by the reprs of their ports, and labels parsed
    back out of the tokens by splitting at ``|`` and ``.``.  The parse is
    right only when no letter holds ``.`` or ``|`` and, at radius 0, every
    letter is one character (it splits a lone letter ``aa`` into ``a``,
    ``a``)."""
    uf = UnionFind()
    for e in edges:
        uf.add(("out", e))
        uf.add(("in", e))
    for left, right in transitions:
        uf.union(("out", left), ("in", right))
    classes = uf.classes()
    roots = sorted(classes, key=lambda r: sorted(map(repr, classes[r])))
    labels = []
    root_index = {}
    used = {}
    for root in roots:
        root_index[root] = len(labels)
        words = set()
        for kind, edge in classes[root]:
            body = edge.split("|", 1)[1]
            parts = body.split(".") if "." in body else list(body)
            words.add("".join(parts[1:]) if kind == "out" else "".join(parts[:-1]))
        label = words.pop() if len(words) == 1 else None
        if not label:
            label = "v"
        count = used.get(label, 0)
        used[label] = count + 1
        labels.append(label if count == 0 else f"{label}#{count}")
    source = {e: root_index[uf.find(("in", e))] for e in edges}
    target = {e: root_index[uf.find(("out", e))] for e in edges}
    return source, target, tuple(labels)


def reference_border_forcing_level(collared: CollaredSubstitution) -> int:
    """The level from the lengths of the decoded iterates sigma^k(a), and
    the flanks from every legal letter's whole level-k supertile."""
    base = collared.base
    report = decide_tameness(base)
    if not report.tame:
        raise BorderForcingError("border forcing requires a tame substitution")
    n_sigma = report.n_sigma
    if collared.radius < n_sigma:
        raise BorderForcingError(
            f"radius {collared.radius} below the bounded-word bound {n_sigma}")
    classification = classify_letters(base)
    k = 1
    while not all(len(base.iterate((a,), k)) > n_sigma for a in classification.expanding):
        k += 1
        if k > 64:
            raise BorderForcingError("no expanding letter outgrows the bound")
    preds = {tok: set() for tok in collared.legal}
    succs = {tok: set() for tok in collared.legal}
    for left, right in reference_transitions(collared):
        succs[left].add(right)
        preds[right].add(left)
    supertile = {tok: collared.sub.iterate((tok,), k) for tok in collared.legal}
    for tok in sorted(collared.legal):
        left_flanks = {supertile[p][-1] for p in preds[tok]}
        right_flanks = {supertile[s][0] for s in succs[tok]}
        if len(left_flanks) != 1 or len(right_flanks) != 1:
            raise BorderForcingError(
                f"supertile of {tok} admits non-unique flanking letters at level {k}")
    return k


def reference_induced_map(collared: CollaredSubstitution, complex_, power: int = 1):
    """(edge -> path, vertex -> image) from each edge's decoded iterate,
    with the three consistency checks."""
    graph = complex_.graph
    on_edges = {}
    for e in complex_.edges:
        path = tuple(collared.sub.iterate((e,), power))
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
    return on_edges, on_vertices
