"""Closed-invariant-subspace helpers that only the tests use, as oracles:
one-shot canonicalization, the canonicalizations of every edge subset, and
the eventual range of the induced image map.
"""

from substdyn.apcomplex import build_complex
from substdyn.cis import CanonicalizeContext, Subcomplex, edge_image
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
