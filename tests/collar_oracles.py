"""Collar helpers that only the tests use, as oracles: forgetting collars
down to a smaller radius, as a checked collared substitution and as a
token map, and forgetting them altogether.
"""

from substdyn.collar import CollaredLetter, CollaredSubstitution, collar
from substdyn.core import Substitution
from substdyn.errors import PaddingError


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
