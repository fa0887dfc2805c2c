"""Primitivization helpers that only the tests use, as oracles: the
token-based conjugacy check that the coded ``verify_conjugacy`` replaced.
It decodes every theta window, maps it through h letter by letter, parses
it into (gamma letter, offset) codes, and checks intertwining window by
window on a freshly built sigma^(N*lift), comparing joined token strings.
"""

import itertools

from substdyn.core import Substitution, Word
from substdyn.errors import EmptySubshiftError
from substdyn.language import table_for
from substdyn.primitivize import (ConjugacyReport, ConjugateSubstitution, _gamma_token,
                                  _zeta_token)


def _occurrences(word: Word, letter: str) -> list[int]:
    return [i for i, x in enumerate(word) if x == letter]


def parse_return_positions(word: Word, seed_letter: str, by_word: dict[Word, str]):
    """Sliding-block parse of a window: positions covered by a complete
    return word get the (gamma letter, offset) code; others get None."""
    positions = _occurrences(word, seed_letter)
    codes: list[tuple[str, int] | None] = [None] * len(word)
    for idx in range(len(positions) - 1):
        start, end = positions[idx], positions[idx + 1]
        block = word[start:end]
        gamma = by_word.get(block)
        if gamma is None:
            return None  # not a return word: window corrupt
        for offset in range(end - start):
            codes[start + offset] = (gamma, offset + 1)
    return codes


def reference_verify_conjugacy(sub: Substitution, cs: ConjugateSubstitution,
                               depth: int = 6) -> ConjugacyReport:
    """Sampled checks that h carries the refined subshift onto the original
    one: h-images of legal windows are legal, the sliding-block parse
    inverts h on window interiors, and the parse intertwines sigma^(N*lift)
    with theta."""
    ds = cs.derived
    rws = ds.system
    n_total = rws.power * cs.power_lift
    theta = cs.theta
    theta_table = table_for(theta, depth)
    if theta_table.empty_subshift:
        raise EmptySubshiftError("refined substitution has an empty subshift")
    table = table_for(sub, depth * cs.p_block_size + len(rws.head) + 2)
    by_word = {v: _gamma_token(sub, v) for v in rws.return_words}
    power_sub = sub.power(n_total)
    checks = {"h_legal": 0, "parse_inverts": 0, "intertwine": 0}
    windows = 0
    for z_word in theta_table.legal(depth):
        windows += 1
        image = tuple(cs.h[z] for z in z_word)
        if not table.is_legal(image):
            return ConjugacyReport(False, depth, windows, checks,
                                   counterexample=("h_legal", z_word, image))
        checks["h_legal"] += 1
        codes = parse_return_positions(image, rws.seed_letter, by_word)
        if codes is None:
            return ConjugacyReport(False, depth, windows, checks,
                                   counterexample=("parse", z_word, image))
        for j, code in enumerate(codes):
            if code is None:
                continue
            gamma, offset = code
            expected = _zeta_token(gamma, offset)
            if z_word[j] != expected:
                return ConjugacyReport(False, depth, windows, checks,
                                       counterexample=("parse_inverts", z_word, j, expected))
        checks["parse_inverts"] += 1
        # intertwining on the window: the image of a parsed return-word run
        # under sigma^(N*lift) must parse to theta of its code
        ok = check_intertwine(power_sub, cs, codes, by_word)
        if ok is False:
            return ConjugacyReport(False, depth, windows, checks,
                                   counterexample=("intertwine", z_word, image))
        checks["intertwine"] += 1
    return ConjugacyReport(True, depth, windows, checks)


def check_intertwine(power_sub, cs, codes, by_word):
    """True, False, or None when too little of the run's image parses."""
    rws = cs.derived.system
    theta = cs.theta
    # locate maximal parsed run of complete return words
    starts = [j for j, code in enumerate(codes) if code is not None and code[1] == 1]
    if not starts:
        return None
    run_gammas = []
    run_start = starts[0]
    cursor = run_start
    while cursor < len(codes) and codes[cursor] is not None and codes[cursor][1] == 1:
        gamma = codes[cursor][0]
        run_gammas.append(gamma)
        cursor += len(cs.derived.alpha[gamma])
    if not run_gammas:
        return None
    # expected: theta applied to the zeta-expansion of the run
    expansion = []
    for gamma in run_gammas:
        expansion.extend(_zeta_token(gamma, k)
                         for k in range(1, len(cs.derived.alpha[gamma]) + 1))
    expected = theta.apply(tuple(expansion))
    # actual: substitute the run and parse it back
    run_word = tuple(itertools.chain.from_iterable(
        cs.derived.alpha[gamma] for gamma in run_gammas))
    image_word = power_sub.apply(run_word)
    parsed = parse_return_positions(image_word, rws.seed_letter, by_word)
    if parsed is None:
        return False
    actual = []
    for j, code in enumerate(parsed):
        if code is None:
            continue
        actual.append(_zeta_token(code[0], code[1]))
    # the parsed interior of sigma^(N)(run) must appear inside theta(run
    # expansion) as a factor of the joined tokens; boundary letters may be
    # unparsed.  Joined tokens can match across a token boundary.
    expected_str = "".join(expected)
    actual_str = "".join(actual)
    if actual and actual_str not in expected_str:
        return False
    if len(actual) < len(expected) // 2:
        return None  # too little parsed to be meaningful
    return True
