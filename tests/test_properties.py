"""Randomised property suites over the corpus plus 200 seeded substitutions
(alphabet <= 3, image length <= 4).  Expected values come from the brute
oracles in conftest, never from the code paths under test."""

import random

import pytest

from substdyn import intlin
from substdyn.apcomplex import build_complex, h1_presentation, induced_map
from substdyn.cis import CanonicalizeContext, enumerate_cis
from substdyn.classify import classify_letters, decide_tameness, frontier_maps
from substdyn.collar import collar
from substdyn.core import Substitution
from substdyn.corpus import CORPUS
from substdyn.errors import SubstdynError
from substdyn.language import LanguageTable

from cis_oracles import brute_force_canonical_sets
from conftest import (brute_admitted, brute_bounded_letters, brute_iterate,
                      random_substitution, span_admitted)

RNG_SEED = 987654321
SAMPLE = 200


def _sample():
    rng = random.Random(RNG_SEED)
    return [random_substitution(rng) for _ in range(SAMPLE)]


SUBSTITUTIONS = _sample()
CORPUS_SUBS = [entry.substitution() for entry in CORPUS.values()]


def test_morphism_law():
    rng = random.Random(1)
    for sub in SUBSTITUTIONS[:80] + CORPUS_SUBS:
        for _ in range(3):
            u = tuple(rng.choice(sub.alphabet)
                      for _ in range(rng.randint(0, 4)))
            v = tuple(rng.choice(sub.alphabet)
                      for _ in range(rng.randint(0, 4)))
            n = rng.randint(0, 3)
            assert sub.iterate(u + v, n) == sub.iterate(u, n) + sub.iterate(v, n)


def test_matrix_length_law():
    for sub in SUBSTITUTIONS[:80] + CORPUS_SUBS:
        matrix = sub.matrix()
        for n in range(1, 7):
            power = intlin.mat_pow(matrix, n)
            for j, letter in enumerate(sub.alphabet):
                column_sum = sum(power[i][j] for i in range(len(sub.alphabet)))
                assert column_sum == len(sub.iterate((letter,), n))


def test_admitted_oracle_agreement():
    # the table unions factors over the whole pre-period and cycle, so it can
    # only exceed a power-bounded oracle; equality holds once the per-letter
    # factor states have stabilised within the oracle's power budget
    direct = span = 0
    for sub in SUBSTITUTIONS:
        table = LanguageTable(sub, 6)
        try:
            oracle = brute_admitted(sub, 6, max_power=12)
            direct += 1
        except OverflowError:
            oracle = span_admitted(sub, 6, max_power=12)
            span += 1
        for length in range(7):
            got = set(table.admitted(length))
            assert oracle[length] <= got, (sub, length)
            if table.stabilized_at <= 12:
                assert got == oracle[length], (sub, length)
    assert direct >= 120 and direct + span == len(SUBSTITUTIONS)


def test_factoriality_and_legal_containment():
    for sub in SUBSTITUTIONS[:120]:
        table = LanguageTable(sub, 5)
        for length in range(1, 6):
            admitted = set(table.admitted(length))
            legal = set(table.legal(length))
            assert legal <= admitted
            if length >= 2:
                shorter_adm = set(table.admitted(length - 1))
                shorter_leg = set(table.legal(length - 1))
                for word in admitted:
                    assert word[:-1] in shorter_adm and word[1:] in shorter_adm
                for word in legal:
                    assert word[:-1] in shorter_leg and word[1:] in shorter_leg
                for word in shorter_leg:
                    assert any(v[:-1] == word for v in legal)
                    assert any(v[1:] == word for v in legal)


def _long_walk_rules():
    """For k = 2..12: chains x0 -> ... -> x(k-1) whose last letter doubles or
    feeds a doubling letter, and k-cycles with one two-letter image, where
    a letter's walk to a growing image is as long as the alphabet allows;
    and the same chain and cycle of one-letter images, entered by a
    two-letter image, where every letter is bounded."""
    out = []
    for k in range(2, 13):
        xs = [f"x{i}" for i in range(k)]
        chain = list(zip(xs, [(x,) for x in xs[1:]]))
        entry = [("y", (xs[0], xs[0]))]
        out += [Substitution(chain + [(xs[-1], (xs[-1], xs[-1]))]),
                Substitution(chain + [(xs[-1], ("y",)), ("y", ("y", "y"))]),
                Substitution(chain + [(xs[-1], (xs[0], xs[0]))]),
                Substitution(chain + [(xs[-1], (xs[-1],))] + entry),
                Substitution(chain + [(xs[-1], (xs[0],))] + entry)]
    return out


def test_bounded_letter_oracle_agreement():
    for sub in SUBSTITUTIONS + CORPUS_SUBS + _long_walk_rules():
        assert set(classify_letters(sub).bounded) == brute_bounded_letters(sub)


def test_frontier_law_random():
    for sub in SUBSTITUTIONS[:120]:
        cl = classify_letters(sub)
        if not cl.expanding:
            continue
        r_map, l_map = frontier_maps(sub, cl)
        for a in cl.expanding:
            r_iter = l_iter = a
            for n in range(1, 9):
                r_iter, l_iter = r_map[r_iter], l_map[l_iter]
                image = sub.iterate((a,), n)
                assert next(x for x in reversed(image) if x in cl.expanding) == r_iter
                assert next(x for x in image if x in cl.expanding) == l_iter


def test_expanding_endpoints_force_tameness():
    # when every expanding image starts and ends with an expanding letter,
    # the frontier maps never leave the expanding letters, so no bounded
    # periodic word can arise
    for sub in SUBSTITUTIONS:
        cl = classify_letters(sub)
        if not cl.expanding:
            continue
        if all(sub.rules[a][0] in cl.expanding and sub.rules[a][-1] in cl.expanding
               for a in cl.expanding):
            assert decide_tameness(sub).verdict == "tame"


def test_tame_reports_are_factor_closed():
    for sub in SUBSTITUTIONS[:120]:
        report = decide_tameness(sub)
        if report.verdict != "tame" or report.empty_subshift:
            continue
        words = set(report.bounded_legal_words)
        assert () in words
        for word in words:
            assert len(word) < report.n_sigma
            if word:
                assert word[:-1] in words and word[1:] in words


def test_wild_words_have_legal_powers():
    for sub in SUBSTITUTIONS[:120]:
        report = decide_tameness(sub)
        if report.verdict != "wild":
            continue
        word = report.witness.periodic_word
        table = LanguageTable(sub, min(4 * len(word), 24))
        ring = word * (table.max_length // len(word) + 2)
        for i in range(len(word)):
            assert table.is_legal(ring[i:i + table.max_length])


def _tame_nonempty(subs, limit):
    picked = []
    for sub in subs:
        report = decide_tameness(sub)
        if report.empty_subshift or not report.tame:
            continue
        picked.append((sub, report))
        if len(picked) >= limit:
            break
    return picked


def test_euler_identity_and_functoriality():
    for sub, report in _tame_nonempty(SUBSTITUTIONS, 60) + \
            _tame_nonempty(CORPUS_SUBS, 40):
        try:
            collared = collar(sub, 1, max_letters=600)
        except SubstdynError:
            continue
        if not collared.legal:
            continue
        complex_ = build_complex(collared)
        h1 = h1_presentation(complex_, induced_map(collared, complex_))
        assert h1.rank == len(complex_.edges) - complex_.vertex_count \
            + complex_.component_count
        twice = h1_presentation(complex_, induced_map(collared, complex_, power=2))
        assert [list(r) for r in twice.matrix] == intlin.mat_mul(
            [list(r) for r in h1.matrix], [list(r) for r in h1.matrix])
        assert eventual_ranks_stable(h1.matrix)


def eventual_ranks_stable(matrix):
    from substdyn.apcomplex import eventual_rank
    matrix = [list(r) for r in matrix]
    if not matrix:
        return True
    r1 = eventual_rank(matrix)[0]
    r2 = eventual_rank(intlin.mat_mul(matrix, matrix))[0]
    return r1 == r2


def test_canonicalization_idempotent_and_monotone():
    rng = random.Random(5)
    for sub, report in _tame_nonempty(SUBSTITUTIONS, 40):
        radius = min(report.n_sigma, 2)
        try:
            collared = collar(sub, radius, max_letters=600)
        except SubstdynError:
            continue
        if not collared.legal:
            continue
        context = CanonicalizeContext(collared)
        edges = sorted(collared.legal)
        for _ in range(4):
            subset = frozenset(e for e in edges if rng.random() < 0.6)
            once = context.canonicalize(subset)
            assert once <= subset
            assert context.canonicalize(once) == once
            bigger = context.canonicalize(frozenset(edges))
            assert once <= bigger


def test_cis_brute_force_agreement():
    checked = 0
    for sub, report in _tame_nonempty(CORPUS_SUBS + SUBSTITUTIONS, 999):
        if report.n_sigma > 2:
            continue
        try:
            collared = collar(sub, report.n_sigma, max_letters=300)
        except SubstdynError:
            continue
        if not collared.legal or len(collared.legal) > 12:
            continue
        context = CanonicalizeContext(collared)
        lattice = enumerate_cis(collared, context=context)
        brute = brute_force_canonical_sets(collared, context)
        from substdyn.cis import image_period
        periodic = {k for k in brute
                    if image_period(k, collared, context) is not None}
        assert periodic == {n.edges for n in lattice.nodes}, sub
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10
