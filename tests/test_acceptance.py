"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.
"""

import time

import pytest

from substdyn import intlin
from substdyn.apcomplex import eventual_rank, inverse_limit_presentation
from substdyn.cis import diagram_compare, enumerate_cis
from substdyn.classify import decide_tameness
from substdyn.collar import collar
from substdyn.core import Substitution, parse_substitution
from substdyn.corpus import get as corpus_get
from substdyn.corpus import sigma_family
from substdyn.language import LanguageTable
from substdyn.primitivize import (ConjugateSubstitution, build_psi, build_theta,
                                  primitivize, return_words, verify_conjugacy)

import test_properties
from cis_oracles import nonempty_proper
from core_oracles import parse_word
from language_oracles import is_admitted
from test_apcomplex import snf_probes_equal


def _report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s, budget {budget})")


def test_criterion_1_classification_suite():
    cases = [
        ("wild_ab", "wild"),
        ("tame_abb", "tame"),
        ("chacon", "tame"),
        ("empty_swap", "empty"),
    ]
    start = time.perf_counter()
    for name, expected in cases:
        t0 = time.perf_counter()
        sub = corpus_get(name)
        report = decide_tameness(sub)
        if expected == "empty":
            assert report.empty_subshift
        else:
            assert report.verdict == expected and not report.empty_subshift
        if name == "wild_ab":
            assert sub.format_word(report.witness.periodic_word) == "b"
        if name == "chacon":
            assert report.n_sigma == 2
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    _report(1, "classification-suite", time.perf_counter() - start, "<1s each")


def test_criterion_2_legality_regression():
    start = time.perf_counter()
    wild = corpus_get("wild_ab")
    table = LanguageTable(wild, 2)
    assert is_admitted(table, ("a", "b"))
    assert not table.is_legal(("a", "b"))
    drop = corpus_get("legality_drop")
    word = parse_word(drop, "0 0b")
    assert LanguageTable(drop, 4).is_legal(word)
    assert not LanguageTable(drop.power(2), 4).is_legal(word)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "legality-regression", elapsed, "<5s")


def test_criterion_3_primitivization():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        sub = sigma_family(n)
        ds = build_psi(sub, return_words(sub))
        token = lambda i: "a" + "b" * i
        for i in range(1, n + 1):
            expected = tuple(token(j) for j in range(1, n + 1)) + (token(i),)
            assert ds.psi.rules[token(i)] == expected
    sub3 = sigma_family(3)
    cs = build_theta(build_psi(sub3, return_words(sub3)))
    names = {"ab:1": "A", "ab:2": "B", "abb:1": "L", "abb:2": "M", "abb:3": "N",
             "abbb:1": "W", "abbb:2": "X", "abbb:3": "Y", "abbb:4": "Z"}
    table = {names[z]: "".join(names[x] for x in cs.theta.rules[z])
             for z in cs.theta.alphabet}
    assert table == {"A": "AB", "B": "LMNWXYZAB", "L": "AB", "M": "LMN",
                     "N": "WXYZLMN", "W": "AB", "X": "LMN", "Y": "WXYZ",
                     "Z": "WXYZ"}
    assert {z for z, v in cs.h.items() if v == "a"} == {"ab:1", "abb:1", "abbb:1"}
    verification = verify_conjugacy(sub3, cs, depth=6)
    assert verification.ok
    mutated_rules = dict(cs.theta.rules)
    mutated_rules["abb:2"] = ("ab:1", "ab:2")
    mutated = ConjugateSubstitution(
        theta=Substitution(list(mutated_rules.items()), alphabet=cs.theta.alphabet),
        h=cs.h, positions=cs.positions, p_block_size=cs.p_block_size,
        power_lift=cs.power_lift, derived=cs.derived)
    assert not verify_conjugacy(sub3, mutated, depth=6).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, "primitivization", elapsed, "<10s")


def test_criterion_4_cohomology_ranks():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        psi = primitivize(sigma_family(n), depth=3).derived.psi
        matrix = psi.matrix()
        assert matrix == [[1 + (i == j) for j in range(n)] for i in range(n)]
        assert intlin.rank(matrix) == n
        pres = inverse_limit_presentation(psi)
        assert pres.h1.limit.eventual_rank == n
    handle = inverse_limit_presentation(corpus_get("fib_handle"))
    assert handle.h1.limit.eventual_rank == 3
    assert snf_probes_equal([list(r) for r in handle.h1.matrix],
                            [[1, 1, 0], [1, 2, 0], [1, 1, 1]])
    published = [[0, 1, 0], [-1, 3, 1], [-1, 1, 1]]
    assert eventual_rank(published)[0] == 2
    chacon = inverse_limit_presentation(corpus_get("chacon"))
    assert chacon.collared.radius == 2
    assert chacon.h1.limit.eventual_rank == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, "cohomology-ranks", elapsed, "<60s")


def _lattice(name, radius=None):
    sub = corpus_get(name)
    return enumerate_cis(collar(sub, radius or decide_tameness(sub).n_sigma))


def test_criterion_5_cis_lattices():
    start = time.perf_counter()
    handle = _lattice("fib_handle")
    assert len(handle.nodes) == 3
    assert handle.inclusion_h1_profile() == [3, 2, 0]
    assert handle.nodes[1].quotient_h1_rank == 1

    two_trib = _lattice("two_trib_bridge")
    assert len(two_trib.nodes) == 5
    assert two_trib.inclusion_h1_profile() == [6, 6, 3, 3, 0]
    assert two_trib.quotient_h1_profile() == [0, 1, 3, 3, 6]

    quad = _lattice("quad_fib_bridge")
    minimal_ranks = sorted(
        n.h1_rank for n in quad.nodes
        if n.edges and not any(m.edges and m.edges < n.edges for m in quad.nodes))
    assert minimal_ranks == [2, 4]

    one = _lattice("one_proper_cis")
    assert len(nonempty_proper(one)) == 1

    proximal = _lattice("fib_proximal")
    assert len(proximal.nodes) == 4
    assert proximal.inclusion_h1_profile() == [4, 3, 2, 0]
    names = [n.name for n in proximal.nodes]
    assert all((names[i + 1], names[i]) in proximal.order
               for i in range(len(names) - 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, "cis-lattices", elapsed, "<5min")


def test_criterion_6_distinguishing_power():
    start = time.perf_counter()
    two_trib = _lattice("two_trib_bridge")
    quad = _lattice("quad_fib_bridge")
    bridges = diagram_compare(two_trib, quad)
    assert bridges.shape_isomorphic and not bridges.profiles_match
    assert bridges.distinguishable
    handle = _lattice("fib_handle")
    trib = _lattice("tribonacci")
    shapes = diagram_compare(handle, trib)
    assert not shapes.shape_isomorphic and shapes.distinguishable
    elapsed = time.perf_counter() - start
    _report(6, "distinguishing-power", elapsed, "exact")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    test_properties.test_morphism_law()
    test_properties.test_matrix_length_law()
    test_properties.test_admitted_oracle_agreement()
    test_properties.test_factoriality_and_legal_containment()
    test_properties.test_bounded_letter_oracle_agreement()
    test_properties.test_frontier_law_random()
    test_properties.test_euler_identity_and_functoriality()
    test_properties.test_canonicalization_idempotent_and_monotone()
    test_properties.test_cis_brute_force_agreement()
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, "property-suites", elapsed, "<10min")


def test_criterion_8_stretch_target_declared():
    # The 87-letter computation is declared out of desk scale: its rule set is
    # not published and the construction that produces it is out of scope, so
    # there is nothing to run; correctness at scale is covered by the property
    # suites rather than a golden number.
    print("ACCEPTANCE 8 stretch-87-letter: DECLARED (not reproducible at desk "
          "scale; covered by property suites)")
