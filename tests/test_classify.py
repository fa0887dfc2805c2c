import random

import pytest

from substdyn import corpus
from substdyn import classify, language
from substdyn.classify import (WildWitness, _frontier_closure, classify_letters,
                               decide_tameness, find_seed, frontier_maps, is_minimal,
                               minimality_table_length, tameness_table_length,
                               wild_periodic_word)
from substdyn.core import PointedWord, parse_substitution
from substdyn.corpus import sigma_family
from substdyn.errors import WildInputError, WitnessError
from substdyn.language import LanguageTable, periodic_point_search, session, table_for

from conftest import (NON_MINIMAL_RECURRENT, brute_bounded_letters, brute_iterate,
                      random_minimal_nonprimitive, random_substitution, retoken)


def test_classification_examples(wild_ab):
    limits = parse_substitution("a -> aaca\nb -> b\nc -> bb\n")
    cl = classify_letters(limits)
    assert set(cl.bounded) == {"b", "c"} and set(cl.expanding) == {"a"}
    tame = parse_substitution("a -> abb\nb -> bbb\n")
    cl2 = classify_letters(tame)
    assert not cl2.bounded
    cl3 = classify_letters(wild_ab)
    assert set(cl3.bounded) == {"b"}
    assert set(cl3.a_right) == {"a"} and not cl3.a_left


def test_classification_matches_iteration_oracle(fib, chacon, wild_ab):
    subs = [fib, chacon, wild_ab,
            parse_substitution("a -> aaca\nb -> b\nc -> bb\n"),
            parse_substitution("a -> ab\nb -> a\nc -> cc\nd -> ca\n"),
            sigma_family(3)]
    for sub in subs:
        assert set(classify_letters(sub).bounded) == brute_bounded_letters(sub)


def test_frontier_law(fib_handle, chacon):
    for sub in (fib_handle, chacon, sigma_family(2)):
        cl = classify_letters(sub)
        r_map, l_map = frontier_maps(sub, cl)
        for a in cl.expanding:
            for n in range(1, 9):
                image = sub.iterate((a,), n)
                rightmost = next(x for x in reversed(image) if x in cl.expanding)
                leftmost = next(x for x in image if x in cl.expanding)
                r_iter, l_iter = a, a
                for _ in range(n):
                    r_iter, l_iter = r_map[r_iter], l_map[l_iter]
                assert rightmost == r_iter and leftmost == l_iter


def test_tameness_examples(wild_ab, chacon):
    report = decide_tameness(wild_ab)
    assert report.verdict == "wild"
    assert report.witness.letter == "a" and report.witness.side == "right"
    assert report.witness.periodic_word == ("b",)

    tame = decide_tameness(parse_substitution("a -> abb\nb -> bbb\n"))
    assert tame.verdict == "tame"
    assert tame.bounded_legal_words == ((),) and tame.n_sigma == 1

    chacon_report = decide_tameness(chacon)
    assert chacon_report.verdict == "tame" and chacon_report.n_sigma == 2
    assert set(chacon_report.bounded_legal_words) == {(), ("b",)}
    # bb is not even admitted: brute-check factors of a long iterate
    word = brute_iterate(chacon, ("a",), 6)
    assert ("b", "b") not in {word[i:i + 2] for i in range(len(word) - 1)}


def test_leftmost_rightmost_corollary():
    # expanding first and last letters in every expanding image force tameness
    for text in ("a -> abb\nb -> bbb\n", "a -> aba\nb -> ab\n"):
        sub = parse_substitution(text)
        cl = classify_letters(sub)
        if all(sub.rules[a][0] in cl.expanding and sub.rules[a][-1] in cl.expanding
               for a in cl.expanding):
            assert decide_tameness(sub).verdict == "tame"


def test_wild_periodic_word_examples(wild_ab):
    report = decide_tameness(wild_ab)
    assert wild_periodic_word(wild_ab, report.witness) == ("b",)

    fixed = parse_substitution("a -> ab\nb -> a\nc -> cc\nd -> ca\n")
    assert wild_periodic_word(fixed, WildWitness("c", "right", 1)) == ("c",)

    two = parse_substitution("a -> abc\nb -> b\nc -> c\n")
    report2 = decide_tameness(two)
    assert report2.verdict == "wild"
    word = wild_periodic_word(two, report2.witness)
    assert word == ("b", "c")
    # powers of the emitted word stay legal well past its own length
    table = LanguageTable(two, 4 * len(word))
    ring = word * 4
    assert table.is_legal(ring[:4 * len(word)])


def test_wild_witness_errors(fib):
    with pytest.raises(WitnessError):
        wild_periodic_word(fib, WildWitness("0", "right", 1))


def test_wild_cross_consistency(wild_ab):
    # a wild verdict's periodic word must be confirmed by the periodic search
    report = decide_tameness(wild_ab)
    hits = periodic_point_search(wild_ab, len(report.witness.periodic_word))
    assert report.witness.periodic_word in hits


def test_find_seed_examples(fib, chacon):
    seed = find_seed(fib)
    assert seed.fixed_pointed_word == PointedWord(("1", "0"), 1)
    assert seed.seed_letter == "0" and seed.n_for_doubling == 1

    chacon_seed = find_seed(chacon)
    assert chacon_seed.seed_letter == "a" and chacon_seed.n_for_doubling == 1

    family = sigma_family(3)
    fam_seed = find_seed(family)
    assert fam_seed.power == 1 and fam_seed.n_for_doubling == 1
    assert fam_seed.seed_letter == "a"
    # the pointed-word family is carried into itself: the fixed word's
    # endpoints are expanding and its interior bounded
    word = fam_seed.fixed_pointed_word.word
    cl = classify_letters(family)
    assert word[0] in cl.expanding and word[-1] in cl.expanding
    assert all(x in cl.bounded for x in word[1:-1])


def test_find_seed_guards(wild_ab):
    with pytest.raises(WildInputError):
        find_seed(wild_ab)


def test_is_minimal(fib, wild_ab, fib_handle):
    assert is_minimal(fib).verdict == "yes"
    wild = is_minimal(wild_ab)
    assert wild.verdict == "yes" and "periodic" in wild.reason
    handle = is_minimal(fib_handle)
    assert handle.verdict == "no"
    assert handle.witness is not None
    family = is_minimal(sigma_family(3), use_cis=False)
    assert family.verdict == "yes" and family.constant is not None
    empty = is_minimal(parse_substitution("a -> b\nb -> a\n"))
    assert empty.verdict == "no" and "empty" in empty.reason


@pytest.mark.parametrize("text", NON_MINIMAL_RECURRENT)
def test_the_lattice_refutes_minimality_before_the_recurrence(text):
    sub = parse_substitution(text)
    table = table_for(sub, minimality_table_length(sub))
    assert classify._recurrence_constant(table) == 8
    assert is_minimal(sub, use_cis=False).verdict == "yes"
    result = is_minimal(sub)
    assert (result.verdict, result.reason, result.constant) == \
        ("no", "two distinct nonempty closed invariant subspaces", None)
    u, v = result.witness
    assert len(v) == table.max_length and sub.encode(u) not in sub.encode(v)


@pytest.mark.parametrize("text", [
    "c -> c\nb -> acb\na -> acca\n",
    "c -> c\nb -> bccb\na -> bca\n",
    "10 -> 10 1 1 10\n0b -> 10 1 0b\n1 -> 1\n",
], ids=["declared_cba", "declared_cba_2", "multi_char_tokens"])
def test_minimality_witness_is_the_least_decoded_word(text):
    # the letters are declared out of their tokens' order, so the coded
    # strings order the legal words otherwise than their token tuples do
    sub = parse_substitution(text)
    u, v = is_minimal(sub).witness
    table = table_for(sub, minimality_table_length(sub))
    outside = [w for w in table.legal_coded(table.max_length) if sub.encode(u) not in w]
    assert v == min(sub.decode(w) for w in outside)
    assert sub.decode(min(outside)) != v


def _reference_pointed_shape_elements(table, classification):
    """Decode every admitted word, then keep the pointed-word shape."""
    elements = []
    for length in range(2, table.max_length + 1):
        for word in table.admitted(length):
            if word[0] in classification.expanding and word[-1] in classification.expanding \
                    and all(x in classification.bounded for x in word[1:-1]):
                elements.extend(PointedWord(word, origin) for origin in range(1, length))
    return elements


def _closure_elements(sub, classification):
    shapes, _ = _frontier_closure(sub, classification, tameness_table_length(sub))
    return [PointedWord(sub.decode(word), origin)
            for word in shapes for origin in range(1, len(word))]


def _assert_coded_shape_filter_matches(sub):
    # the frontier closure gives the admitted shapes the table oracle reads
    report = decide_tameness(sub)
    table = LanguageTable(sub, tameness_table_length(sub))
    coded = _closure_elements(sub, report.classification)
    reference = _reference_pointed_shape_elements(table, report.classification)
    assert len(coded) == len(set(coded))
    assert set(coded) == set(reference) and len(coded) == len(reference)
    return reference


TAME_CORPUS = [name for name in corpus.names() if name not in ("wild_ab", "empty_swap")]


@pytest.mark.parametrize("name", TAME_CORPUS)
def test_coded_shape_filter_matches_decoded_on_corpus(name):
    _assert_coded_shape_filter_matches(corpus.get(name))


@pytest.mark.parametrize("n", [6, 8])
def test_frontier_closure_matches_decoded_on_sigma_family(n):
    _assert_coded_shape_filter_matches(sigma_family(n))


def _seeded_tame_nonprimitive(count, seed):
    """Distinct seeded tame, non-primitive rules of 1-4 letters with a
    nonempty subshift."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        sub = random_substitution(rng, max_letters=4)
        if sub.is_primitive() or sub.to_text() in out:
            continue
        report = decide_tameness(sub)
        if report.tame and not report.empty_subshift:
            out[sub.to_text()] = sub
    return list(out.values())


def test_coded_shape_filter_matches_decoded_on_seeded_rules():
    rng = random.Random(23)
    names = {"a": "a0", "b": "1b", "c": "c", "d": "dd"}
    for _ in range(6):
        sub = random_minimal_nonprimitive(rng)
        assert _assert_coded_shape_filter_matches(sub)
        assert _assert_coded_shape_filter_matches(retoken(sub, names))
    for sub in _seeded_tame_nonprimitive(40, 2026):
        _assert_coded_shape_filter_matches(sub)


def _assert_frontier_step_lemma(sub):
    # T never shortens a pointed word, carries it into the shape family, and
    # sends every admitted shape (the table oracle's) to an admitted shape
    report = decide_tameness(sub)
    classification = report.classification
    cap = tameness_table_length(sub)
    reference = _reference_pointed_shape_elements(LanguageTable(sub, cap), classification)
    _, step = _frontier_closure(sub, classification, cap)
    images = {}
    for shape in {pointed.word for pointed in reference}:
        coded = sub.encode(shape)
        image, begin = step(coded)
        assert len(image) >= len(coded)
        assert 0 <= begin < len(sub.apply_coded(coded[0]))
        word = sub.decode(image)
        assert word[0] in classification.expanding and word[-1] in classification.expanding
        assert all(x in classification.bounded for x in word[1:-1])
        images[shape] = word
    oracle = LanguageTable(sub, max(map(len, images.values()), default=1))
    for word in set(images.values()):
        assert word in set(oracle.admitted(len(word))), (sub.to_text(), word)
    return len(images)


@pytest.mark.parametrize("name", TAME_CORPUS)
def test_frontier_step_lemma_on_corpus(name):
    assert _assert_frontier_step_lemma(corpus.get(name))


def test_frontier_step_lemma_on_seeded_rules():
    for sub in _seeded_tame_nonprimitive(40, 2026):
        assert _assert_frontier_step_lemma(sub)


def test_find_seed_reads_no_language_table(monkeypatch):
    # after the tameness decision, the seed search builds its shapes from
    # the rule alone: no table lookup and no admitted set, on every tame
    # corpus entry, primitive or not
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(classify, "table_for")
    counted(language, "table_for")
    counted(language._LanguageCore, "_admitted_exact_length")
    counted(language._PrimitiveWords, "_close")
    assert len(TAME_CORPUS) == 25
    for name in TAME_CORPUS:
        sub = corpus.get(name)
        with session():
            decide_tameness(sub)
            calls.clear()
            find_seed(sub)
            assert calls == [], (name, calls)


def _analyze_table_single_orbit(sub, word):
    """The single-periodic-orbit test as ``is_minimal`` ran it on the
    ``analyze`` table of length max(8, 2L|A|), before it moved onto the
    periodic-search table that ``primitivize`` reads."""
    length = max(8, 2 * sub.max_image_len * len(sub.alphabet))
    ring = word * (length // len(word) + 2)
    factors = {ring[i:i + length] for i in range(len(word))}
    return set(table_for(sub, length).legal(length)) <= factors


def test_single_orbit_test_agrees_on_both_table_lengths():
    # minimality and the periodic bypass share one test on one table; on
    # wild non-primitive rules it agrees with the analyze-table test too
    from conftest import random_substitution
    from test_properties import SUBSTITUTIONS
    from substdyn.primitivize import _periodic_bypass
    rng = random.Random(1212)
    subs = [corpus.get(name) for name in corpus.names()] + SUBSTITUTIONS + \
        [random_substitution(rng, max_letters=4) for _ in range(1500)]
    verdicts = []
    seen = set()
    for sub in subs:
        if sub.is_primitive() or sub.to_text() in seen:
            continue
        seen.add(sub.to_text())
        with session():
            report = decide_tameness(sub)
            if report.tame or report.empty_subshift:
                continue
            single = _analyze_table_single_orbit(sub, report.witness.periodic_word)
            minimality = is_minimal(sub)
            assert minimality.verdict == ("yes" if single else "no"), sub.to_text()
            assert (_periodic_bypass(sub, report) is not None) == single, sub.to_text()
        verdicts.append(single)
    assert len(verdicts) >= 120 and 0 < sum(verdicts) < len(verdicts)
