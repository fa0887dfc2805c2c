import random

import pytest

from substdyn import corpus
from substdyn.core import PointedWord, Substitution, parse_substitution
from substdyn.errors import RuleParseError, SubstdynError, SymbolError
from substdyn.primitivize import primitivize

from conftest import brute_iterate
from core_oracles import display, is_primitive_by_powering, parse_word


def test_iterate_examples(fib):
    assert fib.format_word(fib.iterate("0", 2)) == "00100101"
    assert fib.iterate((), 5) == ()
    grow = parse_substitution("a -> ab\nb -> b\n")
    assert grow.format_word(grow.iterate("a", 3)) == "abbb"


def test_iterate_matches_brute(fib):
    for n in range(5):
        assert fib.iterate("01", n) == brute_iterate(fib, ("0", "1"), n)


def test_matrix_examples(fib):
    assert fib.matrix() == [[2, 1], [1, 1]]
    single = parse_substitution("a -> a\n")
    assert single.matrix() == [[1]]
    # the family i -> 1 2 ... n i has matrix all-ones plus identity
    for n in (2, 3, 4):
        letters = [str(i) for i in range(1, n + 1)]
        rules = [(x, tuple(letters) + (x,)) for x in letters]
        fam = Substitution(rules, alphabet=tuple(letters))
        assert fam.matrix() == [[1 + (i == j) for j in range(n)] for i in range(n)]


def test_matrix_column_sums_are_image_lengths(fib):
    matrix = fib.matrix()
    for j, letter in enumerate(fib.alphabet):
        assert sum(matrix[i][j] for i in range(len(matrix))) == len(fib.rules[letter])


def test_primitivity(fib, wild_ab):
    assert fib.is_primitive()
    assert not wild_ab.is_primitive()
    swap = parse_substitution("a -> b\nb -> a\n")
    assert not swap.is_primitive()
    assert Substitution({}).is_primitive() and is_primitive_by_powering(Substitution({}))


def test_primitivity_matches_matrix_powering():
    # the graph test (strongly connected, and the gcd of the BFS level
    # differences along the edges is 1) against powering the matrix: the
    # corpus, the psi and theta that primitivize derives from it, and
    # seeded rules of 1-8 letters
    subs = [corpus.get(name) for name in corpus.names()]
    for sub in list(subs):
        try:
            result = primitivize(sub)
        except SubstdynError:
            continue
        if result.conjugate is not None:
            subs += [result.derived.psi, result.conjugate.theta]
    rng = random.Random(20261019)
    for _ in range(1500):
        letters = [f"x{i}" for i in range(rng.randint(1, 8))]
        subs.append(Substitution(
            [(a, tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))))
             for a in letters], alphabet=tuple(letters)))
    answers = [sub.is_primitive() for sub in subs]
    assert answers == [is_primitive_by_powering(sub) for sub in subs]
    assert sum(answers) >= 300 and answers.count(False) >= 300


def test_primitivity_of_long_cycles():
    # on 500 letters, a cycle through every letter closed by a second edge:
    # back to the start it adds a cycle of length 499 beside the one of 500,
    # gcd 1, primitive (Wielandt's rule, whose least positive power is
    # 499^2 + 1); back to the third letter it adds one of 498, gcd 2, not
    # primitive
    size = 500
    letters = [f"c{i}" for i in range(size)]
    chain = [(letters[i], (letters[i + 1],)) for i in range(size - 1)]
    wielandt = Substitution(chain + [(letters[-1], (letters[0], letters[1]))])
    even = Substitution(chain + [(letters[-1], (letters[0], letters[2]))])
    assert wielandt.is_primitive()
    assert not even.is_primitive()


def test_power(fib):
    square = fib.power(2)
    assert square.rules["0"] == fib.iterate("0", 2)
    assert square.iterate("0", 1) == fib.iterate("0", 2)


def test_parsing_round_trip():
    text = "0 -> 0b 0b 1 0b\n0b -> 0 0 1 0\n1 -> 1\nX -> 0 0b\n"
    sub = parse_substitution(text)
    assert sub.alphabet == ("0", "0b", "1", "X")
    assert sub.rules["X"] == ("0", "0b")
    assert parse_substitution(sub.to_text()) == sub


def test_parsing_comments_and_errors():
    sub = parse_substitution("# comment\na -> ab  # trailing\nb -> a\n")
    assert sub.rules["a"] == ("a", "b")
    with pytest.raises(RuleParseError):
        parse_substitution("a => ab\n")
    with pytest.raises(RuleParseError):
        parse_substitution("a -> ax\n")
    with pytest.raises(RuleParseError):
        parse_substitution("a -> ab\na -> b\n")
    with pytest.raises(SymbolError):
        Substitution([("a", ())])


def test_symbol_errors(fib):
    with pytest.raises(SymbolError):
        fib.iterate("0x", 1)
    with pytest.raises(SymbolError):
        parse_word(fib, "02")
    assert parse_word(fib, "0 1") == parse_word(fib, "01") == ("0", "1")


def test_pointed_word_display(fib):
    pointed = PointedWord(("1", "0"), 1)
    assert display(pointed, fib) == "1.0"
    with pytest.raises(ValueError):
        PointedWord(("1",), 2)
