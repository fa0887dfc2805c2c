"""Shared helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the library's language machinery: they
expand rule images by hand and enumerate factors directly, so they can
cross-check it.  The generators may use the library to select their inputs.
"""

import random

import pytest

from substdyn.classify import decide_tameness, is_minimal
from substdyn.core import Substitution, parse_substitution


def brute_iterate(sub: Substitution, word, n):
    word = tuple(word)
    for _ in range(n):
        out = []
        for letter in word:
            out.extend(sub.rules[letter])
        word = tuple(out)
    return word


def brute_admitted(sub: Substitution, max_len, max_power=12, length_cap=2_000_000):
    """Union of factors of sigma^k(a) for all letters and k <= max_power, by
    direct expansion.  Raises if an iterate outgrows the cap (use the span
    oracle for fast-growing rules)."""
    # |sigma^k(a)| from the image lengths alone, so that an iterate past the
    # cap raises before anything is expanded
    lengths = {a: 1 for a in sub.alphabet}
    for _ in range(max_power + 1):
        lengths = {a: sum(lengths[x] for x in sub.rules[a]) for a in sub.alphabet}
        if max(lengths.values()) > length_cap:
            raise OverflowError("iterate outgrew the brute-force cap")
    factors = {length: set() for length in range(max_len + 1)}
    factors[0].add(())
    for letter in sub.alphabet:
        word = (letter,)
        for _ in range(max_power + 1):
            for length in range(1, max_len + 1):
                for i in range(len(word) - length + 1):
                    factors[length].add(word[i:i + length])
            grown = brute_iterate(sub, word, 1)
            if grown == word:
                break
            word = grown
    return factors


def span_admitted(sub: Substitution, max_len, max_power=12):
    """Same union, via the span identity: every factor of sigma(W) of
    length <= L lies inside sigma(w) for a factor w of W with |w| <= L
    (interior images contribute at least one letter each)."""
    per_k = {a: {(a,)} for a in sub.alphabet}
    union = {length: set() for length in range(max_len + 1)}
    union[0].add(())

    def harvest(words):
        for word in words:
            for length in range(1, max_len + 1):
                for i in range(len(word) - length + 1):
                    union[length].add(word[i:i + length])

    for a in sub.alphabet:
        harvest(per_k[a])
    for _ in range(max_power):
        nxt = {}
        for a in sub.alphabet:
            grown = set()
            for word in per_k[a]:
                image = brute_iterate(sub, word, 1)
                if len(image) <= max_len:
                    grown.add(image)
                else:
                    for i in range(len(image) - max_len + 1):
                        grown.add(image[i:i + max_len])
            nxt[a] = grown
            harvest(grown)
        per_k = nxt
    return union


def brute_bounded_letters(sub: Substitution):
    """Direct-iteration classification: a letter is bounded when its iterate
    sequence revisits a word, expanding when the length outgrows the bound
    |A| * max|rule|^(|A|+1)."""
    bound = len(sub.alphabet) * sub.max_image_len ** (len(sub.alphabet) + 1)
    out = set()
    for letter in sub.alphabet:
        seen = set()
        word = (letter,)
        while True:
            word = brute_iterate(sub, word, 1)
            if word in seen:
                out.add(letter)
                break
            seen.add(word)
            if len(word) > bound:
                break
    return out


def random_substitution(rng: random.Random, max_letters=3, max_image=4):
    size = rng.randint(1, max_letters)
    letters = list("abcd"[:size])
    rules = []
    for letter in letters:
        image = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_image)))
        rules.append((letter, image))
    return Substitution(rules, alphabet=tuple(letters))


def retoken(sub, names):
    """The same rule with each letter renamed by ``names``."""
    return Substitution([(names[a], tuple(names[x] for x in sub.rules[a]))
                         for a in sub.alphabet],
                        alphabet=tuple(names[a] for a in sub.alphabet))


def random_minimal_nonprimitive(rng):
    """A rule on expanding letters a, b with the bounded letters c -> c
    (and d -> c) spliced into their images, kept once it is tame, not
    primitive and linearly recurrent to its table bound."""
    while True:
        bounded = ["c", "d"][:rng.randint(1, 2)]
        rules = []
        for letter in ("a", "b"):
            image = [rng.choice("ab") for _ in range(rng.randint(2, 4))]
            for _ in range(rng.randint(1, 2)):
                image.insert(rng.randint(1, len(image) - 1), rng.choice(bounded))
            rules.append((letter, tuple(image)))
        rules.append(("c", ("c",)))
        if "d" in bounded:
            rules.append(("d", ("c",)))
        sub = Substitution(rules)
        if sub.is_primitive():
            continue
        report = decide_tameness(sub)
        if report.tame and not report.empty_subshift and \
                is_minimal(sub, use_cis=False, report=report).verdict == "yes":
            return sub


@pytest.fixture(scope="session")
def fib():
    return parse_substitution("0 -> 001\n1 -> 01\n")


@pytest.fixture(scope="session")
def wild_ab():
    return parse_substitution("a -> ab\nb -> b\n")


@pytest.fixture(scope="session")
def chacon():
    return parse_substitution("a -> aaba\nb -> b\n")


@pytest.fixture(scope="session")
def fib_handle():
    return parse_substitution("0 -> 001\n1 -> 01\n2 -> 021\n")
