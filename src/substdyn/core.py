"""Alphabets, words and substitution rules.

A word is a tuple of letter tokens; tokens are arbitrary whitespace-free
strings.  Internally every word is also handled as a "coded" Python string
with one character per letter, which keeps iteration and factor extraction
fast; the coding never leaks through the public API.

Text format for substitution files: one rule per line, ``a -> ab``, with
``#`` starting a comment.  If any letter token is longer than one character,
rule images must be written with whitespace between tokens
(``0b -> 0 0 1 0b``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RuleParseError, SymbolError

Word = tuple[str, ...]

_CODE_BASE = 0xE000  # private use area; internal coding only


def as_word(value) -> Word:
    """Normalise a user-supplied word: a tuple/list of tokens, or a plain
    string of single-character tokens."""
    return tuple(value)


class Substitution:
    """A substitution rule: a total map from letters to nonempty words."""

    def __init__(self, rules, alphabet=None):
        if isinstance(rules, dict):
            items = list(rules.items())
        else:
            items = list(rules)
        items = [(letter, as_word(image)) for letter, image in items]
        if alphabet is None:
            alphabet = tuple(letter for letter, _ in items)
        else:
            alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise SymbolError("duplicate letters in alphabet")
        rule_map = dict(items)
        if set(rule_map) != set(alphabet):
            missing = sorted(set(alphabet) - set(rule_map))
            extra = sorted(set(rule_map) - set(alphabet))
            raise SymbolError(f"rules do not match alphabet (missing {missing}, extra {extra})")
        for letter, image in rule_map.items():
            if len(image) == 0:
                raise SymbolError(f"empty image for letter {letter!r}")
            for symbol in image:
                if symbol not in rule_map:
                    raise SymbolError(f"image of {letter!r} uses undeclared letter {symbol!r}")
        self.alphabet: tuple[str, ...] = alphabet
        self.rules: dict[str, Word] = {a: rule_map[a] for a in alphabet}
        self._index = {a: i for i, a in enumerate(alphabet)}
        self.single_char_tokens = all(len(a) == 1 for a in alphabet)
        self._code = {a: chr(_CODE_BASE + i) for i, a in enumerate(alphabet)}
        self._decode_map = {chr(_CODE_BASE + i): a for i, a in enumerate(alphabet)}
        self._table = {ord(self._code[a]): "".join(self._code[x] for x in self.rules[a])
                       for a in alphabet}

    # -- basic accessors -------------------------------------------------

    def __len__(self):
        return len(self.alphabet)

    def __eq__(self, other):
        return (isinstance(other, Substitution)
                and self.alphabet == other.alphabet and self.rules == other.rules)

    def __hash__(self):
        return hash((self.alphabet, tuple(self.rules[a] for a in self.alphabet)))

    def __repr__(self):
        rules = ", ".join(f"{a}->{self.format_word(self.rules[a])}" for a in self.alphabet)
        return f"Substitution({rules})"

    def letter_index(self, letter):
        try:
            return self._index[letter]
        except KeyError:
            raise SymbolError(f"letter {letter!r} not in alphabet") from None

    @property
    def max_image_len(self):
        return max(len(image) for image in self.rules.values())

    # -- coded-string engine ---------------------------------------------

    def encode(self, word) -> str:
        try:
            return "".join(self._code[a] for a in as_word(word))
        except KeyError as exc:
            raise SymbolError(f"letter {exc.args[0]!r} not in alphabet") from None

    def decode(self, coded: str) -> Word:
        return tuple(self._decode_map[ch] for ch in coded)

    def apply_coded(self, coded: str, n: int = 1) -> str:
        for _ in range(n):
            coded = coded.translate(self._table)
        return coded

    def sum_over_images(self, values: dict) -> dict:
        """a -> the sum of ``values[x]`` over the letters x of sigma(a).  From
        |sigma^n(x)|, or the occurrences of a letter in sigma^n(x), this
        gives the same for sigma^(n+1), with no image built."""
        return {a: sum(values[x] for x in image) for a, image in self.rules.items()}

    # -- public operations -------------------------------------------------

    def apply(self, word) -> Word:
        """One substitution step extended to words by concatenation."""
        return self.decode(self.apply_coded(self.encode(word)))

    def iterate(self, word, n: int) -> Word:
        """n-fold application; n = 0 returns the word unchanged."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        return self.decode(self.apply_coded(self.encode(word), n))

    def power(self, n: int) -> "Substitution":
        """The substitution w |-> sigma^n(w) on the same alphabet."""
        if n < 1:
            raise ValueError("power must be >= 1")
        return Substitution(
            [(a, self.iterate((a,), n)) for a in self.alphabet], self.alphabet)

    def matrix(self):
        """Entry (i, j) counts occurrences of letter i in the image of
        letter j; column sums are image lengths."""
        size = len(self.alphabet)
        out = [[0] * size for _ in range(size)]
        for j, letter in enumerate(self.alphabet):
            for symbol in self.rules[letter]:
                out[self._index[symbol]][j] += 1
        return out

    def is_primitive(self) -> bool:
        """True iff some power of the substitution matrix is strictly
        positive: the letter graph (a -> each letter of sigma(a)) is strongly
        connected and aperiodic, i.e. the gcd of level(a) + 1 - level(b)
        over its edges a -> b, with levels from a breadth-first search, is 1."""
        succ = {a: set(self.rules[a]) for a in self.alphabet}
        pred = {a: set() for a in self.alphabet}
        for a, targets in succ.items():
            for b in targets:
                pred[b].add(a)

        def levels(edges):
            level = dict.fromkeys(self.alphabet[:1], 0)
            queue = list(level)
            for a in queue:
                for b in edges[a] - level.keys():
                    level[b] = level[a] + 1
                    queue.append(b)
            return level

        level = levels(succ)
        if len(level) < len(self) or len(levels(pred)) < len(self):
            return False
        # the gcd of no edges is 0: the empty alphabet's matrix is vacuously positive
        return math.gcd(*(level[a] + 1 - level[b] for a in succ for b in succ[a])) <= 1

    # -- formatting ---------------------------------------------------------

    def format_word(self, word) -> str:
        word = as_word(word)
        if self.single_char_tokens:
            return "".join(word)
        return " ".join(word)

    def to_text(self) -> str:
        lines = [f"{a} -> {self.format_word(self.rules[a])}" for a in self.alphabet]
        return "\n".join(lines) + "\n"


def parse_substitution(text: str) -> Substitution:
    """Parse the one-rule-per-line text format; the alphabet is inferred in
    order of rule appearance."""
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "->" not in stripped:
            raise RuleParseError("expected 'letter -> image'", line=lineno)
        lhs, rhs = stripped.split("->", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not lhs or " " in lhs or "\t" in lhs:
            raise RuleParseError(f"bad letter token {lhs!r}", line=lineno)
        if not rhs:
            raise RuleParseError(f"empty image for {lhs!r}", line=lineno)
        raw.append((lhs, rhs, lineno))
    if not raw:
        raise RuleParseError("no rules found")
    letters = [lhs for lhs, _, _ in raw]
    if len(set(letters)) != len(letters):
        raise RuleParseError("duplicate rule for a letter")
    single = all(len(lhs) == 1 for lhs in letters)
    rules = []
    for lhs, rhs, lineno in raw:
        if " " in rhs or not single:
            image = tuple(rhs.split())
        else:
            image = tuple(rhs)
        for symbol in image:
            if symbol not in set(letters):
                raise RuleParseError(f"image of {lhs!r} uses undeclared letter {symbol!r}",
                                     line=lineno)
        rules.append((lhs, image))
    return Substitution(rules)


def load_substitution(path) -> Substitution:
    with open(path, encoding="utf-8") as handle:
        return parse_substitution(handle.read())


@dataclass(frozen=True)
class PointedWord:
    """A word with a marked separator position: origin k splits the word as
    word[:k] . word[k:]."""

    word: Word
    origin: int

    def __post_init__(self):
        if not 0 <= self.origin <= len(self.word):
            raise ValueError("origin out of range")
