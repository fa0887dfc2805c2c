"""Core helpers that only the tests use, as oracles: primitivity by powering
the boolean substitution matrix, parsing a word from text, and showing a
pointed word with its separator.
"""

from substdyn.core import PointedWord, Substitution, Word
from substdyn.errors import SymbolError


def is_primitive_by_powering(sub: Substitution) -> bool:
    """True iff some power of the substitution matrix is strictly positive;
    boolean powering up to (k-1)^2 + 1 suffices (Wielandt)."""
    size = len(sub.alphabet)
    reach = [[bool(x) for x in row] for row in sub.matrix()]
    current = reach
    bound = (size - 1) ** 2 + 1
    step = 1
    while step <= bound:
        if all(all(row) for row in current):
            return True
        nxt = [[False] * size for _ in range(size)]
        for i in range(size):
            for k in range(size):
                if current[i][k]:
                    for j in range(size):
                        if reach[k][j]:
                            nxt[i][j] = True
        if nxt == current:
            return all(all(row) for row in current)
        current = nxt
        step += 1
    return all(all(row) for row in current)


def parse_word(sub: Substitution, text: str) -> Word:
    """A word of the rule's alphabet from text: whitespace-separated tokens,
    or one character per letter when every token is one character."""
    tokens = text.split()
    if len(tokens) > 1 or not sub.single_char_tokens:
        word = tuple(tokens)
    else:
        word = tuple(text.strip())
    for symbol in word:
        if symbol not in sub.rules:
            raise SymbolError(f"letter {symbol!r} not in alphabet")
    return word


def display(pointed: PointedWord, sub: Substitution | None = None) -> str:
    """The pointed word as ``left.right``."""
    fmt = sub.format_word if sub is not None else lambda w: "".join(w) if all(
        len(t) == 1 for t in w) else " ".join(w)
    left = fmt(pointed.word[:pointed.origin])
    right = fmt(pointed.word[pointed.origin:])
    return f"{left}.{right}"
