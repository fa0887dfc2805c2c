"""Collared alphabets and substitutions, and border forcing.

An n-collared letter is a letter together with its radius-n context word.
The collared alphabet holds the collared versions of all legal
(2n+1)-words plus padded versions of the illegal letters, closed under the
induced substitution: illegal letters still generate parts of the subshift
and cannot be dropped.  The collared subshift is conjugate to the original
one, so the legal collared letters are exactly those whose context is
legal for the base substitution.

Inside ``collar`` a collared letter is its coded (2n+1)-window: the
context in the one-character-per-letter coding of ``core``, with the
center at position n.  The image windows of a window w are the
(2n+1)-windows of sigma(w) centred at the offsets |sigma(w[:n])| through
|sigma(w[:n])| + |sigma(w[n])| - 1, so the closure never leaves the
coding.  The collared alphabet is sorted by window.  Codes rise with the
letter index and every window, padded ones too, holds its center at
position n, so this is the order of (context indices, center index).  Each
window is decoded and formatted once, after the closure, into its token
``center|c1.c2...`` (the context joined by ``.``), and the
``CollaredSubstitution`` keeps the window -> token map for the later
stages.  Two windows format to one token when a letter holds ``.`` or
``|`` (``a.c``, ``c``, ``y`` and ``a``, ``c``, ``c.y`` both give
``c|a.c.c.y``); ``collar`` raises SymbolError then, as a token must name
one letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import Substitution, Word
from .errors import EdgeBudgetError, BorderForcingError, PaddingError, SymbolError
from .language import LanguageTable, table_for
from .classify import decide_tameness

if TYPE_CHECKING:
    from .apcomplex import APComplex


@dataclass(frozen=True)
class CollaredLetter:
    center: str
    context: Word

    def token(self, sub: Substitution) -> str:
        ctx = sub.format_word(self.context).replace(" ", ".")
        return f"{self.center}|{ctx}"


@dataclass
class CollaredSubstitution:
    """The collared rule, on tokens.  ``tokens`` maps each letter's coded
    (2n+1)-window to its token; ``transitions()`` and the complex that
    ``apcomplex.build_complex`` makes are built once and kept here."""
    base: Substitution
    radius: int
    padding: str
    sub: Substitution                    # induced rule on collared tokens
    letters: dict[str, CollaredLetter]   # token -> collared letter
    legal: frozenset[str]                # tokens occurring in the subshift
    from_padding: frozenset[str]         # padded illegal letters
    table: LanguageTable                 # base language table used to build
    tokens: dict[str, str]               # coded window -> token
    complex: APComplex | None = field(default=None, compare=False, repr=False)
    _transitions: list | None = field(default=None, compare=False, repr=False)

    def transitions(self) -> list[tuple[str, str]]:
        """Legal collared 2-words as sorted token pairs, one per legal base
        (2n+2)-word: the left letter's window drops its last base letter,
        the right letter's its first."""
        if self._transitions is None:
            tokens = self.tokens
            self._transitions = sorted(
                (tokens[w[:-1]], tokens[w[1:]])
                for w in self.table.legal_coded(2 * self.radius + 2))
        return self._transitions


def check_budget(n_letters: int, max_letters: int | None):
    """Raise EdgeBudgetError when an alphabet of ``n_letters`` tokens passes
    ``max_letters`` (None: no budget), as ``collar`` does per added letter."""
    if max_letters is not None and n_letters > max_letters:
        raise EdgeBudgetError(f"collared alphabet exceeded {max_letters} letters")


def collar(base: Substitution, radius: int, padding: str | None = None,
           max_letters: int | None = None) -> CollaredSubstitution:
    """Build the radius-n collared substitution over the padding letter.  A
    collared letter is fixed by its (2n+1)-context, so None (no budget) for
    ``max_letters`` still bounds the alphabet by |A|^(2n+1)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if padding is None:
        padding = base.alphabet[0]
    if padding not in base.alphabet:
        raise PaddingError(f"padding letter {padding!r} not in alphabet")
    table = table_for(base, 2 * radius + 2)

    codes = base.encode(base.alphabet)
    legal_centers = table.legal_coded(1)
    pad = base.encode((padding,)) * radius
    legal = sorted(table.legal_coded(2 * radius + 1))
    padded = [pad + c + pad for c in codes if c not in legal_centers]
    windows = legal + padded
    check_budget(len(windows), max_letters)
    known = set(windows)
    apply = base.apply_coded
    image_len = {c: len(apply(c)) for c in codes}
    images: dict[str, tuple[str, ...]] = {}
    i = 0
    while i < len(windows):
        w = windows[i]
        i += 1
        image = apply(w)
        start = sum(image_len[c] for c in w[:radius])
        images[w] = tuple(image[p - radius:p + radius + 1]
                          for p in range(start, start + image_len[w[radius]]))
        for v in images[w]:
            if v not in known:
                check_budget(len(windows) + 1, max_letters)
                known.add(v)
                windows.append(v)

    windows.sort()
    tokens: dict[str, str] = {}
    letters: dict[str, CollaredLetter] = {}
    for w in windows:
        word = base.decode(w)
        letter = CollaredLetter(word[radius], word)
        token = letter.token(base)
        if token in letters:
            raise SymbolError(f"collared letters with contexts {letters[token].context} "
                              f"and {word} share the token {token!r}")
        tokens[w] = token
        letters[token] = letter
    collared_sub = Substitution(
        [(tokens[w], tuple(tokens[v] for v in images[w])) for w in windows],
        alphabet=tuple(letters))
    return CollaredSubstitution(
        base=base, radius=radius, padding=padding, sub=collared_sub,
        letters=letters,
        legal=frozenset(tokens[w] for w in legal),
        from_padding=frozenset(tokens[w] for w in padded),
        table=table, tokens=tokens)


def border_forcing_level(collared: CollaredSubstitution) -> int:
    """Least k with |sigma^k(a)| > N for every expanding letter, verified by
    checking that every legal collared letter has unique flanking letters
    around its level-k supertile.

    The lengths come from |sigma^k(a)| = sum of |sigma^(k-1)(b)| over the
    letters b of sigma(a), with no image built.  A flank is the last letter
    of a predecessor's supertile or the first letter of a successor's.  The
    last letter of sigma(w) is the last letter of sigma(w[-1]), so the last
    letter of sigma^k(t) is last^k(t), for the map ``last`` sending a letter
    to the last letter of its image; likewise for the first letter.  So the
    check iterates those two letter maps k times and builds no supertile."""
    base = collared.base
    report = decide_tameness(base)
    if not report.tame:
        raise BorderForcingError("border forcing requires a tame substitution")
    n_sigma = report.n_sigma
    if collared.radius < n_sigma:
        raise BorderForcingError(
            f"radius {collared.radius} below the bounded-word bound {n_sigma}")
    lengths = {a: len(image) for a, image in base.rules.items()}
    k = 1
    while not all(lengths[a] > n_sigma for a in report.classification.expanding):
        k += 1
        if k > 64:
            raise BorderForcingError("no expanding letter outgrows the bound")
        lengths = base.sum_over_images(lengths)
    _verify_forcing(collared, k)
    return k


def _verify_forcing(collared: CollaredSubstitution, level: int):
    preds: dict[str, set[str]] = {tok: set() for tok in collared.legal}
    succs: dict[str, set[str]] = {tok: set() for tok in collared.legal}
    for left, right in collared.transitions():
        succs[left].add(right)
        preds[right].add(left)
    rules = collared.sub.rules
    first = {tok: tok for tok in collared.legal}
    last = dict(first)
    for _ in range(level):
        first = {tok: rules[x][0] for tok, x in first.items()}
        last = {tok: rules[x][-1] for tok, x in last.items()}
    for tok in sorted(collared.legal):
        left_flanks = {last[p] for p in preds[tok]}
        right_flanks = {first[s] for s in succs[tok]}
        if len(left_flanks) != 1 or len(right_flanks) != 1:
            raise BorderForcingError(
                f"supertile of {tok} admits non-unique flanking letters at level {level}")
