"""Collared alphabets and substitutions, and border forcing.

An n-collared letter is a letter together with its radius-n context word.
The collared alphabet holds the collared versions of all legal
(2n+1)-words plus padded versions of the illegal letters, closed under the
induced substitution: illegal letters still generate parts of the subshift
and cannot be dropped.  The collared subshift is conjugate to the original
one, so the legal collared letters are exactly those whose context is
legal for the base substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Substitution, Word
from .errors import EdgeBudgetError, BorderForcingError, PaddingError
from .language import LanguageTable, table_for
from .classify import classify_letters, decide_tameness


@dataclass(frozen=True)
class CollaredLetter:
    center: str
    context: Word

    @property
    def radius(self) -> int:
        return (len(self.context) - 1) // 2

    def token(self, sub: Substitution) -> str:
        ctx = sub.format_word(self.context).replace(" ", ".")
        return f"{self.center}|{ctx}"


@dataclass
class CollaredSubstitution:
    base: Substitution
    radius: int
    padding: str
    sub: Substitution                    # induced rule on collared tokens
    letters: dict[str, CollaredLetter]   # token -> collared letter
    legal: frozenset[str]                # tokens occurring in the subshift
    from_padding: frozenset[str]         # padded illegal letters
    table: LanguageTable                 # base language table used to build

    def transitions(self) -> list[tuple[str, str]]:
        """Legal collared 2-words as token pairs, from legal base
        (2n+2)-words."""
        n = self.radius
        pairs = []
        seen = set()
        for word in self.table.legal(2 * n + 2):
            left = CollaredLetter(word[n], word[:2 * n + 1]).token(self.base)
            right = CollaredLetter(word[n + 1], word[1:]).token(self.base)
            if (left, right) not in seen:
                seen.add((left, right))
                pairs.append((left, right))
        return sorted(pairs)


def _image_letters(sub: Substitution, letter: CollaredLetter, radius: int):
    """Collared letters of the induced image: the image of the center read
    inside the image of the context at the center offset."""
    context_image = sub.apply(letter.context)
    offset = len(sub.apply(letter.context[:radius]))
    out = []
    for i in range(len(sub.rules[letter.center])):
        pos = offset + i
        window = context_image[pos - radius:pos + radius + 1]
        out.append(CollaredLetter(context_image[pos], window))
    return out


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

    legal_contexts = table.legal(2 * radius + 1)
    legal_letters = [CollaredLetter(w[radius], w) for w in legal_contexts]
    legal_base_letters = {w[0] for w in table.legal(1)}
    padded = [CollaredLetter(a, ((padding,) * radius) + (a,) + ((padding,) * radius))
              for a in base.alphabet if a not in legal_base_letters]

    known: dict[str, CollaredLetter] = {}
    order: list[str] = []
    worklist = []
    for cl in legal_letters + padded:
        tok = cl.token(base)
        if tok not in known:
            check_budget(len(known) + 1, max_letters)
            known[tok] = cl
            order.append(tok)
            worklist.append(cl)
    rules: dict[str, tuple[str, ...]] = {}
    while worklist:
        cl = worklist.pop(0)
        tok = cl.token(base)
        image = _image_letters(base, cl, radius)
        image_tokens = []
        for img in image:
            itok = img.token(base)
            if itok not in known:
                check_budget(len(known) + 1, max_letters)
                known[itok] = img
                order.append(itok)
                worklist.append(img)
            image_tokens.append(itok)
        rules[tok] = tuple(image_tokens)

    def sort_key(tok):
        cl = known[tok]
        return (tuple(base.letter_index(x) for x in cl.context),
                base.letter_index(cl.center))

    alphabet = tuple(sorted(order, key=sort_key))
    collared_sub = Substitution([(t, rules[t]) for t in alphabet], alphabet=alphabet)
    return CollaredSubstitution(
        base=base, radius=radius, padding=padding, sub=collared_sub,
        letters=dict(known),
        legal=frozenset(cl.token(base) for cl in legal_letters),
        from_padding=frozenset(cl.token(base) for cl in padded),
        table=table)


def border_forcing_level(collared: CollaredSubstitution) -> int:
    """Least k with |sigma^k(a)| > N for every expanding letter, verified by
    checking that every legal collared letter has unique flanking letters
    around its level-k supertile."""
    base = collared.base
    report = decide_tameness(base)
    if not report.tame:
        raise BorderForcingError("border forcing requires a tame substitution")
    n_sigma = report.n_sigma
    if collared.radius < n_sigma:
        raise BorderForcingError(
            f"radius {collared.radius} below the bounded-word bound {n_sigma}")
    classification = classify_letters(base)
    k = 1
    while True:
        if all(len(base.iterate((a,), k)) > n_sigma for a in classification.expanding):
            break
        k += 1
        if k > 64:
            raise BorderForcingError("no expanding letter outgrows the bound")
    _verify_forcing(collared, k)
    return k


def _verify_forcing(collared: CollaredSubstitution, level: int):
    preds: dict[str, set[str]] = {tok: set() for tok in collared.legal}
    succs: dict[str, set[str]] = {tok: set() for tok in collared.legal}
    for left, right in collared.transitions():
        succs[left].add(right)
        preds[right].add(left)
    supertile = {tok: collared.sub.iterate((tok,), level) for tok in collared.legal}
    for tok in sorted(collared.legal):
        left_flanks = {supertile[p][-1] for p in preds[tok]}
        right_flanks = {supertile[s][0] for s in succs[tok]}
        if len(left_flanks) != 1 or len(right_flanks) != 1:
            raise BorderForcingError(
                f"supertile of {tok} admits non-unique flanking letters at level {level}")
