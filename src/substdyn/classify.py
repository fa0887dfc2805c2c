"""Letter classification, tameness, wild witnesses, seeds and minimality.

A letter is bounded when its iterated images stay bounded in length, which
holds exactly when every letter on a directed cycle of the occurrence
digraph (a -> each letter of sigma(a)) reachable from it has a one-letter
image.  ``classify_letters`` decides this by walks on the rule.  Let R_0 be
the letters whose image has two or more letters, and R_(j+1) the letters
whose image holds a letter of R_j, so R_j is the set of letters with a walk
of j steps ending in R_0.  A letter is expanding exactly when it lies in R_j
for some j in [|A|, 2|A|):

- A walk of |A| or more steps from a bounded letter repeats a letter, so it
  has entered a cycle that the letter reaches.  Every such cycle is made of
  one-letter images, so the walk is then forced around it and never ends
  in R_0.
- From an expanding letter, a shortest walk reaches a cycle letter c with
  |sigma(c)| >= 2 in d < |A| steps.  Walks ending at c then exist at every
  length d + kp, where p <= |A| is the cycle's length, and one of those
  lengths falls in [|A|, 2|A|).

The walks are sets of letters; comparing |sigma^|A|(a)| with
|sigma^(2|A|)(a)| decides the same, but on big integers.

A substitution is tame when it has finitely many bounded legal words; this
is decided through the frontier maps r and l (rightmost/leftmost expanding
letter of an image), whose orbits are eventually periodic: the substitution
is wild iff a letter whose image ends (starts) in a bounded letter lies on
an r-cycle (l-cycle).

The seed search starts from the admitted shapes: an expanding letter, a
bounded interior, an expanding letter.  They come from the rule, not from a
table.  An admitted shape in sigma^k(a), k >= 1, lies inside one image
sigma(c), or starts in sigma(x) and ends in sigma(y) for letters x before y
of sigma^(k-1)(a).  Then, as its interior is bounded, its ends are the last
expanding letter of sigma(x) and the first of sigma(y), and the letters u
between x and y are bounded, as their images lie in that interior and an
expanding letter's image holds an expanding letter.  So x u y is an admitted
shape, and the shape is T(x u y) for the frontier step T: the last expanding
letter of sigma(x) and its bounded tail, sigma(u), then the bounded head of
sigma(y) and its first expanding letter.  T sends admitted shapes to
admitted shapes, so they are the closure under T of the shapes between
consecutive expanding letters of one image.  T never shortens a word, as no
image is empty, so pruning the closure at a cap drops no shorter shape.  The
cap stays ``tameness_table_length``: the seed is the least periodic pointed
word the orbits reach, which is the least admitted one when that is no
longer than the cap, and no shorter bound on its length is argued here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import PointedWord, Substitution, Word
from .errors import (EmptySubshiftError, MarginError, SubstdynError,
                     WildInputError, WitnessError)
from .language import (LanguageTable, _once, periodic_orbit_escape,
                       periodic_point_search, table_for)


@dataclass(frozen=True)
class LetterClassification:
    bounded: frozenset[str]
    expanding: frozenset[str]
    a_right: frozenset[str]  # expanding letters whose image ends in a bounded letter
    a_left: frozenset[str]   # expanding letters whose image starts with a bounded letter


def classify_letters(sub: Substitution) -> LetterClassification:
    """Bounded and expanding letters, by the walks of the module docstring."""
    size = len(sub.alphabet)
    walks = {a for a, image in sub.rules.items() if len(image) >= 2}   # R_0
    expanding = set()
    for j in range(1, 2 * size):
        walks = {a for a, image in sub.rules.items() if not walks.isdisjoint(image)}
        if j >= size:
            expanding |= walks
    bounded = frozenset(sub.alphabet) - expanding
    a_right = frozenset(a for a in expanding if sub.rules[a][-1] in bounded)
    a_left = frozenset(a for a in expanding if sub.rules[a][0] in bounded)
    return LetterClassification(bounded, frozenset(expanding), a_right, a_left)


def frontier_maps(sub: Substitution, classification: LetterClassification):
    """The self-maps r, l of the expanding letters: rightmost (leftmost)
    expanding letter occurring in the image."""
    r_map = {}
    l_map = {}
    for a in classification.expanding:
        image = sub.rules[a]
        r_map[a] = next(x for x in reversed(image) if x in classification.expanding)
        l_map[a] = next(x for x in image if x in classification.expanding)
    return r_map, l_map


def _cycle_members(mapping):
    """Letters on cycles of a functional graph, with their cycle lengths: the
    images of the whole set shrink to the cyclic letters, which the map permutes."""
    cyclic = set(mapping)
    while (image := {mapping[x] for x in cyclic}) != cyclic:
        cyclic = image
    out = {}
    for start in cyclic:
        node, out[start] = mapping[start], 1
        while node != start:
            node, out[start] = mapping[node], out[start] + 1
    return out


@dataclass(frozen=True)
class WildWitness:
    letter: str
    side: str   # "right" or "left"
    period: int
    periodic_word: Word = ()


@dataclass(frozen=True)
class TamenessReport:
    verdict: str  # "tame" or "wild"
    classification: LetterClassification
    witness: WildWitness | None = None
    bounded_legal_words: tuple[Word, ...] | None = None
    n_sigma: int | None = None
    empty_subshift: bool = False
    exact: bool = True

    @property
    def tame(self) -> bool:
        return self.verdict == "tame"


def tameness_table_length(sub: Substitution) -> int:
    """Table bound ``decide_tameness`` asks ``table_for`` for."""
    return max(4, 2 * sub.max_image_len * len(sub.alphabet))


def minimality_table_length(sub: Substitution) -> int:
    """Default table bound of ``is_minimal`` and of ``analyze --max-length``."""
    return max(8, 2 * sub.max_image_len * len(sub.alphabet))


def decide_tameness(sub: Substitution) -> TamenessReport:
    """Tameness of ``sub``, decided once per rule inside ``language.session()``."""
    return _once(_decide_tameness, sub)


def _decide_tameness(sub: Substitution) -> TamenessReport:
    classification = classify_letters(sub)
    if not classification.expanding:
        # image lengths stay bounded, so the subshift is empty
        return TamenessReport("tame", classification, bounded_legal_words=((),),
                              n_sigma=1, empty_subshift=True)
    r_map, l_map = frontier_maps(sub, classification)
    for side, mapping, boundary in (("right", r_map, classification.a_right),
                                    ("left", l_map, classification.a_left)):
        cycles = _cycle_members(mapping)
        witnesses = sorted(c for c in cycles if c in boundary)
        if witnesses:
            letter = min(witnesses, key=sub.letter_index)
            witness = WildWitness(letter, side, cycles[letter])
            word = wild_periodic_word(sub, witness)
            witness = WildWitness(letter, side, cycles[letter], word)
            return TamenessReport("wild", classification, witness=witness)
    # tame: collect every bounded legal word
    table = table_for(sub, tameness_table_length(sub))
    bounded_words: list[Word] = [()]
    length = 1
    while True:
        if length > table.max_length:
            raise MarginError("bounded legal words persist past the margin order; "
                              "raise the table bound")
        at_length = [w for w in table.legal(length)
                     if all(x in classification.bounded for x in w)]
        if not at_length:
            break
        bounded_words.extend(at_length)
        length += 1
    return TamenessReport("tame", classification,
                          bounded_legal_words=tuple(bounded_words),
                          n_sigma=length, exact=table.legal_exact)


def wild_periodic_word(sub: Substitution, witness: WildWitness) -> Word:
    """The bounded periodic word built from a wildness witness: iterate the
    bounded tail (head) of sigma^N(c) until the iterates cycle and
    concatenate one full cycle, checked by the periodic-point search."""
    classification = classify_letters(sub)
    c = witness.letter
    if c not in classification.expanding:
        raise WitnessError(f"witness letter {c!r} is not expanding")
    n = witness.period
    image = sub.iterate((c,), n)
    expanding_positions = [i for i, x in enumerate(image) if x in classification.expanding]
    if not expanding_positions:
        raise WitnessError("witness image contains no expanding letter")
    if witness.side == "right":
        pos = expanding_positions[-1]
        if image[pos] != c:
            raise WitnessError(f"letter {c!r} is not on an r-cycle of period {n}")
        tail: Word = image[pos + 1:]
    else:
        pos = expanding_positions[0]
        if image[pos] != c:
            raise WitnessError(f"letter {c!r} is not on an l-cycle of period {n}")
        tail = image[:pos]
    if not tail:
        # degenerate: the frontier letter sits at the very end (start); the
        # construction still yields a periodic point when the whole image is
        # a power of the witness letter
        if all(x == c for x in image) and len(image) >= 2:
            word: Word = (c,)
        else:
            raise WitnessError("witness has an empty bounded tail; no periodic "
                               "word arises from it")
    else:
        iterates = [tail]
        seen = {tail: 0}
        while True:
            nxt = sub.iterate(iterates[-1], n)
            if nxt in seen:
                start = seen[nxt]
                cycle = iterates[start:]
                break
            seen[nxt] = len(iterates)
            iterates.append(nxt)
        if witness.side == "right":
            word = tuple(itertools.chain.from_iterable(cycle))
        else:
            word = tuple(itertools.chain.from_iterable(reversed(cycle)))
    hits = periodic_point_search(sub, len(word))
    if not any(_is_rotation_power(hit, word) for hit in hits):
        raise WitnessError(f"constructed word {word!r} failed the periodic check")
    return word


def _is_rotation_power(candidate: Word, word: Word) -> bool:
    """candidate is a rotation of a primitive root of word."""
    root = word
    for period in range(1, len(word) + 1):
        if len(word) % period == 0 and word == word[:period] * (len(word) // period):
            root = word[:period]
            break
    rotations = {root[i:] + root[:i] for i in range(len(root))}
    return candidate in rotations


@dataclass(frozen=True)
class SeedResult:
    fixed_pointed_word: PointedWord
    power: int
    seed_letter: str
    n_for_doubling: int


def _frontier_closure(sub, classification, cap):
    """The admitted pointed-word shapes of length <= cap, coded, and the
    frontier step T on coded shapes: word -> (T(word), where it starts in
    sigma(word)).  See the module docstring for why this is exact."""
    expanding = frozenset(sub.encode(classification.expanding))
    images = {c: sub.apply_coded(c) for c in sub.encode(sub.alphabet)}
    marks = {c: [i for i, x in enumerate(image) if x in expanding]
             for c, image in images.items()}

    def step(word):
        image = sub.apply_coded(word)
        begin = marks[word[0]][-1]
        end = len(image) - len(images[word[-1]]) + marks[word[-1]][0] + 1
        return image[begin:end], begin

    shapes = {images[c][i:j + 1] for c in images
              for i, j in zip(marks[c], marks[c][1:]) if j - i < cap}
    frontier = shapes
    while frontier:
        frontier = {t for t, _ in map(step, frontier) if len(t) <= cap} - shapes
        shapes |= frontier
    return shapes, step


def find_seed(sub: Substitution) -> SeedResult:
    """A pointed word fixed by a power of the image-frontier map, a legal
    expanding seed letter b, and the least multiple N of the period with two
    occurrences of b in sigma^N(b).

    The orbits start from every separator position of the admitted shapes
    of length <= ``tameness_table_length(sub)``, the frontier closure of the
    module docstring, which reads no language table; the cap is argued there.
    The walk steps coded pointed words with the closure's step.  The
    doubling search tries N = p, 2p, ..., 64p and stops past 1M letters; it
    steps the count of b in sigma^N(x) and the length |sigma^N(x)| of every
    letter x through the rule, so no iterate is built to measure one."""
    report = decide_tameness(sub)
    if report.empty_subshift:
        raise EmptySubshiftError("cannot seed an empty subshift")
    if not report.tame:
        raise WildInputError("seed search requires a tame substitution")
    shapes, frontier = _frontier_closure(sub, report.classification,
                                         tameness_table_length(sub))
    periodic: dict[tuple[str, int], int] = {}
    step_cache: dict[tuple[str, int], tuple[str, int]] = {}

    def step(pointed):
        # the separator moves with sigma, then by where T(word) starts; it
        # stays inside, as sigma(word[:origin]) holds all of sigma(word[0])
        # and sigma(word[origin:]) all of sigma(word[-1])
        if pointed not in step_cache:
            word, origin = pointed
            image, begin = frontier(word)
            step_cache[pointed] = image, len(sub.apply_coded(word[:origin])) - begin
        return step_cache[pointed]

    for start in ((word, origin) for word in shapes for origin in range(1, len(word))):
        orbit_index = {start: 0}
        orbit = [start]
        node = start
        while True:
            node = step(node)
            if node in orbit_index:
                first = orbit_index[node]
                cycle = orbit[first:]
                for member in cycle:
                    periodic.setdefault(member, len(cycle))
                break
            if node in periodic:
                break
            orbit_index[node] = len(orbit)
            orbit.append(node)
    if not periodic:
        raise WitnessError("no pointed word is fixed by any power of the frontier map")
    decoded = {PointedWord(sub.decode(word), origin): period
               for (word, origin), period in periodic.items()}
    v = min(decoded, key=lambda p: (len(p.word), p.word, p.origin))
    p = decoded[v]
    for b in sorted({v.word[0], v.word[-1]}, key=sub.letter_index):
        # per letter x: the occurrences of b in sigma^n(x), and |sigma^n(x)|
        count = {x: int(x == b) for x in sub.alphabet}
        length = dict.fromkeys(sub.alphabet, 1)
        for n in range(p, 65 * p, p):
            for _ in range(p):
                count, length = sub.sum_over_images(count), sub.sum_over_images(length)
            if count[b] >= 2:
                return SeedResult(v, p, b, n)
            if length[b] > 1_000_000:
                break
    raise WitnessError("no endpoint letter doubles under iteration; "
                       "the subshift is unlikely to be minimal")


@dataclass(frozen=True)
class MinimalityResult:
    verdict: str  # "yes", "no", "unknown"
    constant: int | None = None
    witness: tuple[Word, Word] | None = None
    reason: str = ""
    bound: int | None = None


def _recurrence_constant(table: LanguageTable) -> int | None:
    """Least C <= 8 such that every legal word longer than C|u|
    contains every legal u, checked to the table bound; requires at least
    two scales to have been testable."""
    max_len = table.max_length
    for constant in range(1, 9):
        scales = 0
        ok = True
        for ulen in range(1, max_len + 1):
            target = constant * ulen + 1
            if target > max_len:
                break
            scales += 1
            longer = table.legal_coded(target)
            for u in table.legal_coded(ulen):
                if any(u not in v for v in longer):
                    ok = False
                    break
            if not ok:
                break
        if ok and scales >= 2:
            return constant
    return None


def is_minimal(sub: Substitution, table: LanguageTable | None = None,
               use_cis: bool = True) -> MinimalityResult:
    """Semi-decision of minimality.  Primitive substitutions are minimal;
    wild ones are minimal iff the subshift is a single periodic orbit; tame
    non-primitive ones are probed by a linear-recurrence search on
    ``table`` (``minimality_table_length`` by default), with the
    invariant-subspace lattice as the certifying negative oracle.  The
    lattice is read first: two nonempty closed invariant subspaces prove
    the rule is not minimal whatever the recurrence search finds to the
    table bound, which a rule can pass without being minimal.  If the
    lattice cannot be built, the recurrence search decides alone.

    Tameness is ``decide_tameness(sub)`` whatever ``table`` is, and the
    oracle's lattice ``cis.lattice_for(sub, n_sigma)``, both session-wide."""
    report = decide_tameness(sub)
    if report.empty_subshift:
        return MinimalityResult("no", reason="empty subshift")
    if sub.is_primitive():
        return MinimalityResult("yes", reason="primitive")
    if not report.tame:
        word = report.witness.periodic_word
        length, outside = periodic_orbit_escape(sub, word)
        if outside is None:
            return MinimalityResult("yes", reason="single periodic orbit", bound=length)
        return MinimalityResult("no", witness=(outside, (word * length)[:length]),
                                reason="wild with a sequence outside the periodic orbit")
    if table is None:
        table = table_for(sub, minimality_table_length(sub))
    lattice = None
    if use_cis:
        from .cis import lattice_for
        try:
            lattice = lattice_for(sub, report.n_sigma)
        except SubstdynError:
            pass
    nonempty = [node for node in lattice.nodes if node.edges] if lattice is not None else []
    if len(nonempty) >= 2:
        small = min(nonempty, key=lambda node: len(node.edges))
        big = max(nonempty, key=lambda node: len(node.edges))
        outside_edges = sorted(big.edges - small.edges)
        u = lattice.collared.letters[outside_edges[0]].context
        coded_u = sub.encode(u)
        # the legal words have one length, so with each letter coded by its
        # token's rank they compare as their token tuples do, and only the
        # least is decoded
        by_token = str.maketrans(sub.encode(sorted(sub.alphabet)),
                                 "".join(map(chr, range(len(sub)))))
        v = min((w for w in table.legal_coded(table.max_length) if coded_u not in w),
                key=lambda w: w.translate(by_token), default=None)
        witness = (u, sub.decode(v)) if v is not None else None
        return MinimalityResult("no", witness=witness,
                                reason="two distinct nonempty closed invariant subspaces")
    constant = _recurrence_constant(table)
    if constant is not None:
        if table.legal_exact:
            return MinimalityResult("yes", constant=constant,
                                    reason="linear recurrence verified to bound",
                                    bound=table.max_length)
        return MinimalityResult("unknown", constant=constant,
                                reason="recurrence holds but legality not stabilised",
                                bound=table.max_length)
    if not use_cis:
        reason = "recurrence inconclusive"
    elif lattice is None:
        reason = "recurrence failed; lattice unavailable"
    else:
        reason = "recurrence inconclusive; lattice trivial"
    return MinimalityResult("unknown", reason=reason, bound=table.max_length)
