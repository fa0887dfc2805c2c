"""Rewriting a minimal substitution as a primitive one.

Given a legal expanding seed letter b with sigma^N(b) containing two copies
of b, the return words to b (words bu with u free of b and bub legal) form
a finite alphabet on which sigma^N induces a primitive substitution psi.
Splitting each return-word symbol into per-position letters refines psi to
a substitution theta whose subshift is topologically conjugate to the
original one, the conjugacy being the one-block code h((v, k)) = v[k].

The return-word search stays on coded words (one character per letter, see
``core``), and each round maps by one ``str.translate`` a short stand-in
for the iterate of sigma^N(b), not the iterate (see ``return_words``).
Only the words that the returned ``ReturnWordSystem`` holds are decoded.

``verify_conjugacy`` runs on coded words too.  One ``str.translate`` table
maps a theta window to its sigma-window through h; the window is parsed by
splitting on the coded seed letter, and each coded return word maps to its
coded zeta-expansion, one theta letter per (gamma, k), so "the parse
inverts h" is one string comparison.  A window's intertwining verdict is a
function of its run of whole return words, the sigma-word from its first
seed letter to its last: theta of the run's expansion and the parse of
sigma^(N*lift) of the run depend on nothing else.  So each distinct run is
checked once per call, and every window still counts its own check.  With
one letter per zeta letter the factor test of intertwining is aligned; the
token-string test it replaced joined tokens (``abb:1abb:2``), and a joined
string can match across token boundaries.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .core import Substitution, Word
from .errors import (BlockPrefixError, BlockShortfallError, ConjugacyError,
                     DerivedLengthError, EmptySubshiftError, NonClosureError,
                     PrimitivityError, WildInputError)
from .classify import SeedResult, TamenessReport, decide_tameness, find_seed
from .language import periodic_orbit_escape, table_for


@dataclass(frozen=True)
class BlockForm:
    """sigma^N(v) written as sigma^N(b) . w . v_1 ... v_r, with the blocks
    starting at occurrences of b; for the seed letter itself the prefix is
    the b-free head u and the blocks cover the rest."""
    head: Word
    blocks: tuple[Word, ...]


@dataclass(frozen=True)
class ReturnWordSystem:
    seed_letter: str
    power: int
    return_words: tuple[Word, ...]       # enumeration order: first appearance
    has_seed_word: bool                  # True iff b itself is a return word
    head: Word                           # u: b-free prefix of sigma^N(b)
    seed_blocks: tuple[Word, ...]        # v_{0,1} .. v_{0,r0}
    decompositions: dict[Word, BlockForm]
    primed_last: dict[Word, Word]        # v |-> v_{r} u for the final block
    primed_w: dict[Word, Word]           # v |-> v_{0,r0} w (u)
    primed_seed_last: Word               # v_{0,r0} u

    @property
    def r0(self) -> int:
        return len(self.seed_blocks)


# Letters an iterate, or the sigma^N-images of the candidate return words
# together, may have before the return-word scan gives up.
_SCAN_BUDGET = 2_000_000
_PAST_BUDGET = "iterates of {!r} grew past the scan budget before the return words stabilised"


def return_words(sub: Substitution, seed: SeedResult | None = None) -> ReturnWordSystem:
    """Enumerate the return words to the seed letter by scanning iterates of
    sigma^N(b), then close the block decompositions over them.

    An iterate h (b u_1) ... (b u_k) (b t), with h, t and each u_i free of
    b, maps to sigma^N(h) sigma^N(b u_1) ... sigma^N(b t), and every
    sigma^N(b u_i) begins with sigma^N(b), which holds b.  So the image's
    head comes from h alone, its tail from t alone, and the return words
    of each piece (with the one closed by the next piece's first b) from
    its u_i alone.  The stand-in h (b u) ... (b t) over the distinct u in
    order of first appearance has an image with the same head, tail and
    return words in the same order, and only it is built; the iterate's
    letter counts give its length for the scan budget.  No iterate is built
    to measure one: |sigma^N(b)|, the first iterate, is stepped through the
    rule before sigma^N of any letter is built, and the sigma^N-images of
    the candidate return words are summed from their letters' before the
    closure builds any of them."""
    if seed is None:
        seed = find_seed(sub)
    b = seed.seed_letter
    n = seed.n_for_doubling
    max_rounds = 2 ** len(sub.alphabet) * sub.max_image_len
    past_budget = _PAST_BUDGET.format(b)
    lengths = dict.fromkeys(sub.alphabet, 1)
    for _ in range(n):
        lengths = sub.sum_over_images(lengths)
    if lengths[b] > _SCAN_BUDGET:
        raise NonClosureError(past_budget, partial=())
    # sigma^N on coded words, as one str.translate table
    images = {c: sub.apply_coded(c, n) for c in sub.encode(sub.alphabet)}
    image_len = {c: len(image) for c, image in images.items()}
    apply_power = operator.methodcaller(
        "translate", {ord(c): image for c, image in images.items()})
    b_code = sub.encode((b,))

    found: dict[str, None] = {}   # b-free tails, insertion-ordered
    word = b_code                 # the stand-in for the current iterate
    counts = {c: int(c == b_code) for c in images}   # the iterate's letters
    rounds = 0
    stable_rounds = 0

    def partial():
        return tuple(sub.decode(b_code + tail) for tail in found)

    while True:
        rounds += 1
        if rounds > max_rounds:
            raise NonClosureError(
                f"return words to {b!r} did not stabilise within {max_rounds} rounds; "
                "evidence against minimality", partial=partial())
        # the next iterate's length, from the letter counts
        if sum(counts[c] * image_len[c] for c in images) > _SCAN_BUDGET:
            # the words found so far may already close, unconfirmed by a
            # second stable round
            if found:
                system = _close_coded(sub, apply_power, image_len, b, n,
                                      [b_code + tail for tail in found])
                if system is not None:
                    return system
            raise NonClosureError(past_budget, partial=partial())
        counts = {d: sum(counts[c] * image.count(d) for c, image in images.items())
                  for d in images}
        pieces = apply_power(word).split(b_code)
        tails = dict.fromkeys(pieces[1:-1])
        if len(pieces) > 1:
            pieces = [pieces[0], *tails, pieces[-1]]
        word = b_code.join(pieces)
        before = len(found)
        found.update(tails)
        if len(found) == before:
            stable_rounds += 1
        else:
            stable_rounds = 0
        if stable_rounds < 2 or len(found) == 0:
            continue
        # candidate set is stable; try to close the block decompositions
        system = _close_coded(sub, apply_power, image_len, b, n,
                              [b_code + tail for tail in found])
        if system is not None:
            return system
        stable_rounds = 0


def _split_coded(coded: str, b_code: str):
    """(head before the first b, blocks starting at occurrences of b)."""
    head, *tails = coded.split(b_code)
    return head, tuple(b_code + tail for tail in tails)


def _close_coded(sub, apply_power, image_len, b, n, words):
    """The return-word system over the coded candidate ``words``, or None
    when some block of a sigma^N image is not among them; ``apply_power``
    is sigma^N on coded words, and ``image_len`` the length of each coded
    letter's sigma^N-image.  The candidates' images are measured before
    any is built, and past the scan budget the scan gives up."""
    if sum(image_len[c] for v in words for c in v) > _SCAN_BUDGET:
        raise NonClosureError(_PAST_BUDGET.format(b), partial=tuple(map(sub.decode, words)))
    b_code = sub.encode((b,))
    image_of_b = apply_power(b_code)
    head, seed_blocks = _split_coded(image_of_b, b_code)
    if len(seed_blocks) < 2:
        raise NonClosureError(
            f"sigma^{n}({b!r}) contains fewer than two occurrences of {b!r}")
    word_set = set(words)
    has_seed_word = b_code in word_set
    decompositions = {}
    primed_last = {}
    primed_w = {}
    ok = True
    # blocks of the seed image except the last must already be return words
    for block in seed_blocks[:-1]:
        if block not in word_set:
            ok = False
    primed_seed_last = seed_blocks[-1] + head
    if has_seed_word and primed_seed_last not in word_set:
        # only the seed-word rule consumes the closed final block
        ok = False
    for v in words:
        if v == b_code:
            continue
        image = apply_power(v)
        if not image.startswith(image_of_b):
            raise BlockPrefixError(
                f"sigma^{n} of return word {sub.decode(v)!r} does not begin "
                f"with sigma^{n}({b!r})")
        w_part, blocks = _split_coded(image[len(image_of_b):], b_code)
        decompositions[v] = (w_part, blocks)
        for block in blocks[:-1]:
            if block not in word_set:
                ok = False
        if blocks:
            primed_last[v] = blocks[-1] + head
            if primed_last[v] not in word_set:
                ok = False
            primed_w[v] = seed_blocks[-1] + w_part
        else:
            primed_w[v] = seed_blocks[-1] + w_part + head
        if primed_w[v] not in word_set:
            ok = False
    if not ok:
        return None
    decode = sub.decode
    word_of = {v: decode(v) for v in words}
    return ReturnWordSystem(
        seed_letter=b, power=n, return_words=tuple(word_of[v] for v in words),
        has_seed_word=has_seed_word, head=decode(head),
        seed_blocks=tuple(map(decode, seed_blocks)),
        decompositions={word_of[v]: BlockForm(decode(w_part), tuple(map(decode, blocks)))
                        for v, (w_part, blocks) in decompositions.items()},
        primed_last={word_of[v]: decode(word) for v, word in primed_last.items()},
        primed_w={word_of[v]: decode(word) for v, word in primed_w.items()},
        primed_seed_last=decode(primed_seed_last))


@dataclass(frozen=True)
class DerivedSubstitution:
    """psi on the return-word alphabet, with alpha expanding each symbol to
    its return word."""
    psi: Substitution
    alpha: dict[str, Word]
    system: ReturnWordSystem


def _gamma_token(sub: Substitution, v: Word) -> str:
    return sub.format_word(v).replace(" ", "_")


def build_psi(sub: Substitution, rws: ReturnWordSystem) -> DerivedSubstitution:
    token = {v: _gamma_token(sub, v) for v in rws.return_words}
    rules = []
    for v in rws.return_words:
        if v == (rws.seed_letter,):
            # seed word: image is the seed blocks with the final one closed by u
            symbols = [token[block] for block in rws.seed_blocks[:-1]]
            symbols.append(token[rws.primed_seed_last])
        else:
            form = rws.decompositions[v]
            symbols = [token[block] for block in rws.seed_blocks[:-1]]
            symbols.append(token[rws.primed_w[v]])
            if form.blocks:
                symbols.extend(token[block] for block in form.blocks[:-1])
                symbols.append(token[rws.primed_last[v]])
        rules.append((token[v], tuple(symbols)))
    psi = Substitution(rules, alphabet=tuple(token[v] for v in rws.return_words))
    alpha = {token[v]: v for v in rws.return_words}
    # length bookkeeping: the alpha-expansion of psi(v~) must cover sigma^N(v)
    power_sub = sub.power(rws.power)
    for v in rws.return_words:
        expanded = sum(len(alpha[s]) for s in psi.rules[token[v]])
        if expanded != len(power_sub.apply(v)):
            raise DerivedLengthError(
                f"derived image of {v!r} expands to {expanded} letters, "
                f"not |sigma^{rws.power}({v!r})|")
    if not psi.is_primitive():
        raise PrimitivityError("derived return-word substitution is not primitive; "
                               "the input is unlikely to be minimal")
    return DerivedSubstitution(psi=psi, alpha=alpha, system=rws)


@dataclass(frozen=True)
class ConjugateSubstitution:
    """theta on per-position letters (v, k), with the one-block code h."""
    theta: Substitution
    h: dict[str, str]                 # zeta letter -> original letter
    positions: dict[str, tuple[str, int]]  # zeta letter -> (gamma letter, k)
    p_block_size: int
    power_lift: int
    derived: DerivedSubstitution


def _zeta_token(gamma_letter: str, k: int) -> str:
    return f"{gamma_letter}:{k}"


# Powers of psi that ``build_theta`` tries before it gives up.
_MAX_LIFT = 10


def build_theta(ds: DerivedSubstitution) -> ConjugateSubstitution:
    psi = ds.psi
    alpha = ds.alpha
    lift = 1
    lifted = psi
    while any(len(lifted.rules[g]) < len(alpha[g]) for g in psi.alphabet):
        lift += 1
        if lift > _MAX_LIFT:
            raise BlockShortfallError(
                "psi images stay shorter than their return words after power lifting")
        lifted = psi.power(lift)
    # each gamma letter's zeta-expansion, its per-position letters in order
    zetas = {g: tuple(_zeta_token(g, k) for k in range(1, len(alpha[g]) + 1))
             for g in psi.alphabet}
    positions = {z: (g, k) for g in psi.alphabet for k, z in enumerate(zetas[g], 1)}
    h = {z: alpha[g][k - 1] for z, (g, k) in positions.items()}

    def expansion(gamma_word):
        return tuple(itertools.chain.from_iterable(map(zetas.__getitem__, gamma_word)))

    rules = []
    for g in psi.alphabet:
        image = lifted.rules[g]
        size = len(alpha[g])
        for k, z in enumerate(zetas[g], 1):
            rules.append((z, expansion(image[k - 1:k] if k < size else image[size - 1:])))
    theta = Substitution(rules, alphabet=tuple(positions))
    if not theta.is_primitive():
        raise PrimitivityError("letter-expansion refinement lost primitivity")
    return ConjugateSubstitution(
        theta=theta, h=h, positions=positions,
        p_block_size=max(len(v) for v in alpha.values()),
        power_lift=lift, derived=ds)


@dataclass(frozen=True)
class ConjugacyReport:
    ok: bool
    depth: int
    windows_checked: int
    checks: dict
    counterexample: tuple | None = None


def verify_conjugacy(sub: Substitution, cs: ConjugateSubstitution,
                     depth: int = 6) -> ConjugacyReport:
    """Sampled checks that h carries the refined subshift onto the original
    one: h-images of legal windows are legal, the sliding-block parse
    inverts h on window interiors, and the parse intertwines sigma^(N*lift)
    with theta.  Windows go in ``legal(depth)`` order and run coded; the
    intertwining verdict is kept per run of whole return words."""
    ds = cs.derived
    rws = ds.system
    n_total = rws.power * cs.power_lift
    theta = cs.theta
    theta_table = table_for(theta, depth)
    if theta_table.empty_subshift:
        raise EmptySubshiftError("refined substitution has an empty subshift")
    legal = table_for(sub, depth * cs.p_block_size + len(rws.head) + 2).legal_coded(depth)
    h_code = str.maketrans({theta.encode((z,)): sub.encode((a,)) for z, a in cs.h.items()})
    # the code letters ranked as their tokens sort: legal(depth) order, coded
    rank = str.maketrans({theta.encode((z,)): chr(i)
                          for i, z in enumerate(sorted(theta.alphabet))})
    zeta = {position: z for z, position in cs.positions.items()}
    # each coded return word's coded zeta-expansion, one theta letter per (gamma, k)
    expansion = {sub.encode(v): theta.encode([zeta[g, k] for k in range(1, len(v) + 1)])
                 for g, v in ds.alpha.items()}
    b_code = sub.encode((rws.seed_letter,))

    def parse(coded):
        """Where the first seed letter is, and the coded zeta-expansion of
        the whole return words from it; None if a block is no return word."""
        head, *tails = coded.split(b_code)
        words = [expansion.get(b_code + tail) for tail in tails[:-1]]
        return None if None in words else (len(head), "".join(words))

    def intertwines(run, parsed):
        """Whether the parse of sigma^(N*lift)(run) is an aligned factor of
        theta(parsed); None when the run is empty or too little of its
        image parses.  Boundary letters may be unparsed."""
        if not run:
            return None
        expected = theta.apply_coded(parsed)
        parsing = parse(sub.apply_coded(run, n_total))
        if parsing is None:
            return False
        actual = parsing[1]
        if actual and actual not in expected:
            return False
        if len(actual) < len(expected) // 2:
            return None  # too little parsed to be meaningful
        return True

    checks = {"h_legal": 0, "parse_inverts": 0, "intertwine": 0}
    verdicts = {}   # run of whole return words -> intertwining verdict
    windows = sorted(theta_table.legal_coded(depth), key=lambda w: w.translate(rank))
    for count, z_word in enumerate(windows, 1):
        image = z_word.translate(h_code)
        if image not in legal:
            kind, *detail = "h_legal", sub.decode(image)
            break
        checks["h_legal"] += 1
        parsing = parse(image)
        if parsing is None:
            kind, *detail = "parse", sub.decode(image)
            break
        start, parsed = parsing
        if z_word[start:start + len(parsed)] != parsed:
            j = next(j for j, (x, y) in enumerate(zip(z_word[start:], parsed)) if x != y)
            kind, *detail = "parse_inverts", start + j, theta.decode(parsed[j])[0]
            break
        checks["parse_inverts"] += 1
        run = image[start:start + len(parsed)]
        if run not in verdicts:
            verdicts[run] = intertwines(run, parsed)
        if verdicts[run] is False:
            kind, *detail = "intertwine", sub.decode(image)
            break
        checks["intertwine"] += 1
    else:
        return ConjugacyReport(True, depth, len(windows), checks)
    return ConjugacyReport(False, depth, count, checks,
                           counterexample=(kind, theta.decode(z_word), *detail))


def primitivize(sub: Substitution, depth: int = 6):
    """Full pipeline: tameness gate, seed, return words, psi, theta and the
    sampled conjugacy verification.  Periodic minimal inputs short-circuit
    to a constant-length primitive substitution on the periodic word."""
    report = decide_tameness(sub)
    if report.empty_subshift:
        raise EmptySubshiftError("cannot primitivize an empty subshift")
    if not report.tame:
        periodic = _periodic_bypass(sub, report)
        if periodic is not None:
            return periodic
        raise WildInputError("substitution is wild and not a single periodic orbit")
    seed = find_seed(sub)
    rws = return_words(sub, seed=seed)
    ds = build_psi(sub, rws)
    cs = build_theta(ds)
    verification = verify_conjugacy(sub, cs, depth=depth)
    if not verification.ok:
        raise ConjugacyError("conjugacy verification failed",
                             window=verification.counterexample)
    return PrimitivizationResult(ds, cs, verification, bypass=None)


@dataclass(frozen=True)
class PrimitivizationResult:
    derived: DerivedSubstitution | None
    conjugate: ConjugateSubstitution | None
    verification: ConjugacyReport | None
    bypass: Substitution | None = None

    @property
    def psi(self):
        return self.derived.psi if self.derived else self.bypass

    @property
    def theta(self):
        return self.conjugate.theta if self.conjugate else self.bypass


def _periodic_bypass(sub: Substitution, report: TamenessReport):
    """A wild but minimal subshift is one periodic orbit; it equals the
    subshift of the constant-length primitive substitution sending every
    legal letter of the cycle to the periodic word."""
    word = report.witness.periodic_word
    if periodic_orbit_escape(sub, word)[1] is not None:
        return None
    letters = sorted(set(word), key=sub.letter_index)
    rotations = {}
    for letter in letters:
        idx = word.index(letter)
        rotation = word[idx:] + word[:idx]
        if len(rotation) == 1:
            rotation = rotation * 2  # images must grow for a nonempty subshift
        rotations[letter] = rotation
    constant = Substitution([(a, rotations[a]) for a in letters], alphabet=tuple(letters))
    return PrimitivizationResult(None, None, None, bypass=constant)
