"""Admitted and legal languages of a substitution.

Admitted words are factors of some sigma^k(a).  They are computed by
iterating, per letter, the set of maximal bounded-length factors of
sigma^k(a): the per-letter tuples of factor sets evolve under a
deterministic map on a finite state space, so they are eventually periodic
and the union over the pre-period and cycle is exact.  A word recurs in
many states, so each distinct word is expanded once per core (see below);
a group recurs too (at other letters, or at a later step once the groups
of a primitive rule converge), so each distinct group is stepped once.

A step expands only leading windows.  Let u = sigma^k(a) with |u| >= cap,
and take a cap-window of sigma(u) that starts inside sigma(u[i]).  If
i <= |u| - cap, it lies in sigma(u[i:i + cap]), as no image is empty, and
starts inside the image of that word's first letter; otherwise it lies in
sigma of the last cap letters of u.  So the cap-factors of sigma(u) are
the windows of sigma(w) starting in sigma(w[0]), for each cap-factor w of
u, together with every window of sigma(tail), where tail is the last cap
letters of u.  The tail is carried per letter beside the state (tail
becomes the last cap letters of sigma(tail)), and kept out of it: the
cap-factors of sigma(u) are determined by those of u, which the expansion
of every window of every image shows, so a group's successor does not
depend on whose tail stepped it.  A word's leading windows need only the
image of its shortest prefix whose image reaches |sigma(w[0])| + cap - 1
letters.

Only the longest admitted words (length cap) and the shorter whole images
met along the way are kept.  Every other length is derived top-down: each
admitted word of length l is a prefix or suffix of an admitted word of
length l + 1, or itself a short image, so admitted(l) is the prefixes and
suffixes of admitted(l + 1) plus the short images of length l.

A primitive rule instead derives each length on first request, once per
rule, from no core.  Its language is extendable (sigma^N(b) holds every
letter, so a factor of sigma^k(a) recurs with context on both sides), so
every admitted word shorter than m is a prefix of one of length m: a
length is the prefixes of the least longer length derived so far, which
costs less than a closure (the CIS context asks for l and then l - 1),
and the store derives BASE_CAP (cap below) when it is built.  The short
images the iteration keeps add nothing here.

A length cap with no longer length derived is closed from one word.
Iterate sigma on a letter until the image has cap letters (every letter
of a primitive rule other than a -> a grows under sigma^N), and take that
prefix w0; then add, for each new word w, the leading windows of w: the
cap-windows of sigma(w) that start inside sigma(w[0]), until no new word
appears.  Each is admitted (if w lies in sigma^k(y), they lie in
sigma^(k+1)(y)) and has cap letters, as |sigma(w[1:])| >= cap - 1.  Every
admitted cap-word is reached.  By induction on k, the words reached hold
every cap-window of sigma^k(w0) that starts inside sigma^k(x), where
x = w0[0]: such a window starts inside sigma(c) for a letter c of
sigma^(k-1)(x), so it is a leading window of the cap-window of
sigma^(k-1)(w0) that starts at c, which is whole, as
|sigma^(k-1)(w0[1:])| >= cap - 1.  And an admitted cap-word lies in some
sigma^n(y), and by primitivity y lies in some sigma^p(x), so the word lies
inside sigma^(n+p)(x).  Primitive factor complexity is linear (Cassaigne
1997), so the closed sets stay small at every length.  The one primitive
rule whose images all have one letter, a -> a, admits its letter and no
longer word; it is not iterated.

Legal words are factors of bi-infinite sequences of the subshift.  A word
of length l is accepted when it lies on a bi-infinite path of the Rauzy
graph at a margin order m >= l (reachable from a cycle and reaching a
cycle).  The vertices on such paths are closed under the shift (a path
through a vertex continues through its successor), so the accepted words
of length l are exactly the length-l prefixes of those vertices.  This
over-approximates legality and decreases to it as m grows, so the table is
flagged exact only when two successive margin orders agree.  Only the
max_length set is built with the table: every shorter set is the prefixes
of that one, derived the first time its length is asked for, so agreement
at max_length implies agreement below it.  Emptiness of the subshift,
by contrast, is decided exactly: the subshift is empty iff admitted word
lengths stay bounded.

The periodic-point search takes its candidates from the table it checks
against.  A cyclic word u of length p <= max_length can pass only if u is
legal, because u is a prefix of the first window of its repetition; so the
candidates of length p are the legal words of length p that are not proper
powers, not all |A|^p words.  A table's legal set of each length holds the
prefixes of its longer legal words: a primitive table's sets are admitted
sets, which are factor-closed, and a non-primitive table's are the prefixes
of its top set.  So a repetition with an illegal window of some length
also has one at the table bound, which holds that window as a prefix.  The
search therefore drops candidates on windows of length 8, 16, 32, ...
before it reaches the bound, and reads a length's set only while a
candidate survives.  On twenty random primitive rules of 6-8 letters, with
images of 2-3 letters, every candidate died by length 32, so the set at
the bound (36-48) was never derived.  Only the survivors are decoded.  The
rotations of a word share its windows, so they survive or die together,
and the search reports each surviving class once, as its least rotation.

Every stage gets its table from ``table_for``, keyed by (substitution,
max_length, resolved margin).  Inside ``session()``, which ``cli.main``
opens around each command, each key is built once; outside one, every call
builds afresh.  A non-primitive table only truncates its core to
max_length: the admitted words up to the cap margin + 2 and the
bi-infinite vertices at both margin orders do not depend on it, so a core
is built once per (substitution, cap) likewise, and a primitive rule's
word store once per rule.  A primitive table builds a core, at
max_length + 1, only for stabilized_at (read by analyze alone); its words
come from no core.  The store also keeps a rule's tameness
report, and its collared rule and lattice per radius, which each stage
reads itself; keyword options to ``_once`` (a letter budget) are not part
of the key, so a caller checks its own against what it gets.  A build
that fails fails once: the store keeps its error (see ``_once``).  The
store is a context variable dropped when the session closes, not an
attribute of the substitution: a table refers to its rule, so a store on
the rule forms a reference cycle that only the cyclic collector frees,
and that doubled a corpus pass's peak RSS (39 to 82-87 MB).
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import functools

from .core import Substitution, Word
from .errors import EdgeBudgetError, MarginError, SubstdynError
from .graphs import biinfinite_path_nodes

# Hard ceiling on the default margin order; larger orders must be requested
# explicitly (guards accidental blow-ups on large alphabets).
DEFAULT_MARGIN_CAP = 400

# A primitive rule's word store closes its words of this length when it is
# built, and takes shorter ones as their prefixes, so the tables of a
# radius-2 collar (length 6) close no other length.
BASE_CAP = 7

# The periodic-point search checks windows of this length first, then of
# twice the length, and so on up to its table bound.
_FIRST_WINDOW = 8


def default_margin(sub: Substitution, max_length: int) -> int:
    return max(max_length, 2 * sub.max_image_len * len(sub.alphabet))


def resolve_margin(sub: Substitution, max_length: int, margin: int | None = None) -> int:
    """The margin order a table built with these arguments uses."""
    if margin is None:
        margin = min(default_margin(sub, max_length), max(max_length, DEFAULT_MARGIN_CAP))
    return max(margin, max_length)


class _LanguageCore:
    """What the tables of a rule at one cap share: the admitted words, and
    for a non-primitive rule the bi-infinite Rauzy vertices at cap - 2 and
    cap - 1."""

    def __init__(self, sub: Substitution, cap: int):
        self.sub = sub
        self._cap = cap
        self._short: dict[int, list[str]] = {}
        self._admitted_cache: dict[int, frozenset[str]] = {}
        self.stabilized_at = self._compute_admitted()
        self.empty_subshift = not self._admitted_cache[cap]
        self.vertices = None
        if not self.empty_subshift and not sub.is_primitive():
            self.vertices = (self._biinfinite_words(cap - 2),
                             self._biinfinite_words(cap - 1))

    def _compute_admitted(self) -> int:
        sub = self.sub
        cap = self._cap
        apply = sub.apply_coded
        image_len = {c: len(apply(c)) for c in sub.encode(sub.alphabet)}
        # windows are interned so that equal strings are stored once
        interned: dict[str, str] = {}
        # cap-word w -> the windows of sigma(w) starting in sigma(w[0])
        leading: dict[str, tuple[str, ...]] = {}

        def lead(word):
            first = image_len[word[0]]
            # the shortest prefix whose image reaches first + cap - 1 letters
            need = first + cap - 1
            end = 0
            for letter in word:
                need -= image_len[letter]
                end += 1
                if need <= 0:
                    break
            image = apply(word[:end])
            return tuple(interned.setdefault(w, w)
                         for w in (image[i:i + cap] for i in range(first)))

        def windows(image):
            if len(image) <= cap:
                return {interned.setdefault(image, image)}
            return {interned.setdefault(w, w)
                    for w in {image[i:i + cap] for i in range(len(image) - cap + 1)}}

        letters = sub.encode(sub.alphabet)
        state = tuple(frozenset((c,)) for c in letters)
        # the last cap letters of sigma^k(a) per letter (all of it when
        # shorter); kept out of the state, which it does not determine
        tails = list(letters)
        seen = {state: 0}
        # group -> its successor, which depends on the group alone; the
        # letters' groups often coincide, and every key and value is a
        # group that some state in seen holds
        step: dict[frozenset[str], frozenset[str]] = {}
        k = 0
        while True:
            nxt = []
            for index, group in enumerate(state):
                tail = tails[index]
                image = apply(tail)
                tails[index] = image[-cap:]
                new_group = step.get(group)
                if new_group is None:
                    grown_group = windows(image)
                    # a shorter tail is all of sigma^k(a), the group's one word
                    if len(tail) == cap:
                        for word in group:
                            grown = leading.get(word)
                            if grown is None:
                                grown = leading[word] = lead(word)
                            grown_group.update(grown)
                    new_group = step[group] = frozenset(grown_group)
                nxt.append(new_group)
            state = tuple(nxt)
            k += 1
            if state in seen:
                break
            seen[state] = k
        # the final state repeats one in seen, so seen holds every word
        pool = set()
        for state in seen:
            for group in state:
                pool.update(group)
        for word in pool:
            if len(word) < cap:
                self._short.setdefault(len(word), []).append(word)
        self._admitted_cache[cap] = frozenset(w for w in pool if len(w) == cap)
        return k

    def _admitted_exact_length(self, length: int, keep: int = 0) -> frozenset[str]:
        if length == 0:
            return frozenset(("",))
        if length > self._cap:
            raise MarginError(f"admitted length {length} exceeds computed cap {self._cap}")
        cached = self._admitted_cache.get(length)
        if cached is not None:
            return cached
        # walk down from the nearest computed length above; lengths past
        # ``keep`` are stored only when asked for, as they can be long
        above = min(known for known in self._admitted_cache if known > length)
        words = self._admitted_cache[above]
        for current in range(above - 1, length - 1, -1):
            level = {w[:-1] for w in words}
            level.update(w[1:] for w in words)
            level.update(self._short.get(current, ()))
            words = frozenset(level)
            if current <= keep or current == length:
                self._admitted_cache[current] = words
        return words

    def _biinfinite_words(self, order: int) -> set[str]:
        vertices = self._admitted_exact_length(order)
        longer = self._admitted_exact_length(order + 1)
        succ_map: dict[str, list[str]] = {v: [] for v in vertices}
        pred_map: dict[str, list[str]] = {v: [] for v in vertices}
        for word in longer:
            head, tail = word[:-1], word[1:]
            succ_map[head].append(tail)
            pred_map[tail].append(head)
        return biinfinite_path_nodes(vertices, succ_map.__getitem__, pred_map.__getitem__)


class _PrimitiveWords:
    """A primitive rule's admitted words, each length derived once: as the
    prefixes of the least longer length derived, or else by closing one
    word of the length under its leading windows."""

    def __init__(self, sub: Substitution):
        self.sub = sub
        letters = sub.encode(sub.alphabet)
        self._image_len = {c: len(sub.apply_coded(c)) for c in letters}
        # sigma^N(b) holds every letter, so each letter is admitted
        self._words: dict[int, frozenset[str]] = {0: frozenset(("",)),
                                                  1: frozenset(letters)}
        self._words[BASE_CAP] = self._close(BASE_CAP)

    def _close(self, cap: int) -> frozenset[str]:
        # a prefix of some sigma^k(a), closed under the windows of sigma(w)
        # that start inside sigma(w[0])
        if self.sub.max_image_len == 1:
            # a -> a: no image grows, and its letter is its only word
            return frozenset()
        apply, image_len = self.sub.apply_coded, self._image_len
        word = next(iter(image_len))  # the first letter
        while len(word) < cap:
            word = apply(word)
        todo = [word[:cap]]
        words = set(todo)
        for word in todo:
            image = apply(word)
            for i in range(image_len[word[0]]):
                window = image[i:i + cap]
                if window not in words:
                    words.add(window)
                    todo.append(window)
        return frozenset(words)

    def admitted(self, length: int) -> frozenset[str]:
        """The words of a length."""
        words = self._words.get(length)
        if words is None:
            longer = min((n for n in self._words if n > length), default=None)
            if longer is None:
                words = self._close(length)
            else:
                words = frozenset(w[:length] for w in self._words[longer])
            self._words[length] = words
        return words


class LanguageTable:
    """Admitted/legal word sets of a substitution up to a length bound."""

    def __init__(self, sub: Substitution, max_length: int, margin: int | None = None):
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.sub = sub
        self.max_length = max_length
        self.margin = resolve_margin(sub, max_length, margin)
        self._primitive = sub.is_primitive()
        # a non-primitive table needs admitted words up to cap for the Rauzy
        # graphs at orders margin and margin + 1; a primitive one serves them
        self._cap = self.margin + 2 if not self._primitive else max_length + 1
        self._legal_cache: dict[int, frozenset[str]] = {}
        self.legal_exact = True
        if self._primitive:
            # only a -> a keeps every image one letter long, and its
            # subshift is empty
            self._words = _once(_PrimitiveWords, sub)
            self.empty_subshift = sub.max_image_len == 1
            return
        self.empty_subshift = self._core.empty_subshift
        if not self.empty_subshift:
            self._compute_legal()

    @functools.cached_property
    def _core(self) -> _LanguageCore:
        # a primitive table builds it only for stabilized_at
        return _once(_LanguageCore, self.sub, self._cap)

    @property
    def stabilized_at(self) -> int:
        return self._core.stabilized_at

    # -- admitted ---------------------------------------------------------

    def admitted(self, length: int) -> list[Word]:
        """Sorted admitted words of the given length (<= internal cap)."""
        return sorted(self.sub.decode(w) for w in self.admitted_coded(length))

    def admitted_coded(self, length: int) -> frozenset[str]:
        if not 0 <= length <= self._cap:
            raise MarginError(f"admitted length {length} outside 0..{self._cap}, the computed cap")
        if self._primitive:
            return self._words.admitted(length)
        return self._core._admitted_exact_length(length, keep=self.max_length)

    # -- legal ------------------------------------------------------------

    def _compute_legal(self):
        top = self.max_length
        at_margin, above = self._core.vertices
        # legality-at-order shrinks as the order grows; keep the tighter set
        words = frozenset(v[:top] for v in above)
        self.legal_exact = {v[:top] for v in at_margin} == words
        self._legal_cache[top] = words

    def legal(self, length: int) -> list[Word]:
        """Sorted legal words of the given length (<= max_length)."""
        return sorted(self.sub.decode(w) for w in self.legal_coded(length))

    def legal_coded(self, length: int) -> frozenset[str]:
        if self.empty_subshift:
            return frozenset()
        if not 0 <= length <= self.max_length:
            raise MarginError(f"legal length {length} outside 0..{self.max_length}, the table bound")
        if self._primitive:
            # admitted and legal coincide for primitive substitutions
            return self.admitted_coded(length)
        if length not in self._legal_cache:
            top = self._legal_cache[self.max_length]
            self._legal_cache[length] = frozenset(w[:length] for w in top)
        return self._legal_cache[length]

    def is_legal(self, word) -> bool:
        coded = self.sub.encode(word)
        return coded in self.legal_coded(len(coded))


# the open session's tables and cores, keyed by class and arguments; None
# outside a session
_session_store = contextvars.ContextVar("substdyn_session_store", default=None)


def _once(build, *key, **options):
    """``build(*key, **options)``, called once per key inside ``session()``
    and on every call outside one; ``options`` are not part of the key.

    A ``SubstdynError`` the build raises is kept, and raised again on each
    later call for the key.  An ``EdgeBudgetError`` is not kept: it depends
    on the caller's letter budget, an option.  What is kept and raised
    again is a copy, as a raised error's traceback holds ``_once``'s frame
    and so the store, which would then hold the error on a reference
    cycle."""
    store = _session_store.get()
    if store is None:
        return build(*key, **options)
    if (build, *key) not in store:
        try:
            store[build, *key] = build(*key, **options)
        except EdgeBudgetError:
            raise
        except SubstdynError as exc:
            store[build, *key] = copy.copy(exc)
            raise
    entry = store[build, *key]
    if isinstance(entry, SubstdynError):
        raise copy.copy(entry)
    return entry


def table_for(sub: Substitution, max_length: int, margin: int | None = None) -> LanguageTable:
    """``LanguageTable(sub, max_length, margin)``, built once per key inside
    ``session()`` and afresh outside one."""
    return _once(LanguageTable, sub, max_length, resolve_margin(sub, max_length, margin))


@contextlib.contextmanager
def session():
    """A scope in which ``table_for`` shares its tables, tables their cores,
    and stages a rule's tameness report and lattices; all are released when
    it closes."""
    token = _session_store.set({})
    try:
        yield
    finally:
        _session_store.reset(token)


def periodic_search_length(sub: Substitution, period_bound: int) -> int:
    """Table bound ``periodic_point_search`` asks ``table_for`` for when given no table."""
    # windows must outgrow repetitions that occur inside genuinely
    # aperiodic sequences, so scale the check length with the period
    return max(4 * period_bound + 4, 2 * sub.max_image_len * len(sub.alphabet))


def periodic_orbit_escape(sub: Substitution, word: Word) -> tuple[int, Word | None]:
    """Whether the subshift is the single periodic orbit of ``word``, checked
    on the legal words of length ``periodic_search_length(sub, len(word))``:
    that length, and the least of those words outside the orbit (None when
    every one is a factor of the orbit)."""
    length = periodic_search_length(sub, len(word))
    ring = word * (length // len(word) + 2)
    factors = {ring[i:i + length] for i in range(len(word))}
    outside = sorted(set(table_for(sub, length).legal(length)) - factors)
    return length, (outside[0] if outside else None)


def periodic_point_search(sub: Substitution, period_bound: int,
                          table: LanguageTable | None = None) -> list[Word]:
    """Primitive cyclic words u with |u| <= period_bound whose bi-infinite
    repetition survives every legality check up to the table bound.  A
    nonempty result certifies a shift-periodic point; an empty result is
    evidence of aperiodicity only up to the bound.

    Each u is reported as its least rotation.  A given ``table`` must reach
    at least ``period_bound`` (ValueError otherwise): the candidates are the
    table's own legal words of each length."""
    if period_bound < 1:
        raise ValueError("period bound must be >= 1")
    if table is None:
        table = table_for(sub, periodic_search_length(sub, period_bound))
    elif table.max_length < period_bound:
        raise ValueError("table bound must be >= period bound")
    if table.empty_subshift:
        return []
    check_len = table.max_length
    # each candidate with its repetition, long enough for every window
    # length; a proper power occurs inside its own square, off the ends
    rings = [(coded, coded * (check_len // length + 2))
             for length in range(1, period_bound + 1)
             for coded in table.legal_coded(length)
             if coded not in (coded + coded)[1:-1]]
    window_len = min(_FIRST_WINDOW, check_len)
    while rings:
        windows = table.legal_coded(window_len)
        rings = [(coded, ring) for coded, ring in rings
                 if all(ring[i:i + window_len] in windows for i in range(len(coded)))]
        if window_len == check_len:
            break
        window_len = min(2 * window_len, check_len)
    found = []
    for coded, _ in rings:
        word = sub.decode(coded)
        if all(word[i:] + word[:i] >= word for i in range(1, len(word))):
            found.append(word)
    return sorted(found, key=lambda w: (len(w), w))
