import random

import pytest

from substdyn.apcomplex import build_complex, induced_map
from substdyn.classify import decide_tameness
from substdyn.cli import DEFAULT_MAX_EDGES
from substdyn.collar import CollaredLetter, border_forcing_level, collar
from substdyn.core import Substitution, parse_substitution
from substdyn.corpus import CORPUS
from substdyn.errors import BorderForcingError, PaddingError, SubstdynError, SymbolError
from substdyn.language import LanguageTable

from collar_oracles import (decollar_rules, forget, forgetful_map,
                            reference_border_forcing_level, reference_build_graph,
                            reference_collar, reference_induced_map,
                            reference_transitions)


def test_fib_handle_legal_letters(fib_handle):
    collared = collar(fib_handle, 1)
    expected = {"0|001", "1|010", "2|021", "0|100", "0|101", "0|102", "1|210"}
    assert set(collared.legal) == expected
    assert set(collared.letters) == expected  # closure adds nothing here
    assert not collared.from_padding


def test_chacon_collared_rules(chacon):
    collared = collar(chacon, 1)
    name = {"a|aaa": "1", "a|aab": "2", "b|aba": "3", "a|bab": "4", "a|baa": "5"}
    assert set(collared.legal) == set(name)
    rules = {name[t]: "".join(name[x] for x in collared.sub.rules[t])
             for t in collared.legal}
    assert rules == {"1": "1235", "2": "1234", "3": "3", "4": "5234", "5": "5235"}


def test_radius_zero_is_base(fib_handle):
    collared = collar(fib_handle, 0)
    assert decollar_rules(collared) == fib_handle
    assert forget(collared, 0) is collared


def test_forget_round_trip(fib_handle, chacon):
    collared = collar(fib_handle, 1)
    assert decollar_rules(forget(collared, 0)) == fib_handle
    deep = collar(chacon, 2)
    assert set(forget(deep, 1).legal) == set(collar(chacon, 1).legal)
    mapping = forgetful_map(deep, 1)
    assert all(token in collar(chacon, 1).letters for token in mapping.values())


def test_forgetful_composition(chacon):
    deep = collar(chacon, 2)
    via_one = forgetful_map(collar(chacon, 1), 0)
    two_to_one = forgetful_map(deep, 1)
    direct = forgetful_map(deep, 0)
    assert {t: via_one[two_to_one[t]] for t in two_to_one} == direct


def test_intertwining(chacon):
    # forgetting collars commutes with the induced substitutions
    deep = collar(chacon, 2)
    shallow = collar(chacon, 1)
    mapping = forgetful_map(deep, 1)
    for token in deep.letters:
        image = tuple(mapping[x] for x in deep.sub.rules[token])
        assert image == shallow.sub.rules[mapping[token]]


def test_padding_letter_occurs_for_illegal_letters():
    sub = parse_substitution("a -> aba\nb -> bbab\nc -> aa\n")
    collared = collar(sub, 1)
    assert any(token.startswith("c|") for token in collared.from_padding)
    padded = next(iter(collared.from_padding))
    letter = collared.letters[padded]
    assert letter.context[0] == "a" and letter.context[-1] == "a"
    with pytest.raises(PaddingError):
        collar(sub, 1, padding="z")


def test_collared_legality_cross_check(chacon, fib_handle):
    # legality computed inside the collared system agrees with collaring the
    # base legal words (small instances only: the collared language table is
    # expensive)
    for sub in (chacon, fib_handle):
        collared = collar(sub, 1)
        own = LanguageTable(collared.sub, 1)
        assert {w[0] for w in own.legal(1)} == set(collared.legal)


def test_border_forcing_levels(chacon, fib_handle):
    assert border_forcing_level(collar(chacon, 2)) == 1
    assert border_forcing_level(collar(fib_handle, 1)) == 1
    uniform = parse_substitution("a -> abb\nb -> bbb\n")
    assert border_forcing_level(collar(uniform, 1)) == 1


def test_border_forcing_radius_guard(chacon):
    with pytest.raises(BorderForcingError):
        border_forcing_level(collar(chacon, 1))


def test_token_format(fib_handle):
    letter = CollaredLetter("0", ("1", "0", "2"))
    assert letter.token(fib_handle) == "0|102"
    multi = parse_substitution("0 -> 0b 0\n0b -> 0\n")
    token = CollaredLetter("0b", ("0", "0b", "0")).token(multi)
    assert token == "0b|0.0b.0"


def _outcome(build, *args, **kwargs):
    """(``build``'s result, None), or (None, the type and message of the
    SubstdynError it raises)."""
    try:
        return build(*args, **kwargs), None
    except SubstdynError as exc:
        return None, (type(exc), str(exc))


def _check_against_tokens(sub: Substitution, radius: int):
    """The coded collar, its complex, its induced map and its forcing level
    against the token-based reference, within the CLI's letter budget."""
    new, error = _outcome(collar, sub, radius, max_letters=DEFAULT_MAX_EDGES)
    old, old_error = _outcome(reference_collar, sub, radius, max_letters=DEFAULT_MAX_EDGES)
    assert error == old_error
    if old_error:
        return
    assert new.sub.alphabet == old.sub.alphabet
    assert new.sub.rules == old.sub.rules
    assert new.legal == old.legal and new.from_padding == old.from_padding
    assert new.letters == old.letters and new.tokens == old.tokens
    assert new.transitions() == reference_transitions(old)
    if not new.legal:
        return
    complex_ = build_complex(new)
    source, target, labels = reference_build_graph(sorted(old.legal),
                                                   reference_transitions(old))
    assert (complex_.graph.source, complex_.graph.target) == (source, target)
    if radius > 0 or sub.single_char_tokens:
        assert complex_.graph.vertex_labels == labels
    for power in (1, 2):
        cell_map, error = _outcome(induced_map, new, complex_, power)
        reference, reference_error = _outcome(reference_induced_map, new, complex_, power)
        assert error == reference_error
        if not error:
            assert (cell_map.on_edges, cell_map.on_vertices) == reference
    assert _outcome(border_forcing_level, new) == \
        _outcome(reference_border_forcing_level, old)


def _radii(sub: Substitution, cap: int | None = None):
    n_sigma = decide_tameness(sub).n_sigma or 0
    top = n_sigma + 1 if cap is None else min(n_sigma + 1, cap)
    return range(top + 1)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_coded_collar_matches_tokens_on_the_corpus(name):
    sub = CORPUS[name].substitution()
    for radius in _radii(sub):
        _check_against_tokens(sub, radius)


# alphabets out of index order, with multi-character letters, one a prefix
# of another
ALPHABETS = [tuple("abcde"), ("0", "1", "2", "0b", "x"), tuple("dbeca"),
             ("ab", "b", "ba", "c", "cc"), ("q", "10", "1", "01", "z")]


def _seeded_rules(count=120, seed=20261019):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        names = ALPHABETS[i % len(ALPHABETS)][:rng.randint(2, 5)]
        out.append(Substitution(
            [(a, tuple(rng.choice(names) for _ in range(rng.randint(1, 4))))
             for a in names], alphabet=names))
    return out


SEEDED = _seeded_rules()


def test_seeded_rules_cover_padding_and_long_tokens():
    padded = [sub for sub in SEEDED if collar(sub, 1).from_padding]
    assert len(padded) >= 20
    assert sum(not sub.single_char_tokens for sub in SEEDED) >= 40


@pytest.mark.parametrize("chunk", range(4))
def test_coded_collar_matches_tokens_on_seeded_rules(chunk):
    for sub in SEEDED[chunk::4]:
        for radius in _radii(sub, cap=3):
            _check_against_tokens(sub, radius)


def test_format_word_runs_once_per_collared_letter(monkeypatch):
    calls = []
    original = Substitution.format_word

    def counted(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(Substitution, "format_word", counted)
    rng = random.Random(7)
    letters = "abcdef"
    primitive = Substitution([(a, tuple(rng.choice(letters) for _ in range(3)))
                              for a in letters])
    cases = [(CORPUS[name].substitution(), None)
             for name in ("fib_handle", "chacon", "two_trib_bridge", "sigma_3")]
    cases.append((primitive, 2))
    for sub, radius in cases:
        radius = decide_tameness(sub).n_sigma if radius is None else radius
        calls.clear()
        collared = collar(sub, radius)
        build_complex(collared)
        border_forcing_level(collared)
        assert len(calls) <= len(collared.sub.alphabet)


def test_colliding_tokens_raise():
    # (a.c, c, y) and (a, c, c.y) both format to c|a.c.c.y
    sub = parse_substitution("a.c -> a.c c y\nc -> c y a\na -> a c c.y\n"
                             "c.y -> a.c c\ny -> a c.y\n")
    with pytest.raises(SymbolError, match=r"c\|a\.c\.c\.y") as info:
        collar(sub, 1)
    assert "('a.c', 'c', 'y')" in str(info.value)
    assert "('a', 'c', 'c.y')" in str(info.value)
