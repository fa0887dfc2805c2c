import pytest

from substdyn.collar import CollaredLetter, border_forcing_level, collar
from substdyn.core import parse_substitution
from substdyn.errors import BorderForcingError, PaddingError
from substdyn.language import LanguageTable

from collar_oracles import decollar_rules, forget, forgetful_map


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
