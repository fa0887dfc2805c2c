import dataclasses
import operator
import random
import sys
import types

import pytest

from substdyn import corpus
from substdyn.classify import find_seed
from substdyn.core import Substitution, parse_substitution
from substdyn.corpus import sigma_family
from substdyn.errors import (BlockPrefixError, DerivedLengthError, EmptySubshiftError,
                             NonClosureError, SubstdynError)
from substdyn.language import session, table_for
from substdyn.primitivize import (BlockForm, ConjugateSubstitution, ReturnWordSystem,
                                  _close_coded, build_psi, build_theta, primitivize,
                                  return_words, verify_conjugacy)
import intlin_oracles as intlin
from primitivize_oracles import reference_verify_conjugacy

from conftest import random_minimal_nonprimitive, retoken

# the package attribute ``substdyn.primitivize`` is the function
primitivize_module = sys.modules["substdyn.primitivize"]


def _close_blocks(sub, power_sub, b, n, words):
    """``_close_coded`` on tuple words, with sigma^N given as ``power_sub``."""
    image_len = {c: len(power_sub.apply_coded(c)) for c in sub.encode(sub.alphabet)}
    return _close_coded(sub, power_sub.apply_coded, image_len, b, n,
                        [sub.encode(v) for v in words])


def gamma_token(i):
    return "a" + "b" * i


def test_family_return_words():
    for n in (2, 3, 4, 5):
        sub = sigma_family(n)
        rws = return_words(sub)
        assert [sub.format_word(v) for v in rws.return_words] == \
            ["a" + "b" * i for i in range(1, n + 1)]
        assert rws.r0 == n + 1
        assert rws.head == ()
        assert not rws.has_seed_word


def test_family_psi():
    for n in (2, 3, 4, 5):
        sub = sigma_family(n)
        ds = build_psi(sub, return_words(sub))
        for i in range(1, n + 1):
            expected = tuple(gamma_token(j) for j in range(1, n + 1)) + (gamma_token(i),)
            assert ds.psi.rules[gamma_token(i)] == expected
        assert ds.psi.is_primitive()
        matrix = ds.psi.matrix()
        assert matrix == [[1 + (i == j) for j in range(n)] for i in range(n)]


def test_broken_block_invariants_raise_typed_errors():
    sub = sigma_family(2)
    rws = return_words(sub)
    with pytest.raises(DerivedLengthError):
        build_psi(sub, dataclasses.replace(rws, power=rws.power + 1))
    power_sub = sub.power(rws.power)
    # a candidate that does not start with the seed letter
    with pytest.raises(BlockPrefixError):
        _close_blocks(sub, power_sub, rws.seed_letter, rws.power,
                      rws.return_words + (("b",),))


def test_fibonacci_return_words(fib):
    rws = return_words(fib)
    assert {fib.format_word(v) for v in rws.return_words} == {"0", "01"}
    assert rws.has_seed_word
    assert rws.seed_blocks == (("0",), ("0", "1"))
    ds = build_psi(fib, rws)
    assert ds.psi.rules["0"] == ("0", "01")
    assert ds.psi.rules["01"] == ("0", "01", "01")


def test_chacon_seed_word_case(chacon):
    rws = return_words(chacon)
    assert {chacon.format_word(v) for v in rws.return_words} == {"a", "ab"}
    assert rws.has_seed_word
    ds = build_psi(chacon, rws)
    assert ds.psi.rules["a"] == ("a", "ab", "a")
    assert ds.psi.rules["ab"] == ("a", "ab", "ab")
    assert ds.psi.is_primitive()


def test_abelianisation_intertwining(fib, chacon):
    # counts(alpha(psi(g))) == M_sigma^N . counts(alpha(g)) for every symbol
    for sub in (fib, chacon, sigma_family(3)):
        rws = return_words(sub)
        ds = build_psi(sub, rws)
        power_matrix = intlin.mat_pow(sub.matrix(), rws.power)

        def counts(word):
            return [sum(1 for x in word if x == a) for a in sub.alphabet]

        for symbol in ds.psi.alphabet:
            image_counts = [0] * len(sub.alphabet)
            for out_symbol in ds.psi.rules[symbol]:
                for i, c in enumerate(counts(ds.alpha[out_symbol])):
                    image_counts[i] += c
            assert image_counts == intlin.mat_vec(power_matrix, counts(ds.alpha[symbol]))


def test_sigma3_theta_table_verbatim():
    sub = sigma_family(3)
    cs = build_theta(build_psi(sub, return_words(sub)))
    names = {"ab:1": "A", "ab:2": "B", "abb:1": "L", "abb:2": "M", "abb:3": "N",
             "abbb:1": "W", "abbb:2": "X", "abbb:3": "Y", "abbb:4": "Z"}
    table = {names[z]: "".join(names[x] for x in cs.theta.rules[z])
             for z in cs.theta.alphabet}
    assert table == {
        "A": "AB", "B": "LMNWXYZAB",
        "L": "AB", "M": "LMN", "N": "WXYZLMN",
        "W": "AB", "X": "LMN", "Y": "WXYZ", "Z": "WXYZ",
    }
    h = {names[z]: cs.h[z] for z in cs.theta.alphabet}
    assert {k for k, v in h.items() if v == "a"} == {"A", "L", "W"}
    assert {k for k, v in h.items() if v == "b"} == {"B", "M", "N", "X", "Y", "Z"}
    assert cs.p_block_size == 4
    assert cs.power_lift == 1
    assert cs.theta.is_primitive()


def test_theta_single_position_degenerate():
    # all return words of length one: the refinement is the identity recoding
    sub = parse_substitution("a -> aa\n")
    rws = return_words(sub)
    ds = build_psi(sub, rws)
    cs = build_theta(ds)
    assert len(cs.theta.alphabet) == len(ds.psi.alphabet)
    assert all(cs.h[z] == "a" for z in cs.theta.alphabet)


def test_theta_expansion_consistency(chacon):
    # theta over the positions of a symbol expands exactly psi of the symbol
    for sub in (chacon, sigma_family(2)):
        ds = build_psi(sub, return_words(sub))
        cs = build_theta(ds)
        for g in ds.psi.alphabet:
            size = len(ds.alpha[g])
            flattened = []
            for k in range(1, size + 1):
                flattened.extend(cs.theta.rules[f"{g}:{k}"])
            expected = []
            for out in ds.psi.power(cs.power_lift).rules[g]:
                expected.extend(f"{out}:{k}" for k in range(1, len(ds.alpha[out]) + 1))
            assert flattened == expected


def test_verify_conjugacy_passes(fib, chacon):
    for sub in (sigma_family(3), fib, chacon):
        result = primitivize(sub, depth=6)
        assert result.verification.ok
        assert result.verification.windows_checked > 0


def test_verify_conjugacy_catches_mutation():
    sub = sigma_family(3)
    cs = build_theta(build_psi(sub, return_words(sub)))
    rules = dict(cs.theta.rules)
    rules["abb:2"] = ("ab:1", "ab:2")  # wrong block
    mutated = ConjugateSubstitution(
        theta=Substitution(list(rules.items()), alphabet=cs.theta.alphabet),
        h=cs.h, positions=cs.positions, p_block_size=cs.p_block_size,
        power_lift=cs.power_lift, derived=cs.derived)
    report = verify_conjugacy(sub, mutated, depth=6)
    assert not report.ok
    assert report.counterexample is not None


def test_nonbijective_frontier_and_power_lift():
    # the seed-frontier map is not a bijection here; the refinement also
    # needs a genuine power lift (psi images shorter than their return words)
    sub = parse_substitution("a -> acb\nb -> adb\nc -> dd\nd -> d\n")
    result = primitivize(sub, depth=5)
    rws = result.derived.system
    assert rws.power == 2
    assert {sub.format_word(v) for v in rws.return_words} == \
        {"acbdd", "adbdd", "acbd", "adbd"}
    assert result.conjugate.power_lift == 2
    assert result.verification.ok


def test_periodic_bypass(wild_ab):
    result = primitivize(wild_ab)
    assert result.bypass is not None
    assert result.bypass.is_primitive()
    assert result.psi is result.bypass


def test_empty_subshift_guard():
    with pytest.raises(EmptySubshiftError):
        primitivize(parse_substitution("a -> b\nb -> a\n"))


# -- the tuple scan that the coded return-word search replaced -------------

def _reference_split_blocks(word, letter):
    positions = [i for i, x in enumerate(word) if x == letter]
    if not positions:
        return word, ()
    ends = positions[1:] + [len(word)]
    return word[:positions[0]], tuple(word[s:e] for s, e in zip(positions, ends))


def _reference_close_blocks(power_sub, b, n, words):
    image_of_b = power_sub.apply((b,))
    head, seed_blocks = _reference_split_blocks(image_of_b, b)
    if len(seed_blocks) < 2:
        raise NonClosureError("fewer than two occurrences")
    word_set = set(words)
    has_seed_word = (b,) in word_set
    decompositions, primed_last, primed_w = {}, {}, {}
    ok = all(block in word_set for block in seed_blocks[:-1])
    primed_seed_last = seed_blocks[-1] + head
    if has_seed_word and primed_seed_last not in word_set:
        ok = False
    for v in words:
        if v == (b,):
            continue
        image = power_sub.apply(v)
        assert image[:len(image_of_b)] == image_of_b
        w_part, blocks = _reference_split_blocks(image[len(image_of_b):], b)
        decompositions[v] = BlockForm(w_part, blocks)
        ok = ok and all(block in word_set for block in blocks[:-1])
        if blocks:
            primed_last[v] = blocks[-1] + head
            ok = ok and primed_last[v] in word_set
            primed_w[v] = seed_blocks[-1] + w_part
        else:
            primed_w[v] = seed_blocks[-1] + w_part + head
        ok = ok and primed_w[v] in word_set
    if not ok:
        return None
    return ReturnWordSystem(
        seed_letter=b, power=n, return_words=tuple(words),
        has_seed_word=has_seed_word, head=head, seed_blocks=seed_blocks,
        decompositions=decompositions, primed_last=primed_last,
        primed_w=primed_w, primed_seed_last=primed_seed_last)


def reference_return_words(sub, seed):
    """Decode every iterate of sigma^N(b) and scan it letter by letter."""
    b, n = seed.seed_letter, seed.n_for_doubling
    max_rounds = 2 ** len(sub.alphabet) * sub.max_image_len
    power_sub = sub.power(n)
    found = {}
    word = (b,)
    rounds = stable_rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise NonClosureError(
                f"return words to {b!r} did not stabilise within {max_rounds} rounds; "
                "evidence against minimality", partial=tuple(found))
        # the next iterate's length, before it is built
        if sum(len(power_sub.rules[x]) for x in word) > 2_000_000:
            # the words found so far may close without a second stable round
            system = found and _reference_close_blocks(power_sub, b, n, tuple(found))
            if system:
                return system
            raise NonClosureError(
                f"iterates of {b!r} grew past the scan budget before the "
                "return words stabilised", partial=tuple(found))
        word = power_sub.apply(word)
        positions = [i for i, x in enumerate(word) if x == b]
        before = len(found)
        for start, end in zip(positions, positions[1:]):
            found.setdefault(word[start:end], None)
        stable_rounds = stable_rounds + 1 if len(found) == before else 0
        if stable_rounds < 2 or not found:
            continue
        system = _reference_close_blocks(power_sub, b, n, tuple(found))
        if system is not None:
            return system
        stable_rounds = 0


def _return_word_outcome(search, sub, seed):
    try:
        rws = search(sub, seed)
    except NonClosureError as exc:
        return ("NonClosureError", str(exc), exc.partial)
    # dict equality ignores order, so compare the orders as well
    return (rws, list(rws.decompositions), list(rws.primed_last), list(rws.primed_w))


def _assert_coded_scan_matches(sub):
    seed = find_seed(sub)
    expected = _return_word_outcome(reference_return_words, sub, seed)
    assert _return_word_outcome(lambda sub, seed: return_words(sub, seed=seed),
                                sub, seed) == expected
    return expected


@pytest.mark.parametrize("name", [name for name in corpus.names()
                                  if name not in ("wild_ab", "empty_swap")])
def test_coded_return_words_match_tuple_scan_on_corpus(name):
    expected = _assert_coded_scan_matches(corpus.get(name))
    assert isinstance(expected[0], ReturnWordSystem)


def test_coded_return_words_match_tuple_scan_on_seeded_rules():
    rng = random.Random(23)
    names = {"a": "a0", "b": "1b", "c": "c", "d": "dd"}
    for _ in range(6):
        sub = random_minimal_nonprimitive(rng)
        assert isinstance(_assert_coded_scan_matches(sub)[0], ReturnWordSystem)
        # multi-character tokens: the coding, not the token text, is scanned
        _assert_coded_scan_matches(retoken(sub, names))


@pytest.mark.parametrize("rules", ["a -> aab\nb -> bb\n",     # round limit
                                   "a -> baa\nb -> bbbb\n"])  # scan budget
def test_coded_return_words_match_tuple_scan_on_non_closure(rules):
    outcome = _assert_coded_scan_matches(parse_substitution(rules))
    assert outcome[0] == "NonClosureError" and outcome[2]


def _seeded_rules_with_seeds(count, seed):
    """Rules of 2-5 letters with images of 1-4 letters, minimal or not,
    kept when they have a seed letter."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        letters = "abcde"[:rng.randint(2, 5)]
        sub = Substitution([(a, tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
                            for a in letters])
        try:
            find_seed(sub)
        except SubstdynError:
            continue
        out.append(sub)
    return out


def test_coded_return_words_match_tuple_scan_on_random_rules():
    # the error type, its message and the order of its partial words too,
    # on the round-limit and scan-budget paths as well as on closure
    outcomes = [_assert_coded_scan_matches(sub) for sub in _seeded_rules_with_seeds(40, 7)]
    kinds = {outcome[1].split()[0] if outcome[0] == "NonClosureError" else "closed"
             for outcome in outcomes}
    assert kinds == {"closed", "return", "iterates"}


def test_return_words_map_short_stand_ins(monkeypatch):
    # the iterates of sigma^N(b) reach 1.24M (asym_trib_a) and 1.51M
    # (asym_trib_b) letters; the words sigma^N maps stay short
    lengths = []

    def methodcaller(name, *args):
        apply = operator.methodcaller(name, *args)

        def recording(coded):
            image = apply(coded)
            lengths.append(max(len(coded), len(image)))
            return image
        return recording

    monkeypatch.setattr(primitivize_module, "operator",
                        types.SimpleNamespace(methodcaller=methodcaller))
    for name in ("asym_trib_a", "asym_trib_b"):
        sub = corpus.get(name)
        assert isinstance(return_words(sub, seed=find_seed(sub)), ReturnWordSystem)
    assert lengths and max(lengths) <= 10_000


# Primitive and tame; its seed is ('a', 'a') with period and N = 20, and
# sigma^20(a) holds 2,323,524,790 letters
RUNAWAY = "a -> dbbb\nb -> ed\nc -> eece\nd -> cddc\ne -> a\n"


def test_runaway_seed_is_measured_without_its_iterate(monkeypatch):
    apply = Substitution.apply_coded

    def one_step(self, coded, n=1):
        if n > 1:
            pytest.fail(f"sigma^{n} built")
        return apply(self, coded, n)

    monkeypatch.setattr(Substitution, "apply_coded", one_step)
    sub = parse_substitution(RUNAWAY)
    with session():
        seed = find_seed(sub)
        assert (seed.seed_letter, seed.power, seed.n_for_doubling) == ("a", 20, 20)
        with pytest.raises(NonClosureError) as info:
            return_words(sub, seed=seed)
    assert str(info.value) == ("iterates of 'a' grew past the scan budget before "
                               "the return words stabilised")
    assert info.value.partial == ()


def test_return_words_decode_only_the_system(monkeypatch):
    sub = corpus.get("asym_trib_b")
    seed = find_seed(sub)
    decoded = []
    original = Substitution.decode

    def counting(self, coded):
        decoded.append(len(coded))
        return original(self, coded)

    monkeypatch.setattr(Substitution, "decode", counting)
    rws = return_words(sub, seed=seed)
    monkeypatch.undo()
    forms = rws.decompositions.values()
    system_letters = (
        sum(map(len, rws.return_words)) + len(rws.head) + sum(map(len, rws.seed_blocks))
        + sum(len(form.head) + sum(map(len, form.blocks)) for form in forms)
        + sum(map(len, rws.primed_last.values())) + sum(map(len, rws.primed_w.values()))
        + len(rws.primed_seed_last))
    assert sum(decoded) <= system_letters


# -- the token-based conjugacy check that the coded one replaced -----------

def _conjugate(sub):
    """theta and h for ``sub``, unverified."""
    return build_theta(build_psi(sub, return_words(sub)))


def _assert_report_matches_oracle(sub, cs, depth=6):
    """The whole report, counterexample included, or the same error."""
    outcomes = []
    for verify in (verify_conjugacy, reference_verify_conjugacy):
        try:
            outcomes.append(verify(sub, cs, depth=depth))
        except SubstdynError as exc:
            outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("name", [name for name in corpus.names()
                                  if name not in ("wild_ab", "empty_swap")])
def test_coded_verification_matches_token_oracle_on_corpus(name):
    sub = corpus.get(name)
    with session():
        report = _assert_report_matches_oracle(sub, primitivize(sub).conjugate)
    assert report.ok and report.windows_checked == report.checks["intertwine"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coded_verification_matches_token_oracle_on_sigma_family(n):
    sub = sigma_family(n)
    with session():
        assert _assert_report_matches_oracle(sub, _conjugate(sub)).ok


def test_coded_verification_matches_token_oracle_on_seeded_rules():
    # multi-character tokens reorder the windows: legal(depth) sorts tokens
    rng = random.Random(3)
    names = {"a": "a0", "b": "1b", "c": "c", "d": "dd"}
    for _ in range(10):
        sub = random_minimal_nonprimitive(rng)
        for rule in (sub, retoken(sub, names)):
            with session():
                _assert_report_matches_oracle(rule, _conjugate(rule), depth=5)


def _mutate(rng, sub, cs):
    """cs with one letter's h-image or one letter of one theta image changed."""
    theta = cs.theta
    z = rng.choice(theta.alphabet)
    if rng.random() < 0.5:
        h = dict(cs.h)
        h[z] = rng.choice([a for a in sub.alphabet if a != h[z]])
        return dataclasses.replace(cs, h=h)
    rules = dict(theta.rules)
    image = list(rules[z])
    image[rng.randrange(len(image))] = rng.choice(theta.alphabet)
    rules[z] = tuple(image)
    return dataclasses.replace(
        cs, theta=Substitution(list(rules.items()), alphabet=theta.alphabet))


def test_coded_verification_matches_token_oracle_on_mutations():
    rng = random.Random(5)
    subs = [sigma_family(3), corpus.get("chacon"), corpus.get("fibonacci"),
            corpus.get("fib_handle"), corpus.get("two_components")]
    subs += [random_minimal_nonprimitive(random.Random(seed)) for seed in range(4)]
    kinds = set()
    for sub in subs:
        cs = _conjugate(sub)
        for _ in range(12):
            with session():
                report = _assert_report_matches_oracle(sub, _mutate(rng, sub, cs))
            if not isinstance(report, str) and report.counterexample:
                kinds.add(report.counterexample[0])
    assert {"h_legal", "parse_inverts", "intertwine"} <= kinds


def _distinct_runs(sub, cs, depth):
    """The sigma-word from the first to the last seed letter of each
    window's h-image, empty where it holds fewer than two."""
    b = cs.derived.system.seed_letter
    runs = set()
    for z_word in table_for(cs.theta, depth).legal(depth):
        image = tuple(cs.h[z] for z in z_word)
        ends = [i for i, x in enumerate(image) if x == b] or [0]
        runs.add(image[ends[0]:ends[-1]])
    return runs


@pytest.mark.parametrize("name, runs, windows", [("asym_trib_a", 13, 32),
                                                 ("asym_trib_b", 14, 47),
                                                 ("f_not_bijection", None, 38),
                                                 ("sigma_5", None, 57)])
def test_verification_maps_each_distinct_run_once(monkeypatch, name, runs, windows):
    sub = corpus.get(name)
    with session():
        cs = primitivize(sub).conjugate   # builds and derives every table read
        n_total = cs.derived.system.power * cs.power_lift
        power = sub.power(n_total)
        applied = []
        original = Substitution.apply_coded

        def counting(self, coded, n=1):
            # sigma^(N*lift) of a word, by sigma or by a power of it
            if (self == sub and n == n_total) or (self == power and n == 1):
                applied.append(coded)
            return original(self, coded, n)

        monkeypatch.setattr(Substitution, "apply_coded", counting)
        report = verify_conjugacy(sub, cs)
        monkeypatch.undo()
        distinct = _distinct_runs(sub, cs, report.depth)
    assert report.ok and report.windows_checked == windows
    assert runs is None or len(distinct) == runs
    assert len(applied) <= len(distinct)
