import functools
import itertools
import random

import pytest

from substdyn.apcomplex import inverse_limit_presentation
from substdyn.classify import tameness_table_length
from substdyn.cli import main
from substdyn.core import Substitution, parse_substitution
from substdyn.corpus import CORPUS, sigma_family
from substdyn.errors import MarginError, SubstdynError
from substdyn import language
from substdyn.language import (BASE_CAP, LanguageTable, periodic_point_search,
                               periodic_search_length, table_for)
from substdyn.primitivize import primitivize

from conftest import (brute_admitted, random_substitution, reference_biinfinite_path_nodes,
                      retoken)
from core_oracles import parse_word
from language_oracles import eager_legal_sets, is_admitted, rauzy, to_json_dict


def words(sub, items):
    return sorted(sub.format_word(w) for w in items)


def test_admitted_examples(wild_ab):
    table = LanguageTable(wild_ab, 2)
    assert words(wild_ab, table.admitted(2)) == ["ab", "bb"]
    swap = parse_substitution("a -> b\nb -> a\n")
    ts = LanguageTable(swap, 2)
    assert words(swap, ts.admitted(1)) == ["a", "b"]
    assert ts.admitted(2) == []
    assert ts.empty_subshift
    assert table.admitted(0) == [()]


def test_admitted_matches_brute(fib, chacon):
    # powers chosen so factor sets of length <= 6 have saturated while the
    # iterates stay within the expansion budget
    for sub, power in ((fib, 12), (chacon, 8)):
        table = LanguageTable(sub, 6)
        oracle = brute_admitted(sub, 6, max_power=power)
        for length in range(7):
            assert set(table.admitted(length)) == oracle[length], (sub, length)


def test_legal_examples(wild_ab, fib):
    table = LanguageTable(wild_ab, 2)
    assert words(wild_ab, table.legal(1)) == ["b"]
    assert words(wild_ab, table.legal(2)) == ["bb"]
    assert is_admitted(table, ("a", "b")) and not table.is_legal(("a", "b"))
    tf = LanguageTable(fib, 3)
    assert words(fib, tf.legal(3)) == ["001", "010", "100", "101"]
    assert words(fib, tf.legal(3)) == words(fib, tf.admitted(3))


def test_legality_drops_under_squaring():
    sub = parse_substitution("0 -> 0b 0b 1 0b\n0b -> 0 0 1 0\n1 -> 1\nX -> 0 0b\n")
    word = parse_word(sub, "0 0b")
    table = LanguageTable(sub, 4)
    assert table.is_legal(word)
    assert table.legal_exact
    square = LanguageTable(sub.power(2), 4)
    assert not square.is_legal(word)


def test_factoriality_and_biextendability(fib_handle):
    table = LanguageTable(fib_handle, 6)
    for length in range(2, 7):
        admitted_shorter = set(table.admitted(length - 1))
        for word in table.admitted(length):
            assert word[:-1] in admitted_shorter
            assert word[1:] in admitted_shorter
        legal_shorter = set(table.legal(length - 1))
        legal_here = set(table.legal(length))
        for word in legal_here:
            assert word[:-1] in legal_shorter and word[1:] in legal_shorter
        for word in legal_shorter:
            assert any(v[:-1] == word for v in legal_here)
            assert any(v[1:] == word for v in legal_here)


def test_rauzy_graph(fib):
    table = LanguageTable(fib, 3)
    vertices, edges = rauzy(table, 2)
    assert set(vertices) == set(table.admitted(2))
    for head, tail in edges:
        assert head in vertices and tail in vertices


def test_length_guards(fib, chacon):
    # a primitive table and a non-primitive one, whose shorter legal
    # lengths are prefixes of its top set, reject lengths out of range
    for sub in (fib, chacon):
        table = LanguageTable(sub, 3)
        for length in (10, -1):
            with pytest.raises(MarginError):
                table.legal(length)
        with pytest.raises(MarginError):
            table.admitted(-1)


def test_periodic_point_search(fib, wild_ab):
    assert [wild_ab.format_word(w) for w in periodic_point_search(wild_ab, 1)] == ["b"]
    assert periodic_point_search(fib, 8) == []
    mixed = parse_substitution("a -> ab\nb -> a\nc -> cc\nd -> ca\n")
    assert [mixed.format_word(w) for w in periodic_point_search(mixed, 1)] == ["c"]


def is_admissible(sub: Substitution, table: LanguageTable | None = None) -> bool:
    """True iff every computed legal set equals the admitted set (checked to
    the table bound); in particular every letter must be legal."""
    if table is None:
        table = LanguageTable(sub, max(4, 2 * sub.max_image_len))
    if table.empty_subshift:
        return False
    for length in range(1, table.max_length + 1):
        if set(table.legal(length)) != set(table.admitted(length)):
            return False
    return True


def test_admissibility(fib, wild_ab):
    assert is_admissible(fib)
    assert not is_admissible(wild_ab)
    three = parse_substitution("a -> aba\nb -> bbab\nc -> aa\n")
    assert not is_admissible(three)


def test_json_dict(wild_ab):
    table = LanguageTable(wild_ab, 2)
    data = to_json_dict(table)
    assert data["exact"] is True
    assert data["legal"]["2"] == ["bb"]
    assert data["admitted"]["2"] == ["ab", "bb"]


def _factors(words, length):
    return {w[i:i + length] for w in words for i in range(len(w) - length + 1)}


def reference_language(sub, max_length, margin):
    """The slicing extraction the table replaced: iterate the per-letter
    factor states without memo, slice every admitted length out of the kept
    words, and slice every legal length out of the bi-infinite Rauzy
    vertices at both margin orders, found by the cycle-closure reference
    rather than by the trimming under test."""
    cap = margin + 2 if not sub.is_primitive() else max_length + 1
    kept = set()
    state = tuple(frozenset((sub.encode((a,)),)) for a in sub.alphabet)
    seen = {state: 0}
    while True:
        nxt = []
        for group in state:
            kept.update(group)
            grown = set()
            for word in group:
                image = sub.apply_coded(word)
                grown.update(_factors([image], cap) if len(image) > cap else [image])
            nxt.append(frozenset(grown))
        state = tuple(nxt)
        if state in seen:
            break
        seen[state] = len(seen)
    stabilized_at = len(seen)

    def admitted(length):
        return _factors(kept, length)

    empty = not admitted(cap)
    legal = {length: set() for length in range(1, max_length + 1)}
    exact = True
    if sub.is_primitive():
        legal = {length: admitted(length) for length in legal}
    elif not empty:
        def vertices(order):
            edges = admitted(order + 1)
            succ = {v: [] for v in admitted(order)}
            pred = {v: [] for v in succ}
            for e in edges:
                succ[e[:-1]].append(e[1:])
                pred[e[1:]].append(e[:-1])
            return reference_biinfinite_path_nodes(sorted(succ), succ.__getitem__,
                                                   pred.__getitem__)

        base, check = vertices(margin), vertices(margin + 1)
        for length in legal:
            legal[length] = _factors(check, length)
            exact = exact and _factors(base, length) == legal[length]
    admitted_sets = {length: admitted(length) for length in range(max_length + 1)}
    admitted_sets[0] = {""}
    return admitted_sets, legal, exact, stabilized_at


def _non_primitive_sample(count, seed=20240611, max_letters=3, max_image=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sub = random_substitution(rng, max_letters=max_letters, max_image=max_image)
        if not sub.is_primitive():
            out.append(sub)
    return out


@pytest.mark.parametrize(
    "sub", [entry.substitution() for entry in CORPUS.values()] + _non_primitive_sample(40),
    ids=list(CORPUS) + [f"non_primitive_{i}" for i in range(40)])
def test_derived_sets_match_slicing_reference(sub):
    # the default margin, and the smallest one, where legality is often
    # not yet stable
    for margin in (None, 5):
        table = LanguageTable(sub, 5, margin=margin)
        admitted, legal, exact, stabilized_at = reference_language(sub, 5, table.margin)
        coded = sub.encode
        for length in range(6):
            assert {coded(w) for w in table.admitted(length)} == admitted[length], length
        for length in range(1, 6):
            assert {coded(w) for w in table.legal(length)} == legal[length], length
        assert table.legal_exact == exact
        assert table.stabilized_at == stabilized_at


NON_PRIMITIVE_ENTRIES = [name for name, entry in CORPUS.items()
                         if not entry.substitution().is_primitive()]


@pytest.mark.parametrize(
    "sub", [CORPUS[name].substitution() for name in NON_PRIMITIVE_ENTRIES]
    + _non_primitive_sample(40),
    ids=NON_PRIMITIVE_ENTRIES + [f"non_primitive_{i}" for i in range(40)])
def test_lazy_legal_sets_match_the_eager_loop(sub):
    # a non-primitive table derives each legal length from its max_length
    # set on first request; asked in a seeded order, some lengths come
    # before a longer one and some after, and every one equals the level
    # the eager loop built, at the default margin and at margin 5
    rng = random.Random(sub.to_text())
    for max_length, margin in ((5, None), (5, 5), (9, None)):
        eager = eager_legal_sets(LanguageTable(sub, max_length, margin=margin))
        table = LanguageTable(sub, max_length, margin=margin)
        lengths = list(range(max_length + 1))
        rng.shuffle(lengths)
        for length in lengths:
            assert table.legal_coded(length) == eager[length], (max_length, margin, length)


def test_a_fresh_non_primitive_table_keeps_only_its_top_legal_set():
    checked = 0
    for name in NON_PRIMITIVE_ENTRIES:
        table = LanguageTable(CORPUS[name].substitution(), 6)
        if table.empty_subshift:
            continue
        assert list(table._legal_cache) == [6], name
        table.legal_coded(3)
        assert sorted(table._legal_cache) == [3, 6], name
        checked += 1
    assert checked >= 15


def test_large_margin_walks_down_iteratively(wild_ab):
    table = LanguageTable(wild_ab, 4, margin=1500)
    assert table.margin == 1500
    assert words(wild_ab, table.legal(4)) == ["bbbb"]


def test_cohomology_reuses_the_tameness_table(monkeypatch):
    # the tameness table has the key the recognisability search asks for
    # (2 * 2 * 5 = 4 * 4 + 4), so inside a session only it and the
    # collaring table are built
    sub = parse_substitution("a -> ab\nb -> c\nc -> d\nd -> e\ne -> a\n")
    built = []
    init = LanguageTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LanguageTable, "__init__", counting_init)
    with language.session():
        presentation = inverse_limit_presentation(sub)
    assert presentation.recognisable == "evidenced"
    assert len(built) == 2


def test_table_for_shares_tables_only_inside_a_session(fib):
    assert table_for(fib, 6) is not table_for(fib, 6)
    with language.session():
        table = table_for(fib, 6)
        assert table_for(fib, 6, margin=table.margin) is table
        assert table_for(fib, 6, margin=table.margin + 1) is not table
        with language.session():
            assert table_for(fib, 6) is not table
        assert table_for(fib, 6) is table
    assert table_for(fib, 6) is not table


def _table_view(table):
    """Every figure of a table: its words at each admitted length it
    serves (the cap sampled past max_length) and each legal length, its
    margin, flags and stabilized_at."""
    cap = table._cap
    admitted = {length: table.admitted_coded(length)
                for length in sorted({*range(table.max_length + 2), cap // 2, cap - 1, cap})}
    legal = {length: table.legal_coded(length) for length in range(1, table.max_length + 1)}
    return (admitted, legal, table.margin, table.stabilized_at, table.empty_subshift,
            table.legal_exact)


def _assert_same_table(table, fresh):
    assert _table_view(table) == _table_view(fresh)


@pytest.mark.parametrize(
    "sub", [entry.substitution() for entry in CORPUS.values()] + _non_primitive_sample(20),
    ids=list(CORPUS) + [f"non_primitive_{i}" for i in range(20)])
def test_tables_share_one_core_per_cap(sub, monkeypatch):
    # a non-primitive table's cap is margin + 2, and tables of one cap
    # compute its admitted words once.  A primitive table takes its words
    # from its rule's word store, which closes each length that no longer
    # length derived before it serves, and builds its core at
    # max_length + 1 for stabilized_at and no other; inside a session each
    # of those cores and each closed length is computed once.  Every table
    # equals one built on its own, outside the session.
    if sub.is_primitive():
        keys = [(4, None), (4, 9), (4, 30), (20, None), (20, 30), (12, None)]
    else:
        keys = [(2, 5), (5, 5), (4, 5), (1, None), (5, None), (3, None)]
    expected = [_table_view(LanguageTable(sub, max_length, margin))
                for max_length, margin in keys]
    computed, closed = [], []
    compute = language._LanguageCore._compute_admitted
    close = language._PrimitiveWords._close

    def counting(self):
        computed.append(self._cap)
        return compute(self)

    def counting_close(self, cap):
        closed.append(cap)
        return close(self, cap)

    monkeypatch.setattr(language._LanguageCore, "_compute_admitted", counting)
    monkeypatch.setattr(language._PrimitiveWords, "_close", counting_close)
    with language.session():
        tables = [table_for(sub, max_length, margin) for max_length, margin in keys]
        assert [_table_view(table) for table in tables] == expected
    assert len(computed) == len(set(computed))
    if sub.is_primitive():
        assert len(closed) == len(set(closed)) and max(closed) == 21
        assert sorted(computed) == sorted({table._cap for table in tables})
    else:
        assert closed == []
        assert sorted(computed) == sorted({table._cap for table in tables})
        assert len(computed) < len(tables)


@functools.lru_cache(maxsize=None)
def _primitive_sample(count=300, seed=20261020):
    """Distinct seeded primitive rules of 1-6 letters with image lengths 1-4."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        letters = "abcdef"[:rng.randint(1, 6)]
        longest = rng.randint(1, 4)
        rules = tuple((a, tuple(rng.choice(letters) for _ in range(rng.randint(1, longest))))
                      for a in letters)
        sub = Substitution(list(rules), alphabet=tuple(letters))
        if sub.is_primitive():
            out.setdefault(rules, sub)
    return list(out.values())


PRIMITIVE_ENTRIES = [name for name, entry in CORPUS.items()
                     if entry.substitution().is_primitive()]
FALLBACK_RULE = "a -> cdc\nb -> ceed\nc -> f\nd -> eae\ne -> d\nf -> b\n"
LONG_RUN_RULE = "a -> ba\nb -> f\nc -> d\nd -> eb\ne -> af\nf -> cc\n"


def _corpus_thetas():
    thetas = []
    for entry in CORPUS.values():
        try:
            thetas.append(primitivize(entry.substitution()).theta)
        except SubstdynError:
            pass
    return thetas


def _closure_sample(group):
    """The primitive rules of one group of the closure oracle test."""
    if group == "seeded":
        return _primitive_sample()
    if group == "entries":
        return [CORPUS[name].substitution() for name in PRIMITIVE_ENTRIES]
    if group == "thetas":
        return _corpus_thetas()
    if group == "fixed_letter":
        return [parse_substitution("a -> a\n")]
    # 6-8 letters, images of 1-3 letters
    rng = random.Random(20261020)
    wide = []
    while len(wide) < 100:
        letters = "abcdefgh"[:rng.randint(6, 8)]
        sub = Substitution([(a, tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))))
                            for a in letters], alphabet=tuple(letters))
        if sub.is_primitive():
            wide.append(sub)
    if group == "wide":
        return wide
    # multi-character tokens, in reversed alphabet order, so that the
    # closure starts from another letter under another coding
    renamed = []
    for sub in _primitive_sample()[:100] + wide[:50]:
        tokens = retoken(sub, {a: f"{a}{i}" for i, a in enumerate(sub.alphabet)})
        renamed.append(Substitution(tokens.rules, alphabet=tokens.alphabet[::-1]))
    return renamed


# the longest length the closure oracle checks, past the lengths 11, 12,
# 17, 18, 23 and 24 that the CIS context asks for on the corpus
CLOSED_TOP = 24


@pytest.mark.parametrize("group", ["seeded", "entries", "thetas", "wide", "renamed",
                                   "fixed_letter"])
def test_closed_words_match_the_iteration(group):
    # a primitive rule's words, each length closed from one word under its
    # leading windows or taken as the prefixes of a longer length closed
    # before it, equal the iteration core's at every length up to
    # CLOSED_TOP, whether the lengths are asked for in ascending or in
    # descending order (a core derives each length below its cap exactly)
    subs = _closure_sample(group)
    assert subs
    for sub in subs:
        reference = language._LanguageCore(sub, CLOSED_TOP)
        expected = [reference._admitted_exact_length(length, keep=CLOSED_TOP)
                    for length in range(CLOSED_TOP + 1)]
        for lengths in (range(CLOSED_TOP + 1), range(CLOSED_TOP, -1, -1)):
            table = LanguageTable(sub, CLOSED_TOP)
            for length in lengths:
                assert table.admitted_coded(length) == expected[length], (sub.rules, length)


def _lift_length(sub):
    # the tameness table's length, past BASE_CAP so that every rule closes
    # a longer length, and at most the longest of the 8-letter benchmark
    # rules
    return min(max(tameness_table_length(sub), 2 * BASE_CAP), 48)


def _assert_lift_matches_the_iteration(sub):
    # a primitive table's words at every length it serves equal the
    # iteration core's at cap L + 1, and so do its flags
    top = _lift_length(sub)
    reference = language._LanguageCore(sub, top + 1)
    table = LanguageTable(sub, top)
    for length in range(top + 2):
        assert table.admitted_coded(length) == reference._admitted_exact_length(length), \
            (sub.rules, length)
    assert table.empty_subshift == reference.empty_subshift
    assert table.stabilized_at == reference.stabilized_at


@pytest.mark.parametrize("index", range(300), ids=lambda i: f"seeded_{i}")
def test_lifted_lengths_match_the_iteration_on_seeded_rules(index):
    _assert_lift_matches_the_iteration(_primitive_sample()[index])


@pytest.mark.parametrize("name", PRIMITIVE_ENTRIES)
def test_lifted_lengths_match_the_iteration_on_primitive_entries(name):
    _assert_lift_matches_the_iteration(CORPUS[name].substitution())


def test_lifted_lengths_match_the_iteration_on_corpus_thetas():
    thetas = _corpus_thetas()
    for theta in thetas:
        _assert_lift_matches_the_iteration(theta)
    assert thetas


@pytest.mark.parametrize("text", ["a -> a\n", FALLBACK_RULE, LONG_RUN_RULE],
                         ids=["fixed_letter", "short_images", "long_run"])
def test_lifted_lengths_match_the_iteration_where_the_lift_falls_back(text):
    # a -> a admits no word past length 1, and the other two admit long
    # words whose images barely grow: FALLBACK_RULE's short images, and
    # LONG_RUN_RULE's cccccc of one-letter images
    _assert_lift_matches_the_iteration(parse_substitution(text))


@pytest.mark.parametrize("texts", [
    ["a -> a\n"], [FALLBACK_RULE], [LONG_RUN_RULE], ["a -> ab\nb -> a\n"],
    ["a -> ab\nb -> ac\nc -> a\n"], None],
    ids=["fixed_letter", "short_images", "long_run", "fibonacci", "tribonacci", "seeded"])
def test_primitive_tables_build_no_core_for_their_words(texts, monkeypatch):
    # a primitive table reads every admitted and legal length from its
    # rule's word store; only stabilized_at builds the core, at its cap
    subs = _primitive_sample() if texts is None else [parse_substitution(t) for t in texts]
    caps = []
    compute = language._LanguageCore._compute_admitted

    def counting(self):
        caps.append(self._cap)
        return compute(self)

    monkeypatch.setattr(language._LanguageCore, "_compute_admitted", counting)
    for sub in subs:
        table = LanguageTable(sub, 30)
        for length in range(table._cap + 1):
            table.admitted_coded(length)
        for length in range(table.max_length + 1):
            table.legal_coded(length)
        assert caps == [], sub.rules
        assert table.stabilized_at >= 0
        assert caps == [table._cap], sub.rules
        caps.clear()


def test_fixed_letter_admits_its_letter_alone():
    sub = parse_substitution("a -> a\n")
    table = LanguageTable(sub, 20)
    assert table.admitted(1) == [("a",)] and table.admitted(2) == []
    assert table.empty_subshift and table.legal(1) == [] and not table.is_legal(("a",))


def test_cohomology_lifts_its_long_tables(tmp_path, capsys, monkeypatch):
    # cohomology --radius 2 on an 8-letter primitive rule asks for tables of
    # length 6 (the collar) and 48 (tameness, the periodic search); the
    # rule's word store serves both, so no iteration core is built
    path = tmp_path / "k8.txt"
    path.write_text("a -> fgg\nb -> ad\nc -> ech\nd -> dag\n"
                    "e -> ahe\nf -> bce\ng -> ee\nh -> gb\n")
    caps = []
    compute = language._LanguageCore._compute_admitted

    def counting(self):
        caps.append(self._cap)
        return compute(self)

    monkeypatch.setattr(language._LanguageCore, "_compute_admitted", counting)
    assert main(["cohomology", "--radius", "2", str(path)]) == 0
    capsys.readouterr()
    assert caps == []


def test_analyze_builds_one_core_per_primitive_rule(capsys, monkeypatch):
    # analyze reads stabilized_at from its table, so Fibonacci's core is
    # built at the table's max_length + 1; every other table of Fibonacci
    # and of its theta takes its words from the rules' word stores
    import json
    cores = []
    compute = language._LanguageCore._compute_admitted

    def counting(self):
        cores.append((self.sub, self._cap))
        return compute(self)

    monkeypatch.setattr(language._LanguageCore, "_compute_admitted", counting)
    assert main(["analyze", "corpus:fibonacci"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["primitivization"] is not None
    assert cores == [(CORPUS["fibonacci"].substitution(), data["language"]["max_length"] + 1)]


def test_tables_sharing_a_core_decide_exactness_at_their_own_length():
    # at margin 5, legality is stable through length 4 and not at length 5
    sub = parse_substitution("a -> c a c\nb -> b c a c\nc -> c\n")
    with language.session():
        short, long = table_for(sub, 4, margin=5), table_for(sub, 5, margin=5)
    assert short._core is long._core
    assert (short.legal_exact, long.legal_exact) == (True, False)
    for table in (short, long):
        _assert_same_table(table, LanguageTable(sub, table.max_length, 5))


def test_only_table_for_builds_tables():
    # every stage asks language.table_for, which alone decides reuse, and
    # each table takes its core (or its primitive rule's word store) from
    # the session; all are built through language._once, so a
    # LanguageTable(...), _LanguageCore(...) or _PrimitiveWords(...) call,
    # or a core named outside language.py, would bypass the session
    import ast
    import pathlib
    import substdyn
    offenders = []
    for path in sorted(pathlib.Path(substdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name in ("LanguageTable", "_LanguageCore", "_PrimitiveWords"):
                    offenders.append(f"{where} builds a {name}")
            if path.name != "language.py" and "_LanguageCore" in (
                    getattr(node, "id", None), getattr(node, "attr", None)):
                offenders.append(f"{where} names _LanguageCore")
            if isinstance(node, ast.Attribute) and node.attr == "is_default":
                offenders.append(f"{where} reads is_default")
            if isinstance(node, ast.FunctionDef) and node.name == "is_default":
                offenders.append(f"{where} defines is_default")
    assert offenders == []


def test_stages_read_the_session_report_themselves():
    # the tameness report and n_sigma are read from the session by each
    # stage (decide_tameness keeps one per rule), never handed between
    # stages: no public function takes them, and decide_tameness is asked
    # with the rule alone
    import ast
    import pathlib
    import substdyn
    offenders = []
    for path in sorted(pathlib.Path(substdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                offenders += [f"{where} {node.name}({arg.arg}=)" for arg in params
                              if arg.arg in ("report", "tameness", "n_sigma")]
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "decide_tameness" \
                    and (len(node.args) != 1 or node.keywords):
                offenders.append(f"{where} passes decide_tameness more than the rule")
    assert offenders == []


def reference_periodic_search(sub, period_bound, table):
    """The enumeration the search replaced: the least rotation of every
    primitive word over the alphabet of length <= period_bound, kept when
    every window of its repetition is legal."""
    found = []
    check_len = table.max_length
    for length in range(1, period_bound + 1):
        for word in itertools.product(sub.alphabet, repeat=length):
            rotations = {word[i:] + word[:i] for i in range(length)}
            if len(rotations) < length or word != min(rotations):
                continue
            ring = word * (check_len // length + 2)
            if all(table.is_legal(ring[i:i + check_len]) for i in range(length)):
                found.append(word)
    return sorted(found, key=lambda w: (len(w), w))


def _wide_primitive_sample(count, seed):
    """Seeded primitive rules of 5-8 letters with images of 2-3 letters, as
    the benchmark draws them; the search's long table is lifted for these."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        letters = "abcdefgh"[:rng.randint(5, 8)]
        sub = Substitution([(a, tuple(rng.choice(letters) for _ in range(rng.choice((2, 3)))))
                            for a in letters], alphabet=tuple(letters))
        if sub.is_primitive():
            out.append(sub)
    return out


# primitive rules of 5 letters whose subshift is the orbit of the
# repetition of abcde
PERIODIC_PRIMITIVE = ["a -> ab\nb -> cd\nc -> ea\nd -> bc\ne -> de\n",
                      "a -> abc\nb -> dea\nc -> bcd\nd -> eab\ne -> cde\n"]


@pytest.mark.parametrize(
    "sub", [entry.substitution() for entry in CORPUS.values()]
    + _non_primitive_sample(150, seed=20261018, max_letters=4, max_image=3)
    + _wide_primitive_sample(20, seed=20261019)
    + [parse_substitution(text) for text in PERIODIC_PRIMITIVE],
    ids=list(CORPUS) + [f"non_primitive_{i}" for i in range(150)]
    + [f"wide_primitive_{i}" for i in range(20)] + ["periodic_primitive_0", "periodic_primitive_1"])
def test_periodic_search_matches_enumeration(sub):
    for period_bound in range(1, 6):
        default = periodic_search_length(sub, period_bound)
        assert (periodic_point_search(sub, period_bound)
                == reference_periodic_search(sub, period_bound,
                                             LanguageTable(sub, default)))
        for bound in {period_bound, 2 * period_bound, 4 * period_bound + 4} - {default}:
            table = LanguageTable(sub, bound)
            assert (periodic_point_search(sub, period_bound, table=table)
                    == reference_periodic_search(sub, period_bound, table)), bound


def test_periodic_search_rejects_a_short_table():
    sub = parse_substitution("a -> ac\nb -> ca\nc -> cb\n")
    with pytest.raises(ValueError):
        periodic_point_search(sub, 5, table=LanguageTable(sub, 2))


def test_periodic_search_reads_candidates_from_the_table():
    # enumerating every word of length <= 8 would visit 5^8 of them
    sub = parse_substitution("a -> ab\nb -> bc\nc -> cd\nd -> de\ne -> ea\n")
    assert periodic_point_search(sub, 8) == []


def reference_kept_words(sub, cap):
    """Every word the per-letter states hold, expanding every window of
    every image (the construction before leading windows), and the number
    of steps to the first repeated state."""
    kept = set()
    state = tuple(frozenset((sub.encode((a,)),)) for a in sub.alphabet)
    seen = {state}
    while True:
        nxt = []
        for group in state:
            kept.update(group)
            grown = set()
            for word in group:
                image = sub.apply_coded(word)
                grown.update(_factors([image], cap) if len(image) > cap else [image])
            nxt.append(frozenset(grown))
        state = tuple(nxt)
        if state in seen:
            return kept, len(seen)
        seen.add(state)


def _window_cases():
    cases = [(name, entry.substitution()) for name, entry in CORPUS.items()]
    cases += [(f"sigma_family_{n}", sigma_family(n)) for n in range(2, 7)]
    cases += [("cycle_3", parse_substitution("a -> b\nb -> c\nc -> a\n")),
              ("fixed_and_swap", parse_substitution("a -> a\nb -> c\nc -> b\n"))]
    rng = random.Random(20261019)
    for i in range(60):
        cases.append((f"seeded_{i}", random_substitution(
            rng, max_letters=4, max_image=rng.choice((1, 2, 3, 4)))))
    return cases


WINDOW_CASES = _window_cases()


def test_window_cases_cover_short_images_and_empty_subshifts():
    short = [sub for _, sub in WINDOW_CASES
             if any(len(image) == 1 for image in sub.rules.values())
             and sub.max_image_len > 1]
    empty = [sub for _, sub in WINDOW_CASES if LanguageTable(sub, 2).empty_subshift]
    assert len(short) >= 20 and len(empty) >= 5


@pytest.mark.parametrize("sub", [sub for _, sub in WINDOW_CASES],
                         ids=[name for name, _ in WINDOW_CASES])
def test_leading_windows_match_full_expansion(sub):
    for max_length, margin in ((1, None), (4, None), (9, None), (3, 5)):
        table = LanguageTable(sub, max_length, margin=margin)
        cap = table._cap
        kept, stabilized_at = reference_kept_words(sub, cap)
        # every length walks down from the cap afresh past max_length, so
        # long caps are sampled
        lengths = range(cap + 1) if cap <= 64 else \
            [*range(max_length + 2), cap // 2, cap - 1, cap]
        for length in lengths:
            expected = _factors(kept, length) if length else {""}
            assert table.admitted_coded(length) == expected, (max_length, length)
        assert table.stabilized_at == stabilized_at
        assert table._core._admitted_exact_length(cap) == {w for w in kept if len(w) == cap}
        short = [w for words in table._core._short.values() for w in words]
        assert sorted(short) == sorted(w for w in kept if len(w) < cap)
        assert table.empty_subshift == (not _factors(kept, cap))
        if table.empty_subshift:
            assert all(not table.legal_coded(length)
                       for length in range(1, max_length + 1))
            continue
        _, legal, exact, _ = reference_language(sub, max_length, table.margin)
        for length in range(1, max_length + 1):
            assert table.legal_coded(length) == legal[length], (max_length, length)
        assert table.legal_exact == exact


def test_leading_windows_bound_the_expanded_letters(monkeypatch):
    letters = []
    original = Substitution.apply_coded

    def counting(self, coded, n=1):
        out = original(self, coded, n)
        letters.append(len(out))
        return out

    for name, max_length, cap, most_letters, most_calls in [
        # expanding every window of every cap-word returned 246,479 letters
        # here; the leading windows and the per-letter tails, each word
        # expanding its own prefix and each tail stepped every round,
        # returned 48,969 in 486 calls; one expansion per distinct prefix
        # and one step per distinct tail return 9,704 in 96
        ("sigma_5", 84, 86, 12_000, 120),
        # 24,297 letters in 355 calls before, 7,648 in 131 now; its
        # pre-period is longer, so stepping every tail each round returns
        # 11,947 in 156
        ("quad_fib_bridge", 56, 58, 9_000, 140),
    ]:
        sub = CORPUS[name].substitution()
        letters.clear()
        monkeypatch.setattr(Substitution, "apply_coded", counting)
        table = LanguageTable(sub, max_length)
        monkeypatch.undo()
        assert table._cap == cap, name
        assert sum(letters) <= most_letters and len(letters) <= most_calls, name


def _reference_vertices(core, order):
    """The vertices of the core's Rauzy graph at an order that lie on
    bi-infinite paths, from explicit successor and predecessor lists."""
    vertices = core._admitted_exact_length(order)
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    for word in core._admitted_exact_length(order + 1):
        succ[word[:-1]].append(word[1:])
        pred[word[1:]].append(word[:-1])
    return reference_biinfinite_path_nodes(sorted(vertices), succ.__getitem__,
                                           pred.__getitem__)


# rules with a fixed letter x -> x, so each has a vertex x...x with a
# self-loop at some margin; trimming removes vertices of four of them
# (of legality_drop at margin 1 only), while bounded_limits and cac keep
# every vertex at these margins
TRIM_RULES = [
    ("legality_drop", CORPUS["legality_drop"].substitution()),
    ("bounded_limits", CORPUS["bounded_limits"].substitution()),
    ("ab_b", parse_substitution("a -> ab\nb -> b\n")),
    ("acb_bccb", parse_substitution("a -> acb\nb -> bccb\nc -> c\n")),
    ("cac", parse_substitution("a -> cac\nc -> c\n")),
    # its trimming removes vertices whose successors were all removed
    ("ca_ab", parse_substitution("a -> ca\nb -> ab\nc -> c\n")),
]
TRIM_TABLES = ((4, None), (3, 5), (1, 1))


def _trimmed_orders(sub):
    """(order, the core's vertices at it, the core) for both orders of a
    non-primitive rule's core at each margin in TRIM_TABLES."""
    for max_length, margin in TRIM_TABLES:
        table = LanguageTable(sub, max_length, margin=margin)
        if table.empty_subshift or sub.is_primitive():
            continue
        core = table._core
        for order, vertices in zip((table._cap - 2, table._cap - 1), core.vertices):
            yield order, vertices, core


# the corpus entries among TRIM_RULES are window cases already
TRIM_CASES = WINDOW_CASES + [(name, sub) for name, sub in TRIM_RULES if name not in CORPUS]


@pytest.mark.parametrize("sub", [sub for _, sub in TRIM_CASES],
                         ids=[name for name, _ in TRIM_CASES])
def test_trimming_on_degree_counts_matches_the_reference(sub):
    for order, vertices, core in _trimmed_orders(sub):
        assert vertices == _reference_vertices(core, order), order


def test_trimmed_cases_remove_vertices_and_keep_self_loops():
    removed, looped = set(), set()
    for name, sub in TRIM_RULES:
        for order, vertices, core in _trimmed_orders(sub):
            if vertices < core._admitted_exact_length(order):
                removed.add(name)
            longer = core._admitted_exact_length(order + 1)
            if any(v == v[0] * order and v + v[0] in longer for v in vertices):
                looped.add(name)
    assert removed == {"legality_drop", "ab_b", "acb_bccb", "ca_ab"}
    assert looped == {name for name, _ in TRIM_RULES}
