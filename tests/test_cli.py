import json
import random
import shutil
import time

import pytest

from substdyn import apcomplex, cis
from substdyn.cli import main

from conftest import NON_MINIMAL_RECURRENT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_wild(capsys):
    code, out, _ = run_cli(capsys, "classify", "corpus:wild_ab")
    assert code == 3
    data = json.loads(out)
    assert data["classification"]["verdict"] == "wild"
    assert data["classification"]["witness"]["periodic_word"] == "b"


def test_classify_exit_codes(capsys):
    assert run_cli(capsys, "classify", "corpus:chacon")[0] == 0
    assert run_cli(capsys, "classify", "corpus:empty_swap")[0] == 2


def test_analyze_fib_handle(capsys):
    code, out, _ = run_cli(capsys, "analyze", "corpus:fib_handle")
    assert code == 0
    data = json.loads(out)
    assert data["minimality"]["verdict"] == "no"
    assert data["complex"]["h1"]["eventual_rank"] == 3
    assert data["cis"]["node_count"] == 3
    assert data["cis"]["inclusion_h1_profile"] == [3, 2, 0]
    assert data["cis"]["quotient_h1_profile"] == [0, 1, 3]


def test_analyze_wild_skips_stages(capsys):
    code, out, _ = run_cli(capsys, "analyze", "corpus:wild_ab")
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["verdict"] == "wild"
    assert data["complex"] is None and data["cis"] is None
    assert any("skipped" in w for w in data["warnings"])
    assert data["primitivization"]["periodic_bypass"]


def test_analyze_wild_with_radius_exits_3(capsys):
    code = run_cli(capsys, "analyze", "corpus:wild_ab", "--radius", "1")[0]
    assert code == 3


def test_analyze_empty_exit(capsys):
    code, out, _ = run_cli(capsys, "analyze", "corpus:empty_swap")
    assert code == 2
    data = json.loads(out)
    assert data["language"]["empty_subshift"] is True


def test_analyze_deterministic(capsys):
    first = run_cli(capsys, "analyze", "corpus:fib_handle")[1]
    second = run_cli(capsys, "analyze", "corpus:fib_handle")[1]
    assert first == second


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a second command in the same
    # process keeps none of the first one's arguments, so it prints what a
    # fresh process prints
    import os
    import pathlib
    import subprocess
    import sys
    import substdyn
    from substdyn.cli import build_parser
    assert build_parser() is build_parser()
    run_cli(capsys, "analyze", "--max-length", "6", "corpus:sigma_3")
    code, out, err = run_cli(capsys, "analyze", "corpus:sigma_3")
    src = str(pathlib.Path(substdyn.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    fresh = subprocess.run([sys.executable, "-m", "substdyn.cli", "analyze", "corpus:sigma_3"],
                           capture_output=True, text=True, env=env, check=False)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_primitivize_writes_files(tmp_path, capsys):
    code, out, err = run_cli(capsys, "primitivize", "corpus:sigma_3",
                             "--out-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["return_words"] == ["ab", "abb", "abbb"]
    assert len(data["theta"]["alphabet"]) == 9
    psi_file = tmp_path / "sigma_3.psi.txt"
    theta_file = tmp_path / "sigma_3.theta.txt"
    assert psi_file.exists() and theta_file.exists()
    assert data["verification"]["ok"] is True


def test_primitivize_creates_the_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "no" / "such" / "dir"
    code, out, _ = run_cli(capsys, "primitivize", "corpus:fibonacci",
                           "--out-dir", str(out_dir))
    assert code == 0
    assert json.loads(out)["verification"]["ok"] is True
    assert (out_dir / "fibonacci.psi.txt").exists()
    assert (out_dir / "fibonacci.theta.txt").exists()


def test_primitivize_unwritable_out_dir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "primitivize", "corpus:fibonacci",
                             "--out-dir", str(blocker / "dir"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("name, emit, kinds", [
    ("sigma_3", "both", ["psi", "theta"]), ("sigma_3", "psi", ["psi"]),
    ("sigma_3", "theta", ["theta"]), ("wild_ab", "both", ["primitive"])])
def test_primitivize_writes_the_emitted_rules(tmp_path, capsys, name, emit, kinds):
    # each emitted rule goes to <stem>.<kind>.txt, announced on stderr in
    # that order, and nothing else is written; wild_ab, a single periodic
    # orbit, writes its bypass rule alone
    from substdyn.corpus import get
    from substdyn.primitivize import primitivize
    code, _, err = run_cli(capsys, "primitivize", f"corpus:{name}", "--emit", emit,
                           "--out-dir", str(tmp_path))
    assert code == 0
    result = primitivize(get(name))
    rules = {"psi": lambda: result.derived.psi, "theta": lambda: result.conjugate.theta,
             "primitive": lambda: result.bypass}
    paths = [tmp_path / f"{name}.{kind}.txt" for kind in kinds]
    assert err.splitlines() == [f"wrote {path}" for path in paths]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    for kind, path in zip(kinds, paths):
        assert path.read_text(encoding="utf-8") == rules[kind]().to_text()


@pytest.mark.parametrize("argv, blocked, written", [
    (["primitivize", "corpus:sigma_3", "--out-dir", "{dir}"], "sigma_3.psi.txt", []),
    (["primitivize", "corpus:sigma_3", "--out-dir", "{dir}"], "sigma_3.theta.txt",
     ["sigma_3.psi.txt"]),
    (["complex", "corpus:fibonacci", "--dot", "{dir}/out.dot"], "out.dot", []),
    (["cis", "corpus:fib_handle", "--dot", "{dir}/hasse.dot"], "hasse.dot", [])])
def test_unwritable_output_file_exits_1(tmp_path, capsys, argv, blocked, written):
    # the output path is a directory: the report is already on stdout, each
    # file written before it is announced, and the failed write ends in one
    # error line, not a traceback
    target = tmp_path / blocked
    target.mkdir()
    code, out, err = run_cli(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert code == 1
    assert json.loads(out)
    assert err.splitlines() == [f"wrote {tmp_path / name}" for name in written] + \
        [f"error: cannot write {target}: Is a directory"]
    assert target.is_dir() and not any(target.iterdir())
    assert sorted(tmp_path.iterdir()) == sorted([target] + [tmp_path / name for name in written])


def test_complex_dot(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code, out, _ = run_cli(capsys, "complex", "corpus:fib_handle",
                           "--dot", str(dot), "--color-cis")
    assert code == 0
    data = json.loads(out)
    assert len(data["edges"]) == 7
    text = dot.read_text()
    assert text.count("->") == 7
    assert "color=" in text


def test_complex_color_cis_builds_one_graph(tmp_path, capsys, monkeypatch):
    builds = []
    original = apcomplex._build_graph

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(apcomplex, "_build_graph", counted)
    code, _, _ = run_cli(capsys, "complex", "corpus:fib_handle",
                         "--dot", str(tmp_path / "out.dot"), "--color-cis")
    assert code == 0
    assert len(builds) == 1


def test_complex_prints_its_json_before_a_lattice_error(tmp_path, capsys, monkeypatch):
    dot = tmp_path / "out.dot"
    monkeypatch.setattr(cis, "MAX_LATTICE_NODES", 2)
    code, out, err = run_cli(capsys, "complex", "corpus:fib_handle",
                             "--dot", str(dot), "--color-cis")
    assert code == 1
    assert len(json.loads(out)["edges"]) == 7
    assert err == "error: lattice exceeded 2 nodes\n"
    assert not dot.exists()


def test_complex_under_a_letter_budget(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code, out, _ = run_cli(capsys, "--max-edges", "10", "complex", "corpus:fib_handle",
                           "--dot", str(dot), "--color-cis")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 7
    assert "color=" in dot.read_text()
    code, out, err = run_cli(capsys, "--max-edges", "10", "complex", "corpus:sigma_3",
                             "--dot", str(dot), "--color-cis")
    assert (code, out) == (4, "")
    assert err == "error: collared alphabet exceeded 10 letters\n"


def test_colliding_collared_tokens_exit_1(tmp_path, capsys):
    # (a.c, c, y) and (a, c, c.y) both format to c|a.c.c.y
    path = tmp_path / "dots.txt"
    path.write_text("a.c -> a.c c y\nc -> c y a\na -> a c c.y\n"
                    "c.y -> a.c c\ny -> a c.y\n")
    for argv in (["complex", "--radius", "1", str(path)], ["analyze", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == ("error: collared letters with contexts ('a.c', 'c', 'y') and "
                       "('a', 'c', 'c.y') share the token 'c|a.c.c.y'\n")


def test_vertex_labels_come_from_the_windows(tmp_path, capsys):
    path = tmp_path / "dot.txt"
    path.write_text("a -> a.\n. -> a\n")
    code, out, _ = run_cli(capsys, "complex", "--radius", "1", str(path))
    assert code == 0
    assert json.loads(out)["vertices"] == ["a.", ".a", "aa"]
    # a lone two-character letter at radius 0 has the empty boundary word
    path.write_text("aa -> aa aa\n")
    code, out, _ = run_cli(capsys, "complex", "--radius", "0", str(path))
    assert code == 0
    assert json.loads(out)["vertices"] == ["v"]


def test_complex_wild_exit(capsys):
    assert run_cli(capsys, "complex", "corpus:wild_ab")[0] == 3


def test_cohomology(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "corpus:chacon")
    assert code == 0
    data = json.loads(out)
    assert data["n_sigma"] == 2
    assert data["h1"]["eventual_rank"] == 2
    assert data["forcing_level"] == 1


def test_cis_command(tmp_path, capsys):
    dot = tmp_path / "hasse.dot"
    code, out, _ = run_cli(capsys, "cis", "corpus:one_proper_cis", "--dot", str(dot))
    assert code == 0
    data = json.loads(out)
    assert data["node_count"] == 3
    assert dot.read_text().startswith("digraph")


def test_extend_command(tmp_path, capsys):
    carrier = tmp_path / "carrier.txt"
    carrier.write_text("0 -> 00100101\n1 -> 00101\n")
    handle = tmp_path / "handle.txt"
    handle.write_text("a -> aa\n")
    code, out, _ = run_cli(capsys, "extend", str(carrier), str(handle),
                           "--inject", "a->0:4,5")
    assert code == 0
    assert "a -> 001aa101" in out


@pytest.mark.parametrize("flags", [
    ["--inject", "x->a:x"], ["--inject", "x->a;y->b", "--power", "-1"],
    ["--inject", "x->a;y->b", "--power", "0"], ["--inject", "x->a:3,5;y->b", "--power", "4"]],
    ids=["non_integer_position", "negative_power", "zero_power", "letter_without_positions"])
def test_extend_rejects_bad_options(tmp_path, capsys, flags):
    carrier = tmp_path / "carrier.txt"
    carrier.write_text("a -> ab\nb -> a\n")
    handle = tmp_path / "handle.txt"
    handle.write_text("x -> xy\ny -> x\n")
    code, out, err = run_cli(capsys, "extend", str(carrier), str(handle), *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_compare_bridges(capsys):
    code, out, _ = run_cli(capsys, "compare", "corpus:two_trib_bridge",
                           "corpus:quad_fib_bridge")
    assert code == 0
    data = json.loads(out)
    assert data["shape_isomorphic"] is True
    assert data["profiles_match"] is False
    assert data["first_profile"] == [6, 6, 3, 3, 0]
    assert data["second_profile"] == [6, 6, 4, 2, 0]


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    assert "fib_handle" in out and "chacon" in out


def test_edge_budget_guard(capsys, monkeypatch):
    code = run_cli(capsys, "--max-edges", "3", "analyze", "corpus:fib_handle")[0]
    assert code == 4
    monkeypatch.setenv("SUBSTDYN_MAX_EDGES", "3")
    code, out, _ = run_cli(capsys, "analyze", "corpus:fib_handle")
    assert code == 4
    data = json.loads(out)
    assert any("exceeded" in w for w in data["warnings"])


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a => b\n")
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 1
    assert "parse error" in err


def test_bad_max_edges_env_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("SUBSTDYN_MAX_EDGES", "lots")
    code, out, err = run_cli(capsys, "analyze", "corpus:fib_handle")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "SUBSTDYN_MAX_EDGES" in err


def test_analyze_cis_matches_cis_command(capsys):
    from substdyn import corpus
    from substdyn.classify import decide_tameness
    compared = 0
    for name in corpus.names():
        report = decide_tameness(corpus.get(name))
        if not report.tame or report.empty_subshift:
            continue
        code, out, _ = run_cli(capsys, "analyze", f"corpus:{name}")
        assert code == 0, name
        cis_code, cis_out, _ = run_cli(capsys, "cis", f"corpus:{name}")
        assert cis_code == 0, name
        assert json.loads(out)["cis"] == json.loads(cis_out), name
        compared += 1
    assert compared >= 20


def _count_calls(monkeypatch, calls, attr, module_names):
    """Count calls to ``attr`` through each named module's global of that
    name (the package attributes of these names are the functions, so the
    modules are taken from sys.modules)."""
    import sys
    for name in module_names:
        module = sys.modules[f"substdyn.{name}"]
        original = getattr(module, attr)

        def wrapped(*args, _original=original, **kwargs):
            calls.append(attr)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapped)


def test_analyze_reuses_the_minimality_lattice(capsys, monkeypatch):
    # where the minimality oracle builds the lattice at radius n_sigma,
    # analyze reads the same one from the session; every tame entry
    # collars, builds its complex and enumerates its lattice once
    from substdyn import corpus
    from substdyn.classify import decide_tameness
    calls = []
    _count_calls(monkeypatch, calls, "collar", ("collar", "cli", "cis"))
    _count_calls(monkeypatch, calls, "enumerate_cis", ("cis", "cli"))
    _count_calls(monkeypatch, calls, "build_complex", ("apcomplex", "cli", "cis"))
    _count_calls(monkeypatch, calls, "lattice_for", ("cis", "cli"))
    oracle = []
    for name in corpus.names():
        report = decide_tameness(corpus.get(name))
        if not report.tame or report.empty_subshift:
            continue
        calls.clear()
        code, _, _ = run_cli(capsys, "analyze", f"corpus:{name}")
        assert code == 0, name
        assert sorted(calls) == ["build_complex", "collar", "enumerate_cis"] + \
            ["lattice_for"] * calls.count("lattice_for"), name
        # the oracle reads the lattice first on every non-primitive entry
        assert (calls.count("lattice_for") == 2) == (not corpus.get(name).is_primitive()), name
        if calls.count("lattice_for") == 2:
            oracle.append(name)
    assert len(oracle) == 20 and "fib_handle" in oracle


@pytest.mark.parametrize("text", NON_MINIMAL_RECURRENT)
def test_analyze_reads_non_minimal_recurrent_rules_as_not_minimal(text, capsys, tmp_path):
    # analyze skips primitivization once minimality is refuted
    path = tmp_path / "rule.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path))
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["minimality"] == {"verdict": "no", "constant": None,
                                    "reason": "two distinct nonempty closed invariant subspaces"}
    assert report["primitivization"] is None


def test_a_failed_lattice_is_built_once(capsys, monkeypatch):
    # the minimality oracle's lattice fails past the node cap; analyze then
    # meets the session's kept failure instead of collaring again, and it
    # exits as it did when it built the lattice twice.  The kept error holds
    # no traceback, so reference counting alone frees the collared rule
    import gc
    import weakref
    from substdyn import cis
    from substdyn.collar import CollaredSubstitution
    monkeypatch.setattr(cis, "MAX_LATTICE_NODES", 2)
    calls = []
    _count_calls(monkeypatch, calls, "collar", ("collar", "cli", "cis"))
    refs = []
    original = CollaredSubstitution.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))
    monkeypatch.setattr(CollaredSubstitution, "__init__", init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, out, err = run_cli(capsys, "analyze", "corpus:two_trib_bridge")
        alive = [ref for ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert (code, out, err) == (1, "", "error: lattice exceeded 2 nodes\n")
    assert calls == ["collar"]
    assert refs and alive == []
    # a budget below the collared alphabet still exits 4 with the report,
    # though the oracle's unbudgeted lattice failed first
    code, out, _ = run_cli(capsys, "--max-edges", "10", "analyze", "corpus:two_trib_bridge")
    assert code == 4
    assert json.loads(out)["warnings"] == ["collared alphabet exceeded 10 letters"]


def test_max_edges_below_the_lattice_alphabet_exits_4(capsys):
    from substdyn import corpus
    from substdyn.classify import decide_tameness
    from substdyn.collar import collar
    sub = corpus.get("two_trib_bridge")
    letters = len(collar(sub, decide_tameness(sub).n_sigma).sub.alphabet)
    code, out, _ = run_cli(capsys, "--max-edges", str(letters - 1),
                           "analyze", "corpus:two_trib_bridge")
    assert code == 4
    data = json.loads(out)
    assert data["minimality"]["verdict"] == "no"
    assert data["cis"] is None
    assert f"collared alphabet exceeded {letters - 1} letters" in data["warnings"]
    code, out, _ = run_cli(capsys, "--max-edges", str(letters),
                           "analyze", "corpus:two_trib_bridge")
    assert code == 0
    assert json.loads(out)["cis"] is not None


def test_analyze_builds_each_table_once(capsys, monkeypatch, tmp_path):
    # within one command each (sub, max_length, margin) key is built at most
    # once, under every flag that changes which tables the stages ask for
    from collections import Counter
    from substdyn import corpus
    from substdyn.language import LanguageTable
    built = Counter()
    original = LanguageTable.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built[(self.sub, self.max_length, self.margin)] += 1

    monkeypatch.setattr(LanguageTable, "__init__", counting)
    commands = [["analyze", f"corpus:{name}", *flags]
                for flags in ([], ["--max-length", "6"], ["--margin", "30"],
                              ["--radius", "2"])
                for name in corpus.names()]
    commands.append(["primitivize", "corpus:wild_ab", "--out-dir", str(tmp_path)])
    repeated = []
    for argv in commands:
        built.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 2, 3) and built, argv
        repeated += [(" ".join(argv), key[1:], count)
                     for key, count in built.items() if count > 1]
    assert repeated == []


@pytest.mark.parametrize("argv, most_alive", [
    (["analyze", "corpus:sigma_4"], [1, 1, 0]),
    (["corpus", "run", "sigma_4", "fibonacci"], [1, 1, 1])],
    ids=["analyze corpus:sigma_4", "corpus run sigma_4 fibonacci"])
def test_tables_die_with_the_command(capsys, monkeypatch, argv, most_alive):
    # a session's store is dropped when its command (or corpus entry)
    # ends, and no table, core, primitive rule's word store, tameness
    # report, collared rule or lattice lies on a reference cycle (as it
    # would with a store held by the rule), so reference counting alone
    # frees them all
    import gc
    import weakref
    from substdyn import corpus
    from substdyn.cis import CISLattice
    from substdyn.classify import TamenessReport
    from substdyn.collar import CollaredSubstitution
    from substdyn.language import LanguageTable, _LanguageCore, _PrimitiveWords
    entries = {corpus.get(name) for name in ("sigma_4", "fibonacci")}
    refs = {cls: [] for cls in (LanguageTable, _LanguageCore, _PrimitiveWords,
                                TamenessReport, CollaredSubstitution, CISLattice)}
    # per language class, the entries whose objects were alive at each build
    entries_alive = {LanguageTable: [], _LanguageCore: [], _PrimitiveWords: []}

    def recording(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            refs[cls].append(weakref.ref(self))
            if cls in entries_alive:
                built = (ref() for ref in refs[cls])
                entries_alive[cls].append(len({item.sub for item in built
                                               if item is not None} & entries))
        return init

    for cls in refs:
        monkeypatch.setattr(cls, "__init__", recording(cls))
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _, _ = run_cli(capsys, *argv)
        alive = [ref() for cls in refs for ref in refs[cls] if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert code == 0 and all(refs.values())
    assert alive == []
    # sigma_4 is not primitive, so only fibonacci keeps a word store of its own
    assert [max(counts) for counts in entries_alive.values()] == most_alive


@pytest.mark.parametrize("argv", [
    ["cis", "corpus:fibonacci", "--radius", "x"],
    ["complex", "corpus:fibonacci", "--radius", "1.5"],
    ["cohomology", "corpus:fibonacci", "--radius", "-1"],
    ["compare", "corpus:fibonacci", "corpus:chacon", "--radius", "two"],
    ["analyze", "corpus:fibonacci", "--radius", "-2"],
    ["analyze", "corpus:wild_ab", "--radius", "x"],
    ["analyze", "corpus:fibonacci", "--max-length", "-3"],
    ["analyze", "corpus:fibonacci", "--max-length", "0"],
    ["primitivize", "corpus:fibonacci", "--verify-depth", "0"],
], ids=" ".join)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    # exit 1 with a one-line message, not a traceback and not argparse's 2,
    # which the CLI uses for an empty subshift
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: --") and err.count("\n") == 1


def _decisions(monkeypatch):
    """The rules whose tameness is decided, one entry per run of the
    decision that ``decide_tameness`` keeps per rule in the session."""
    import sys
    classify = sys.modules["substdyn.classify"]
    original = classify._decide_tameness
    decided = []

    def counting(sub):
        decided.append(sub)
        return original(sub)

    monkeypatch.setattr(classify, "_decide_tameness", counting)
    return decided


def _assert_decides_once_per_rule(capsys, decided, commands):
    from substdyn import corpus
    for argv in commands:
        decided.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 2, 3), argv
        assert corpus.get(argv[1].removeprefix("corpus:")) in decided, argv
        assert len(set(decided)) == len(decided), argv


def test_primitivize_decides_tameness_once(tmp_path, capsys, monkeypatch):
    # every stage reads the session's report, so each command decides
    # tameness once per rule it meets
    from substdyn import corpus
    decided = _decisions(monkeypatch)
    _assert_decides_once_per_rule(capsys, decided, [
        [command, f"corpus:{name}", *flags]
        for name in corpus.names()
        for command, flags in (("primitivize", ["--out-dir", str(tmp_path)]),
                               ("cis", []), ("cohomology", []))])


def test_analyze_wild_decides_once_and_builds_its_table_once(capsys, monkeypatch):
    from collections import Counter
    from substdyn import corpus
    from substdyn.language import LanguageTable
    built = Counter()
    original = LanguageTable.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built[(self.sub, self.max_length, self.margin)] += 1

    monkeypatch.setattr(LanguageTable, "__init__", counting)
    decided = _decisions(monkeypatch)
    code, out, _ = run_cli(capsys, "analyze", "corpus:wild_ab")
    assert code == 0
    assert json.loads(out)["primitivization"] is not None
    # the witness check and the periodic bypass read the analyze table
    assert sum(built.values()) == 1
    assert len(decided) == 1
    _assert_decides_once_per_rule(capsys, decided, [
        ["analyze", f"corpus:{name}"] for name in corpus.names()])


def test_analyze_short_table_keeps_the_tameness_report(capsys):
    # minimality reads the session's report, decided on the tameness table,
    # not one decided again on the 3-letter analyze table, which the
    # bounded words of sigma_3 outgrow
    code, out, err = run_cli(capsys, "analyze", "--max-length", "3", "corpus:sigma_3")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["language"]["max_length"] == 3
    assert data["classification"]["n_sigma"] == 4


def test_primitivize_closes_the_words_found_before_the_scan_budget(tmp_path, capsys):
    # sigma^6 multiplies an iterate by 64: the fourth would pass the scan
    # budget before a second stable round, but the 7 return words found by
    # the second already close
    rule = tmp_path / "bcc.txt"
    rule.write_text("a -> bcc\nb -> cac\nc -> a\n")
    code, out, _ = run_cli(capsys, "primitivize", str(rule), "--out-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert len(data["return_words"]) == 7
    assert data["verification"]["ok"] is True


def _seeded_rule_texts(count, seed):
    """Rule files of 2-4 letters with images of 1-4 letters."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        letters = "abcd"[:rng.randint(2, 4)]
        texts.append("".join(
            f"{a} -> {''.join(rng.choice(letters) for _ in range(rng.randint(1, 4)))}\n"
            for a in letters))
    return texts


def _run_with_files(capsys, out_dir, *argv):
    """Exit code, stdout, stderr and the files written to ``out_dir``,
    which is removed afterwards."""
    code, out, err = run_cli(capsys, *argv)
    files = {path.name: path.read_bytes() for path in sorted(out_dir.glob("*"))}
    shutil.rmtree(out_dir, ignore_errors=True)
    return code, out, err, files


def test_cli_fuzz_exits_cleanly_and_repeats(capsys, tmp_path):
    # no exception escapes main on seeded rules, and a rerun repeats every byte
    out_dir = tmp_path / "out"
    codes = set()
    for i, text in enumerate(_seeded_rule_texts(100, 1)):
        rule = tmp_path / f"rule{i}.txt"
        rule.write_text(text)
        for argv in (("analyze", str(rule)),
                     ("primitivize", str(rule), "--out-dir", str(out_dir))):
            first, second = (_run_with_files(capsys, out_dir, *argv) for _ in range(2))
            assert first[0] in range(5), (text, argv[0], first[2])
            assert first == second, (text, argv[0])
            codes.add(first[0])
    assert {0, 1, 2} <= codes


def test_analyze_runaway_seed_warns(capsys, tmp_path):
    # sigma^20 of the seed letter holds 2.3G letters; the primitivization
    # stops on its measured length and the other stages still run
    rule = tmp_path / "runaway.txt"
    rule.write_text("a -> dbbb\nb -> ed\nc -> eece\nd -> cddc\ne -> a\n")
    code, out, _ = run_cli(capsys, "analyze", str(rule))
    assert code == 0
    data = json.loads(out)
    assert data["warnings"] == ["primitivization: iterates of 'a' grew past the scan "
                                "budget before the return words stabilised"]
    assert data["cis"] is not None


PAST_BUDGET = "iterates of 'a' grew past the scan budget before the return words stabilised"
# find_seed gives N = 30 and N = 12.  sigma^N of the seed letter stays
# within the scan budget, but sigma^N of the candidate return words
# together passes it, and building those images ran out of memory (the
# first) or took over 100 s (the second).
CLOSURE_BUDGET_RULES = ["a -> d\nb -> f\nc -> a\nd -> ge\ne -> ab\nf -> ec\ng -> fd\n",
                        "a -> ddac\nb -> cabd\nc -> aadd\nd -> ba\n"]


@pytest.mark.parametrize("text", CLOSURE_BUDGET_RULES, ids=["n30", "n12"])
def test_primitivize_measures_the_candidate_images(capsys, tmp_path, text):
    rule = tmp_path / "rule.txt"
    rule.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "primitivize", str(rule), "--out-dir", str(tmp_path))
    assert time.perf_counter() - start < 30
    assert (code, out, err) == (1, "", f"error: {PAST_BUDGET}\n")


def test_analyze_warns_when_the_candidate_images_pass_the_budget(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text(CLOSURE_BUDGET_RULES[1])
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(rule))
    assert time.perf_counter() - start < 30
    assert code == 0
    data = json.loads(out)
    assert data["warnings"] == [f"primitivization: {PAST_BUDGET}"]
    assert data["minimality"]["verdict"] == "yes" and data["cis"] is not None
