"""Workload generators and per-operation output checks.

A workload is a list of operations.  Each operation is one ``substdyn``
CLI invocation with the exit code expected for its input and a check of
the JSON it prints.  The program only sees the generated input files or
the bundled ``corpus:<name>`` entries.

Outputs must also match, byte for byte, the digests recorded in
``reference.json`` at the commit that defined the benchmark: both
workloads have the same inputs at every seed, and the seed orders them.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Draws per alphabet size in the alphabet_scale pool: the first draws of
# each size's stream, drawn once from DEFAULT_SEED; the run seed only orders
# them.  The benchmark must run workloads on which no operation fails, and
# some random draws fail: H1 overflows into direct_limit's ValueError, or
# runs past the time limit (KNOWN_FAILURES below lists such inputs).  The
# sizes were chosen so that the first draws of every stream finish.  Draws
# of 9 and 10 letters that finish take 6-11 s each, nearly all of it
# building language tables, so the pool stops at 8 letters.  The twelve
# cheap 6-letter draws give op_tail_s 40 samples over two rounds.
ALPHABET_DRAWS = {6: 12, 7: 6, 8: 2}
IMAGE_LENGTHS = (2, 3)

# The bundled corpus when the benchmark was defined; analyze exits 2 on an
# empty subshift.
CORPUS_NAMES = (
    "fibonacci", "fibonacci_ab", "tribonacci", "wild_ab", "tame_abb", "empty_swap",
    "legality_drop", "bounded_limits", "two_components", "fib_plus_fixed",
    "mixed_types", "chacon", "sigma_2", "sigma_3", "sigma_4", "sigma_5", "fib_handle",
    "two_trib_bridge", "quad_fib_bridge", "fib_proximal", "aug_fib_handle",
    "one_proper_cis", "fib_ext_solenoid", "fib_bd_proximal", "f_not_bijection",
    "asym_trib_a", "asym_trib_b",
)
EMPTY_SUBSHIFTS = {"empty_swap"}

COMPARE_PAIRS = (
    ("two_trib_bridge", "quad_fib_bridge"),
    ("fib_handle", "tribonacci"),
    ("asym_trib_a", "asym_trib_b"),
)

Check = Callable[[dict], "str | None"]


@dataclass
class Op:
    """One CLI invocation; ``check`` returns None or the reason the parsed
    output is wrong."""
    name: str
    argv: list[str]
    expect_exit: int = 0
    check: Check | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> text

    def write_inputs(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        for file_name, text in self.inputs.items():
            (directory / file_name).write_text(text, encoding="utf-8")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- known answers -----------------------------------------------------------

def _expect(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first_error(*results):
    return next((r for r in results if r is not None), None)


def _lattice_check(count=None, inclusion=None, quotient=None, minimal_ranks=None,
                   proper=None, chain=False, node1_quotient=None) -> Check:
    """Lattice facts from acceptance criterion 5, read off ``analyze``."""
    def check(out):
        cis = out.get("cis")
        if cis is None:
            return "no cis section"
        nodes = cis["nodes"]
        errors = []
        if count is not None:
            errors.append(_expect("node_count", cis["node_count"], count))
        if inclusion is not None:
            errors.append(_expect("inclusion profile", cis["inclusion_h1_profile"], inclusion))
        if quotient is not None:
            errors.append(_expect("quotient profile", cis["quotient_h1_profile"], quotient))
        if node1_quotient is not None:
            errors.append(_expect("node 1 quotient H1", nodes[1]["quotient_h1_rank"],
                                  node1_quotient))
        edge_sets = [frozenset(n["edges"]) for n in nodes]
        if minimal_ranks is not None:
            ranks = sorted(n["h1_rank"] for n, e in zip(nodes, edge_sets)
                           if e and not any(f and f < e for f in edge_sets))
            errors.append(_expect("minimal node H1 ranks", ranks, minimal_ranks))
        if proper is not None:
            count_proper = sum(1 for e in edge_sets if e and e != edge_sets[0])
            errors.append(_expect("nonempty proper nodes", count_proper, proper))
        if chain:
            order = {tuple(pair) for pair in cis["order"]}
            names = [n["name"] for n in nodes]
            ok = all((names[i + 1], names[i]) in order for i in range(len(names) - 1))
            errors.append(None if ok else "nodes do not form a chain")
        return _first_error(*errors)
    return check


def _sigma_check(n: int) -> Check:
    def check(out):
        primitivization = out.get("primitivization") or {}
        verification = primitivization.get("verification") or {}
        complex_ = out.get("complex") or {}
        return _first_error(
            _expect("H1 eventual rank", (complex_.get("h1") or {}).get("eventual_rank"), n),
            _expect("verification.ok", verification.get("ok"), True))
    return check


CORPUS_ANSWERS: dict[str, Check] = {
    "fib_handle": _lattice_check(count=3, inclusion=[3, 2, 0], node1_quotient=1),
    "two_trib_bridge": _lattice_check(count=5, inclusion=[6, 6, 3, 3, 0],
                                      quotient=[0, 1, 3, 3, 6]),
    "quad_fib_bridge": _lattice_check(minimal_ranks=[2, 4]),
    "one_proper_cis": _lattice_check(proper=1),
    "fib_proximal": _lattice_check(count=4, inclusion=[4, 3, 2, 0], chain=True),
    **{f"sigma_{n}": _sigma_check(n) for n in range(2, 6)},
}


def _compare_check(shape, distinguishable, first=None, second=None) -> Check:
    """Verdicts from acceptance criterion 6 and the corpus notes."""
    def check(out):
        return _first_error(
            _expect("shape_isomorphic", out["shape_isomorphic"], shape),
            _expect("distinguishable", out["distinguishable"], distinguishable),
            None if first is None else _expect("first_profile", out["first_profile"], first),
            None if second is None else _expect("second_profile", out["second_profile"], second))
    return check


COMPARE_ANSWERS: dict[tuple[str, str], Check] = {
    ("two_trib_bridge", "quad_fib_bridge"): _compare_check(
        True, True, first=[6, 6, 3, 3, 0], second=[6, 6, 4, 2, 0]),
    ("fib_handle", "tribonacci"): _compare_check(False, True),
    ("asym_trib_a", "asym_trib_b"): _compare_check(True, False, first=[5, 0], second=[5, 0]),
}


def euler_check(out) -> str | None:
    """H1 rank of a graph is edges - vertices + components."""
    return _expect("h1.rank", out["h1"]["rank"],
                   out["edges"] - out["vertices"] + out["components"])


# -- generators ----------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    rng.shuffle(ops)
    return ops


def corpus(seed: int, input_dir: Path) -> Workload:
    """All bundled entries through ``analyze`` plus the criterion-6 pairs
    through ``compare``; the seed only orders the operations."""
    ops = [Op(f"analyze:{name}", ["analyze", f"corpus:{name}"],
              expect_exit=2 if name in EMPTY_SUBSHIFTS else 0,
              check=CORPUS_ANSWERS.get(name)) for name in CORPUS_NAMES]
    ops += [Op(f"compare:{a}:{b}", ["compare", f"corpus:{a}", f"corpus:{b}"],
               check=COMPARE_ANSWERS[(a, b)]) for a, b in COMPARE_PAIRS]
    return Workload("corpus", _shuffled(ops, _rng("corpus", seed)))


def is_primitive(images: list[str], alphabet: str) -> bool:
    """Some power of the incidence matrix is positive; by Wielandt's bound
    the (k-1)^2+1-th power decides it."""
    k = len(alphabet)
    reach = [frozenset(alphabet.index(x) for x in image) for image in images]
    current = reach
    for _ in range((k - 1) ** 2 + 1):
        if all(len(row) == k for row in current):
            return True
        current = [frozenset(j for i in row for j in reach[i]) for row in current]
    return all(len(row) == k for row in current)


def random_primitive(rng: random.Random, letters: int) -> str:
    """Uniform images of length 2-3, redrawn only until primitive."""
    alphabet = string.ascii_lowercase[:letters]
    while True:
        images = ["".join(rng.choice(alphabet) for _ in range(rng.choice(IMAGE_LENGTHS)))
                  for _ in alphabet]
        if is_primitive(images, alphabet):
            return "".join(f"{a} -> {image}\n" for a, image in zip(alphabet, images))


def alphabet_scale(seed: int, input_dir: Path) -> Workload:
    """``cohomology --radius 2`` on a fixed pool of random primitive
    substitutions; the seed orders the operations."""
    workload = Workload("alphabet_scale", [])
    for letters, count in ALPHABET_DRAWS.items():
        rng = _rng(f"alphabet_scale:k{letters}", DEFAULT_SEED)
        for i in range(count):
            file_name = f"k{letters}_{i}.txt"
            workload.inputs[file_name] = random_primitive(rng, letters)
            workload.ops.append(Op(f"cohomology:k{letters}_{i}",
                                   ["cohomology", "--radius", "2", str(input_dir / file_name)],
                                   check=euler_check))
    _shuffled(workload.ops, _rng("alphabet_scale", seed))
    return workload


WORKLOADS = {
    "corpus": corpus,
    "alphabet_scale": alphabet_scale,
}

# Random primitive substitutions on which ``cohomology --radius 2`` fails
# when the benchmark was defined, kept out of the workloads because those
# may hold no failing operation; ``run.py --known-failures`` runs them.
# The first three came from an earlier layout of the alphabet_scale pool,
# the last two are draws 9 and 12 of its 7-letter stream.
KNOWN_FAILURES = {
    "k7_overflow_a": "a -> gea\nb -> egf\nc -> ag\nd -> abg\ne -> ccb\nf -> dee\ng -> ba\n",
    "k7_runaway": "a -> bf\nb -> efd\nc -> fg\nd -> gd\ne -> ccb\nf -> aa\ng -> fg\n",
    "k8_runaway": "a -> ahg\nb -> dde\nc -> dhg\nd -> fd\ne -> ehf\nf -> cac\ng -> fb\nh -> bg\n",
    "k7_overflow_b": "a -> dfe\nb -> cd\nc -> dcg\nd -> bda\ne -> ab\nf -> fdf\ng -> dgd\n",
    "k7_overflow_c": "a -> eb\nb -> fed\nc -> ada\nd -> de\ne -> ebc\nf -> gbd\ng -> bc\n",
}


def known_failures(input_dir: Path) -> Workload:
    workload = Workload("known_failures", [])
    for name, text in KNOWN_FAILURES.items():
        workload.inputs[f"{name}.txt"] = text
        workload.ops.append(Op(f"cohomology:{name}",
                               ["cohomology", "--radius", "2", str(input_dir / f"{name}.txt")],
                               check=euler_check))
    return workload


def check_output(op: Op, stdout: str, reference: str | None) -> str | None:
    """None when the output is right, else why it is wrong.  ``reference``
    is the recorded digest of the output, or None."""
    if reference is not None and digest(stdout) != reference:
        return "output differs from the recorded reference"
    if op.check is None:
        return None
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return op.check(out)
    except (KeyError, IndexError, TypeError) as exc:
        return f"output lacks a field: {exc!r}"
