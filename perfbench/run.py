"""End-to-end benchmark of the ``substdyn`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

It drives the real entry point in-process, ``substdyn.cli.main([...])``,
with stdout captured and the exit code kept.  The loop is closed: one
client, one operation at a time, no threads, one process per workload.
Every output is checked (see ``workloads.py``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are in reference seconds (see ``hostclock.py``): raw seconds scaled
by how fast a fixed calibration loop ran at the same moment, because the
host's speed drifts by up to 2.2 times.  The raw figures are printed on a
line of their own.

A run makes rounds: each round runs every operation once, in the order the
seed gives, and operations under ``SHORT_OP_S`` ``SHORT_OP_RUNS`` times.
Rounds go on until the next one would end past ``--seconds``, and until
at least ``TAIL_SAMPLES`` runs are done.  A failed operation is not rerun
and counts as taking its whole time limit in every round.

With ``--trace 0`` the metrics are the end-to-end figures:

- ``setup_s``: import ``substdyn``, generate the inputs and write the input
  files; done ``SETUP_REPEATS`` times, median reported;
- ``wall_s``: one pass over every operation, as the sum of each
  operation's median latency (what a ``substdyn corpus run`` user waits);
- ``op_p50_s``: median over operations of their median latency (one CLI
  invocation);
- ``op_tail_s``: latency at the highest percentile with at least
  ``TAIL_BEYOND`` samples beyond it, over every run of the fewest first
  rounds that hold ``TAIL_SAMPLES`` runs (one round of ``corpus``, two of
  ``alphabet_scale``), so that the percentile does not move with the
  number of rounds the host's speed allows.  The percentile and sample
  count are printed beside it;
- ``peak_rss_mb``: peak resident memory of this process.

``failed_frac`` (failed / attempted) is printed on its own line: it is 0 on
healthy workloads, so it is read from ``attempted`` and ``failed``.

With ``--trace 1`` a traced pass (see ``spans.py``) runs between two
untraced ones, one round each; the traced outputs must equal the untraced
ones, and the metrics are the per-layer figures plus ``trace.overhead_frac``.
Per-layer times are raw seconds.

``--known-failures`` runs, once each, the inputs on which the program
failed when the benchmark was defined (``workloads.KNOWN_FAILURES``) and
prints what each does now.

``--record`` runs every workload once at the default seed and rewrites
``reference.json`` with the digest of every output.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import hostclock
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 15
TAIL_BEYOND = 10
TAIL_SAMPLES = 40
# Operations faster than this run several times a round: their latencies
# are short enough for calibration noise to matter, and cheap to repeat.
SHORT_OP_S = 0.2
SHORT_OP_RUNS = 3
# Per-operation limit: at least three times the slowest operation of the
# workload at the defining commit.
OP_LIMIT_S = {"corpus": 30, "alphabet_scale": 12}

E2E_METRICS = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


class OpTimeout(BaseException):
    """Raised from the alarm handler; a BaseException so that the
    program's own ``except Exception`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_substdyn():
    """Fresh import of the package from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "substdyn" or k.startswith("substdyn.")]:
        del sys.modules[key]
    package = importlib.import_module("substdyn")
    importlib.import_module("substdyn.cli")
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"substdyn imported from {package.__file__}, not {SRC}")


def setup(name: str, seed: int, input_dir: Path):
    """Import, generate and write inputs ``SETUP_REPEATS`` times; returns
    the workload and the median set-up Timing."""
    def once():
        import_substdyn()
        workload = workloads.WORKLOADS[name](seed, input_dir)
        workload.write_inputs(input_dir)
        return workload

    timings = []
    for _ in range(SETUP_REPEATS):
        workload, timing = hostclock.measure(once)
        timings.append(timing)
    return workload, sorted(timings, key=lambda t: t.ref_s)[SETUP_REPEATS // 2]


def run_op(op: workloads.Op, limit: float):
    """Run one CLI invocation; returns (Timing, outcome, stdout) where the
    outcome is ("exit", code), ("raise", message) or ("timeout", limit)."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["substdyn.cli"].main

    def call():
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return ("exit", main(list(op.argv)))
        except OpTimeout:
            return ("timeout", limit)
        except SystemExit as exc:
            return ("exit", exc.code)
        except Exception as exc:  # a traceback out of cli.main is a failed operation
            return ("raise", f"{type(exc).__name__}: {exc}"[:200])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    signal.signal(signal.SIGALRM, _alarm)
    outcome, timing = hostclock.measure(call)
    return timing, outcome, out.getvalue()


def judge(op, outcome, stdout, reference):
    """(failed, wrong_output, reason); reason is None for a good result."""
    kind, value = outcome
    if kind == "timeout":
        return True, False, f"ran past the {value} s limit"
    if kind == "raise":
        return True, False, f"raised {value}"
    if value != op.expect_exit:
        return True, False, f"exit {value}, expected {op.expect_exit}"
    problem = workloads.check_output(op, stdout, reference)
    if problem is not None:
        return True, True, problem
    return False, False, None


class Run:
    """Operation results of one benchmark invocation."""

    def __init__(self, workload, references, limit):
        self.workload = workload
        self.references = references
        self.limit = limit
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # op name -> reason
        self.correct = True

    def run_once(self, op):
        """One run of ``op``; returns (Timing or None if it failed,
        (outcome, output digest))."""
        timing, outcome, stdout = run_op(op, self.limit)
        self.attempted += 1
        failed, wrong, reason = judge(op, outcome, stdout, self.references.get(op.name))
        self.correct &= not wrong
        if failed:
            self.failed += 1
            self.failures[op.name] = reason
            timing = None
        return timing, (outcome, workloads.digest(stdout))

    def measure(self, seconds, min_runs=TAIL_SAMPLES, short_runs=SHORT_OP_RUNS, tracer=None):
        """Rounds over every operation until the next round would end past
        ``seconds``, and until ``min_runs`` runs are done; at least one
        round.  An operation whose first run took under SHORT_OP_S runs
        ``short_runs`` times in each round.  Returns per operation a list of rounds, each the
        Timings of its runs in that round ([None] where it failed, and in
        every round after a failure), and per operation the first run's
        (outcome, output digest)."""
        start = time.perf_counter()
        rounds = {op.name: [] for op in self.workload.ops}
        runs_per_round = {}
        signatures = {}
        count = 0  # runs done
        while True:
            round_start = time.perf_counter()
            for op_id, op in enumerate(self.workload.ops):
                done = rounds[op.name]
                if done and done[0] == [None]:
                    done.append([None])
                    continue
                if tracer is not None:
                    tracer.op_id = op_id
                this_round = []
                while len(this_round) < runs_per_round.get(op.name, 1):
                    timing, signature = self.run_once(op)
                    signatures.setdefault(op.name, signature)
                    if timing is None:
                        done[:] = [[None]] * len(done)
                        this_round = [None]
                        break
                    this_round.append(timing)
                    runs_per_round.setdefault(
                        op.name, short_runs if timing.ref_s < SHORT_OP_S else 1)
                done.append(this_round)
                count += len(this_round)
            now = time.perf_counter()
            if count >= min_runs and now - start + (now - round_start) > seconds:
                return rounds, signatures

    def latencies(self, rounds, raw=False):
        """Reference (or raw) seconds per run, per round, with a failed run
        counted as the time limit."""
        return {name: [[self.limit if t is None else t.raw_s if raw else t.ref_s
                        for t in timings] for timings in op_rounds]
                for name, op_rounds in rounds.items()}


def summary(latencies: dict[str, list[list[float]]]):
    """(wall, p50, (tail, percentile, samples beyond), tail sample count)
    from per-operation, per-round latencies."""
    medians = [statistics.median(x for runs in op_rounds for x in runs)
               for op_rounds in latencies.values()]
    samples = []
    for k in range(len(next(iter(latencies.values())))):
        samples += [x for op_rounds in latencies.values() for x in op_rounds[k]]
        if len(samples) >= TAIL_SAMPLES:
            break
    return sum(medians), statistics.median(medians), tail(samples), len(samples)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it, else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def load_references(name):
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="run the inputs that failed when the benchmark was defined")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "substdyn" / "__init__.py").is_file():
        print(f"error: no substdyn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.known_failures:
        return known_failures()
    if args.workload is None:
        parser.error("--workload is required")

    input_dir = WORK / f"{args.workload}-{args.seed}"
    workload, setup_timing = setup(args.workload, args.seed, input_dir)
    run = Run(workload, load_references(args.workload), OP_LIMIT_S[args.workload])
    if args.trace:
        metrics = traced_run(run, input_dir)
    else:
        rounds, _ = run.measure(args.seconds)
        wall, p50, (value, percentile, beyond), count = summary(run.latencies(rounds))
        raw_wall, raw_p50, (raw_tail, _, _), _ = summary(run.latencies(rounds, raw=True))
        print(f"op_tail_s is p{percentile:.1f} of {count} runs ({beyond} beyond it); "
              f"{len(next(iter(rounds.values())))} rounds")
        print(f"raw seconds: setup_s {setup_timing.raw_s:.4f} wall_s {raw_wall:.4f} "
              f"op_p50_s {raw_p50:.4f} op_tail_s {raw_tail:.4f}")
        values = {
            "setup_s": setup_timing.ref_s,
            "wall_s": wall,
            "op_p50_s": p50,
            "op_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: metric(values[name], unit) for name, unit in E2E_METRICS}
    for name, reason in sorted(run.failures.items()):
        print(f"failed {name}: {reason}")
    print(f"failed_frac {run.failed / run.attempted} ({run.failed} of {run.attempted})")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def traced_run(run: Run, input_dir: Path):
    """An untraced pass, a traced pass and another untraced pass of the
    same operations; the overhead compares the traced pass with the mean of
    the untraced ones, so that a slower first pass does not hide it."""
    def one_pass(tracer=None):
        rounds, signatures = run.measure(0, min_runs=0, short_runs=1, tracer=tracer)
        latencies = run.latencies(rounds).values()
        return sum(x for op_rounds in latencies for x in op_rounds[0]), signatures

    before, plain = one_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, traced = one_pass(tracer)
    finally:
        tracer.remove()
    after, plain_again = one_pass()
    for name in plain:
        if not plain[name] == traced[name] == plain_again[name]:
            run.correct = False
            print(f"traced output differs from untraced: {name}")
    tracer.write(input_dir / "spans.jsonl")
    overhead = 2 * traced_wall / (before + after) - 1
    values = tracer.layer_metrics(overhead)
    units = dict(spans.LAYER_METRICS)
    return {name: metric(value, units[name]) for name, value in values.items()}


def known_failures():
    """Each recorded failing input once, with what it does now."""
    input_dir = WORK / "known_failures"
    workload = workloads.known_failures(input_dir)
    workload.write_inputs(input_dir)
    import_substdyn()
    run = Run(workload, {}, OP_LIMIT_S["alphabet_scale"])
    for op in workload.ops:
        timing, _ = run.run_once(op)
        result = run.failures[op.name] if timing is None else f"ok in {timing.raw_s:.2f} s"
        print(f"{op.name}: {result}", flush=True)
    print(f"failed_frac {run.failed / run.attempted} ({run.failed} of {run.attempted})")
    return 0


def record():
    """Output digests at the default seed; every operation must succeed."""
    references = {}
    for name in workloads.WORKLOADS:
        input_dir = WORK / f"{name}-{workloads.DEFAULT_SEED}"
        workload, _ = setup(name, workloads.DEFAULT_SEED, input_dir)
        entries = {}
        for op in workload.ops:
            _, outcome, stdout = run_op(op, OP_LIMIT_S[name])
            failed, _, reason = judge(op, outcome, stdout, None)
            if failed:
                raise SystemExit(f"{op.name}: {reason}")
            entries[op.name] = workloads.digest(stdout)
        references[name] = entries
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
