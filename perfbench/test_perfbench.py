"""The benchmark's own tests: deterministic inputs, metric names, output
checks and tracer hygiene.  Run with ``python3 -m pytest perfbench``."""

import importlib
import json
import signal
import statistics
import sys

import pytest

import hostclock
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
importlib.import_module("substdyn.cli")

E2E_NAMES = [name for name, _ in run.E2E_METRICS]
LAYER_NAMES = [name for name, _ in spans.LAYER_METRICS]


def _signature(workload):
    return [op.argv for op in workload.ops], workload.inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    first = workloads.WORKLOADS[name](5, tmp_path)
    again = workloads.WORKLOADS[name](5, tmp_path)
    other = workloads.WORKLOADS[name](6, tmp_path)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)


def test_random_draws_are_primitive(tmp_path):
    from substdyn.core import parse_substitution
    workload = workloads.alphabet_scale(3, tmp_path)
    assert len(workload.ops) == sum(workloads.ALPHABET_DRAWS.values())
    failing = workloads.known_failures(tmp_path)
    assert len(failing.ops) == len(workloads.KNOWN_FAILURES)
    for text in [*workload.inputs.values(), *failing.inputs.values()]:
        assert parse_substitution(text).is_primitive()


def test_metric_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == spans.LAYER_METRICS
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)


def _op(name):
    return workloads.Op(f"analyze:{name}", ["analyze", f"corpus:{name}"],
                        check=workloads.CORPUS_ANSWERS.get(name))


def test_corrupted_outputs_are_rejected():
    references = json.loads(run.REFERENCE.read_text())["corpus"]
    op = _op("fib_handle")
    _, outcome, stdout = run.run_op(op, 30)
    assert run.judge(op, outcome, stdout, references[op.name]) == (False, False, None)
    flipped = stdout.replace('"node_count": 3', '"node_count": 4')
    assert run.judge(op, outcome, flipped, references[op.name])[:2] == (True, True)
    assert run.judge(op, outcome, flipped, None)[:2] == (True, True)

    op = _op("sigma_2")
    _, outcome, stdout = run.run_op(op, 30)
    assert run.judge(op, outcome, stdout, None) == (False, False, None)
    wrong = json.loads(stdout)
    wrong["complex"]["h1"]["eventual_rank"] = 3
    assert run.judge(op, outcome, json.dumps(wrong), None)[:2] == (True, True)

    good = {"edges": 35, "vertices": 28, "components": 1, "h1": {"rank": 8}}
    assert workloads.euler_check(good) is None
    assert workloads.euler_check({**good, "h1": {"rank": 9}}) is not None


def test_failures_are_counted():
    op = workloads.Op("analyze:empty_swap", ["analyze", "corpus:empty_swap"])
    _, outcome, stdout = run.run_op(op, 30)
    assert outcome == ("exit", 2)
    failed, wrong, reason = run.judge(op, outcome, stdout, None)
    assert failed and not wrong and "expected 0" in reason
    assert run.judge(op, ("raise", "ValueError: x"), "", None)[:2] == (True, False)
    assert run.judge(op, ("timeout", 1), "", None)[:2] == (True, False)


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 61)]) == (50.0, pytest.approx(250 / 3), 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_summary_takes_the_tail_over_the_first_rounds():
    # 30 operations, the last round much slower: it must not reach the tail
    latencies = {f"op{i}": [[float(i)], [float(i)], [100.0 + i]] for i in range(30)}
    wall, p50, (value, percentile, beyond), count = run.summary(latencies)
    assert count == 60 >= run.TAIL_SAMPLES
    assert (value, beyond) == (24.0, 10)
    assert wall == sum(range(30)) and p50 == 14.5


def test_hostclock_scales_by_calibration():
    result, timing = hostclock.measure(lambda: sum(range(200_000)))
    assert result == sum(range(200_000))
    assert len(timing.samples) >= 2 and timing.raw_s > 0
    ratio = hostclock.REFERENCE_S / statistics.fmean(timing.samples)
    assert timing.ref_s == pytest.approx(timing.raw_s * ratio)
    assert signal.getsignal(signal.SIGVTALRM) is signal.SIG_DFL


def _bound_names():
    names = {}
    for module_name, attr, _ in spans.FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        for key, module in list(sys.modules.items()):
            if key == "substdyn" or key.startswith("substdyn."):
                for name, value in vars(module).items():
                    if value is original:
                        names[(key, name)] = value
    for module_name, cls_name, attr, _ in spans.METHODS + spans.COUNTED_METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        names[(cls_name, attr)] = cls.__dict__[attr]
    return names


def test_tracer_matches_untraced_and_restores():
    before = _bound_names()
    assert ("substdyn", "primitivize") in before
    op = _op("fib_handle")
    plain = run.run_op(op, 30)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_op(op, 30)
    finally:
        tracer.remove()
    assert plain[1:] == traced[1:]
    assert _bound_names() == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "language.table", "cis.canonicalize", "intlin.mat_pow"} <= names
    assert all(parent < index for index, (_, _, _, parent, _) in enumerate(tracer.spans))
    metrics = tracer.layer_metrics(0.0)
    assert list(metrics) == LAYER_NAMES
    assert metrics["language.tables_built"] > 0 and metrics["cis.nodes"] > 0


def test_main_prints_every_metric(monkeypatch, capsys, tmp_path):
    """A one-operation workload through ``main``, in both trace modes."""
    monkeypatch.setattr(run, "import_substdyn", lambda: importlib.import_module("substdyn.cli"))
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "corpus",
                        lambda seed, input_dir: workloads.Workload(
                            "corpus", [_op("fib_handle")]))
    for trace, expected in ((0, E2E_NAMES), (1, LAYER_NAMES)):
        assert run.main(["--workload", "corpus", "--seconds", "1",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == expected
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
