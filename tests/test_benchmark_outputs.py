"""The benchmark's output contract, checked in the test suite: every
operation of the ``corpus`` and ``alphabet_scale`` workloads runs once
through ``cli.main``, and its stdout must match the digest recorded in
``perfbench/reference.json``.  So a changed byte fails here, not only in
the benchmark.  The operations and the checks are read from
``perfbench/workloads.py``, which this test does not change."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from substdyn.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["corpus", "alphabet_scale"])
def test_outputs_match_the_recorded_digests(workload, tmp_path):
    workloads = _workloads()
    references = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))[workload]
    generated = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, tmp_path)
    generated.write_inputs(tmp_path)
    assert sorted(op.name for op in generated.ops) == sorted(references)
    wrong = []
    for op in generated.ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
        if code != op.expect_exit:
            wrong.append(f"{op.name}: exit {code}, expected {op.expect_exit}")
            continue
        problem = workloads.check_output(op, out.getvalue(), references[op.name])
        if problem is not None:
            wrong.append(f"{op.name}: {problem}")
    assert wrong == []
