"""Self-checks of the benchmark harness.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Negative controls: a task given the wrong expectation (a W target for a GHZ
run, a wrong branch count) and a task that raises must each count as a failed
task, while the same task with the right expectation passes. Also checks the
tail index, that span self times add up to the traced time, and that tracing
leaves the program as it found it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (fixes the BLAS thread count before numpy loads)
from tracing import LAYERS, Tracer, per_layer_units  # noqa: E402
from workloads import Task, cli_enumerate_task, sampled_dense_task  # noqa: E402

from qccc import protocols  # noqa: E402
from qccc.statevector import PureState  # noqa: E402


def test_wrong_target_counts_as_failed():
    ghz, _ = protocols.ghz_protocol(4)
    _, failure = run.run_task(sampled_dense_task("ghz4_vs_w", ghz, protocols.w_state(4), seed=1))
    assert failure is not None and "CheckFailed" in failure, failure
    _, failure = run.run_task(sampled_dense_task("ghz4", ghz, protocols.ghz_state(4), seed=1))
    assert failure is None, failure


def test_wrong_branch_count_counts_as_failed():
    argv = ["prepare", "--protocol", "ghz", "--n", "4"]
    with tempfile.TemporaryDirectory() as wd:
        out = str(Path(wd) / "report.json")
        _, failure = run.run_task(cli_enumerate_task("ghz4_9_branches", argv, 9, out))
        assert failure is not None and "8 branches, expected 9" in failure, failure
        _, failure = run.run_task(cli_enumerate_task("ghz4_8_branches", argv, 8, out))
        assert failure is None, failure


def test_exception_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    _, failure = run.run_task(Task("boom", boom))
    assert failure == "boom: RuntimeError: boom"


def test_tail_index():
    # highest percentile with at least ten samples beyond it
    assert run.tail_index(11) == 0
    assert run.tail_index(12) == 1
    assert run.tail_index(30) == 19
    assert run.tail_index(5) == 0
    stats = run.tail_stats([float(i) for i in range(21)])
    assert stats["tail"] == 10.0 and stats["tail_beyond"] == 10 and stats["tail_percentile"] == 50.0


def test_self_times_add_up_and_tracing_is_removed():
    ghz, target = protocols.ghz_protocol(5)
    original = PureState.__dict__["apply"]
    tracer = Tracer()
    with tracer.installed():
        tracer.task = 0
        elapsed, failure = run.run_task(sampled_dense_task("ghz5", ghz, target, seed=3), tracer)
    assert failure is None, failure
    assert PureState.__dict__["apply"] is original
    m = tracer.metrics(elapsed, elapsed)
    assert set(m) == set(per_layer_units())
    assert m["statevector.apply.calls"] > 0 and m["locc.branches"] == 1
    (root,) = [s for s in tracer.spans if s[3] == -1]
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(layers - (root[2] - root[1])) < 1e-9


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}")
    print(f"{len(tests)} self-checks passed")
