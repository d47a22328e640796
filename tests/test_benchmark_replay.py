"""The benchmark's phase-by-phase replay of `learn`, on the cheapest pinned task of each workload.

perfbench/bench.py times each layer by calling the library's public
functions one by one (collapse, existence_check, reduce_instance,
div_conq, reconstruct). A library change that breaks those calls then
fails a plain test run, not only a traced benchmark run. The files are
only read, the module is compiled in memory so no bytecode is written
beside it, and the test skips when they are absent.
"""

import json
import types
from pathlib import Path

import pytest

from ltlflearn import LearnerConfig, TaskSpec, gen_task, serialize_sample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cheapest_pin_per_workload():
    try:
        workloads = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
        pins = json.loads((PERFBENCH / "pins.json").read_text())
        source = (PERFBENCH / "bench.py").read_text()
    except FileNotFoundError:
        return None, []
    bench = types.ModuleType("bench")
    bench.__file__ = str(PERFBENCH / "bench.py")
    exec(compile(source, bench.__file__, "exec"), bench.__dict__)
    cases = [
        pytest.param(workloads[name], min(pins[name], key=lambda pin: pin["cost"]), id=name)
        for name in workloads
    ]
    return bench, cases


BENCH, CASES = _cheapest_pin_per_workload()


@pytest.mark.skipif(not CASES, reason="perfbench/bench.py, workloads.json or pins.json is absent")
@pytest.mark.parametrize("workload,pin", CASES)
def test_replay_gives_the_pinned_answer(workload, pin):
    text = serialize_sample(gen_task(TaskSpec(seed=pin["seed"], **workload["spec"])))
    out = BENCH.replay(BENCH.Tracer(), 0, text, LearnerConfig(**workload["config"]))
    got = (out["status"], out["method"], out["rendered"], out["stats"].get("beam_candidates"))
    assert got == (pin["status"], pin["method"], pin["formula"], pin["beam_candidates"])
