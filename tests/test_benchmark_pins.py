"""The benchmark's pinned answers, checked on the two cheapest tasks of each workload.

perfbench/pins.json holds the answer the learner gave on every task of
each workload's universe. Re-deriving the cheapest two per workload
catches answer drift in a plain test run instead of only in a benchmark
run; `pytest tests/test_benchmark_pins.py --all-pins` re-derives every
pinned task (416, about a minute). The files are only read; the test
skips when they are absent.
"""

import json
from pathlib import Path

import pytest

from ltlflearn import (
    LearnerConfig,
    TaskSpec,
    gen_task,
    learn,
    parse_task,
    render_formula,
    serialize_sample,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = ("status", "method", "formula", "n_enumerated", "n_retained", "beam_candidates",
          "dc_splits")


def _pins(every: bool):
    try:
        workloads = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
        pins = json.loads((PERFBENCH / "pins.json").read_text())
    except FileNotFoundError:
        return []
    return [
        pytest.param(workloads[name], pin, id=f"{name}-seed{pin['seed']}")
        for name in workloads
        for pin in sorted(pins[name], key=lambda pin: pin["cost"])[: None if every else 2]
    ]


def pytest_generate_tests(metafunc):
    if "pin" in metafunc.fixturenames:
        every = metafunc.config.getoption("--all-pins", default=False)
        metafunc.parametrize("workload,pin", _pins(every))


@pytest.mark.skipif(not _pins(False), reason="perfbench/workloads.json or pins.json is absent")
def test_cheapest_pinned_answers_do_not_drift(workload, pin):
    text = serialize_sample(gen_task(TaskSpec(seed=pin["seed"], **workload["spec"])))
    sample = parse_task(text).sample
    result = learn(sample, LearnerConfig(**workload["config"]))
    formula = result.formula
    got = {
        "status": result.status,
        "method": result.method,
        "formula": None if formula is None else render_formula(formula, sample.alphabet),
        "n_enumerated": result.stats.get("n_enumerated"),
        "n_retained": result.stats.get("n_retained"),
        "beam_candidates": result.stats.get("beam_candidates"),
        "dc_splits": result.stats.get("dc_splits", 0),
    }
    assert got == {key: pin[key] for key in PINNED}
