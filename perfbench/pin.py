#!/usr/bin/env python3
"""Write perfbench/pins.json: the learner's answer on every universe task.

    python3 perfbench/pin.py [WORKLOAD ...]

run.py counts a verdict as wrong when its status or method differs
from the pin (or an EnumOnly size does), and reports any other
difference from the pin as drift. Pins therefore record the code the
benchmark was defined on; re-pin only in a change that redefines the
benchmark. With workload names, only those workloads are re-pinned.
Fails if a task's path is not the workload's declared path.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, load_json


def pin_workload(wl: dict) -> list[dict]:
    from ltlflearn import TaskSpec, gen_task, serialize_sample

    import bench

    config = bench.LearnerConfig(**wl["config"])
    pins = []
    for seed in range(wl["universe"]):
        text = serialize_sample(gen_task(TaskSpec(seed=seed, **wl["spec"])))
        _, result, rendered = bench.solve(text, config)
        got = bench.answer_record(result.status, result.method, result.formula, rendered,
                                  result.stats)
        path = result.method or result.status
        if path != wl["path"]:
            raise SystemExit(f"task seed {seed}: path {path}, workload declares {wl['path']}")
        cost = got["n_enumerated"] + (got["beam_candidates"] or 0)
        pins.append({"seed": seed, **got, "cost": cost})
        print(f"seed {seed}: {path} {got['formula']} cost {cost}", file=sys.stderr)
    return pins


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    workloads = load_json("workloads.json")["workloads"]
    pins_file = HERE / "pins.json"
    pins = json.loads(pins_file.read_text(encoding="utf-8")) if pins_file.exists() else {}
    for name in names or list(workloads):
        pins[name] = pin_workload(workloads[name])
    lines = []
    for name in workloads:
        rows = ",\n".join(f"    {json.dumps(p)}" for p in pins.get(name, []))
        lines.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
    pins_file.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
