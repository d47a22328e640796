#!/usr/bin/env python3
"""Seeded benchmark of ltlflearn: time to verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the learner is imported from
its `src/`. One run learns one workload's task pool in a closed loop
(one task at a time, in this process) for S seconds and checks every
answer against perfbench/pins.json. The unit of work is what
`ltlflearn learn` does without process start-up: parse the task text,
learn, render the answer.

Times are reported at a nominal machine speed. The speed of a shared
host drifts by a third or more over tens of seconds, and the learner's
times drift with it. So a fixed loop, the speed probe, runs
between tasks (outside their timing), and each task's seconds are
scaled by the probe's nominal time over its median time around that
task. The learner's code never runs inside the probe, so a change to
the learner moves the scaled times as it moves the raw ones; the raw
figures and the probe's own time are printed with the result.

--trace 0 reports the end-to-end metrics. --trace 1 times each task
twice, untraced and then replayed phase by phase with a span around
each layer call, and reports the per-layer metrics (unscaled); the
replay must give the untraced answer. Spans are written to
perfbench/out/.

Human-readable lines go first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. The exit code is 0 only
when every verdict is right and decided (and, traced, every replay
agrees). `--workload all` runs every workload, each in a process of
its own. --self-check runs a tiny pass of every workload and checks
the output against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

E2E_UNITS = {
    "tasks_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "formula_size.mean": "nodes",
    "wrong_frac": "frac",
    "undecided_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The result line carries only the metrics that are never 0. wrong_frac
# and undecided_frac are 0 on a correct run and travel as `failed` and
# `correct`; formula_size.mean has no value on a workload without a
# Solved answer (nosol-long). All eight are printed.
RESULT_E2E = ("tasks_per_s", "verdict_s.p50", "verdict_s.tail", "peak_rss_mb", "setup_s")


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def choose_pool(pins: list[dict], size: int, seed: int) -> list[dict]:
    """One task per cost stratum of the pinned universe, seeded.

    The universe ranked by pinned cost is cut into `size` equal strata;
    the seed picks one task in each and the order they run in.
    """
    ranked = sorted(pins, key=lambda p: (p["cost"], p["seed"]))
    per = len(ranked) // size
    rng = random.Random(f"perfbench:{seed}")
    picks = [ranked[i * per + rng.randrange(per)] for i in range(size)]
    rng.shuffle(picks)
    return picks


def probe(iterations: int) -> float:
    """Seconds a fixed loop takes: the machine's speed now.

    The geometric mean of the times of two loops, one of integer
    arithmetic and one of updates to a small hash table, the two kinds
    of work the learner does. On a shared host the learner's time
    follows the pair more closely than either loop alone.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(iterations):
        s ^= (i * 2654435761) & 0xFFFF
    t1 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(iterations):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) ^ i
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def at_nominal_speed(seconds: list[float], probes: list[float], nominal: float) -> list[float]:
    """Scale interval i, which ran between probes[i] and probes[i + 1],
    by nominal over the median of the probes from i - 1 to i + 2."""
    return [s * nominal / statistics.median(probes[max(0, i - 1):i + 3])
            for i, s in enumerate(seconds)]


def _forget_imports() -> None:
    for name in [m for m in sys.modules if m in ("ltlflearn", "bench") or m.startswith("ltlflearn.")]:
        del sys.modules[name]


def setup(spec: dict, pool: list[dict]) -> tuple[float, list[str]]:
    """Import ltlflearn afresh, then generate and serialize the pool's
    tasks. Returns the seconds taken and the task texts."""
    _forget_imports()
    gc.collect()  # each repeat starts without the previous one's garbage
    t0 = time.perf_counter()
    lf = importlib.import_module("ltlflearn")
    texts = [lf.serialize_sample(lf.gen_task(lf.TaskSpec(seed=p["seed"], **spec))) for p in pool]
    elapsed = time.perf_counter() - t0
    if not Path(lf.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ltlflearn imported from {lf.__file__}, not from {SRC}")
    return elapsed, texts


@dataclasses.dataclass
class Verdict:
    """One task's time and how its answer compared with the pin."""

    slot: int  # index into the pool
    seconds: float
    wrong: str | None = None
    undecided: str | None = None
    size: int | None = None  # node count of a Solved formula
    drifted: list[str] = dataclasses.field(default_factory=list)


def judge(pin: dict, slot: int, seconds: float, answer, error: str | None) -> Verdict:
    """Check one answer (sample, result, rendered) against its pin."""
    import bench

    v = Verdict(slot, seconds)
    if error is not None or answer[1].status == "Timeout":
        v.undecided = f"task seed {pin['seed']}: {error or 'Timeout'}"
        return v
    sample, result, rendered = answer
    reasons, v.drifted = bench.check(pin, sample, result, rendered)
    if reasons:
        v.wrong = f"task seed {pin['seed']}: " + "; ".join(reasons)
    if result.formula is not None:
        v.size = result.formula.size
    return v


@dataclasses.dataclass
class Pass:
    name: str
    seed: int
    pool: list[dict]
    setup_s: float  # median over the repeats, at nominal speed
    wall_s: float
    verdicts: list[Verdict]
    scaled_s: list[float] = dataclasses.field(default_factory=list)  # per verdict, nominal speed
    probe_s: float = 0.0  # median probe time over the pass
    tracer: object = None
    task_counts: list[dict] = dataclasses.field(default_factory=list)
    replay_mismatches: dict[int, str] = dataclasses.field(default_factory=dict)  # by verdict


def measure(name: str, seed: int, seconds: float, trace: bool, pool=None, min_verdicts=None) -> Pass:
    """Set up, then learn the pool in a closed loop for `seconds`.

    The loop runs whole cycles through the pool, so every pool task
    weighs the same, and stops at the cycle boundary nearest to
    `seconds` once it has `min_verdicts` verdicts: by default enough
    for 10 beyond the workload's tail percentile. Each task starts on
    a collected heap and is judged as soon as it ends, so no answer
    outlives its check. Traced, each task is also replayed, and the
    loop stops as soon as the time is up.
    """
    workloads = load_json("workloads.json")
    wl = workloads["workloads"][name]
    iterations, nominal = workloads["speed_probe"]["iterations"], workloads["speed_probe"]["nominal_s"]
    if pool is None:
        pool = choose_pool(load_json("pins.json")[name], wl["pool"], seed)
    if min_verdicts is None:
        min_verdicts = math.ceil(10 / (1 - wl["tail_percentile"] / 100))
    probes = [probe(iterations)]
    setups = []
    for _ in range(workloads["setup_repeats"]):
        setups.append(setup(wl["spec"], pool))
        probes.append(probe(iterations))
    texts = setups[-1][1]
    if any(t != texts for _, t in setups):
        raise RuntimeError("task generation is not deterministic")
    setup_s = statistics.median(at_nominal_speed([s for s, _ in setups], probes, nominal))

    import bench

    config = bench.LearnerConfig(**wl["config"])
    p = Pass(name, seed, pool, setup_s, 0.0, [], tracer=bench.Tracer() if trace else None)
    probes = [probe(iterations)]
    start = time.perf_counter()
    i = 0
    while True:
        slot = i % len(pool)
        gc.collect()
        t0 = time.perf_counter()
        try:
            answer, error = bench.solve(texts[slot], config), None
        except Exception as exc:  # a task that raises is an undecided verdict
            answer, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        probes.append(probe(iterations))
        p.verdicts.append(judge(pool[slot], slot, t1 - t0, answer, error))
        if trace:
            _replay(p, bench, i, texts[slot], config, answer, error)
        i += 1
        elapsed = time.perf_counter() - start
        if trace:
            if elapsed >= seconds:
                break
        elif slot == len(pool) - 1 and i >= min_verdicts \
                and elapsed + elapsed / (i / len(pool)) / 2 >= seconds:
            break
    p.wall_s = time.perf_counter() - start
    p.scaled_s = at_nominal_speed([v.seconds for v in p.verdicts], probes, nominal)
    p.probe_s = statistics.median(probes)
    return p


def _replay(p: Pass, bench, i: int, text: str, config, answer, error: str | None) -> None:
    mark = len(p.tracer.spans)
    try:
        out = bench.replay(p.tracer, i, text, config)
        n = bench.table_of_pass(p.tracer, i, out["bank"], out["sample"]) if out["bank"] else 0
    except Exception as exc:
        del p.tracer.spans[mark:]
        p.replay_mismatches[i] = f"replay raised {type(exc).__name__}: {exc}"
        return
    p.task_counts.append(bench.task_counts(out, n))
    if error is not None:
        p.replay_mismatches[i] = f"learn raised {error}, the replay did not"
        return
    _, result, rendered = answer
    got = (out["status"], out["method"], out["rendered"],
           out["formula"].size if out["formula"] is not None else None)
    want = (result.status, result.method, rendered,
            result.formula.size if result.formula is not None else None)
    if got != want:
        p.replay_mismatches[i] = f"replay {got} != learn {want}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(p: Pass, tail_percentile: float) -> dict:
    n = len(p.verdicts)
    sizes = [v.size for v in p.verdicts if v.size is not None]
    values = {
        "tasks_per_s": n / sum(p.scaled_s),
        "verdict_s.p50": statistics.median(p.scaled_s),
        "verdict_s.tail": percentile(p.scaled_s, tail_percentile),
        "formula_size.mean": statistics.fmean(sizes) if sizes else None,
        "wrong_frac": sum(v.wrong is not None for v in p.verdicts) / n,
        "undecided_frac": sum(v.undecided is not None for v in p.verdicts) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": p.setup_s,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def share_checks(p: Pass, wl: dict, layer: dict) -> list[tuple[str, bool]]:
    """Whether the workload still stresses what it was chosen for."""
    checks = [
        (f"{name}.share {layer[f'{name}.share'][0]:.3f} >= {floor}", layer[f"{name}.share"][0] >= floor)
        for name, floor in wl["min_share"].items()
    ]
    if wl["path"] == "BSC+DivConq":
        fewest = min((c["dc_splits"] for c in p.task_counts), default=0)
        checks.append((f"dc_splits > 0 on every task (fewest {fewest})", fewest > 0))
    return checks


def report(p: Pass, trace: bool) -> tuple[dict, list[str]]:
    """The result line and the human-readable lines of a pass."""
    import bench

    wl = load_json("workloads.json")["workloads"][p.name]
    n = len(p.verdicts)
    raw = [v.seconds for v in p.verdicts]
    lines = [
        f"workload {p.name} seed {p.seed}: {n} verdicts in {p.wall_s:.2f} s, "
        f"pool of {len(p.pool)} tasks, tail = p{wl['tail_percentile']}, trace {int(trace)}",
        f"  speed probe {p.probe_s:.5f} s (median); unscaled: {n / sum(raw):.4g} tasks/s, "
        f"verdict p50 {statistics.median(raw):.4g} s, p{wl['tail_percentile']} "
        f"{percentile(raw, wl['tail_percentile']):.4g} s",
    ]
    if trace:
        metrics = bench.layer_metrics(p.tracer, p.task_counts, sum(raw))
        for text, ok in share_checks(p, wl, metrics):
            lines.append(f"  share check {'ok' if ok else 'MISS'}: {text}")
        lines.append(f"  replay agrees with learn on {n - len(p.replay_mismatches)}/{n} tasks")
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{p.name}-seed{p.seed}.json"
        spans_file.write_text(json.dumps({"spans": p.tracer.spans, "tasks": p.task_counts}))
        lines.append(f"  spans: {spans_file.relative_to(ROOT)}")
        shown = metrics
    else:
        e2e = end_to_end(p, wl["tail_percentile"])
        metrics = {k: e2e[k] for k in RESULT_E2E}
        shown = e2e
    for key, (value, unit) in shown.items():
        lines.append(f"  {key:42s} {'n/a' if value is None else f'{value:.6g}':>12s} {unit}")
    drift = Counter(k for v in p.verdicts for k in v.drifted)
    lines.append("  drift from pins (not failures): "
                 + ", ".join(f"{k} {drift[k]}" for k in bench.DRIFT_KEYS))
    for i, v in enumerate(p.verdicts):
        for kind, message in (("WRONG", v.wrong), ("UNDECIDED", v.undecided),
                              ("REPLAY", p.replay_mismatches.get(i))):
            if message is not None:
                print(f"{kind} {p.name} verdict {i}: {message}", file=sys.stderr)
    failed = sum(v.wrong is not None or v.undecided is not None or i in p.replay_mismatches
                 for i, v in enumerate(p.verdicts))
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()},
    }
    return result, lines


def self_check() -> list[str]:
    """A tiny run of every workload; returns the problems found."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = load_json("workloads.json")["workloads"]
    pins = load_json("pins.json")
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.json")
    for name, wl in workloads.items():
        if [p["seed"] for p in pins[name]] != list(range(wl["universe"])):
            problems.append(f"pins.json {name}: not one pin per universe task seed")
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for name in workloads:
        cheapest = sorted(pins[name], key=lambda p: (p["cost"], p["seed"]))[:2]
        for trace in (0, 1):
            p = measure(name, 0, 0.0, bool(trace), pool=cheapest, min_verdicts=len(cheapest))
            result, _ = report(p, bool(trace))
            where = f"{name} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            # Untraced runs learn the whole pool; traced ones stop when time is up.
            if not result["correct"] or result["failed"] or result["attempted"] < 2 - trace:
                problems.append(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {expected[trace]}")
            for k, m in result["metrics"].items():
                if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                        or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {k} = {m['value']!r}")
        problems += _corruption_check(name, cheapest[0])
    return problems


def _corruption_check(name: str, pin: dict) -> list[str]:
    """A deliberately wrong answer must be counted in wrong_frac."""
    import bench
    from ltlflearn import Not, TaskSpec, gen_task, serialize_sample

    wl = load_json("workloads.json")["workloads"][name]
    text = serialize_sample(gen_task(TaskSpec(seed=pin["seed"], **wl["spec"])))
    sample, result, rendered = bench.solve(text, bench.LearnerConfig(**wl["config"]))
    if result.formula is not None:
        bad = dataclasses.replace(result, formula=Not(result.formula))
    else:
        bad = dataclasses.replace(result, method="BSC")
    if judge(pin, 0, 0.0, (sample, bad, rendered), None).wrong is None:
        return [f"{name}: a corrupted answer was not counted in wrong_frac"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ltlflearn" / "__init__.py").is_file():
        print(f"no ltlflearn sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        problems = self_check()
        for problem in problems:
            print(f"SELF-CHECK FAIL: {problem}", file=sys.stderr)
        print("self-check " + ("failed" if problems else "passed"))
        return 1 if problems else 0
    workloads = load_json("workloads.json")["workloads"]
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                   for name in workloads)
    if args.workload not in workloads:
        ap.error(f"--workload must be all or one of {', '.join(workloads)}")
    p = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, lines = report(p, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
