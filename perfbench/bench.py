"""The benchmark's calls into ltlflearn.

`solve` is the unit of work, `check` compares a verdict with its pin,
and `replay` re-runs `pipeline.learn` phase by phase through the
public functions with a span around each call. run.py imports this
module only after it has timed the import of ltlflearn itself.
"""

from __future__ import annotations

import statistics
import time

from ltlflearn import (
    LearnerConfig,
    NoSolution,
    VerificationError,
    collapse,
    div_conq,
    enumerate_bounded,
    existence_check,
    first_bits,
    learn,
    parse_task,
    reconstruct,
    render_formula,
    separates,
    table_of,
)
from ltlflearn.boolcover import reduce_instance
from ltlflearn.deadlines import DeadlineReached

# Pinned values that repeat exactly on unchanged code; a difference is
# reported as drift, not as a wrong verdict.
DRIFT_KEYS = ("formula", "n_enumerated", "n_retained", "beam_candidates")

# Layers timed by the replay, in pipeline order. Each is one call into
# the layer's public function, made directly under the task span.
LAYERS = (
    "traces.parse",
    "enumeration",
    "boolcover.collapse",
    "boolcover.existence",
    "boolcover.reduce",
    "boolcover.div_conq",
    "boolcover.reconstruct",
    "pipeline.verify",
)
MAX_SIZE_REPORTED = 8

PER_LAYER_UNITS = {
    "enumeration.time_s": "s",
    "enumeration.share": "frac",
    "enumeration.candidates": "count",
    "enumeration.retained": "count",
    "enumeration.pruned": "count",
    "enumeration.candidates_per_s": "1/s",
    "enumeration.retained_ratio": "ratio",
    **{f"enumeration.retained.size{s}": "count" for s in range(1, MAX_SIZE_REPORTED + 1)},
    "biteval.table_of.time_s": "s",
    "biteval.table_of.formulas_per_s": "1/s",
    "boolcover.collapse.time_s": "s",
    "boolcover.collapse.share": "frac",
    "boolcover.collapse.base_sets": "count",
    "boolcover.collapse.collapse_ratio": "ratio",
    "boolcover.existence.time_s": "s",
    "boolcover.existence.share": "frac",
    "boolcover.reduce.time_s": "s",
    "boolcover.reduce.share": "frac",
    "boolcover.reduce.after_domination": "count",
    "boolcover.div_conq.time_s": "s",
    "boolcover.div_conq.share": "frac",
    "boolcover.div_conq.beam_candidates": "count",
    "boolcover.div_conq.beam_iterations": "count",
    "boolcover.div_conq.beam_candidates_per_s": "1/s",
    "boolcover.div_conq.dc_splits": "count",
    "boolcover.div_conq.dc_depth": "count",
    "boolcover.reconstruct.time_s": "s",
    "boolcover.reconstruct.share": "frac",
    "pipeline.verify.time_s": "s",
    "pipeline.verify.share": "frac",
    "traces.parse.time_s": "s",
    "traces.parse.share": "frac",
    "trace.overhead_frac": "frac",
}


def solve(text, config):
    """One task as `ltlflearn learn` runs it, without process start-up:
    parse the task text, learn, render the answer."""
    task = parse_task(text)
    result = learn(task.sample, config)
    rendered = (
        None if result.formula is None else render_formula(result.formula, task.sample.alphabet)
    )
    return task.sample, result, rendered


def answer_record(status, method, formula, rendered, stats) -> dict:
    """The values a pin holds, from a verdict."""
    return {
        "status": status,
        "method": method,
        "size": None if formula is None else formula.size,
        "formula": rendered,
        "n_enumerated": stats.get("n_enumerated"),
        "n_retained": stats.get("n_retained"),
        "beam_candidates": stats.get("beam_candidates"),
        "dc_splits": stats.get("dc_splits", 0),
    }


def check(pin: dict, sample, result, rendered) -> tuple[list[str], list[str]]:
    """(why the verdict is wrong, which drift-only pinned values differ).

    Wrong: a Solved formula that does not separate the sample under the
    reference evaluator, a status or method other than the pinned one,
    or an EnumOnly size other than the pinned minimal size.
    """
    got = answer_record(result.status, result.method, result.formula, rendered, result.stats)
    wrong = [f"{key} {got[key]} != pinned {pin[key]}" for key in ("status", "method") if got[key] != pin[key]]
    if result.status == "Solved" and not separates(result.formula, sample):
        wrong.append(f"{rendered} does not separate the sample")
    if pin["method"] == "EnumOnly" and got["size"] != pin["size"]:
        wrong.append(f"EnumOnly size {got['size']} != pinned minimal size {pin['size']}")
    return wrong, [key for key in DRIFT_KEYS if got[key] != pin[key]]


def _verify(phi, sample) -> None:
    """What `pipeline.learn` checks before returning a formula."""
    bitwise_ok = first_bits(table_of(phi, sample)).bits == (1 << sample.n_pos) - 1
    if not (bitwise_ok and separates(phi, sample)):
        raise VerificationError(f"replayed answer does not verify: {phi!r}")


class Tracer:
    """Spans kept in memory until the run ends.

    A span is {id, task, name, parent, start, end}; `parent` is the id
    of the span that caused it (None for a root), times are
    time.perf_counter() seconds.
    """

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, task: int, name: str, parent) -> dict:
        span = {"id": len(self.spans), "task": task, "name": name, "parent": parent,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        return span

    def call(self, task: int, parent: dict, name: str, fn, *args, **kwargs):
        span = self.open(task, name, parent["id"])
        out = fn(*args, **kwargs)
        span["end"] = time.perf_counter()
        return out


def replay(tracer: Tracer, task: int, text: str, config) -> dict:
    """Run `pipeline.learn` on the task text phase by phase, as learn
    calls them, with one span per call under a root `task` span.

    Returns the answer (status, method, formula, rendered) with the
    stats, bank and sample that the task's layer counts come from.
    """
    root = tracer.open(task, "task", None)
    call = tracer.call
    parsed = call(task, root, "traces.parse", parse_task, text)
    sample = parsed.sample
    deadline = time.monotonic() + config.timeout if config.timeout is not None else None
    out = {"status": "Timeout", "method": None, "formula": None, "rendered": None,
           "stats": {}, "bank": None, "sample": sample}
    stats = out["stats"]
    try:
        found, bank = call(task, root, "enumeration", enumerate_bounded,
                           sample, config.operators, config.ltl2bs_switch, deadline=deadline)
        out["bank"] = bank
        stats["n_enumerated"] = bank.n_generated
        stats["n_retained"] = len(bank)
        if found is not None:
            call(task, root, "pipeline.verify", _verify, found, sample)
            out.update(status="Solved", method="EnumOnly", formula=found)
        else:
            inst, collapse_stats = call(task, root, "boolcover.collapse", collapse, bank, sample)
            stats.update(collapse_stats)
            witness = call(task, root, "boolcover.existence", existence_check, inst)
            if witness is not None:
                out["status"] = "NoSolution"
            else:
                reduced = call(task, root, "boolcover.reduce", reduce_instance, inst,
                               config.domination_k)
                stats["n_after_domination"] = len(reduced.base_sets)
                outcome = call(task, root, "boolcover.div_conq", div_conq, reduced,
                               seed=config.seed, beam_width=config.beam_width,
                               max_weight=config.dc_switch, domination_k=config.domination_k,
                               deadline=deadline, stats=stats)
                if isinstance(outcome, NoSolution):
                    out["status"] = "NoSolution"
                else:
                    phi = call(task, root, "boolcover.reconstruct", reconstruct, outcome, reduced)
                    call(task, root, "pipeline.verify", _verify, phi, sample)
                    method = "BSC+DivConq" if stats.get("dc_splits", 0) else "BSC"
                    out.update(status="Solved", method=method, formula=phi)
    except DeadlineReached:
        pass
    if out["formula"] is not None:
        out["rendered"] = call(task, root, "formulas.render", render_formula,
                               out["formula"], sample.alphabet)
    root["end"] = time.perf_counter()
    return out


def table_of_pass(tracer: Tracer, task: int, bank, sample) -> int:
    """`table_of` over the task's retained formulas with one shared cache,
    so each formula costs one operator application over the whole
    sample. A root span of its own: learn does not make this call."""
    span = tracer.open(task, "biteval.table_of", None)
    cache: dict = {}
    n = 0
    for entry in bank.entries():
        table_of(entry.formula, sample, cache)
        n += 1
    span["end"] = time.perf_counter()
    return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tasks: list[dict], untraced_s: float) -> dict:
    """Per-layer metrics of a traced pass.

    `tasks` holds one record per replayed task: its layer counts and the
    number of formulas its table_of pass evaluated. Times are self
    times averaged per task; counts are per-task means; shares are a
    layer's total self time over the total task time.
    """
    n = len(tasks)
    busy = dict.fromkeys(LAYERS + ("biteval.table_of",), 0.0)
    task_s = 0.0
    for span in tracer.spans:
        duration = span["end"] - span["start"]
        if span["name"] == "task":
            task_s += duration
        elif span["name"] in busy:
            busy[span["name"]] += duration

    def total(key):
        return sum(t[key] for t in tasks)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.time_s"] = busy[layer] / n
        m[f"{layer}.share"] = _ratio(busy[layer], task_s)
    candidates, retained = total("candidates"), total("retained")
    m["enumeration.candidates"] = candidates / n
    m["enumeration.retained"] = retained / n
    m["enumeration.pruned"] = total("pruned") / n
    m["enumeration.candidates_per_s"] = _ratio(candidates, busy["enumeration"])
    m["enumeration.retained_ratio"] = _ratio(retained, candidates)
    for s in range(1, MAX_SIZE_REPORTED + 1):
        m[f"enumeration.retained.size{s}"] = sum(t["by_size"].get(s, 0) for t in tasks) / n
    m["biteval.table_of.time_s"] = busy["biteval.table_of"] / n
    m["biteval.table_of.formulas_per_s"] = _ratio(total("table_of"), busy["biteval.table_of"])
    collapsed = [t for t in tasks if t["base_sets"]]
    m["boolcover.collapse.base_sets"] = total("base_sets") / n
    m["boolcover.collapse.collapse_ratio"] = (
        statistics.fmean(t["retained"] / t["base_sets"] for t in collapsed) if collapsed else 0.0
    )
    m["boolcover.reduce.after_domination"] = total("after_domination") / n
    beam = total("beam_candidates")
    m["boolcover.div_conq.beam_candidates"] = beam / n
    m["boolcover.div_conq.beam_iterations"] = total("beam_iterations") / n
    m["boolcover.div_conq.beam_candidates_per_s"] = _ratio(beam, busy["boolcover.div_conq"])
    m["boolcover.div_conq.dc_splits"] = total("dc_splits") / n
    m["boolcover.div_conq.dc_depth"] = total("dc_depth") / n
    m["trace.overhead_frac"] = task_s / untraced_s - 1
    return {name: (m[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def task_counts(out: dict, table_of_formulas: int) -> dict:
    """The layer counts of one replayed task."""
    bank, stats = out["bank"], out["stats"]
    return {
        "candidates": bank.n_generated if bank else 0,
        "retained": len(bank) if bank else 0,
        "pruned": bank.n_pruned if bank else 0,
        "by_size": {s: len(v) for s, v in bank.by_size.items()} if bank else {},
        "table_of": table_of_formulas,
        "base_sets": stats.get("n_base_sets", 0),
        "after_domination": stats.get("n_after_domination", 0),
        "beam_candidates": stats.get("beam_candidates", 0),
        "beam_iterations": stats.get("beam_iterations", 0),
        "dc_splits": stats.get("dc_splits", 0),
        "dc_depth": stats.get("dc_depth", 0),
    }
