"""Command-line interface.

Four subcommands: `learn` runs the pipeline on one task file, `verify`
checks a given formula against a task, `generate` writes benchmark
tasks plus a manifest, and `bench` runs every task of a manifest and
emits one JSON record per line, in task order as the tasks end, with
`target_size` where the manifest row has a target formula. Exit codes
are a stable contract: 0 solved / verified, 1 no solution / not
separating, 2 timeout, 3 input error, 4 internal error, 141 (128 +
SIGPIPE) stdout closed by its reader, which ends a command quietly
(bench starts no further task). A bench task that fails gets an
`Error` record and the other tasks still run; bench exits 4 if any
task had an internal error, else 3 if any had an input error. In json
mode stdout carries exactly one JSON object (or one per task for
bench); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from collections import Counter
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, Optional

from .benchgen import (
    DEFAULT_MAX_TRIES,
    FAMILY_TABLE,
    SamplingBudgetError,
    TaskSpec,
    gen_task,
    read_manifest,
    write_manifest,
    write_task,
)
from .formulas import (
    DEFAULT_OPERATORS,
    FormulaSyntaxError,
    OperatorSet,
    parse_formula,
    render_formula,
)
from .pipeline import LearnerConfig, LearnResult, learn, separates
from .traces import Sample, Task, TaskFormatError, parse_task

_STATUS_EXIT = {"Solved": 0, "NoSolution": 1, "Timeout": 2}
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE: what a shell reports when a closed pipe ends a writer
INTERNAL_ERROR = "internal error: "  # how an internal error's message starts


class InputError(Exception):
    """Anything wrong with user input; mapped to exit code 3."""


def _internal_error(exc: Exception) -> str:
    """The message of an uncaught exception, a bug: mapped to exit code 4."""
    return f"{INTERNAL_ERROR}{type(exc).__name__}: {exc}"


def _read_task(path: str) -> Task:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        return parse_task(text)
    except TaskFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _operators_from(args, task: Optional[Task]) -> OperatorSet:
    """--operators wins over the task file's operator line."""
    names: Optional[list[str]] = None
    if args.operators:
        names = [tok.strip() for tok in args.operators.split(",") if tok.strip()]
    elif task is not None and task.op_names:
        names = list(task.op_names)
    if names is None:
        return DEFAULT_OPERATORS
    try:
        return OperatorSet.from_names(names)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _config_from(args, task: Optional[Task]) -> LearnerConfig:
    """Each config field from its flag; operators from the flag or the task."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(LearnerConfig)}
    values["operators"] = _operators_from(args, task)
    if args.timeout <= 0 or args.timeout == math.inf:  # NaN stays, for the config to reject
        values["timeout"] = None
    try:
        return LearnerConfig(**values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _config_echo(config: LearnerConfig) -> dict:
    """Every config field by name; operators as their list of names."""
    record = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    record["operators"] = list(config.operators.names())
    return record


def _result_record(task_path: str, sample: Sample, result: LearnResult,
                   config: LearnerConfig) -> dict:
    stats = dict(result.stats)
    elapsed_ms = stats.pop("elapsed_s", 0.0) * 1000.0
    phi = result.formula
    return {
        "task": task_path,
        "status": result.status,
        "formula": None if phi is None else render_formula(phi, sample.alphabet),
        "size": None if phi is None else phi.size,
        "elapsed_ms": round(elapsed_ms, 3),
        "method": result.method,
        "witness": None if result.witness is None else result.witness._asdict(),
        "stats": stats,
        "config": _config_echo(config),
    }


def _no_solution_message(record: dict) -> str:
    witness = record["witness"]
    return (
        f"no solution: positives[{witness['pos_index']}] and "
        f"negatives[{witness['neg_index']}] are unseparable by the formulas enumerated "
        f"up to size {record['config']['ltl2bs_switch']}; deeper enumeration might "
        f"still find a separator (raise --ltl2bs-switch)"
    )


def cmd_learn(args) -> int:
    task = _read_task(args.task)
    config = _config_from(args, task)
    result = learn(task.sample, config)
    record = _result_record(args.task, task.sample, result, config)

    if args.format == "json":
        print(json.dumps(record))
    elif result.status == "Solved":
        print(record["formula"])
        print(
            f"solved in {record['elapsed_ms'] / 1000.0:.3f} s; "
            f"method {record['method']}; size {record['size']}",
            file=sys.stderr,
        )
    elif result.status == "NoSolution":
        print(_no_solution_message(record))
    else:
        print(f"timeout after {args.timeout:g} s")
    return _STATUS_EXIT[result.status]


def cmd_verify(args) -> int:
    task = _read_task(args.task)
    try:
        phi = parse_formula(args.formula, task.sample.alphabet)
    except FormulaSyntaxError as exc:
        raise InputError(f"formula: {exc}") from exc
    ok = separates(phi, task.sample)
    if args.format == "json":
        print(json.dumps({
            "task": args.task,
            "formula": render_formula(phi, task.sample.alphabet),
            "separates": ok,
        }))
    else:
        print("separates" if ok else "does not separate")
    return 0 if ok else 1


def _generate_specs(args) -> list[TaskSpec]:
    """One TaskSpec per seed from the generate flags: the family table
    maps --n to the family's params and gives the --props default."""
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    family, n = FAMILY_TABLE[args.family], args.n
    params = {} if family.param is None else {family.param: list(range(n)) if family.as_props else n}
    # A --props of 0 stays, for TaskSpec to reject.
    n_props = args.props if args.props is not None else (n if family.props_from_n else 3)
    try:
        spec = TaskSpec(args.family, n_props, params=params,
                        **{name: getattr(args, name) for name in _SPEC_FLAGS})
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return [dataclasses.replace(spec, seed=spec.seed + offset) for offset in range(args.count)]


def cmd_generate(args) -> int:
    specs = _generate_specs(args)
    try:  # every sample is drawn before any file is written
        samples = [gen_task(spec, args.max_tries) for spec in specs]
    except (ValueError, SamplingBudgetError) as exc:
        raise InputError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for spec, sample in zip(specs, samples):
        name = f"{spec.family}-n{spec.n_props}-len{spec.trace_len}-s{spec.seed}.trace"
        path = os.path.join(args.out, name)
        rows.append(write_task(spec, path, sample=sample))
        print(path)
    manifest = args.manifest or os.path.join(args.out, "manifest.csv")
    write_manifest(manifest, rows)
    print(f"wrote {len(rows)} task(s); manifest at {manifest}", file=sys.stderr)
    return 0


def _bench_worker(task_path: str, target: str, args) -> dict:
    """One task's record; with the manifest's target formula text, its
    size (parsed over the task's alphabet) as `target_size`."""
    try:
        task = _read_task(task_path)
        config = _config_from(args, task)
        target_size = parse_formula(target, task.sample.alphabet).size if target else None
    except FormulaSyntaxError as exc:
        return {"task": task_path, "status": "Error", "error": f"manifest formula: {exc}"}
    except InputError as exc:
        return {"task": task_path, "status": "Error", "error": str(exc)}
    try:
        result = learn(task.sample, config)
    except Exception as exc:  # a bug in one task must not end the run
        traceback.print_exc(file=sys.stderr)
        return {"task": task_path, "status": "Error", "error": _internal_error(exc)}
    record = _result_record(task_path, task.sample, result, config)
    if target_size is not None:
        record["target_size"] = target_size
    return record


def _bench_records(tasks: list[tuple[str, str]], args) -> Iterator[dict]:
    """_bench_worker's record for each (path, target), in task order, as
    each task ends: in this process with one worker, else in a pool of
    `--jobs` processes, at most one per task. A dying worker breaks the
    pool: the unfinished tasks get internal-error records. Closed early,
    the pool starts no further task and waits for its workers to exit."""
    # The pool forks all its workers at the first submit: no more than tasks.
    workers = min(args.jobs, len(tasks))
    if workers == 1:
        yield from (_bench_worker(path, target, args) for path, target in tasks)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_bench_worker, path, target, args) for path, target in tasks]
        for (path, _), future in zip(tasks, futures):
            try:
                yield future.result()
            except BrokenProcessPool as exc:
                yield {"task": path, "status": "Error", "error": _internal_error(exc)}
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        rows = read_manifest(args.manifest)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{args.manifest}: {getattr(exc, 'strerror', None) or exc}") from exc
    if not rows:
        raise InputError(f"{args.manifest}: empty manifest")
    tasks = []
    for row in rows:
        path = row.get("path")
        if not path:
            raise InputError(f"{args.manifest}: row without a path column")
        if not os.path.isabs(path) and not os.path.exists(path):
            # A relative path missing from the working directory is tried
            # against the manifest's directory.
            relative = os.path.join(os.path.dirname(args.manifest), path)
            path = relative if os.path.exists(relative) else path
        tasks.append((path, row.get("formula") or ""))
    _config_from(args, None)  # bad flags stop the run before any task

    counts: Counter = Counter()
    solved = []
    internal_error = False
    with closing(_bench_records(tasks, args)) as records:  # also when stdout closes
        for record in records:
            print(json.dumps(record), flush=True)  # a run cut short keeps what it printed
            counts[record["status"]] += 1
            if record["status"] == "Solved":
                solved.append(record)
            internal_error = internal_error or record.get("error", "").startswith(INTERNAL_ERROR)

    lines = [
        f"solved {len(solved)}/{counts.total()} (no-solution {counts['NoSolution']}, "
        f"timeout {counts['Timeout']}, error {counts['Error']})"
    ]
    if solved:
        mean_ms = sum(r["elapsed_ms"] for r in solved) / len(solved)
        mean_size = sum(r["size"] for r in solved) / len(solved)
        lines.append(f"mean time over solved {mean_ms / 1000.0:.3f} s; mean size {mean_size:.2f}")
        ratios = [
            r["stats"]["collapse_ratio"] for r in solved if "collapse_ratio" in r["stats"]
        ]
        if ratios:
            lines.append(f"mean collapse ratio {sum(ratios) / len(ratios):.2f}")
        targeted = [r for r in solved if "target_size" in r]
        if targeted:
            size = sum(r["size"] for r in targeted) / len(targeted)
            target = sum(r["target_size"] for r in targeted) / len(targeted)
            lines.append(f"mean size / mean target size {size:.2f} / {target:.2f} "
                         f"= {size / target:.2f} over {len(targeted)} with a target")
    print("; ".join(lines), file=sys.stderr)
    if internal_error:
        return EXIT_INTERNAL_ERROR
    return EXIT_INPUT_ERROR if counts["Error"] else 0


# Metavar and help of each LearnerConfig field's flag, in help order.
_LEARNER_FLAGS = {
    "ltl2bs_switch": ("SIZE", "max formula size for direct enumeration (default %(default)s)"),
    "beam_width": ("B", "combinations kept per weight (default %(default)s)"),
    "dc_switch": ("W", "max combination weight before splitting (default %(default)s)"),
    "domination_k": ("K", "pool size for approximate domination (default %(default)s)"),
    "operators": ("TOKENS", "comma-separated operator tokens, e.g. 'X!,F,&,|'"),
    "timeout": ("SECONDS", "per-task budget; <= 0 or inf disables (default %(default)s)"),
    "seed": (None, "seed for the divide-and-conquer splits (default %(default)s)"),
}


def _add_learner_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per LearnerConfig field, with the field's default and
    type; --operators is the one string, unset unless given."""
    defaults = {f.name: f.default for f in dataclasses.fields(LearnerConfig)}
    for name, (metavar, help_text) in _LEARNER_FLAGS.items():
        default = None if name == "operators" else defaults[name]
        parser.add_argument("--" + name.replace("_", "-"), default=default,
                            type=None if default is None else type(default),
                            metavar=metavar, help=help_text)


# Flag and help of each TaskSpec field that generate sets directly, in help order.
_SPEC_FLAGS = {
    "trace_len": ("--len", "trace length (default %(default)s)"),
    "n_pos": ("--pos", "positive traces (default %(default)s)"),
    "n_neg": ("--neg", "negative traces (default %(default)s)"),
    "seed": ("--seed", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlflearn",
        description="Learn separating LTLf formulas from labeled finite traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="learn a formula from a task file")
    p_learn.add_argument("task", help="task file (positives --- negatives)")
    _add_learner_flags(p_learn)
    p_learn.add_argument("--format", choices=("text", "json"), default="text")
    p_learn.set_defaults(func=cmd_learn)

    p_verify = sub.add_parser("verify", help="check a formula against a task file")
    p_verify.add_argument("task")
    p_verify.add_argument("formula", help="formula text, e.g. 'F(a)'")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="generate benchmark tasks + manifest")
    p_gen.add_argument("--family", required=True, choices=FAMILY_TABLE)
    p_gen.add_argument("--n", type=int, default=2,
                       help="family size parameter: chain/word/subset length, "
                            "conjunct or pattern count (default 2)")
    p_gen.add_argument("--props", type=int, default=None,
                       help="alphabet size (default: derived from --n)")
    spec_defaults = {f.name: f.default for f in dataclasses.fields(TaskSpec)}
    for name, (flag, help_text) in _SPEC_FLAGS.items():
        p_gen.add_argument(flag, dest=name, metavar=flag[2:].upper(), default=spec_defaults[name],
                           type=type(spec_defaults[name]), help=help_text)
    p_gen.add_argument("--count", type=int, default=1,
                       help="tasks to generate, seeds seed..seed+count-1 (default 1)")
    p_gen.add_argument("--out", default=".", help="output directory (default .)")
    p_gen.add_argument("--manifest", default=None,
                       help="manifest path (default <out>/manifest.csv)")
    p_gen.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run every task of a manifest")
    p_bench.add_argument("manifest", help="manifest CSV from generate")
    _add_learner_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per task (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone, which is no error of ours. Python flushes
        # stdout again at exit: point it at devnull, so that the flush
        # raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, never a verdict: keep it off codes 0-3
        print(_internal_error(exc), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
