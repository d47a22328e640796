"""Command-line interface.

Four subcommands: `learn` runs the pipeline on one task file, `verify`
checks a given formula against a task, `generate` writes benchmark
tasks plus a manifest, and `bench` runs every task of a manifest and
emits one JSON record per line. Exit codes are a stable contract:
0 solved / verified, 1 no solution / not separating, 2 timeout,
3 input error, 4 internal error. A bench task that fails gets an
`Error` record and the other tasks still run; bench exits 4 if any
task had an internal error, else 3 if any had an input error. In json
mode stdout carries exactly one JSON object (or one per task for
bench); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from .benchgen import (
    DEFAULT_MAX_TRIES,
    FAMILIES,
    SamplingBudgetError,
    TaskSpec,
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
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return parse_task(text)
    except TaskFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _operators_from(args, task: Optional[Task]) -> OperatorSet:
    """--operators wins over the task file's operator line."""
    names: Optional[list[str]] = None
    if getattr(args, "operators", None):
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
    timeout = args.timeout if args.timeout > 0 else None
    try:
        return LearnerConfig(
            operators=_operators_from(args, task),
            ltl2bs_switch=args.ltl2bs_switch,
            beam_width=args.beam_width,
            dc_switch=args.dc_switch,
            domination_k=args.domination_k,
            timeout=timeout,
            seed=args.seed,
        )
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
    record = {
        "task": task_path,
        "status": result.status,
        "formula": None,
        "size": None,
        "elapsed_ms": round(elapsed_ms, 3),
        "method": result.method,
        "witness": None,
        "stats": stats,
        "config": _config_echo(config),
    }
    if result.formula is not None:
        record["formula"] = render_formula(result.formula, sample.alphabet)
        record["size"] = result.formula.size
    if result.witness is not None:
        record["witness"] = {
            "pos_index": result.witness.pos_index,
            "neg_index": result.witness.neg_index,
        }
    return record


def _no_solution_message(record: dict) -> str:
    witness = record["witness"]
    ltl2bs = record["config"]["ltl2bs_switch"]
    if witness["neg_index"] is None:
        pair = f"positives[{witness['pos_index']}] is covered by no enumerated formula"
    else:
        pair = (
            f"positives[{witness['pos_index']}] and negatives[{witness['neg_index']}] "
            f"are unseparable by the formulas enumerated up to size {ltl2bs}"
        )
    return (
        f"no solution: {pair}; deeper enumeration might still find a separator "
        f"(raise --ltl2bs-switch)"
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
    """Map the flat generate flags to per-family TaskSpec params.

    --n is the one size knob each family has: chain, word, or subset
    length (these default the alphabet to n propositions), conjunct
    count for random-conjuncts, pattern count for random-boolcomb.
    """
    n = args.n
    params: dict = {}
    n_props = args.props or 3
    if args.family == "ordered-sequence":
        params = {"n": n}
        n_props = args.props or n
    elif args.family == "subword":
        params = {"word": list(range(n))}
        n_props = args.props or n
    elif args.family == "subset":
        params = {"subset": list(range(n))}
        n_props = args.props or n
    elif args.family == "random-conjuncts":
        params = {"m": n}
    elif args.family == "random-boolcomb":
        params = {"n_patterns": n}
    if args.family == "hamming" and args.pos != 1:
        raise InputError("the hamming family has exactly one positive; use --pos 1")
    specs = []
    for offset in range(args.count):
        try:
            specs.append(TaskSpec(
                family=args.family,
                n_props=n_props,
                trace_len=args.len,
                n_pos=args.pos,
                n_neg=args.neg,
                seed=args.seed + offset,
                params=params,
            ))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return specs


def cmd_generate(args) -> int:
    specs = _generate_specs(args)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for spec in specs:
        name = f"{spec.family}-n{spec.n_props}-len{spec.trace_len}-s{spec.seed}.trace"
        path = os.path.join(args.out, name)
        try:
            rows.append(write_task(spec, path, args.max_tries))
        except (ValueError, SamplingBudgetError) as exc:
            raise InputError(str(exc)) from exc
        print(path)
    manifest = args.manifest or os.path.join(args.out, "manifest.csv")
    write_manifest(manifest, rows)
    print(f"wrote {len(rows)} task(s); manifest at {manifest}", file=sys.stderr)
    return 0


def _bench_worker(task_path: str, args) -> dict:
    try:
        task = _read_task(task_path)
        config = _config_from(args, task)
    except InputError as exc:
        return {"task": task_path, "status": "Error", "error": str(exc)}
    try:
        result = learn(task.sample, config)
    except Exception as exc:  # a bug in one task must not end the run
        traceback.print_exc(file=sys.stderr)
        return {"task": task_path, "status": "Error", "error": _internal_error(exc)}
    return _result_record(task_path, task.sample, result, config)


def _bench_parallel(paths: list[str], args) -> list[dict]:
    """_bench_worker on every path in a process pool, in path order. A dying
    worker breaks the pool: the unfinished tasks get internal-error records."""
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_bench_worker, path, args) for path in paths]
        records = []
        for path, future in zip(paths, futures):
            try:
                records.append(future.result())
            except BrokenProcessPool as exc:
                records.append({"task": path, "status": "Error", "error": _internal_error(exc)})
    return records


def cmd_bench(args) -> int:
    try:
        rows = read_manifest(args.manifest)
    except OSError as exc:
        raise InputError(f"{args.manifest}: {exc.strerror or exc}") from exc
    if not rows:
        raise InputError(f"{args.manifest}: empty manifest")
    paths = []
    for row in rows:
        path = row.get("path")
        if not path:
            raise InputError(f"{args.manifest}: row without a path column")
        if not os.path.isabs(path) and not os.path.exists(path):
            # Paths are relative to the manifest's directory by default.
            relative = os.path.join(os.path.dirname(args.manifest), path)
            path = relative if os.path.exists(relative) else path
        paths.append(path)
    _config_from(args, None)  # bad flags stop the run before any task

    if args.jobs > 1:
        records = _bench_parallel(paths, args)
    else:
        records = [_bench_worker(path, args) for path in paths]

    for record in records:
        print(json.dumps(record))

    solved = [r for r in records if r.get("status") == "Solved"]
    timeouts = sum(1 for r in records if r.get("status") == "Timeout")
    no_solution = sum(1 for r in records if r.get("status") == "NoSolution")
    errors = sum(1 for r in records if r.get("status") == "Error")
    lines = [
        f"solved {len(solved)}/{len(records)} "
        f"(no-solution {no_solution}, timeout {timeouts}, error {errors})"
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
    print("; ".join(lines), file=sys.stderr)
    if any(r["error"].startswith(INTERNAL_ERROR) for r in records if r["status"] == "Error"):
        return EXIT_INTERNAL_ERROR
    return 0 if not errors else EXIT_INPUT_ERROR


def _add_learner_flags(parser: argparse.ArgumentParser) -> None:
    defaults = LearnerConfig()
    parser.add_argument("--ltl2bs-switch", type=int, default=defaults.ltl2bs_switch,
                        metavar="SIZE",
                        help="max formula size for direct enumeration (default %(default)s)")
    parser.add_argument("--beam-width", type=int, default=defaults.beam_width, metavar="B",
                        help="combinations kept per weight (default %(default)s)")
    parser.add_argument("--dc-switch", type=int, default=defaults.dc_switch, metavar="W",
                        help="max combination weight before splitting (default %(default)s)")
    parser.add_argument("--domination-k", type=int, default=defaults.domination_k, metavar="K",
                        help="pool size for approximate domination (default %(default)s)")
    parser.add_argument("--operators", default=None, metavar="TOKENS",
                        help="comma-separated operator tokens, e.g. 'X!,F,&,|'")
    parser.add_argument("--timeout", type=float, default=defaults.timeout, metavar="SECONDS",
                        help="per-task budget; <= 0 disables (default %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="seed for the divide-and-conquer splits (default %(default)s)")


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
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, default=2,
                       help="family size parameter: chain/word/subset length, "
                            "conjunct or pattern count (default 2)")
    p_gen.add_argument("--props", type=int, default=None,
                       help="alphabet size (default: derived from --n)")
    p_gen.add_argument("--len", type=int, default=16, help="trace length (default 16)")
    p_gen.add_argument("--pos", type=int, default=5, help="positive traces (default 5)")
    p_gen.add_argument("--neg", type=int, default=5, help="negative traces (default 5)")
    p_gen.add_argument("--seed", type=int, default=0)
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
                         help="parallel workers (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, never a verdict: keep it off codes 0-3
        print(_internal_error(exc), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
