import argparse
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import typing
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from ltlflearn.benchgen import FAMILIES, TaskSpec
from ltlflearn.boolcover import NoSolution, Witness
from ltlflearn.cli import _LEARNER_FLAGS, _config_echo, _generate_specs, build_parser, main
from ltlflearn.formulas import parse_formula
from ltlflearn.pipeline import LearnerConfig, learn, separates
from ltlflearn.traces import parse_task, serialize_sample

from conftest import union_shaped_sample

WORKED = "1;1;0;1;1\n0;1;1;1\n---\n1;0;1;0\n1;1;0\n---\na\n"
# Only F over one proposition: candidates a and F(a), neither separates.
STUCK = "1;0\n---\n1;1\n---\nF\n"


@pytest.fixture
def task_path(tmp_path):
    path = tmp_path / "worked.trace"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture
def stuck_path(tmp_path):
    path = tmp_path / "stuck.trace"
    path.write_text(STUCK)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_text_solved(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path)
    assert code == 0
    task = parse_task(WORKED)
    phi = parse_formula(out.strip(), task.sample.alphabet)
    assert phi.size == 3
    assert separates(phi, task.sample)
    assert "solved in" in err and "size 3" in err


def test_learn_json_solved(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {
        "task", "status", "formula", "size", "elapsed_ms",
        "method", "witness", "stats", "config",
    }
    assert record["status"] == "Solved"
    assert record["size"] == 3
    assert record["method"] == "EnumOnly"
    assert record["witness"] is None
    assert record["elapsed_ms"] >= 0
    assert record["config"]["ltl2bs_switch"] == 8
    assert record["task"] == task_path
    stats = record["stats"]
    assert 0 <= stats["n_skipped"] <= stats["n_enumerated"]


def test_learn_no_solution_text(stuck_path, capsys):
    code, out, err = run(capsys, "learn", stuck_path)
    assert code == 1
    assert "no solution" in out
    assert "deeper enumeration might still find a separator" in out


def test_learn_no_solution_json(stuck_path, capsys):
    code, out, err = run(capsys, "learn", stuck_path, "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "NoSolution"
    assert record["formula"] is None
    assert record["witness"] == {"pos_index": 0, "neg_index": 0}


def test_learn_no_solution_json_is_pinned(tmp_path, capsys):
    # a separates the first negative from the positive; nothing over a
    # and F separates the second.
    path = tmp_path / "stuck.trace"
    path.write_text("1;0\n---\n0;1\n1;1\n---\nF\n")
    code, out, err = run(capsys, "learn", str(path), "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record.pop("elapsed_ms") >= 0
    assert json.dumps(record) == (
        f'{{"task": {json.dumps(str(path))}, "status": "NoSolution", "formula": null, '
        '"size": null, "method": null, "witness": {"pos_index": 0, "neg_index": 1}, '
        '"stats": {"n_enumerated": 3, "n_retained": 2, "n_skipped": 0, "n_formulas": 2, '
        '"n_base_sets": 2, "collapse_ratio": 1.0}, "config": {"operators": ["F"], '
        '"ltl2bs_switch": 8, "beam_width": 100, "dc_switch": 70, "domination_k": 10, '
        '"timeout": 60.0, "seed": 0}}'
    )


def test_learn_operators_flag_beats_task_ops(stuck_path, capsys):
    code, out, err = run(capsys, "learn", stuck_path, "--operators", "!,F")
    assert code == 0
    task = parse_task(STUCK)
    phi = parse_formula(out.strip(), task.sample.alphabet)
    assert separates(phi, task.sample)


def test_learn_timeout(tmp_path, capsys):
    sample = union_shaped_sample(seed=0)
    path = tmp_path / "hard.trace"
    path.write_text(serialize_sample(sample, ("X!", "F", "&", "|")))
    code, out, err = run(capsys, "learn", str(path), "--timeout", "1e-9")
    assert code == 2
    assert "timeout" in out


def test_learn_zero_timeout_disables_it(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path, "--timeout", "0")
    assert code == 0
    assert "solved in" in err


def test_learn_nan_timeout_is_an_input_error(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path, "--timeout", "nan")
    assert code == 3
    assert err.startswith("error:") and "timeout" in err
    assert out == ""


def test_learn_infinite_timeout_echoes_null(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path, "--timeout", "inf", "--format", "json")
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    record = json.loads(out, parse_constant=reject)
    assert record["config"]["timeout"] is None


def test_learn_without_a_cover_after_a_passing_existence_check_is_internal(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "union.trace"
    path.write_text(serialize_sample(union_shaped_sample()))
    monkeypatch.setattr(
        "ltlflearn.pipeline.div_conq", lambda *args, **kwargs: NoSolution(Witness(0, 0)))
    code, out, err = run(capsys, "learn", str(path), "--ltl2bs-switch", "5")
    assert code == 4
    assert out == ""
    assert "internal error: VerificationError: " in err


def test_learn_malformed_task(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("1;2\n---\n0\n")
    code, out, err = run(capsys, "learn", str(path))
    assert code == 3
    assert err.startswith("error:")
    assert "line 1" in err


@pytest.mark.parametrize("text", [
    "1;0\n---\n1;0\n",  # a trace in both classes
    "1,0\n---\n0,0\n---\nreq,req\n",  # a name given twice
])
def test_learn_task_the_sample_rejects_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.trace"
    path.write_text(text)
    code, out, err = run(capsys, "learn", str(path))
    assert code == 3
    assert err.startswith("error:") and "bad.trace: line " in err
    assert "internal error" not in err


def test_learn_missing_task(capsys):
    code, out, err = run(capsys, "learn", "does-not-exist.trace")
    assert code == 3
    assert err.startswith("error:")


def test_learn_task_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.trace"
    path.write_bytes(b"1;0\xff\n---\n0\n")
    code, out, err = run(capsys, "learn", str(path))
    assert code == 3
    assert err.startswith("error:") and "binary.trace" in err
    assert "internal error" not in err


def test_learn_bad_operator_token(task_path, capsys):
    code, out, err = run(capsys, "learn", task_path, "--operators", "F,W")
    assert code == 3


def test_verify(task_path, capsys):
    code, out, _ = run(capsys, "verify", task_path, "G(F(a))")
    assert code == 0 and out.strip() == "separates"
    code, out, _ = run(capsys, "verify", task_path, "a")
    assert code == 1 and out.strip() == "does not separate"


def test_verify_json(task_path, capsys):
    code, out, _ = run(capsys, "verify", task_path, "F(G(a))", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"task": task_path, "formula": "F(G(a))", "separates": True}


def test_verify_syntax_error(task_path, capsys):
    code, out, err = run(capsys, "verify", task_path, "F(")
    assert code == 3
    assert err.startswith("error: formula:")


def test_generate_writes_tasks_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "tasks"
    code, out, err = run(
        capsys, "generate", "--family", "subset", "--n", "2",
        "--count", "2", "--out", str(out_dir),
    )
    assert code == 0
    paths = out.strip().splitlines()
    assert len(paths) == 2
    for p in paths:
        parse_task(open(p).read())
    assert (out_dir / "manifest.csv").exists()
    assert "wrote 2 task(s)" in err

    first = [open(p, "rb").read() for p in paths]
    code, out, _ = run(
        capsys, "generate", "--family", "subset", "--n", "2",
        "--count", "2", "--out", str(out_dir),
    )
    assert code == 0
    again = [open(p, "rb").read() for p in out.strip().splitlines()]
    assert first == again


@pytest.mark.parametrize("family", ["subset", "random-conjuncts"])
def test_generate_zero_props_is_an_input_error(tmp_path, capsys, family):
    code, out, err = run(
        capsys, "generate", "--family", family, "--props", "0", "--out", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert "n_props" in err
    assert not list(tmp_path.iterdir())


def test_generate_hamming_needs_single_positive(tmp_path, capsys):
    code, out, err = run(
        capsys, "generate", "--family", "hamming", "--out", str(tmp_path),
    )
    assert code == 3
    assert "the hamming family has exactly one positive trace" in err
    code, *_ = run(
        capsys, "generate", "--family", "hamming", "--pos", "1",
        "--out", str(tmp_path),
    )
    assert code == 0


@pytest.mark.parametrize("count", ["0", "-2"])
def test_generate_rejects_count_below_one(tmp_path, capsys, count):
    out_dir = tmp_path / "suite"
    code, out, err = run(
        capsys, "generate", "--family", "subset", "--count", count, "--out", str(out_dir),
    )
    assert (code, out) == (3, "")
    assert "--count must be at least 1" in err
    assert not out_dir.exists()  # nothing written, not even the directory


def test_generate_rejects_a_task_without_negatives(tmp_path, capsys):
    # The task format needs both classes, so the generator writes none without.
    code, out, err = run(
        capsys, "generate", "--family", "subset", "--neg", "0", "--out", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert "n_neg" in err
    assert not list(tmp_path.iterdir())


def test_generate_writes_nothing_unless_every_task_generates(tmp_path, capsys):
    # Seed 0 generates, seed 1 runs out of draws: no file is left behind.
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "generate", "--family", "subset", "--n", "4", "--props", "4", "--len", "6",
        "--count", "3", "--max-tries", "100", "--out", str(out_dir),
    )
    assert (code, out) == (3, "")
    assert "subset: 5/5 positives and 4/5 negatives after 100 draws" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("length,neg,reach", [("1", "2", 1), ("2", "4", 3)])
def test_generate_rejects_more_hamming_negatives_than_reachable(tmp_path, capsys,
                                                               length, neg, reach):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "generate", "--family", "hamming", "--pos", "1", "--len", length,
        "--props", "1", "--neg", neg, "--out", str(out_dir),
    )
    assert (code, out) == (3, "")
    assert f"reaches {reach} distinct negatives" in err
    assert not out_dir.exists()


# `generate --n 2 --count 2 --seed 3` (hamming with --pos 1) per family:
# each task file's sha256 and its manifest row without the path. This
# pins what --n sets for each family and what --props defaults to.
GENERATE_PINS = {
    "ordered-sequence": [
        ("e3be13f3f9be05cef85fb5a0b3237b5ac21090edbf2822c4d3562e90ade2f1b5",
         ("ordered-sequence", "2", "16", "5", "5", "3", '{"n": 2}', "p0 U p1")),
        ("7f9b888a0f1ae5e0428a56d46143d2426b289d0a3d2094116cd4d5d486707d26",
         ("ordered-sequence", "2", "16", "5", "5", "4", '{"n": 2}', "p0 U p1")),
    ],
    "subword": [
        ("ca52e71324c5b8507b829f7475c89ce8fb460234100d722b1022d6fb47128053",
         ("subword", "2", "16", "5", "5", "3", '{"word": [0, 1]}', "F(p0 & X!(F(p1)))")),
        ("fd4c241516c6dc4de27cd8a8526fabc53e7d644a58e17cf51e362a473b9a2e8b",
         ("subword", "2", "16", "5", "5", "4", '{"word": [0, 1]}', "F(p0 & X!(F(p1)))")),
    ],
    "subset": [
        ("69ee6a526d81133b405d2d2ccc62c4a88497c9824ea11ef3e44fdda8faa2b2a8",
         ("subset", "2", "16", "5", "5", "3", '{"subset": [0, 1]}', "F(p0) & F(p1)")),
        ("82f599fbe763383b0e04a6d6679f54427610b56f28a5f8f65dbcf1950a5e2bc1",
         ("subset", "2", "16", "5", "5", "4", '{"subset": [0, 1]}', "F(p0) & F(p1)")),
    ],
    "hamming": [
        ("ffe10f9be0a49325de2ecc231d8b9ad9017a0a9cd5f7e13ccbffd86f5960f589",
         ("hamming", "3", "16", "1", "5", "3", "{}", "")),
        ("67edeb7557d4f1f1dcffe1717df88d9c290f7a9034867e0433d7415574be2fb8",
         ("hamming", "3", "16", "1", "5", "4", "{}", "")),
    ],
    "random-conjuncts": [
        ("5a9155b3abc71248bd2952f1258ab79d6eaf77f67275e7a595c28eeb1f209710",
         ("random-conjuncts", "3", "16", "5", "5", "3",
          '{"m": 2}', "(p2 U p0 U p1) & (F(p1) & F(p2))")),
        ("4098cbf2382d252fec155e1c1b8b4831e728e1b2ec2cd8a0b34e79c8c80a565a",
         ("random-conjuncts", "3", "16", "5", "5", "4",
          '{"m": 2}', "(p0 U p2 U p1) & F(p0 & X!(F(p2)))")),
    ],
    "random-boolcomb": [
        ("049386c6ff02d8764d3ae3bfa2e38131e0306b5dd9601744d90b11b586d97669",
         ("random-boolcomb", "3", "16", "5", "5", "3",
          '{"n_patterns": 2}', "F(p0 & X!(p2 & X!(p0))) | F(p2 & X!(p2 & X!(p2)))")),
        ("3f6b1c0d25c313243d12841b6144520f9d2a6f743b34f5d26568ced9a2bb94f9",
         ("random-boolcomb", "3", "16", "5", "5", "4",
          '{"n_patterns": 2}', "F(p0 & X!(p1 & X!(p0))) | F(p0 & X!(p0 & X!(p0)))")),
    ],
}


@pytest.mark.parametrize("family", sorted(GENERATE_PINS))
def test_generate_output_is_pinned(tmp_path, capsys, family):
    assert sorted(GENERATE_PINS) == sorted(FAMILIES)
    extra = ["--pos", "1"] if family == "hamming" else []
    code, out, _ = run(capsys, "generate", "--family", family, "--n", "2", "--count", "2",
                       "--seed", "3", "--out", str(tmp_path), *extra)
    assert code == 0
    with open(tmp_path / "manifest.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[-1] for row in rows] == out.split()
    written = [
        (hashlib.sha256(open(row[-1], "rb").read()).hexdigest(), tuple(row[:-1])) for row in rows
    ]
    assert written == GENERATE_PINS[family]


def test_generate_flag_defaults_are_the_spec_defaults():
    args = build_parser().parse_args(["generate", "--family", "subset"])
    spec = _generate_specs(args)[0]
    defaults = {f.name: f.default for f in dataclasses.fields(TaskSpec)}
    for name in ("trace_len", "n_pos", "n_neg", "seed"):
        assert getattr(spec, name) == defaults[name]


@pytest.fixture
def small_manifest(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    main(["generate", "--family", "ordered-sequence", "--n", "2",
          "--count", "2", "--out", str(out_dir)])
    capsys.readouterr()
    return str(out_dir / "manifest.csv")


def test_bench_serial(small_manifest, capsys):
    code, out, err = run(capsys, "bench", small_manifest)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 2
    assert all(r["status"] == "Solved" for r in records)
    assert "solved 2/2" in err
    assert "mean time over solved" in err


def test_bench_parallel_matches_serial(small_manifest, capsys):
    _, out1, _ = run(capsys, "bench", small_manifest)
    _, out2, _ = run(capsys, "bench", small_manifest, "--jobs", "2")
    key = lambda r: (r["task"], r["status"], r["formula"], r["size"])
    first = [key(json.loads(line)) for line in out1.strip().splitlines()]
    second = [key(json.loads(line)) for line in out2.strip().splitlines()]
    assert first == second


def test_bench_records_the_target_size_and_the_size_ratio(small_manifest, capsys):
    code, out, err = run(capsys, "bench", small_manifest)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    with open(small_manifest, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for record, row in zip(records, rows):
        alphabet = parse_task(open(record["task"]).read()).sample.alphabet
        assert record["target_size"] == parse_formula(row["formula"], alphabet).size
    sizes = [r["size"] for r in records]
    targets = [r["target_size"] for r in records]
    size, target = sum(sizes) / 2, sum(targets) / 2
    assert (f"mean size / mean target size {size:.2f} / {target:.2f} "
            f"= {size / target:.2f} over 2 with a target") in err


def test_bench_rows_without_a_target_get_no_target_size(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    main(["generate", "--family", "hamming", "--pos", "1", "--out", str(out_dir)])
    capsys.readouterr()
    code, out, err = run(capsys, "bench", str(out_dir / "manifest.csv"))
    assert code in (0, 1)
    assert "target_size" not in json.loads(out)
    assert "mean target size" not in err


def test_bench_unparsable_target_is_an_error_record(task_path, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"formula,path\nF(,{task_path}\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 3
    record = json.loads(out)
    assert record["status"] == "Error"
    assert record["error"].startswith("manifest formula: ")


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for `ProcessPoolExecutor`, which would fork: records the
    `max_workers` of each pool asked for and runs each submitted call at
    once, in this process. Returns the list of recorded sizes."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def shutdown(self, cancel_futures=False):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("ltlflearn.cli.ProcessPoolExecutor", RecordingPool)
    return made


def test_bench_starts_no_more_workers_than_tasks(small_manifest, capsys, recording_pool):
    _, serial, _ = run(capsys, "bench", small_manifest)
    code, out, _ = run(capsys, "bench", small_manifest, "--jobs", "64")
    assert code == 0
    assert recording_pool == [2]  # two tasks in the manifest
    key = lambda r: (r["task"], r["status"], r["formula"], r["size"])
    assert [key(json.loads(line)) for line in out.splitlines()] == [
        key(json.loads(line)) for line in serial.splitlines()
    ]


def test_bench_one_task_runs_without_a_pool(task_path, tmp_path, capsys, recording_pool):
    manifest = tmp_path / "one.csv"
    manifest.write_text(f"path\n{task_path}\n")
    code, out, _ = run(capsys, "bench", str(manifest), "--jobs", "8")
    assert code == 0
    assert recording_pool == []
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["Solved"]


class LazyPool:
    """Stands in for `ProcessPoolExecutor`: runs each submitted call in
    this process when its result is asked for. Records each shutdown's
    `cancel_futures` in `shutdowns`."""

    shutdowns: list = []

    def __init__(self, max_workers):
        pass

    def shutdown(self, cancel_futures=False):
        self.shutdowns.append(cancel_futures)

    def submit(self, fn, *args):
        return SimpleNamespace(result=lambda: fn(*args))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_prints_each_record_before_the_next_task_runs(small_manifest, capsys,
                                                           monkeypatch, jobs):
    printed = []  # stdout before each task, then after the run

    def learn_after_reading_stdout(*args, **kwargs):
        printed.append(capsys.readouterr().out)
        return learn(*args, **kwargs)

    monkeypatch.setattr("ltlflearn.cli.ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr("ltlflearn.cli.learn", learn_after_reading_stdout)
    assert main(["bench", small_manifest, "--jobs", jobs]) == 0
    printed.append(capsys.readouterr().out)
    assert printed[0] == ""
    assert [json.loads(out)["task"][-9:] for out in printed[1:]] == ["-s0.trace", "-s1.trace"]


def test_bench_cut_short_keeps_the_records_it_finished(small_manifest, capsys, monkeypatch):
    calls = []

    def learn_interrupted_on_the_second_task(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return learn(*args, **kwargs)

    monkeypatch.setattr("ltlflearn.cli.learn", learn_interrupted_on_the_second_task)
    with pytest.raises(KeyboardInterrupt):
        main(["bench", small_manifest])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["task"][-9:], r["status"]) for r in records] == [("-s0.trace", "Solved")]


def run_with_stdout_closed(*argv) -> tuple[int, str, int]:
    """`python -m ltlflearn argv` in a process group of its own, with a
    stdout that nobody reads (the pipe's read end is closed before it
    starts): its exit code, its stderr and its process group."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "ltlflearn", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err, proc.pid


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_ends_quietly_when_stdout_closes(tmp_path, capsys, jobs):
    out_dir = tmp_path / "bench"
    main(["generate", "--family", "ordered-sequence", "--n", "2",
          "--count", "6", "--out", str(out_dir)])
    capsys.readouterr()
    code, err, group = run_with_stdout_closed(
        "bench", str(out_dir / "manifest.csv"), "--jobs", jobs)
    assert code == 141  # 128 + SIGPIPE, not 4: the reader has gone
    assert err == ""  # no traceback, no "Exception ignored" at exit
    with pytest.raises(ProcessLookupError):  # no pool worker outlives it
        os.killpg(group, 0)


def test_learn_ends_quietly_when_stdout_closes(task_path):
    for fmt in ("text", "json"):
        code, err, _ = run_with_stdout_closed("learn", task_path, "--format", fmt)
        assert code == 141
        assert "Traceback" not in err and "Exception ignored" not in err


def test_bench_starts_no_task_after_stdout_closes(small_manifest, monkeypatch):
    started = []

    def learn_counted(*args, **kwargs):
        started.append(args)
        return learn(*args, **kwargs)

    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w")
    LazyPool.shutdowns = []
    monkeypatch.setattr("ltlflearn.cli.ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr("ltlflearn.cli.learn", learn_counted)
    monkeypatch.setattr("sys.stdout", stdout)
    try:
        assert main(["bench", small_manifest, "--jobs", "2"]) == 141
    finally:
        # Flushes what the failed print left in the buffer, as the
        # interpreter does at exit: it must now go to devnull, unraised.
        stdout.close()
    assert len(started) == 1  # the first record's print failed
    assert LazyPool.shutdowns == [True]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(small_manifest, capsys, recording_pool, jobs):
    code, out, err = run(capsys, "bench", small_manifest, "--jobs", jobs)
    assert code == 3
    assert out == ""  # no task ran
    assert "--jobs must be at least 1" in err
    assert recording_pool == []


def test_bench_resolves_paths_against_manifest_dir(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "suite"
    main(["generate", "--family", "subset", "--n", "2", "--out", str(out_dir)])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path.parent)
    code, out, err = run(capsys, "bench", str(out_dir / "manifest.csv"))
    assert code == 0
    assert json.loads(out)["status"] == "Solved"


def test_bench_respects_task_ops_unless_overridden(tmp_path, capsys):
    task = tmp_path / "stuck.trace"
    task.write_text(STUCK)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        f"hand,1,2,1,1,0,{{}},,{task}\n"
    )
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 0
    assert json.loads(out)["status"] == "NoSolution"
    code, out, _ = run(capsys, "bench", str(manifest), "--operators", "!,F")
    assert json.loads(out)["status"] == "Solved"


def test_bench_task_ops_keep_the_other_flags(tmp_path, capsys):
    task = tmp_path / "stuck.trace"
    task.write_text(STUCK)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        f"hand,1,2,1,1,0,{{}},,{task}\n"
    )
    code, out, _ = run(capsys, "bench", str(manifest), "--beam-width", "7", "--seed", "5")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["operators"] == ["F"]  # from the task's ops line
    assert (config["beam_width"], config["seed"]) == (7, 5)


def test_empty_operators_flag_keeps_task_ops_in_learn_and_bench(tmp_path, capsys):
    task = tmp_path / "ops.trace"
    task.write_text("1;0\n---\n0;1\n---\nX!,&\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        f"hand,1,2,1,1,0,{{}},,{task}\n"
    )
    code, out, _ = run(capsys, "learn", str(task), "--operators", "", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["operators"] == ["X!", "&"]
    code, out, _ = run(capsys, "bench", str(manifest), "--operators", "")
    assert code == 0
    assert json.loads(out)["config"]["operators"] == ["X!", "&"]


def test_config_echo_has_every_config_field():
    echo = _config_echo(LearnerConfig())
    assert list(echo) == [f.name for f in dataclasses.fields(LearnerConfig)]
    assert echo["operators"] == ["!", "X!", "X", "F", "G", "&", "|", "U"]
    json.dumps(echo)  # every value is JSON as it stands


def test_internal_error_has_its_own_exit_code(task_path, capsys, monkeypatch):
    def broken_learn(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("ltlflearn.cli.learn", broken_learn)
    code, out, err = run(capsys, "learn", task_path)
    assert code == 4
    assert out == ""
    assert "internal error: RecursionError: maximum recursion depth exceeded" in err


def test_bench_survives_a_task_whose_learn_raises(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "bench"
    main(["generate", "--family", "ordered-sequence", "--n", "2",
          "--count", "3", "--out", str(out_dir)])
    capsys.readouterr()
    calls = []

    def learn_failing_on_the_second_task(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return learn(*args, **kwargs)

    monkeypatch.setattr("ltlflearn.cli.learn", learn_failing_on_the_second_task)
    code, out, err = run(capsys, "bench", str(out_dir / "manifest.csv"))
    assert code == 4
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["status"] for r in records] == ["Solved", "Error", "Solved"]
    assert records[1]["error"] == "internal error: RuntimeError: boom"
    assert records[1]["task"].endswith("-s1.trace")
    assert "solved 2/3" in err and "error 1" in err


def test_bench_missing_file_is_an_error_record(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        "hand,1,2,1,1,0,{},,gone.trace\n"
    )
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 3
    assert json.loads(out)["status"] == "Error"
    assert "error 1" in err


def test_bench_task_that_is_not_utf8_is_an_error_record(tmp_path, capsys):
    (tmp_path / "binary.trace").write_bytes(b"\xff\n---\n0\n")
    (tmp_path / "worked.trace").write_text(WORKED)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        "hand,1,1,1,1,0,{},,binary.trace\n"
        "hand,1,5,2,2,0,{},,worked.trace\n"
    )
    code, out, err = run(capsys, "bench", str(manifest))
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 3
    assert [r["status"] for r in records] == ["Error", "Solved"]
    assert records[0]["task"].endswith("binary.trace")
    assert "internal error" not in records[0]["error"]
    assert "solved 1/2" in err and "error 1" in err


def test_bench_task_the_sample_rejects_is_an_input_error_record(tmp_path, capsys):
    (tmp_path / "both.trace").write_text("1\n---\n1\n")
    (tmp_path / "twice.trace").write_text("1,0\n---\n0,0\n---\na,a\n")
    (tmp_path / "worked.trace").write_text(WORKED)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"
        "hand,1,1,1,1,0,{},,both.trace\n"
        "hand,2,1,1,1,0,{},,twice.trace\n"
        "hand,1,5,2,2,0,{},,worked.trace\n"
    )
    code, out, err = run(capsys, "bench", str(manifest))
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 3
    assert [r["status"] for r in records] == ["Error", "Error", "Solved"]
    assert "both.trace: line 3: " in records[0]["error"]
    assert "twice.trace: line 5: " in records[1]["error"]
    assert "solved 1/3" in err and "error 2" in err


def test_bench_manifest_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"path\n\xff.trace\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "manifest.csv" in err


def test_learner_flag_defaults_are_the_config_defaults():
    defaults = LearnerConfig()
    for command in (["learn", "task.trace"], ["bench", "manifest.csv"]):
        args = build_parser().parse_args(command)
        assert args.ltl2bs_switch == defaults.ltl2bs_switch
        assert args.beam_width == defaults.beam_width
        assert args.dc_switch == defaults.dc_switch
        assert args.domination_k == defaults.domination_k
        assert args.timeout == defaults.timeout
        assert args.seed == defaults.seed
        assert args.operators is None  # the task's operator line, else the default set


def test_every_config_field_has_one_flag_with_its_default_and_type():
    fields = dataclasses.fields(LearnerConfig)
    hints = typing.get_type_hints(LearnerConfig)
    assert set(_LEARNER_FLAGS) == {f.name for f in fields}
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    for command in ("learn", "bench"):
        for f in fields:
            flags = [a for a in commands[command]._actions if a.dest == f.name]
            assert [a.option_strings for a in flags] == [["--" + f.name.replace("_", "-")]]
            if f.name == "operators":  # comma-separated tokens; unset: the task's, else default
                assert (flags[0].default, flags[0].type) == (None, None)
            else:
                assert flags[0].default == f.default
                assert flags[0].type in (hints[f.name], *typing.get_args(hints[f.name]))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched learn")
def test_bench_jobs_survives_a_dead_worker(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "bench"
    main(["generate", "--family", "ordered-sequence", "--n", "2",
          "--count", "3", "--out", str(out_dir)])
    paths = capsys.readouterr().out.split()
    samples = [parse_task(open(path).read()).sample for path in paths]

    def learn_dying_on_the_second_task(sample, config):
        index = samples.index(sample)
        if index != 1:
            result = learn(sample, config)
            (tmp_path / f"done{index}").touch()
            return result
        # Die only once both other tasks are done, so that which records
        # survive does not depend on timing.
        give_up = time.monotonic() + 60
        while not all((tmp_path / f"done{i}").exists() for i in (0, 2)):
            if time.monotonic() > give_up:
                break
            time.sleep(0.01)
        time.sleep(0.5)  # let the other worker's record reach the pool
        os._exit(1)

    monkeypatch.setattr("ltlflearn.cli.learn", learn_dying_on_the_second_task)
    code, out, err = run(capsys, "bench", str(out_dir / "manifest.csv"), "--jobs", "2")
    assert code == 4
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["task"] for r in records] == paths
    assert [r["status"] for r in records] == ["Solved", "Error", "Solved"]
    assert records[1]["error"].startswith("internal error: BrokenProcessPool: ")
    assert "solved 2/3" in err and "error 1" in err
