import dataclasses
import json
import multiprocessing
import os
import time
from concurrent.futures import Future

import pytest

from ltlflearn.cli import _config_echo, build_parser, main
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


def test_learn_malformed_task(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("1;2\n---\n0\n")
    code, out, err = run(capsys, "learn", str(path))
    assert code == 3
    assert err.startswith("error:")
    assert "line 1" in err


def test_learn_missing_task(capsys):
    code, out, err = run(capsys, "learn", "does-not-exist.trace")
    assert code == 3
    assert err.startswith("error:")


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


def test_generate_hamming_needs_single_positive(tmp_path, capsys):
    code, out, err = run(
        capsys, "generate", "--family", "hamming", "--out", str(tmp_path),
    )
    assert code == 3
    assert "--pos 1" in err
    code, *_ = run(
        capsys, "generate", "--family", "hamming", "--pos", "1",
        "--out", str(tmp_path),
    )
    assert code == 0


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


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for `ProcessPoolExecutor`, which would fork: records the
    `max_workers` of each pool asked for and runs each submitted call at
    once, in this process. Returns the list of recorded sizes."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

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
