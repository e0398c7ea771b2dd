"""tools/bench_pair.py with perfbench's subprocess stubbed out."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


@pytest.fixture
def checkouts(tmp_path):
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_ref", "better": "lower"},
                                              {"name": "peak_rss_mb", "better": "lower"}]}
    roots = {}
    for side in ("base", "head"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
        (roots[side] / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    return roots


def stub_perfbench(monkeypatch, roots, bad=None, failed=None):
    """Stub subprocess.run; ``bad`` maps (side, seed) to a result override,
    ``failed`` to a whole (exit code, stdout, stderr) in place of the run."""
    calls = []

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 1, "", "")
        side = next(name for name, root in roots.items() if root == cwd)
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((side, seed))
        if (side, seed) in (failed or {}):
            return subprocess.CompletedProcess(argv, *failed[(side, seed)])
        result = {"correct": True, "metrics": {"wall_ref": {"value": 10.0 + seed},
                                               "peak_rss_mb": {"value": 24.0}}}
        result.update((bad or {}).get((side, seed), {}))
        return subprocess.CompletedProcess(argv, 0, "FAILED ...\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    return calls


def run_main(roots, out, workload="evidence:3"):
    return bench_pair.main(["--base", str(roots["base"]), "--head", str(roots["head"]),
                            "--workload", workload, "--out", str(out)])


def test_good_runs_are_summarized(monkeypatch, checkouts, tmp_path):
    calls = stub_perfbench(monkeypatch, checkouts)
    out = tmp_path / "bench.json"
    assert run_main(checkouts, out) == 0
    assert len(calls) == 6
    medians = json.loads(out.read_text(encoding="utf-8"))["workloads"]["evidence"]["medians"]
    assert medians["wall_ref"]["base"]["median"] == 12.0
    assert medians["wall_ref"]["pairs"] == 3


def test_an_incorrect_run_stops_the_pairs(monkeypatch, checkouts, tmp_path, capsys):
    calls = stub_perfbench(monkeypatch, checkouts, bad={("head", 2): {"correct": False}})
    out = tmp_path / "bench.json"
    assert run_main(checkouts, out) == 1
    err = capsys.readouterr().err
    assert "workload evidence seed 2 on the head side" in err and "not correct" in err
    assert calls[-1] == ("head", 2) and len(calls) == 3
    assert not out.exists()


def test_an_absent_metric_stops_the_pairs(monkeypatch, checkouts, tmp_path, capsys):
    absent = {"metrics": {"wall_ref": {"value": None}, "peak_rss_mb": {"value": 24.0}}}
    calls = stub_perfbench(monkeypatch, checkouts, bad={("base", 1): absent})
    out = tmp_path / "bench.json"
    assert run_main(checkouts, out) == 1
    err = capsys.readouterr().err
    assert "workload evidence seed 1 on the base side" in err
    assert "metric wall_ref is absent" in err
    assert calls == [("base", 1)]
    assert not out.exists()


@pytest.mark.parametrize("proc, why", [
    ((1, "machine {}\n", "perfbench: imported /elsewhere/qonsager/__init__.py, not the checkout's\n"),
     "perfbench exited 1; its output ends"),
    ((2, "", "usage: run.py ...\nrun.py: error: unrecognized arguments: --trace\n"),
     "perfbench exited 2; its output ends"),
    ((0, "machine {}\nverify_relation 0.5 s\n", ""),
     "perfbench exited 0 but its last line is not a JSON object"),
], ids=["exit-1", "exit-2", "not-json"])
def test_a_run_without_a_result_stops_the_pairs(proc, why, monkeypatch, checkouts, tmp_path,
                                                capsys):
    calls = stub_perfbench(monkeypatch, checkouts, failed={("head", 2): proc})
    out = tmp_path / "bench.json"
    assert run_main(checkouts, out) == 1
    err = capsys.readouterr().err
    assert "workload evidence seed 2 on the head side" in err and why in err
    assert (proc[1] + proc[2]).strip().splitlines()[-1] in err
    assert calls[-1] == ("head", 2) and len(calls) == 3
    assert not out.exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git binary")
def test_a_plain_copy_inside_a_work_tree_records_no_commit(tmp_path):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "outer"], cwd=tmp_path,
                   check=True)
    copy = tmp_path / "copy"
    copy.mkdir()
    assert bench_pair.git_commit(copy) is None
    assert len(bench_pair.git_commit(tmp_path)) == 40


@pytest.mark.parametrize("error", [FileNotFoundError(2, "git"),
                                   subprocess.TimeoutExpired(["git"], 10)],
                         ids=["no-git", "timeout"])
def test_a_git_that_cannot_answer_records_no_commit(error, monkeypatch, tmp_path):
    (tmp_path / ".git").mkdir()

    def fail(argv, **kwargs):
        raise error

    monkeypatch.setattr(bench_pair.subprocess, "run", fail)
    assert bench_pair.git_commit(tmp_path) is None
