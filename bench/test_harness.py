"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They run cheap jobs and one cohomology-q pass per trace mode, about 40 s.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run          # noqa: E402
import spans        # noqa: E402
import workloads    # noqa: E402
from hopfcyclic.linalg import Matrix   # noqa: E402

CHEAP = ("star", "crossed", "cocrossed", "trace-cup", "char-map", "corrupt-b")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in _declared()[kind]}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _cheap_jobs():
    return [job for job in workloads.CLI_Q.jobs if job.name in CHEAP]


def _deadline():
    return time.perf_counter() + 120


def test_printed_metrics_are_the_declared_ones():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run("--workload", "cohomology-q", "--seed", "3",
                   "--seconds", "0", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        # one pass of two jobs; the traced run adds one untraced pass
        assert result["attempted"] == (2 if trace == "0" else 4)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == _units(kind)


def test_declared_names_cover_workloads_and_moves():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(BENCH, "moves.json")) as fh:
        moves = json.load(fh)
    assert set(moves) == set(_units("per_layer"))
    cli_jobs = [name for name, _, _ in workloads.CLI_JOBS]
    assert set(spans.metric_units(cli_jobs)) == set(moves)


def test_self_time_subtracts_child_spans():
    ticks = iter(range(0, 10**10, 10**8))     # every clock read is +0.1 s
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = rec.span("inner", lambda: None)

    def body():
        inner()
        inner()
    rec.span("outer", body)()
    times = rec.self_times()
    # outer: 0.0 .. 0.5; inner: 0.1 .. 0.2 and 0.3 .. 0.4
    assert times["outer"][0] == 1
    assert abs(times["outer"][1] - 0.3) < 1e-9
    assert abs(times["outer"][2] - 0.5) < 1e-9
    assert times["inner"][0] == 2
    assert abs(times["inner"][1] - 0.2) < 1e-9
    assert [s[4] for s in rec.spans] == [rec.spans[2][0]] * 2 + [None]


def test_wrong_expectation_counts_as_failure():
    env = workloads.CLI_Q.setup()
    jobs = _cheap_jobs()[:2]
    expected = dict(workloads.load_expected()["cli-q"])
    _, outcomes = run.run_pass(jobs, env, expected, _deadline())
    assert all(o["ok"] for o in outcomes)
    wrong = dict(expected[jobs[0].name])
    wrong["exit"] = 1 - wrong["exit"]
    expected[jobs[0].name] = wrong
    _, outcomes = run.run_pass(jobs, env, expected, _deadline())
    assert [o["ok"] for o in outcomes] == [False, True]
    assert "frozen expectation" in outcomes[0]["reason"]


def test_group_algebra_oracle_bites():
    frozen = workloads.load_expected()["cohomology-q"]["kz3-n5"]
    oracle = workloads.group_algebra_oracle(3)
    assert oracle(frozen) == []
    bad = json.loads(json.dumps(frozen))
    bad["models"]["mixed"]["degrees"]["1"] = 1
    assert oracle(bad) == ["mixed HC^1 = 1, closed form gives 0"]


def test_traced_outputs_equal_untraced_and_counts_repeat():
    env = workloads.CLI_Q.setup()
    jobs = _cheap_jobs()
    expected = workloads.load_expected()["cli-q"]
    _, plain = run.run_pass(jobs, env, expected, _deadline())
    apply = Matrix.__dict__["apply"]
    rec = spans.Recorder()
    passes = []
    with spans.instrument(rec):
        assert Matrix.__dict__["apply"] is not apply
        for _ in range(2):
            rec.reset()
            _, traced = run.run_pass(jobs, env, expected, _deadline(), rec)
            assert [o["digest"] for o in traced] == [o["digest"] for o in plain]
            assert all(o["ok"] for o in traced)
            passes.append(spans.layer_metrics(rec, CHEAP))
    assert Matrix.__dict__["apply"] is apply
    exact = [name for name in passes[0]
             if name.endswith((".calls", "_dim", "_ratio"))]
    assert {n: passes[0][n] for n in exact} == {n: passes[1][n] for n in exact}
    assert passes[0]["pairings.star.calls"] == 1
    assert passes[0]["fields.mul.calls"] > 0
    assert passes[0]["cli.main.star.s"] > passes[0]["pairings.star.self_s"] > 0


def test_time_cap_ends_sweedler_n3_and_spares_the_next_job():
    env = workloads.SATURATE_FP.setup()
    n3 = workloads.Job("sweedler-n3", lambda env: workloads.hopf_cyclic_tower(
        env["coalgebra"], env["coefficients"], 3), cap_s=1)
    star = [job for job in workloads.CLI_Q.jobs if job.name == "star"][0]
    expected = {"star": workloads.load_expected()["cli-q"]["star"]}
    _, outcomes = run.run_pass([n3, star], env, expected, _deadline())
    assert outcomes[0]["reason"] == "timeout"
    assert outcomes[0]["s"] < 2
    assert outcomes[1]["ok"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_source_tree():
    bare = os.path.join(workloads.OUT_DIR, "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = _run("--workload", "cli-q", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_speed_sampler_samples_inside_and_restores_the_handler():
    import speed
    before = signal.getsignal(signal.SIGPROF)
    with speed.Sampler() as sampler:
        t_end = time.process_time() + 0.3
        while time.process_time() < t_end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.samples) >= speed.MIN_SAMPLES
    assert 0 < sampler.inside_s <= sum(sampler.samples)
    assert sampler.scale() > 0
