"""Checks of the benchmark itself: its oracles, and that the exact
counters and answers of a traced run repeat for a fixed seed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_poincare_counts_match_the_seed_results():
    assert [oracles.polynomial_closed_two_forms(2, n) for n in (4, 5)] == [6, 10]
    assert [oracles.polynomial_closed_two_forms(3, n) for n in (4, 5)] == [26, 50]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("wmax,max_len", [(3, 4), (4, 4), (4, 5), (5, 5), (5, 6)])
def test_window_count_agrees_with_the_binomial_formula(k, wmax, max_len):
    classes, stages, fibers = oracles.closed_form_tables([(0, 0)] * k, wmax, max_len)
    assert classes == oracles.polynomial_closed_two_forms(k, max_len)
    assert all(v == 0 for v in fibers.values())


def test_de_rham_window_is_acyclic_below_the_top():
    for gens in ([(0, 0)] * 2 + [(1, 0)], [(0, 0)] + [(1, 0)] * 3, [(0, 0)] * 3):
        dims = oracles.de_rham_dims(gens, 4)
        assert oracles.poincare_violations(dims, 4) == []


def test_operad_oracles():
    assert oracles.arnold_hilbert_series(1, 4) == {0: 1, 1: 6, 2: 11, 3: 6}
    assert oracles.arnold_hilbert_series(0, 3) == {0: 6}
    assert [oracles.operad_dimension(op, 4) for op in ("pn", "as", "lie", "bd1")] == [24, 24, 6, 24]


def test_reference_seconds_ignore_a_uniformly_slower_host():
    def passes(slowdown, count):
        return [[run.Outcome(slowdown * 0.01 * (j + 1), probe_s=slowdown * 0.001)
                 for j in range(17)] for _ in range(count)]

    share = run.tail_share(17)
    fast = run._figures(passes(1, 4), 17, run.ref_time, share)
    assert run._figures(passes(2.4, 9), 17, run.ref_time, share) == pytest.approx(fast)
    # p83.82 of a 17-job list falls on its 15th job: in four passes, 10 of
    # the 68 jobs lie beyond that point
    assert 100 * share == pytest.approx(83.82, abs=0.01)
    assert fast[2] == pytest.approx(0.15)


def _cheap(job):
    # keep the in-process test short: drop the shapes that take seconds
    return job.key not in {("derham", 1, 3, 4), ("d-functor", "koszul_square")} and not (
        job.key[0] == "closed-forms" and job.key[1:3] in {(3, 0), (3, 1), ("jacobi_failure", 4)})


def _traced_pass(workload, seed):
    _, spw, jobs = run.setup(workload, seed)
    jobs = [job for job in jobs if _cheap(job)]
    tracer = Tracer(spw, time.perf_counter)
    tracer.install()
    try:
        passes = run.run_passes(spw, jobs, 0, 1, 60, time.perf_counter() + 600, tracer,
                                run.TRACE_FIRST_PASS)
    finally:
        tracer.uninstall()
    ids = {run.TRACE_FIRST_PASS * 1000 + j for j in range(len(jobs))}
    counts = {k: v for k, v in tracer.layer_totals(ids).items() if not k.endswith("_s")}
    return counts, run.answers_digest(jobs, passes[0]), [o.failure for o in passes[0]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_and_answers_repeat(workload):
    first = _traced_pass(workload, 7)
    second = _traced_pass(workload, 7)
    assert first == second
    assert first[0]["exactlin.elim.calls"] > 0


def _result(args, cwd):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_two_processes_give_identical_counters():
    args = ["--workload", "cli_small", "--seed", "3", "--seconds", "0", "--trace", "1"]
    outs = [_result(args, ROOT) for _ in range(2)]
    metrics = []
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        metrics.append({k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] == "count"})
        digest = [line for line in proc.stdout.splitlines() if line.startswith("answers_sha256")]
        metrics[-1]["answers"] = digest
    assert metrics[0] == metrics[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "cli_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
