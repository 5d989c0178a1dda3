"""spw benchmark: one closed-loop client runs a seeded job list through
spw's public entry points, checks every answer against `oracles`, and
prints the metrics.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The job list is repeated in whole passes
until --seconds have passed and at least four passes are done.  A short
fixed probe runs between jobs, and job times are reported in reference
seconds against it (see `to_ref`).  Set-up is repeated between passes.
With --trace 0 the last line of stdout is the end-to-end result; with --trace 1
the run first measures untraced passes for the tracing overhead, then
traced passes for the per-layer metrics, and writes the spans to
.perfbench/.  Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import MODULES, Tracer
from workloads import WORKLOADS, JobTimeout, Outcome, check, make_jobs, run_job

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9         # the first before the passes, the rest spread over them
MIN_PASSES = 4
TRACE_MIN_PASSES = 2
UNTRACED_SHARE = 0.4        # of --seconds, spent untraced in a --trace 1 run
STOP_STARTING_AFTER_S = 120  # after the first pass starts, no new job
PROBE_STEPS = 200           # loop steps of the probe run between jobs
PROBE_REF_S = 0.001         # the probe's time at the reference speed
JOB_TIMEOUT_S = {"derham_dims": 30, "closed_forms": 30, "cli_small": 10}
TAIL_BEYOND = 10
TRACE_FIRST_PASS = 100      # job ids of traced passes start at this pass number

UNITS = {
    "jobs_per_s": "1/ref_s", "job_p50_s": "ref_s", "job_tail_s": "ref_s", "ok_share": "share",
    "setup_s": "s", "peak_rss_mb": "MB",
}
COUNTS = (
    "exactlin.elim.calls", "exactlin.elim.cells", "exactlin.elim.nnz",
    "exactlin.homology.calls", "exactlin.homology.rep_trials",
    "gradedmixed.total_complex.calls", "gradedmixed.total_complex.cells",
    "freecdga.window_basis.size",
)
SELF_TIMES = (
    "exactlin.elim", "exactlin.homology", "exactlin.matmul",
    "gradedmixed.total_complex", "gradedmixed.validate_mixed",
    "freecdga.window_basis", "freecdga.graded_mixed_window", "freecdga.closed_form_classes",
    "polyvec", "compare", "lieinfty", "operads.normal_form", "operads.rank_certificate",
    "dsl.parse", "dsl.build", "cli.build_parser", "cli.main",
)
# modules whose layers above do not already add up to the whole module
MODULE_TOTALS = ("exactlin", "gradedmixed", "freecdga", "operads", "dsl", "cli")

clock = time.perf_counter


def fraction_loop(steps):
    """Wall time of a fixed pure-Fraction loop that does not touch spw."""
    start = clock()
    acc = Fraction(0)
    for i in range(1, steps + 1):
        acc += Fraction(i % 13 + 1, i % 97 + 1)
        acc *= Fraction(i % 7 + 1, i % 5 + 1)
        if acc.denominator > 10**24:
            acc = Fraction(acc.numerator % 1000003, 7)
    return clock() - start


def calibration_s():
    """A 40000-step `fraction_loop` before and after the run: tells a slow
    host from a slow program.  Reported beside the metrics, never used to
    scale them."""
    return fraction_loop(40000)


def setup(workload, seed):
    """Import spw afresh and build the seeded job list; returns the wall time."""
    start = clock()
    for name in [m for m in sys.modules if m == "spw" or m.startswith("spw.")]:
        del sys.modules[name]
    spw = {name: importlib.import_module(f"spw.{name}") for name in MODULES}
    jobs = make_jobs(workload, seed, ROOT / "examples_dsl")
    return clock() - start, spw, jobs


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_passes(spw, jobs, seconds, min_passes, timeout, stop_at, tracer=None, first_pass=0,
               between=None):
    """Whole passes over `jobs` until `seconds` and `min_passes` are reached.
    Returns one list of outcomes per pass; a pass cut at `stop_at` (a clock
    value) is shorter than `jobs`.  Only the first pass keeps its answers.
    `between(elapsed)` runs after each pass and may return a fresh `spw`.
    A probe runs before the first job and after every job; each outcome
    keeps the mean of the two probes around it."""
    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    probe = fraction_loop(PROBE_STEPS)
    start = clock()
    while len(passes) < min_passes or clock() - start < seconds:
        outcomes = []
        for idx, job in enumerate(jobs):
            if clock() > stop_at:
                break
            if tracer is not None:
                tracer.job = (first_pass + len(passes)) * 1000 + idx
            job_start = clock()
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                outcome = run_job(spw, job, clock)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except JobTimeout:  # fired just after the job returned
                outcome = Outcome(clock() - job_start, error="timeout")
            after = fraction_loop(PROBE_STEPS)
            outcome.probe_s = (probe + after) / 2
            probe = after
            outcome.failure = check(job, outcome)
            if passes:
                outcome.answer = None
            outcomes.append(outcome)
        passes.append(outcomes)
        if len(outcomes) < len(jobs):
            break
        if between is not None:
            spw = between(clock() - start) or spw
    return passes


def answers_digest(jobs, outcomes):
    """Digest of every answer in one pass, in job order: equal digests mean
    the program gave the same answers."""
    h = hashlib.sha256()
    for job, o in zip(jobs, outcomes):
        h.update(repr((job.key, o.exit_code, o.answer, o.error)).encode())
    return h.hexdigest()[:16]


def to_ref(seconds, probe_s):
    """Wall seconds in reference seconds, given the mean of the probes run
    just before and after: the time on a host that runs the probe in
    PROBE_REF_S.  The host's speed switches by up to 2.4x every few seconds
    to minutes, with no steal time to show for it; the probes slow down
    with it, so the ratio follows the program, not the host."""
    return seconds / probe_s * PROBE_REF_S


def ref_time(outcome):
    """A job's time in reference seconds."""
    return to_ref(outcome.seconds, outcome.probe_s)


def job_medians(passes, n_jobs, time=ref_time):
    """Each job's median time over the passes that ran it."""
    return [statistics.median(time(p[j]) for p in passes if len(p) > j) for j in range(n_jobs)]


def jobs_per_s(passes, n_jobs):
    """Jobs per reference second of one pass, each job at its median."""
    return n_jobs / sum(job_medians(passes, n_jobs))


def tail_share(n_jobs):
    """The highest percentile (as a share) with TAIL_BEYOND jobs beyond it
    in a run of MIN_PASSES passes.  Every run uses it, so job_tail_s lands
    on the same job shape however many passes a run makes, and a longer
    run only has more jobs beyond it."""
    return 1 - (TAIL_BEYOND + 1) / (MIN_PASSES * n_jobs)


def _figures(passes, n_jobs, time, share):
    """jobs_per_s, job_p50_s and job_tail_s.  The tail is taken over the
    job medians, each standing for its pass count of jobs."""
    medians = job_medians(passes, n_jobs, time)
    p50 = statistics.median(time(o) for p in passes for o in p)
    return n_jobs / sum(medians), p50, sorted(medians)[int(share * n_jobs)]


def end_to_end(passes, jobs, setup_times):
    complete = [p for p in passes if len(p) == len(jobs)] or passes
    done = [o for p in complete for o in p]
    outcomes = [o for p in passes for o in p]
    failed = sum(o.failure is not None for o in outcomes)
    share = tail_share(len(jobs))
    rate, p50, tail = _figures(complete, len(jobs), ref_time, share)
    metrics = {
        "jobs_per_s": rate,
        "job_p50_s": p50,
        "job_tail_s": tail,
        "ok_share": 1 - failed / len(outcomes),
        "setup_s": statistics.median(to_ref(*t) for t in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = _figures(complete, len(jobs), lambda o: o.seconds, share)
    info = {"percentile": 100 * share, "jobs": len(done),
            "raw_jobs_per_s": raw[0], "raw_p50_s": raw[1], "raw_tail_s": raw[2],
            "raw_setup_s": statistics.median(t[0] for t in setup_times),
            "probe_p50_s": statistics.median(o.probe_s for o in outcomes)}
    return metrics, info


def per_layer(tracer, traced, untraced, n_jobs):
    """Counters from the first traced pass (they repeat exactly) and self
    times as the median over traced passes, per pass."""
    complete = [i for i, p in enumerate(traced) if len(p) == n_jobs] or [0]
    per_pass = [
        tracer.layer_totals({(TRACE_FIRST_PASS + i) * 1000 + j for j in range(n_jobs)})
        for i in complete
    ]
    first = per_pass[0]
    out = {name: first.get(name, 0) for name in COUNTS}
    trials = first.get("exactlin.homology.rep_trials", 0)
    out["exactlin.homology.rep_yield"] = (
        first.get("exactlin.homology.reps", 0) / trials if trials else 0.0)
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = statistics.median(t.get(f"{layer}.self_s", 0.0) for t in per_pass)
    for mod in MODULE_TOTALS:
        out[f"{mod}.total_self_s"] = statistics.median(
            t.get(f"{mod}.module_self_s", 0.0) for t in per_pass)
    job_time = statistics.median(sum(o.seconds for o in traced[i]) for i in complete)
    out["unspanned.self_s"] = job_time - statistics.median(
        t.get("spans.top_level_s", 0.0) for t in per_pass)
    traced_rate = jobs_per_s(traced, n_jobs)
    untraced_rate = jobs_per_s(untraced, n_jobs)
    out["trace.overhead"] = traced_rate / untraced_rate
    shares = {mod: statistics.median(t.get(f"{mod}.module_self_s", 0.0) for t in per_pass)
              / job_time for mod in MODULES}
    shares["unspanned"] = out["unspanned.self_s"] / job_time
    return out, shares, traced_rate, untraced_rate


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("yield", "overhead")):
        return "ratio"
    return "count"


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(workload, seed):
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spw").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "spw_sources_sha256": sources.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spw").is_dir() or not (ROOT / "examples_dsl").is_dir():
        print(f"error: {ROOT} holds no spw sources and examples", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("SPW_MAX_WEIGHT", "SPW_MAX_DEGREE", "SPW_MAX_LEN"):
        os.environ.pop(var, None)  # the jobs rely on the documented defaults

    calib = [calibration_s()]
    setup_times = []  # (wall seconds, mean of the probes around it)

    def probed_setup():
        before = fraction_loop(PROBE_STEPS)
        seconds, spw, jobs = setup(args.workload, args.seed)
        setup_times.append((seconds, (before + fraction_loop(PROBE_STEPS)) / 2))
        return spw, jobs

    spw, jobs = probed_setup()
    timeout = JOB_TIMEOUT_S[args.workload]
    stop_at = clock() + STOP_STARTING_AFTER_S

    if args.trace:
        untraced = run_passes(spw, jobs, UNTRACED_SHARE * args.seconds, TRACE_MIN_PASSES,
                              timeout, stop_at)
        tracer = Tracer(spw, clock)
        tracer.install()
        try:
            traced = run_passes(spw, jobs, (1 - UNTRACED_SHARE) * args.seconds,
                                TRACE_MIN_PASSES, timeout, stop_at, tracer, TRACE_FIRST_PASS)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics, shares, traced_rate, untraced_rate = per_layer(
            tracer, traced, untraced, len(jobs))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    [job.label for job in jobs])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        # set up again at even steps through the run, so the median set-up
        # time samples the whole run rather than its first second
        due = [i * args.seconds / SETUP_REPEATS for i in range(SETUP_REPEATS - 1, 0, -1)]

        def resetup(elapsed):
            if not due or elapsed < due[-1]:
                return None
            due.pop()
            return probed_setup()[0]

        passes = run_passes(spw, jobs, args.seconds, MIN_PASSES, timeout, stop_at,
                            between=resetup)
        metrics, info = end_to_end(passes, jobs, setup_times)
        units = UNITS
    calib.append(calibration_s())

    outcomes = [(job, o) for p in passes for job, o in zip(jobs, p)]
    failures = [(job, o) for job, o in outcomes if o.failure is not None]
    correct = all(job.known_defect for job, _ in failures)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} x {len(jobs)} jobs")
    print("provenance", json.dumps(provenance(args.workload, args.seed), sort_keys=True))
    print(f"calibration_s {calib[0]:.4f} before, {calib[1]:.4f} after "
          "(fixed Fraction loop; not used to scale any metric)")
    print(f"answers_sha256 {answers_digest(jobs, passes[0])} (first pass)")
    print(f"failed_share {len(failures) / len(outcomes):.6f} share  "
          f"({len(failures)} of {len(outcomes)} jobs)")
    if args.trace:
        print(f"jobs_per_s untraced {untraced_rate:.4f}  traced {traced_rate:.4f}")
        print("self-time share by module: " + "  ".join(
            f"{mod} {share:.3f}" for mod, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        print(f"job_tail_s is p{info['percentile']:.2f} of {info['jobs']} jobs "
              f"(at least {TAIL_BEYOND} beyond it); set-up ran {len(setup_times)} times")
        print(f"probe median {info['probe_p50_s'] * 1e3:.4f} ms (reference "
              f"{PROBE_REF_S * 1e3:g} ms); in wall seconds, not reference seconds: "
              f"jobs_per_s {info['raw_jobs_per_s']:.4f} 1/s, job_p50_s "
              f"{info['raw_p50_s']:.6g} s, job_tail_s {info['raw_tail_s']:.6g} s, "
              f"setup_s {info['raw_setup_s']:.6g} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    seen = set()
    for job, o in failures:
        if job.key not in seen:
            seen.add(job.key)
            tag = "known seed defect" if job.known_defect else "FAILED"
            print(f"  {tag}: {job.label}: {o.failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") is None:
        # fix string hashing so set orders, and with them the exact
        # counters, repeat from run to run
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
