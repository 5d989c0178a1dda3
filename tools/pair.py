"""Time two checkouts of spw against each other in one process.

    python tools/pair.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Both checkouts' `spw`
packages are loaded into this one process, and before each job the
`sys.modules` entries of the side that runs it are put in place: the CLI
handlers import their modules relatively at call time, so each side runs
its own code only.  Each side builds each perfbench workload's job list
with its own `perfbench/workloads.py` (and its `oracles`), at seed SEED,
and the job lists must hold the same job shapes in the same order.

Each of REPETITIONS repetitions runs one pass of each workload on both
sides, the parent first in even repetitions and the change first in odd
ones, and checks every answer with the side's own `workloads.check`.
Job times are wall seconds: the two sides of a pair run seconds apart, so
a drift of the host's speed reaches both.

For each workload it prints each side's sum of job medians (each job's
median over the repetitions), their ratio change / parent, each side's
job at perfbench's job_tail_s percentile (`run.tail_share`) and how many
repetitions the change won, by the pass's total time.  The exit code is 1
when an answer is wrong (a known defect of the job list is not wrong),
and 2 when the job lists differ.  Standard library only.
"""

import gc
import importlib
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import tail_share  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPETITIONS = 100
SEED = 1

clock = time.perf_counter


def _is_spw(name):
    return name == "spw" or name.startswith("spw.")


def activate(modules):
    """Put one side's spw modules, {full name: module}, in sys.modules."""
    for name in [m for m in sys.modules if _is_spw(m)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_spw(root):
    """Every module of root's spw package, {full name: module}."""
    activate({})
    sys.path.insert(0, str(root / "src"))
    try:
        for path in sorted((root / "src" / "spw").glob("*.py")):
            importlib.import_module("spw" if path.stem == "__init__" else f"spw.{path.stem}")
    finally:
        sys.path.remove(str(root / "src"))
    return {name: m for name, m in sys.modules.items() if _is_spw(name)}


def load_workloads(root):
    """root's perfbench/workloads.py, importing root's own oracles."""
    for name in ("workloads", "oracles"):
        sys.modules.pop(name, None)
    sys.path.insert(0, str(root / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(root / "perfbench"))


class Side:
    def __init__(self, root):
        self.modules = load_spw(root)
        # workloads.run_job reads spw["cli"], spw["freecdga"], ..
        self.spw = {name.partition(".")[2]: m for name, m in self.modules.items() if name != "spw"}
        self.workloads = load_workloads(root)
        self.examples = root / "examples_dsl"

    def run_pass(self, jobs):
        """(job seconds, wrong answers) of one pass over jobs."""
        seconds, wrong = [], []
        gc.collect()  # each pass starts with no garbage left by the other side's
        for job in jobs:
            activate(self.modules)
            outcome = self.workloads.run_job(self.spw, job, clock)
            seconds.append(outcome.seconds)
            failure = self.workloads.check(job, outcome)
            if failure is not None and not job.known_defect:
                wrong.append(f"{job.label}: {failure}")
        return seconds, wrong


def pair_workload(workload, sides):
    """(report line, wrong answers) for one workload on (parent, change)."""
    jobs = [side.workloads.make_jobs(workload, SEED, side.examples) for side in sides]
    if [job.key for job in jobs[0]] != [job.key for job in jobs[1]]:
        raise ValueError(f"{workload}: the two checkouts' job lists differ")
    times = ([], [])  # per side, one list of job seconds per repetition
    wrong = []
    for rep in range(REPETITIONS):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for k in order:
            seconds, bad = sides[k].run_pass(jobs[k])
            times[k].append(seconds)
            wrong += bad
    n = len(jobs[0])
    medians = [[statistics.median(p[j] for p in side) for j in range(n)] for side in times]
    sums = [sum(m) for m in medians]
    tail = [sorted(m)[int(tail_share(n) * n)] for m in medians]
    won = sum(sum(c) < sum(p) for p, c in zip(*times))
    line = (f"{workload:12s} parent {sums[0]:.6f} s  change {sums[1]:.6f} s  "
            f"ratio {sums[1] / sums[0]:.3f}  tail {tail[0]:.6f} s / {tail[1]:.6f} s  "
            f"change won {won} of {REPETITIONS}")
    return line, wrong


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for var in ("SPW_MAX_WEIGHT", "SPW_MAX_LEN"):
        os.environ.pop(var, None)  # the jobs rely on the documented defaults
    sides = [Side(Path(root).resolve()) for root in argv]
    print(f"{REPETITIONS} repetitions, seed {SEED}, sums of job medians in wall seconds")
    failed = False
    for workload in WORKLOADS:
        try:
            line, wrong = pair_workload(workload, sides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(line, flush=True)
        for text in dict.fromkeys(wrong):
            print(f"  WRONG: {text}")
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") is None:
        # as perfbench/run.py: fixed string hashing, so set orders repeat
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
