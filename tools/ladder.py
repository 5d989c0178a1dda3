"""Time the start-up of spw and the de Rham window ladder, one child
process per rung.

    python tools/ladder.py

The first line gives the wall seconds of `import spw.cli` in a fresh child
process, the median of 5 children; bytecode writing is left as the
environment sets it.

A rung (ke, ko, L) is the de Rham algebra of the free algebra on ke even
generators of degree 0 and ko odd ones of degree 1, in the window
wmin = 0, wmax = dmax = max_len = L, dmin = -L. Its child builds the window
(`graded_mixed_window`), then the total complex with its d^2 check
(`weight_window_total_complex`) and its `homology_dims`, and reports the
seconds of each of these three stages and end to end (algebra to
dimensions), the window's monomial count and its own peak RSS. The rungs are
(3, 3, 6), (4, 4, 6), (5, 5, 6), (6, 6, 6) and (4, 4, 8).

The import line fails when one of its children fails. A rung fails when
its child fails, or when its dimensions differ from
`perfbench/oracles.de_rham_dims` or break the Poincare lemma
(`poincare_violations`); the exit code is 1 if the import or any rung
fails. Standard library only.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from oracles import de_rham_dims, poincare_violations  # noqa: E402

RUNGS = ((3, 3, 6), (4, 4, 6), (5, 5, 6), (6, 6, 6), (4, 4, 8))
IMPORT_RUNS = 5
IMPORT_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import spw.cli\n"
    "print(time.perf_counter() - start)\n"
)
CHILD = (
    "import json, resource, sys, time\n"
    "from spw.freecdga import FreeCDGA, Window, de_rham, graded_mixed_window\n"
    "from spw.gradedmixed import weight_window_total_complex\n"
    "ke, ko, size = map(int, sys.argv[1:])\n"
    "gens = [(f'x{i}', 0) for i in range(ke)] + [(f't{i}', 1) for i in range(ko)]\n"
    "start = time.perf_counter()\n"
    "alg = de_rham(FreeCDGA(gens)).algebra\n"
    "t0 = time.perf_counter()\n"
    "cx, inside = graded_mixed_window(alg, Window(0, size, -size, size, size))\n"
    "t1 = time.perf_counter()\n"
    "total_complex = weight_window_total_complex(cx, 0, size)\n"
    "t2 = time.perf_counter()\n"
    "dims = total_complex.homology_dims()\n"
    "t3 = time.perf_counter()\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
    "print(json.dumps([len(inside), t1 - t0, t2 - t1, t3 - t2, t3 - start, rss,\n"
    "                  sorted(dims.items())]))\n"
)


def run_child(code, *args):
    """The finished child process running `code` on this checkout's spw."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-c", code, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def import_line():
    """(report line, passed) of the median wall seconds of `import spw.cli`."""
    times = []
    for _ in range(IMPORT_RUNS):
        proc = run_child(IMPORT_CHILD)
        if proc.returncode:
            return f"import spw.cli  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
        times.append(float(proc.stdout))
    return f"import spw.cli  {sorted(times)[IMPORT_RUNS // 2]:.4f} s  (median of {IMPORT_RUNS} processes)", True


def run_rung(ke, ko, size):
    """(report line, passed) of one rung run in its own process."""
    proc = run_child(CHILD, str(ke), str(ko), str(size))
    rung = f"({ke}, {ko}, {size})"
    if proc.returncode:
        return f"{rung:>12}  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
    monomials, window, assembly, homology, total, rss, dims = json.loads(proc.stdout)
    dims = dict(dims)
    want = de_rham_dims([(0, 0)] * ke + [(1, 0)] * ko, size)
    bad = poincare_violations(dims, size)
    verdict = "ok"
    if bad:
        verdict = f"FAIL: Poincare lemma fails in degrees {bad}: {dims}"
    elif dims != want:
        verdict = f"FAIL: window dims {dims} != {want}"
    line = (f"{rung:>12}  {monomials:9d}  {window:8.3f}  {assembly:10.3f}  {homology:10.3f}"
            f"  {total:8.3f}  {rss:7.1f}  {verdict}")
    return line, verdict == "ok"


def main():
    line, passed = import_line()
    print(line, flush=True)
    print(f"{'rung':>12}  {'monomials':>9}  {'window_s':>8}  {'assembly_s':>10}  {'homology_s':>10}"
          f"  {'total_s':>8}  {'rss_mb':>7}  dims")
    for rung in RUNGS:
        line, ok = run_rung(*rung)
        print(line, flush=True)
        passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
