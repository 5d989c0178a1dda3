"""Time the start-up of spw, in-process CLI calls, the de Rham window
ladder, a closed-forms rung and the phi_pi rungs, one child process per
rung.

    python tools/ladder.py

The first line gives the wall seconds of `import spw.cli` in a fresh child
process, the median of 5 children; bytecode writing is left as the
environment sets it.

The second line gives the per-call microseconds of in-process
`spw.cli.main` with stdout captured, the median of 200 calls each, on
`operad pn --arity 3 --n 1 --json`, on
`de-rham examples_dsl/plane_poisson.spw --json` and on
`d-functor examples_dsl/koszul_square.spw --json` (the job that perfbench's
`derham_dims` job_tail_s reads), all in one child process with the
SPW_MAX_* variables unset.  The third line gives the same for
`operad pn|bd1|bd0|arnold|weyl --arity 4 --n 1 --json`, in one more child.

A rung (ke, ko, L) is the de Rham algebra of the free algebra on ke even
generators of degree 0 and ko odd ones of degree 1, in the window
wmin = 0, wmax = dmax = max_len = L, dmin = -L. Its child builds the window
(`graded_mixed_window`), then the total complex with its d^2 check
(`weight_window_total_complex`) and its `homology_dims`, and reports the
seconds of each of these three stages and end to end (algebra to
dimensions), the window's monomial count and its own peak RSS. The rungs are
(3, 3, 6), (4, 4, 6), (5, 5, 6), (6, 6, 6) and (4, 4, 8).

The closed-forms rung (ke, ko, p, n, wmax, L) runs `closed_form_classes`
on the same free algebra, p-forms of degree n in weights p..wmax with word
length L, then `check_cocycle(wmax)` on every tower, as `spw closed-forms`
does, in its own child. It reports the window's word count, the seconds
spent in the window closure (`_closure`), in assembly (the window's one
`_mixed_complex` and total complex, and each fibre's `_column`), in the
rest of `closed_form_classes` (homology: elimination, representatives and
the fibres' ranks), in the cocycle checks, end to end, and its peak RSS.
The rung is (4, 2, 2, 0, 6, 6).

A phi_pi rung (k, L) runs `compare.phi_pi` on the Darboux structure
pi = sum_i @x_i @y_i over 2k generators x_i, y_i of degree 0, with n = 0, in
the window (0, L, -L, L, L), in its own child. It reports the window's word
count (the sum of the block dimensions), the seconds end to end (base to
result) and its peak RSS. The rungs are (3, 6) and (4, 6).

Each rung's line also gives its end-to-end time in reference seconds:
perfbench's Fraction probe (`perfbench/run.py`, `fraction_loop` of
PROBE_STEPS steps) is read just before and just after the rung's child, as
the median of PROBE_RUNS probes each, and once every PROBE_PERIOD_S while
the child runs, from a thread of this process, and
ref_s = seconds / median reading * PROBE_REF_S, as perfbench reports job
times, so that rungs timed on hosts of different speed can be compared.
The median, not the mean: on a 2-vCPU host, a lone probe in this process,
idle while its child ran, read from 1.4 to 6.4 ms where the median of eight
read 1.7 ms. Next to
ref_s, `drift` is the median of the later half of the readings over that
of the earlier half (the probe after the child over the one before it
when the child ran too briefly to be sampled): the host's speed moved
while the rung ran when it is far from 1, and ref_s is then uncertain.

The import line fails when one of its children fails, the cli.main and
operad lines when their child fails or a call exits nonzero. A rung fails when
its child fails, or when its dimensions differ from
`perfbench/oracles.de_rham_dims` or break the Poincare lemma
(`poincare_violations`); the closed-forms rung fails when its classes,
stage or fibre dimensions differ from `perfbench/oracles.closed_form_tables`,
or when a tower is not a cocycle; a phi_pi rung fails unless the
chain-map identities hold, every bidegree block has full rank and the
block dimensions sum to the window's word count,
sum_j C(2k, j) C(2k + L - j, L - j) (the words with j letters d<g>).
The exit code is 1 if any line or rung fails. Standard library only.
"""

import json
import os
import subprocess
import sys
import threading
from math import comb
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from oracles import closed_form_tables, de_rham_dims, poincare_violations  # noqa: E402
from run import PROBE_REF_S, PROBE_STEPS, fraction_loop  # noqa: E402

RUNGS = ((3, 3, 6), (4, 4, 6), (5, 5, 6), (6, 6, 6), (4, 4, 8))
CLOSED_FORMS_RUNG = (4, 2, 2, 0, 6, 6)
PHI_PI_RUNGS = ((3, 6), (4, 6))
PROBE_RUNS = 5
PROBE_PERIOD_S = 0.25
IMPORT_RUNS = 5
IMPORT_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import spw.cli\n"
    "print(time.perf_counter() - start)\n"
)
CLI_CALLS = 200
CLI_ARGV = (["operad", "pn", "--arity", "3", "--n", "1", "--json"],
            ["de-rham", "examples_dsl/plane_poisson.spw", "--json"],
            ["d-functor", "examples_dsl/koszul_square.spw", "--json"])
OPERAD_ARGV = tuple(["operad", op, "--arity", "4", "--n", "1", "--json"]
                    for op in ("pn", "bd1", "bd0", "arnold", "weyl"))
CLI_CHILD = (
    "import contextlib, io, json, os, sys, time\n"
    "from spw.cli import main\n"
    "for var in ('SPW_MAX_WEIGHT', 'SPW_MAX_LEN'):\n"
    "    os.environ.pop(var, None)\n"
    "calls = int(sys.argv[1])\n"
    "medians = []\n"
    "for argv in json.loads(sys.argv[2]):\n"
    "    times = []\n"
    "    for _ in range(calls):\n"
    "        with contextlib.redirect_stdout(io.StringIO()):\n"
    "            t = time.perf_counter()\n"
    "            code = main(argv)\n"
    "            times.append(time.perf_counter() - t)\n"
    "            if code:\n"
    "                sys.exit(f'exit {code}: {argv}')\n"
    "    medians.append(sorted(times)[calls // 2] * 1e6)\n"
    "print(json.dumps(medians))\n"
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

CLOSED_FORMS_CHILD = (
    "import json, resource, sys, time\n"
    "from spw import freecdga, gradedmixed\n"
    "ke, ko, p, n, wmax, size = map(int, sys.argv[1:])\n"
    "gens = [(f'x{i}', 0) for i in range(ke)] + [(f't{i}', 1) for i in range(ko)]\n"
    "spent = {'closure': 0.0, 'assembly': 0.0}\n"
    "words = []\n"
    "def timed(module, name, stage):\n"
    "    call = getattr(module, name)\n"
    "    def wrapper(*args, **kwargs):\n"
    "        t = time.perf_counter()\n"
    "        out = call(*args, **kwargs)\n"
    "        spent[stage] += time.perf_counter() - t\n"
    "        if name == '_closure':\n"
    "            words.append(len(out[0]))\n"
    "        return out\n"
    "    setattr(module, name, wrapper)\n"
    "timed(freecdga, '_closure', 'closure')\n"
    "for module, name in ((freecdga, '_column'), (freecdga, '_mixed_complex'),\n"
    "                     (freecdga, 'weight_window_total_complex'),\n"
    "                     (gradedmixed, 'weight_window_total_complex')):\n"
    "    timed(module, name, 'assembly')\n"
    "start = time.perf_counter()\n"
    "rep = freecdga.closed_form_classes(freecdga.FreeCDGA(gens), p, n, wmax, max_len=size)\n"
    "t = time.perf_counter()\n"
    "cocycles = all(tower.check_cocycle(wmax) for tower in rep.representatives)\n"
    "cocycle = time.perf_counter() - t\n"
    "total = time.perf_counter() - start\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
    "homology = total - spent['closure'] - spent['assembly'] - cocycle\n"
    "print(json.dumps([sum(words), spent['closure'], spent['assembly'], homology, cocycle, total, rss,\n"
    "                  cocycles, rep.dimension, sorted(rep.stage_dims.items()),\n"
    "                  sorted(rep.fiber_dims.items())]))\n"
)
PHI_PI_CHILD = (
    "import json, resource, sys, time\n"
    "from spw.compare import phi_pi\n"
    "from spw.freecdga import FreeCDGA, Window\n"
    "from spw.polyvec import PolyvectorAlgebra\n"
    "k, size = map(int, sys.argv[1:])\n"
    "start = time.perf_counter()\n"
    "base = FreeCDGA([(f'x{i}', 0) for i in range(k)] + [(f'y{i}', 0) for i in range(k)])\n"
    "pol = PolyvectorAlgebra(base, 1)\n"
    "pi = pol.algebra.zero()\n"
    "for i in range(k):\n"
    "    pi = pi + pol.theta(f'x{i}') * pol.theta(f'y{i}')\n"
    "res = phi_pi(base, pi, 0, Window(0, size, -size, size, size))\n"
    "total = time.perf_counter() - start\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
    "words = sum(dim for dim, _ in res.iso_blocks.values())\n"
    "print(json.dumps([words, total, rss, res.chain_map_ok, res.bidegree_iso]))\n"
)


def probe():
    """Seconds of perfbench's Fraction probe: the median of PROBE_RUNS runs."""
    return sorted(fraction_loop(PROBE_STEPS) for _ in range(PROBE_RUNS))[PROBE_RUNS // 2]


def run_child(code, *args):
    """(the finished child process running `code` on this checkout's spw,
    the median of the probe readings, the later half's median over the
    earlier half's).  The readings are `probe()` just before and just after
    the child and one probe every PROBE_PERIOD_S while it runs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    readings = [probe()]
    done = threading.Event()

    def sample():
        while not done.wait(PROBE_PERIOD_S):
            readings.append(fraction_loop(PROBE_STEPS))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        done.set()
        sampler.join()
    readings.append(probe())
    half = len(readings) // 2
    return proc, median(readings), median(readings[-half:]) / median(readings[:half])


def import_line():
    """(report line, passed) of the median wall seconds of `import spw.cli`."""
    times = []
    for _ in range(IMPORT_RUNS):
        proc, _, _ = run_child(IMPORT_CHILD)
        if proc.returncode:
            return f"import spw.cli  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
        times.append(float(proc.stdout))
    return f"import spw.cli  {sorted(times)[IMPORT_RUNS // 2]:.4f} s  (median of {IMPORT_RUNS} processes)", True


def _cli_calls(head, argvs, name):
    """(report line, passed) of the median microseconds per in-process
    `cli.main` call on each of argvs, shown as argv[name]."""
    proc, _, _ = run_child(CLI_CHILD, str(CLI_CALLS), json.dumps(argvs))
    if proc.returncode:
        return f"{head}  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
    cells = "  ".join(f"{argv[name]} {us:.1f} us" for argv, us in zip(argvs, json.loads(proc.stdout)))
    return f"{head}  {cells}  (median of {CLI_CALLS} calls each, one process)", True


def cli_line():
    """(report line, passed) for each of CLI_ARGV."""
    return _cli_calls("cli.main", CLI_ARGV, 0)


def operad_line():
    """(report line, passed) for each of OPERAD_ARGV, named by its operad."""
    return _cli_calls("operad --arity 4 --n 1", OPERAD_ARGV, 1)


def run_rung(ke, ko, size):
    """(report line, passed) of one rung run in its own process."""
    proc, probe_s, drift = run_child(CHILD, str(ke), str(ko), str(size))
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
            f"  {total:8.3f}  {total / probe_s * PROBE_REF_S:8.3f}  {drift:5.2f}  {rss:7.1f}  {verdict}")
    return line, verdict == "ok"


def run_closed_forms_rung(ke, ko, p, n, wmax, size):
    """(report line, passed) of the closed-forms rung run in its own process."""
    proc, probe_s, drift = run_child(CLOSED_FORMS_CHILD, *map(str, (ke, ko, p, n, wmax, size)))
    rung = f"cf({ke}, {ko}, {p}, {n}, {wmax}, {size})"
    if proc.returncode:
        return f"{rung:>22}  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
    words, closure, assembly, homology, cocycle, total, rss, cocycles, classes, stages, fibers = (
        json.loads(proc.stdout))
    got = (classes, dict(stages), dict(fibers))
    want = closed_form_tables([(0, 0)] * ke + [(1, 0)] * ko, wmax, size, p, n)
    verdict = "ok"
    if got != want:
        verdict = f"FAIL: classes, stages, fibres {got} != {want}"
    elif not cocycles:
        verdict = "FAIL: a tower is not a cocycle"
    line = (f"{rung:>22}  {words:9d}  {closure:9.3f}  {assembly:10.3f}  {homology:10.3f}"
            f"  {cocycle:9.3f}  {total:8.3f}  {total / probe_s * PROBE_REF_S:8.3f}  {drift:5.2f}  {rss:7.1f}"
            f"  {verdict}")
    return line, verdict == "ok"


def run_phi_pi_rung(k, size):
    """(report line, passed) of one phi_pi rung run in its own process."""
    proc, probe_s, drift = run_child(PHI_PI_CHILD, str(k), str(size))
    rung = f"phi({k}, {size})"
    if proc.returncode:
        return f"{rung:>12}  FAIL: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
    words, total, rss, chain_map_ok, bidegree_iso = json.loads(proc.stdout)
    # a word has j of the 2k odd letters d<g> and L - j or fewer even ones
    want = sum(comb(2 * k, j) * comb(2 * k + size - j, size - j) for j in range(min(2 * k, size) + 1))
    verdict = "ok"
    if not chain_map_ok:
        verdict = "FAIL: phi_pi is not a chain map"
    elif not bidegree_iso:
        verdict = "FAIL: a bidegree block is not an isomorphism"
    elif words != want:
        verdict = f"FAIL: block dims sum to {words}, the window has {want} words"
    line = (f"{rung:>12}  {words:9d}  {total:8.3f}  {total / probe_s * PROBE_REF_S:8.3f}  {drift:5.2f}"
            f"  {rss:7.1f}  {verdict}")
    return line, verdict == "ok"


def main():
    line, passed = import_line()
    print(line, flush=True)
    for timed in (cli_line, operad_line):
        line, ok = timed()
        print(line, flush=True)
        passed &= ok
    print(f"{'rung':>12}  {'monomials':>9}  {'window_s':>8}  {'assembly_s':>10}  {'homology_s':>10}"
          f"  {'total_s':>8}  {'ref_s':>8}  {'drift':>5}  {'rss_mb':>7}  dims")
    for rung in RUNGS:
        line, ok = run_rung(*rung)
        print(line, flush=True)
        passed &= ok
    print(f"{'closed-forms rung':>22}  {'words':>9}  {'closure_s':>9}  {'assembly_s':>10}"
          f"  {'homology_s':>10}  {'cocycle_s':>9}  {'total_s':>8}  {'ref_s':>8}  {'drift':>5}  {'rss_mb':>7}"
          "  classes")
    line, ok = run_closed_forms_rung(*CLOSED_FORMS_RUNG)
    print(line, flush=True)
    passed &= ok
    print(f"{'phi_pi rung':>12}  {'words':>9}  {'total_s':>8}  {'ref_s':>8}  {'drift':>5}  {'rss_mb':>7}"
          "  identities")
    for rung in PHI_PI_RUNGS:
        line, ok = run_phi_pi_rung(*rung)
        print(line, flush=True)
        passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
