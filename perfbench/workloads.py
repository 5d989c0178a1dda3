"""Seeded job lists for the three workloads, how to run a job, and how to
check its answer against `oracles`.

A job list is one pass.  The seed picks generator names, the invariant
kind and the job order; the multiset of job shapes is fixed, so every seed
asks for the same amount of work and differs only in its inputs.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import oracles

WORKLOADS = ("derham_dims", "closed_forms", "cli_small")

# Single-letter generator names after "d": they parse as DSL identifiers,
# the de Rham symbol d<name> cannot collide with a generator, and drawing
# them in sorted order keeps every string comparison of basis labels the
# same.  The elimination order, and so the work, then does not depend on
# the seed.
_NAMES = "efghkmnpqrsuvwxyz"

# (degree, weight) of the generators of the example algebras, written out
# here so the oracle does not depend on the program's manifest parser.
EXAMPLE_ALGEBRAS = {
    "ce_sl2": [(1, 1)] * 3,
    "cotangent": [(0, 0), (1, 0)],
    "jacobi_failure": [(0, 0)] * 3,
    "koszul_line": [(0, 0)],
    "koszul_square": [(0, 0)],
    "plane_poisson": [(0, 0)] * 2,
}

# Every example manifest with the commands that apply to it; `closed-forms`,
# `d-functor` and `koszul` run in the other workloads.
EXAMPLE_COMMANDS = {
    "ce_sl2": ["check-cdga", "check-mixed", "de-rham", "lie-from-mixed"],
    "cell": ["check-mixed", "realize", "tate"],
    "cotangent": ["check-cdga", "check-mixed", "de-rham", "check-poisson", "mc",
                  "dualize", "darboux", "strictify"],
    "jacobi_failure": ["check-cdga", "check-mixed", "de-rham", "check-poisson", "mc",
                       "dualize", "darboux"],
    "koszul_line": ["check-cdga", "check-mixed", "de-rham"],
    "koszul_square": ["check-cdga", "check-mixed", "de-rham"],
    "negative_weight": ["check-mixed", "realize", "tate"],
    "plane_poisson": ["check-cdga", "check-mixed", "de-rham", "check-poisson", "mc",
                      "dualize", "darboux"],
    "sl2": ["ce", "invariants", "z-from-t"],
}
OPERADS = ("pn", "as", "lie", "bd1", "bd0", "arnold", "weyl")

# Seed defects kept in the job lists and counted as failures: `operad weyl`
# fails its pairing check for odd n, and `darboux` on the Jacobi-failure
# manifest raises ValueError instead of exiting 1.  They do not make a
# run incorrect; any other failure does.
KNOWN_DEFECTS = {
    ("operad", "weyl", 2, 1), ("operad", "weyl", 3, 1), ("operad", "weyl", 4, 1),
    ("operad", "weyl", 2, 3), ("operad", "weyl", 3, 3), ("operad", "weyl", 4, 3),
    ("darboux", "jacobi_failure"),
}

# derham_dims: (even generators, odd generators, window size L).  Three
# copies of the costliest shape keep at least eleven of them in every run,
# so job_tail_s always lands on the same shape.
DERHAM_POINTS = [(1, 3, 4)] * 3 + [
    (2, 1, 4), (1, 2, 4), (2, 2, 3), (3, 1, 3), (2, 1, 5), (1, 2, 5), (3, 0, 5), (1, 1, 5),
]

# closed_forms windows (--max-weight, --max-len).  The k = 3 algebras run
# at (4, 5) and (4, 4); the cheap algebras cover all three windows.
CF_WINDOWS = ((4, 4), (4, 5), (5, 5))


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so no handler in the
    program under test can swallow it."""


@dataclass
class Job:
    key: tuple            # identifies the job shape, stable across seeds
    label: str            # human-readable description with the seeded inputs
    argv: list = None     # CLI jobs: arguments for spw.cli.main
    stdin: str = ""       # CLI jobs: manifest text fed on stdin
    gens: list = None     # library jobs: [(name, degree)]
    size: int = 0         # library jobs: window size L
    expect: dict = field(default_factory=dict)

    @property
    def known_defect(self):
        return self.key in KNOWN_DEFECTS


@dataclass
class Outcome:
    seconds: float
    answer: object = None     # homology dims, or the CLI's stdout
    exit_code: int = None
    stderr: str = ""
    error: str = None         # exception or timeout
    failure: str = None       # why the job failed, None if it passed
    probe_s: float = None     # mean of the probes run just before and after it


def _mixed_gens(rng, k_even, k_odd):
    """Even generators (degree 0) first, then odd ones (degree 1)."""
    names = sorted(rng.sample(_NAMES, k_even + k_odd))
    return list(zip(names, [0] * k_even + [1] * k_odd))


def _manifest(name, gens):
    body = ", ".join(f"{n}({d})" for n, d in gens)
    return f"algebra {name} {{\n  gens = {body};\n}}\n"


def make_jobs(workload, seed, examples_dir):
    rng = random.Random(f"{workload}:{seed}")
    ex = lambda name: str(examples_dir / f"{name}.spw")  # noqa: E731
    jobs = []
    if workload == "derham_dims":
        for ke, ko, size in DERHAM_POINTS:
            gens = _mixed_gens(rng, ke, ko)
            jobs.append(Job(("derham", ke, ko, size), f"de_rham {gens} L={size}",
                            gens=gens, size=size))
        for name, power in (("koszul_line", 1), ("koszul_square", 2)):
            for cmd in ("koszul", "d-functor"):
                argv = [cmd, ex(name), "--json"]  # default window: weight 6, length 6
                jobs.append(Job((cmd, name), " ".join(argv), argv=argv,
                                expect={"power": power, "wmax": 6}))
    elif workload == "closed_forms":
        shapes = [(3, 0, w) for w in ((4, 5), (4, 4))] + [(3, 1, w) for w in ((4, 5), (4, 4))]
        shapes += [(2, ko, w) for ko in (0, 1) for w in CF_WINDOWS] + [(1, 1, (5, 5))]
        for ke, ko, (wmax, max_len) in shapes:
            gens = _mixed_gens(rng, ke, ko)
            argv = ["closed-forms", "--json", "--max-weight", str(wmax), "--max-len", str(max_len)]
            degs = [(d, 0) for _, d in gens]
            jobs.append(Job(("closed-forms", ke, ko, wmax, max_len),
                            f"{' '.join(argv)} < {gens}", argv=argv,
                            stdin=_manifest(rng.choice("ABCEFG"), gens),
                            expect={"gens": degs, "wmax": wmax, "max_len": max_len,
                                    "polynomial_k": ke if ko == 0 else None}))
        example_windows = {"jacobi_failure": (4, 5), "ce_sl2": (5, 5), "cotangent": (4, 5),
                           "koszul_line": (4, 4), "koszul_square": (5, 5),
                           "plane_poisson": (4, 5)}
        for name, (wmax, max_len) in example_windows.items():
            argv = ["closed-forms", ex(name), "--json", "--max-weight", str(wmax),
                    "--max-len", str(max_len)]
            poly = len(EXAMPLE_ALGEBRAS[name]) if all(
                g == (0, 0) for g in EXAMPLE_ALGEBRAS[name]) else None
            jobs.append(Job(("closed-forms", name, wmax, max_len), " ".join(argv), argv=argv,
                            expect={"gens": EXAMPLE_ALGEBRAS[name], "wmax": wmax,
                                    "max_len": max_len, "polynomial_k": poly}))
    elif workload == "cli_small":
        for name, cmds in EXAMPLE_COMMANDS.items():
            for cmd in cmds:
                argv = [cmd, ex(name), "--json"]
                if cmd == "invariants":
                    argv += ["--kind", rng.choice(("sym2", "wedge3"))]
                jobs.append(Job((cmd, name), " ".join(argv), argv=argv,
                                expect={"exit": oracles.EXPECTED_EXIT.get((name, cmd), 0)}))
        for op in OPERADS:
            for arity in (2, 3, 4):
                for n in range(4):
                    argv = ["operad", op, "--arity", str(arity), "--n", str(n), "--json"]
                    jobs.append(Job(("operad", op, arity, n), " ".join(argv), argv=argv,
                                    expect={"exit": 0}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- running -------------------------------------------------------------------


def run_cli(spw, argv, stdin_text):
    """spw.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = spw["cli"].main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_de_rham(spw, gens, size):
    """de_rham -> graded_mixed_window -> weight_window_total_complex -> dims."""
    fc = spw["freecdga"]
    alg = fc.FreeCDGA([fc.Generator(name, degree) for name, degree in gens])
    dr = fc.de_rham(alg)
    window = fc.Window(wmin=0, wmax=size, dmin=-size, dmax=size, max_len=size)
    cx, _ = fc.graded_mixed_window(dr.algebra, window)
    total = spw["gradedmixed"].weight_window_total_complex(cx, 0, size)
    return total.homology_dims()


def run_job(spw, job, clock):
    """Run one job; exceptions in the program become a recorded error."""
    start = clock()
    try:
        if job.argv is None:
            dims = run_de_rham(spw, job.gens, job.size)
            return Outcome(clock() - start, answer=dims)
        code, out, err = run_cli(spw, job.argv, job.stdin)
        return Outcome(clock() - start, answer=out, exit_code=code, stderr=err)
    except JobTimeout:
        return Outcome(clock() - start, error="timeout")
    except Exception as exc:  # the program under test failed; keep running
        return Outcome(clock() - start, error=f"{type(exc).__name__}: {exc}")


# -- checking ------------------------------------------------------------------


def check(job, outcome):
    """Return None if the answer is right, else the reason it is wrong."""
    if outcome.error is not None:
        return outcome.error
    if job.argv is None:
        dims = outcome.answer
        gens = [(d, 0) for _, d in job.gens]
        bad = oracles.poincare_violations(dims, job.size)
        if bad:
            return f"Poincare lemma fails in degrees {bad}: {dims}"
        want = oracles.de_rham_dims(gens, job.size)
        return None if dims == want else f"window dims {dims} != {want}"
    if "Traceback" in outcome.stderr:
        return "traceback on stderr"
    want_exit = job.expect.get("exit", 0)
    if outcome.exit_code != want_exit:
        return f"exit {outcome.exit_code}, expected {want_exit}: {outcome.stderr.strip()[:200]}"
    try:
        report = json.loads(outcome.answer)
    except ValueError:
        # a check that raises reports on stderr instead of in the JSON
        if want_exit != 0 and outcome.stderr.strip():
            return None
        return f"exit {outcome.exit_code} without a JSON report"
    statuses = [v["status"] for v in report["verdicts"]]
    tables = report["tables"]
    cmd = job.key[0]
    if want_exit == 0 and any(s != "pass" for s in statuses):
        return f"exit 0 with verdicts {statuses}"
    if want_exit == 1 and "fail" not in statuses:
        return "exit 1 without a failing verdict"
    if want_exit == 3 and "inconclusive" not in statuses:
        return "exit 3 without an inconclusive verdict"
    if cmd == "closed-forms":
        return _check_closed_forms(job.expect, tables)
    if cmd == "koszul":
        want = {str(k): v for k, v in oracles.koszul_quotient_dims(job.expect["power"]).items()}
        got = tables["homotopy dims"]
        return None if got == want else f"homotopy dims {got} != {want}"
    if cmd == "d-functor":
        power, wmax = job.expect["power"], job.expect["wmax"]
        w0 = tables["weight-0 homology"]
        if w0 != {"-2": 0, "-1": 0, "0": power}:
            return f"weight-0 homology {w0}"
        h0 = tables["realization H0 convergence"]
        # the top weight is a window artifact and is not checked
        for w in range(wmax):
            if h0.get(str(w)) != oracles.completion_h0(power, w):
                return f"realization H0 {h0} at weight {w}"
        return None
    if cmd == "operad":
        return _check_operad(job.key, tables)
    return None


def _check_closed_forms(expect, tables):
    classes, stages, fibers = oracles.closed_form_tables(
        expect["gens"], expect["wmax"], expect["max_len"])
    got = tables["dimension"]["classes"]
    if got != classes:
        return f"classes {got} != {classes}"
    k = expect["polynomial_k"]
    if k is not None and got != oracles.polynomial_closed_two_forms(k, expect["max_len"]):
        return f"classes {got} != Poincare count for k={k}"
    if tables["hodge stages"] != {str(m): v for m, v in stages.items()}:
        return f"hodge stages {tables['hodge stages']} != {stages}"
    if tables["fiber dims"] != {str(m): v for m, v in fibers.items()}:
        return f"fiber dims {tables['fiber dims']} != {fibers}"
    return None


def _check_operad(key, tables):
    _, op, arity, n = key
    if op in ("pn", "as", "lie", "bd1"):
        got = next(iter(tables["dimension"].values()))
        want = oracles.operad_dimension(op, arity)
        if got != want:
            return f"dimension {got} != {want}"
        dist = tables.get("weight distribution")
        if dist is not None and sum(dist.values()) != want:
            return f"weight distribution {dist} does not sum to {want}"
    if op == "arnold":
        want = {str(d): c for d, c in oracles.arnold_hilbert_series(n, arity).items()}
        if tables["hilbert series"] != want:
            return f"hilbert series {tables['hilbert series']} != {want}"
    return None
