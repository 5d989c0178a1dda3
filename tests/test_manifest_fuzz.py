"""Seeded token- and value-level mutants of every example manifest, run
in-process through `spw.cli.main` with small windows (the window options
each command reads), each under a time limit.  Whatever the mutant, spw
answers with an exit code of the contract (0, 1, 2 or 3), never with a
traceback, and within the limit.

Numbers are drawn small, except after `^`: a manifest's sizes (a Lie
algebra's dim, generator degrees and weights) are work the user asks for,
like the window options, while an exponent is bounded by the DSL, and is
drawn far beyond that bound."""

import contextlib
import io
import os
import random

from helpers import CaseTimeout, time_limit
from spw import cli, dsl
from spw.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "examples_dsl")

# the commands that read each example's blocks
COMMANDS = {
    "ce_sl2": ("check-cdga", "check-mixed", "de-rham", "closed-forms", "lie-from-mixed"),
    "cell": ("check-mixed", "realize", "tate"),
    "cotangent": ("check-poisson", "mc", "dualize", "darboux", "strictify", "closed-forms"),
    "jacobi_failure": ("check-cdga", "check-poisson", "mc", "dualize", "darboux"),
    "koszul_line": ("check-cdga", "koszul", "d-functor"),
    "koszul_square": ("check-cdga", "koszul", "d-functor"),
    "negative_weight": ("check-mixed", "realize", "tate"),
    "plane_poisson": ("check-poisson", "mc", "dualize", "darboux", "de-rham"),
    "sl2": ("ce", "invariants", "z-from-t"),
}
NUMBERS = ("0", "1", "2", "3", "-1", "1/2", "-2/3")
EXPONENTS = ("0", "3", "64", "65", "100000", "12345678901234567890")
WORDS = (
    "gens", "base", "d", "eps", "dim", "bracket", "on", "shift", "degree", "basis",
    "p0", "p1", "p2", "w1", "w2", "w02", "foo", "algebra", "lie", "poisson", "form",
    "ideal", "complex", "options", "x", "e1", "e4",
)
PUNCT = tuple("{}()[]=;,*+-^@/")
MUTANTS_PER_MANIFEST = 80
LIMIT_S = 5.0


def mutate(rng, texts):
    """One token- or value-level change to a token list."""
    texts = list(texts)
    i = rng.randrange(len(texts))
    op = rng.choice(("delete", "repeat", "swap", "token", "value", "value", "value"))
    if op == "delete":
        del texts[i]
    elif op == "repeat":
        texts.insert(i, texts[i])
    elif op == "swap" and i + 1 < len(texts):
        texts[i], texts[i + 1] = texts[i + 1], texts[i]
    elif op == "token":
        texts[i] = rng.choice(PUNCT + WORDS)
    else:  # a value of the same kind: a number, or a name
        numbers = [j for j, t in enumerate(texts) if t[0].isdigit()]
        names = [j for j, t in enumerate(texts) if t[0].isalpha()]
        if rng.random() < 0.6 and numbers:
            j = rng.choice(numbers)
            texts[j] = rng.choice(EXPONENTS if j and texts[j - 1] == "^" else NUMBERS)
        else:
            texts[rng.choice(names)] = rng.choice(WORDS + tuple(texts[j] for j in names))
    return texts


def mutants():
    rng = random.Random(2015)
    cases = []
    for name, commands in COMMANDS.items():
        with open(os.path.join(DATA, f"{name}.spw"), encoding="utf-8") as fh:
            texts = [t.text for t in dsl.tokenize(fh.read())[:-1]]
        for k in range(MUTANTS_PER_MANIFEST):
            mutant = mutate(rng, texts)
            if rng.random() < 0.3:
                mutant = mutate(rng, mutant)
            command = rng.choice(commands)
            extra = ["--kind", rng.choice(("sym2", "wedge3"))] if command == "invariants" else []
            cases.append((f"{name}-{k}-{command}", command, extra, " ".join(mutant)))
    return cases


def run_case(command, extra, source, stdin):
    """(exit code or "timeout", stderr) of one in-process run."""
    err = io.StringIO()
    stdin.seek(0)
    stdin.truncate()
    stdin.write(source)
    stdin.seek(0)
    argv = [command, *extra, "--json"]
    for dest, value in (("max_weight", "2"), ("max_len", "3")):
        if dest in cli.COMMANDS[command].limits:
            argv += ["--" + dest.replace("_", "-"), value]
    try:
        with (
            time_limit(LIMIT_S),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            code = main(argv)
    except CaseTimeout:
        code = "timeout"
    return code, err.getvalue()


def test_mutated_manifests_keep_the_exit_code_contract(monkeypatch):
    for var in ("SPW_MAX_WEIGHT", "SPW_MAX_LEN"):
        monkeypatch.delenv(var, raising=False)
    stdin = io.StringIO()
    monkeypatch.setattr("sys.stdin", stdin)
    faults = []
    for case, command, extra, source in mutants():
        code, err = run_case(command, extra, source, stdin)
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            faults.append((case, code, err.strip()[-200:], source))
    assert not faults, faults[:5]
