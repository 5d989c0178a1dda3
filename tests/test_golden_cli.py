"""Golden CLI table: every documented `--json` invocation, in-process.

Each row of `golden_cli.json` is the exit code and the sha256 of stdout
and of stderr of one invocation: the manifest commands on every
`examples_dsl/` manifest (`invariants` with both kinds) and `operad` at
arities 2..4, n = 0..3.
A change that alters a report on purpose rewrites the table with
`PYTHONPATH=src python tests/test_golden_cli.py` and says which rows moved
and why.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

import pytest

from spw import freecdga, lieinfty, polyvec
from spw.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "examples_dsl")
TABLE = os.path.join(HERE, "golden_cli.json")

MANIFEST_COMMANDS = (
    "check-cdga", "check-mixed", "de-rham", "closed-forms", "check-poisson",
    "mc", "dualize", "strictify", "darboux", "ce", "lie-from-mixed",
    "invariants", "z-from-t", "koszul", "d-functor", "realize", "tate",
)
OPERADS = ("pn", "as", "lie", "bd1", "bd0", "arnold", "weyl")
ENV = ("SPW_MAX_WEIGHT", "SPW_MAX_LEN")


def invocations():
    out = []
    for manifest in sorted(os.listdir(DATA)):
        for cmd in MANIFEST_COMMANDS:
            kinds = (["--kind", "sym2"], ["--kind", "wedge3"]) if cmd == "invariants" else ([],)
            for kind in kinds:
                out.append([cmd, manifest, *kind, "--json"])
    for op in OPERADS:
        for arity in range(2, 5):
            for n in range(4):
                out.append(["operad", op, "--arity", str(arity), "--n", str(n), "--json"])
    return out


def run(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process
    invocation."""
    if argv[0] != "operad":
        argv = [argv[0], os.path.join(DATA, argv[1]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))]


@pytest.fixture(scope="module")
def table():
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_table_covers_every_invocation(table):
    assert sorted(table) == sorted(" ".join(a) for a in invocations())
    assert len(table) == 246


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_golden_cli(argv, table, monkeypatch):
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    assert run(argv) == table[" ".join(argv)]


@pytest.mark.parametrize("order", ("reversed", "shuffled"))
def test_golden_cli_under_another_closure_order(order, table, monkeypatch):
    # the window closure starts from `_box_words`' dict, in its order: with
    # that order reversed, or shuffled, no row moves
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    box_words = freecdga._box_words
    rng = random.Random(1)

    def reordered(*args, **kwargs):
        words = list(box_words(*args, **kwargs).items())
        if order == "reversed":
            words.reverse()
        else:
            rng.shuffle(words)
        return dict(words)

    for module in (freecdga, lieinfty, polyvec):
        monkeypatch.setattr(module, "_box_words", reordered)
    moved = [" ".join(argv) for argv in invocations() if run(argv) != table[" ".join(argv)]]
    assert moved == []


if __name__ == "__main__":
    for var in ENV:
        os.environ.pop(var, None)
    rows = {}
    for argv in invocations():
        try:
            rows[" ".join(argv)] = run(argv)
        except Exception as exc:  # a traceback row: recorded, never passes
            rows[" ".join(argv)] = [type(exc).__name__, None, None]
            print(f"{' '.join(argv)}: {exc!r}", file=sys.stderr)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")
