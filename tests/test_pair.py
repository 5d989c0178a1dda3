"""`tools/pair.py` runs every perfbench workload on two checkouts in one
process, checks every answer and compares the sums of job medians."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# pair.py takes no flags: the repetitions are set on the module
CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pair\n"
    "pair.REPETITIONS = 2\n"
    "sys.exit(pair.main(sys.argv[2:]))\n"
)


def test_pair_runs_the_repo_against_itself():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "tools"), ROOT, ROOT],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "2 repetitions, seed 1, sums of job medians in wall seconds"
    pattern = (r"(\S+) +parent (\S+) s  change (\S+) s  ratio (\S+)  "
               r"tail (\S+) s / (\S+) s  change won ([012]) of 2")
    rows = [re.fullmatch(pattern, line) for line in lines[1:]]
    assert all(rows), lines
    assert [row[1] for row in rows] == ["derham_dims", "closed_forms", "cli_small"]
    for row in rows:
        parent, change, ratio = float(row[2]), float(row[3]), float(row[4])
        assert parent > 0 and change > 0 and abs(ratio - change / parent) < 0.001
        assert 0 < float(row[5]) <= parent and 0 < float(row[6]) <= change
