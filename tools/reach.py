"""List the `src/spw` functions and methods that neither the golden CLI
table nor the acceptance gate calls, each with its line count.

    python tools/reach.py

A child process runs `tests/test_golden_cli.py` and
`tests/test_acceptance.py` under cProfile. Each module-level function and
each method (nested classes included, nested functions counted inside
their parent) that no profile entry names is printed as
`lines  module:qualname`, longest first, then the totals, and last the
line count of `src/spw`. The exit code is the test run's. Standard
library only; the child imports pytest.
"""

import ast
import os
import pstats
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "spw")
TESTS = ["tests/test_golden_cli.py", "tests/test_acceptance.py"]
CHILD = (
    "import cProfile, sys, pytest\n"
    "p = cProfile.Profile()\n"
    "code = p.runcall(pytest.main, ['-q', '-p', 'no:cacheprovider', *sys.argv[2:]])\n"
    "p.dump_stats(sys.argv[1])\n"
    "sys.exit(int(code))\n"
)


def units(path):
    """(qualname, first line, name, line count) of each unit; a decorated
    function's code starts at its first decorator, and so does its count."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield prefix + node.name, first, node.name, node.end_lineno - first + 1

    return list(walk(tree.body, ""))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        prof = os.path.join(tmp, "reach.prof")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        code = subprocess.run([sys.executable, "-c", CHILD, prof, *TESTS],
                              cwd=ROOT, env=env, stdout=sys.stderr).returncode
        called = {(os.path.realpath(f), line, name)
                  for f, line, name in pstats.Stats(prof).stats}
    unreached = []
    src_lines = 0
    for mod in sorted(os.listdir(SRC)):
        if not mod.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(SRC, mod))
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
        for qual, first, name, size in units(path):
            if (path, first, name) not in called:
                unreached.append((size, f"{mod[:-3]}:{qual}"))
    for size, unit in sorted(unreached, key=lambda u: (-u[0], u[1])):
        print(f"{size:5d}  {unit}")
    print(f"{sum(s for s, _ in unreached):5d}  lines in {len(unreached)} unreached units")
    print(f"{src_lines:5d}  lines in src/spw")
    return code


if __name__ == "__main__":
    sys.exit(main())
