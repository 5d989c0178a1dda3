"""`tools/ladder.py` times `import spw.cli` and de Rham window rungs in
child processes, and checks each rung against the closed-form window
dimensions."""

import importlib.util
import os

LADDER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "ladder.py")


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_runs_the_first_rung_against_the_oracle():
    ladder = load_ladder()
    assert ladder.RUNGS[0] == (3, 3, 6)
    line, ok = ladder.run_rung(3, 3, 6)
    assert ok, line
    cells = line.split()
    assert cells[:4] == ["(3,", "3,", "6)", "6028"] and cells[-1] == "ok"
    window, assembly, homology, total, rss = map(float, cells[4:9])
    # printed to the millisecond, so the stages may sum just above the total
    assert 0 < min(window, assembly, homology) and window + assembly + homology <= total + 0.002
    assert rss > 0


def test_ladder_times_the_import_of_the_cli():
    ladder = load_ladder()
    line, ok = ladder.import_line()
    assert ok, line
    cells = line.split()
    assert cells[:2] == ["import", "spw.cli"] and cells[3] == "s", cells
    assert 0 < float(cells[2]) < 10
    assert cells[4:] == ["(median", "of", "5", "processes)"]
