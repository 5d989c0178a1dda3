"""`tools/ladder.py` times `import spw.cli`, in-process `cli.main` calls,
de Rham window rungs and a closed-forms rung in child processes, and
checks each rung against the closed-form window dimensions."""

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


def test_ladder_times_in_process_cli_calls():
    ladder = load_ladder()
    line, ok = ladder.cli_line()
    assert ok, line
    cells = line.split()
    assert cells[0] == "cli.main" and cells[1::3][:2] == ["operad", "de-rham"], cells
    assert cells[3] == cells[6] == "us"
    assert 0 < float(cells[2]) < 1e5 and 0 < float(cells[5]) < 1e5
    assert cells[7:] == ["(median", "of", "200", "calls", "each,", "one", "process)"]


def test_ladder_runs_the_closed_forms_rung_against_the_oracle():
    ladder = load_ladder()
    assert ladder.CLOSED_FORMS_RUNG == (4, 2, 2, 0, 6, 6)
    line, ok = ladder.run_closed_forms_rung(*ladder.CLOSED_FORMS_RUNG)
    assert ok, line
    cells = line.split()
    assert cells[:6] == ["cf(4,", "2,", "2,", "0,", "6,", "6)"] and cells[-1] == "ok"
    assert int(cells[6]) == 1540  # window words: degrees 0..3, the top one not imaged
    closure, assembly, homology, cocycle, total, rss = map(float, cells[7:13])
    assert 0 < min(closure, assembly, cocycle) and homology >= 0
    assert closure + assembly + homology + cocycle <= total + 0.002
    assert rss > 0
