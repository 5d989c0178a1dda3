"""`tools/ladder.py` times `import spw.cli`, in-process `cli.main` calls
(operad calls among them),
de Rham window rungs, a closed-forms rung and phi_pi rungs in child
processes, each rung also in reference seconds with the probe's drift
(the probe sampled while the child runs), and checks each rung against
its oracle."""

import importlib.util
import os
import time

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
    window, assembly, homology, total, ref, drift, rss = map(float, cells[4:11])
    # printed to the millisecond, so the stages may sum just above the total
    assert 0 < min(window, assembly, homology) and window + assembly + homology <= total + 0.002
    assert ref > 0 and drift > 0 and rss > 0


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
    assert cells[0] == "cli.main" and cells[1::3][:3] == ["operad", "de-rham", "d-functor"], cells
    assert cells[3] == cells[6] == cells[9] == "us"
    assert all(0 < float(cells[k]) < 1e5 for k in (2, 5, 8))
    assert cells[10:] == ["(median", "of", "200", "calls", "each,", "one", "process)"]


def test_ladder_times_in_process_operad_calls():
    ladder = load_ladder()
    line, ok = ladder.operad_line()
    assert ok, line
    cells = line.split()
    assert cells[:5] == ["operad", "--arity", "4", "--n", "1"], cells
    ops, values, units = cells[5:20:3], cells[6:20:3], cells[7:20:3]
    assert ops == ["pn", "bd1", "bd0", "arnold", "weyl"] and units == ["us"] * 5
    assert all(0 < float(v) < 1e5 for v in values)
    assert cells[20:] == ["(median", "of", "200", "calls", "each,", "one", "process)"]


def test_ladder_operad_line_fails_when_a_call_exits_nonzero(monkeypatch):
    ladder = load_ladder()
    # arity 5 is above the cap: the call exits 2
    monkeypatch.setattr(ladder, "OPERAD_ARGV", (["operad", "pn", "--arity", "5", "--json"],))
    monkeypatch.setattr(ladder, "CLI_CALLS", 3)
    line, ok = ladder.operad_line()
    assert not ok and line.startswith("operad --arity 4 --n 1  FAIL: exit 1:"), line


def test_ladder_runs_the_closed_forms_rung_against_the_oracle():
    ladder = load_ladder()
    assert ladder.CLOSED_FORMS_RUNG == (4, 2, 2, 0, 6, 6)
    line, ok = ladder.run_closed_forms_rung(*ladder.CLOSED_FORMS_RUNG)
    assert ok, line
    cells = line.split()
    assert cells[:6] == ["cf(4,", "2,", "2,", "0,", "6,", "6)"] and cells[-1] == "ok"
    assert int(cells[6]) == 1540  # window words: degrees 0..3, the top one not imaged
    closure, assembly, homology, cocycle, total, ref, drift, rss = map(float, cells[7:15])
    assert 0 < min(closure, assembly, cocycle) and homology >= 0
    assert closure + assembly + homology + cocycle <= total + 0.002
    assert ref > 0 and drift > 0 and rss > 0


def test_ladder_runs_the_first_phi_pi_rung(monkeypatch):
    ladder = load_ladder()
    assert ladder.PHI_PI_RUNGS == ((3, 6), (4, 6))
    # the probe reads twice its reference time before the child and three
    # times after it, and not while it runs: ref_s = seconds / median
    # reading * PROBE_REF_S is 2/5 of the wall seconds, and the drift
    # after / before is 1.5
    readings = iter([2 * ladder.PROBE_REF_S] * ladder.PROBE_RUNS + [3 * ladder.PROBE_REF_S] * ladder.PROBE_RUNS)
    monkeypatch.setattr(ladder, "fraction_loop", lambda steps: next(readings))
    monkeypatch.setattr(ladder, "PROBE_PERIOD_S", 3600)
    line, ok = ladder.run_phi_pi_rung(3, 6)
    assert ok, line
    cells = line.split()
    assert cells[:3] == ["phi(3,", "6)", "8989"] and cells[-1] == "ok"
    total, ref, drift, rss = map(float, cells[3:7])
    assert total > 0 and rss > 0
    assert abs(ref - total * 2 / 5) <= 0.001  # both printed to the millisecond
    assert drift == 1.5


def test_ladder_samples_the_probe_while_the_child_runs(monkeypatch):
    ladder = load_ladder()
    # the host runs at its reference speed before and after a 2-second
    # child and at a quarter of it while the child runs: the samples taken
    # meanwhile set ref_s, where the probes before and after alone would
    # read no slowdown
    phase = ["before"]
    speed = {"before": 1, "during": 4, "after": 1}
    taken = []

    def reading(steps):
        assert steps == ladder.PROBE_STEPS
        taken.append(phase[0])
        return speed[phase[0]] * ladder.PROBE_REF_S

    run = ladder.subprocess.run

    def child(*args, **kwargs):
        phase[0] = "during"
        try:
            return run(*args, **kwargs)
        finally:
            phase[0] = "after"

    monkeypatch.setattr(ladder, "fraction_loop", reading)
    monkeypatch.setattr(ladder.subprocess, "run", child)
    start = time.perf_counter()
    proc, probe_s, drift = ladder.run_child("import time; time.sleep(2)")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    during = taken.count("during")
    assert taken == ["before"] * ladder.PROBE_RUNS + ["during"] * during + ["after"] * ladder.PROBE_RUNS
    # at most one sample each PROBE_PERIOD_S
    assert 3 <= during <= elapsed / ladder.PROBE_PERIOD_S
    assert probe_s == 4 * ladder.PROBE_REF_S and drift == 1
