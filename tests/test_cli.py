import json
import os

import pytest

from spw.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "examples_dsl")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_poisson_passing(capsys):
    code, out, _ = run(capsys, "check-poisson", path("plane_poisson.spw"))
    assert code == 0
    assert "[ok]" in out
    assert "bracket table" in out


def test_check_poisson_failing_exit_one(capsys):
    code, out, _ = run(capsys, "check-poisson", path("jacobi_failure.spw"))
    assert code == 1
    assert "FAIL" in out


def test_darboux_on_non_mc_tower_reports_failing_index(capsys):
    code, out, err = run(capsys, "darboux", path("jacobi_failure.spw"), "--json")
    assert code == 1
    assert not err
    report = json.loads(out)
    assert report["verdicts"] == [{"check": "Maurer-Cartan equations", "status": "fail"}]
    assert report["witnesses"] == {"Maurer-Cartan equations": "fails at i=0"}


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spw"
    bad.write_text("algebra B { d(x = 1; }")
    code, _, err = run(capsys, "check-cdga", str(bad))
    assert code == 2
    assert "expected" in err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_tate_negative_weight_inconclusive_exit_three(capsys):
    code, out, _ = run(capsys, "tate", path("negative_weight.spw"), "--stage", "1")
    assert code == 3
    assert "?" in out


def test_json_reports_are_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "check-poisson", path("plane_poisson.spw"), "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["schema_version"] == 1
    assert "timings" not in payload


def test_timings_live_in_separate_section(capsys):
    code, out, _ = run(
        capsys, "check-poisson", path("plane_poisson.spw"), "--json", "--timings"
    )
    assert code == 0
    payload = json.loads(out)
    assert "timings" in payload
    del payload["timings"]
    code2, out2, _ = run(capsys, "check-poisson", path("plane_poisson.spw"), "--json")
    assert json.loads(out2) == payload
    assert code2 == 0


def test_mc_and_dualize_and_darboux_on_cotangent(capsys):
    for cmd in ("mc", "dualize", "darboux"):
        code, out, _ = run(capsys, cmd, path("cotangent.spw"), "--target", "Pi")
        assert code == 0, (cmd, out)


def test_strictify_cotangent_form(capsys):
    code, out, _ = run(capsys, "strictify", path("cotangent.spw"), "--target", "Omega")
    assert code == 0
    assert "strict form" in out


def test_ce_and_invariants_and_z(capsys):
    code, out, _ = run(capsys, "ce", path("sl2.spw"))
    assert code == 0
    code, out, _ = run(capsys, "invariants", path("sl2.spw"), "--kind", "sym2")
    assert code == 0 and '"sym2": 1' in out
    code, out, _ = run(capsys, "invariants", path("sl2.spw"), "--kind", "wedge3")
    assert code == 0 and '"wedge3": 1' in out
    code, out, _ = run(capsys, "z-from-t", path("sl2.spw"))
    assert code == 0


def test_lie_from_mixed_roundtrip_via_files(capsys):
    code, out, _ = run(capsys, "lie-from-mixed", path("ce_sl2.spw"))
    assert code == 0
    assert "[e1,e2]" in out


def test_koszul_and_d_functor(capsys):
    code, out, _ = run(capsys, "koszul", path("koszul_line.spw"))
    assert code == 0
    code, out, _ = run(capsys, "koszul", path("koszul_square.spw"))
    assert code == 0
    code, out, _ = run(
        capsys, "d-functor", path("koszul_line.spw"), "--max-weight", "3", "--max-len", "4"
    )
    assert code == 0
    payload_code, out, _ = run(
        capsys,
        "d-functor",
        path("koszul_line.spw"),
        "--max-weight",
        "3",
        "--max-len",
        "4",
        "--json",
    )
    assert payload_code == 0
    payload = json.loads(out)
    table = payload["tables"]["realization H0 convergence"]
    assert [table[k] for k in sorted(table)] == [1, 2, 3, 4]


def test_realize_and_check_mixed_on_complex(capsys):
    code, out, _ = run(capsys, "check-mixed", path("cell.spw"))
    assert code == 0
    code, out, _ = run(capsys, "realize", path("cell.spw"), "--max-weight", "1", "--json")
    assert code == 0
    dims = json.loads(out)["tables"]["homology dims"]
    assert dims.get("0") == 1


def test_de_rham_and_closed_forms(capsys):
    code, _, _ = run(capsys, "de-rham", path("plane_poisson.spw"), "--target", "B")
    assert code == 0
    code, out, _ = run(
        capsys,
        "closed-forms",
        path("plane_poisson.spw"),
        "--target",
        "B",
        "--p",
        "2",
        "--degree",
        "0",
        "--max-weight",
        "3",
        "--max-len",
        "4",
    )
    assert code == 0


def test_operad_commands(capsys):
    code, out, _ = run(capsys, "operad", "pn", "--arity", "3", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tables"]["dimension"]["Pn"] == 6
    assert payload["tables"]["weight distribution"] == {"0": 1, "-1": 3, "-2": 2}
    code, _, _ = run(capsys, "operad", "bd1", "--arity", "3")
    assert code == 0
    code, _, _ = run(capsys, "operad", "bd0")
    assert code == 0
    code, out, _ = run(capsys, "operad", "arnold", "--arity", "3", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["tables"]["hilbert series"] == {"0": 1, "2": 3, "4": 2}
    code, _, _ = run(capsys, "operad", "weyl", "--n", "2")
    assert code == 0


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("algebra B { gens = x(0); }"))
    code, out, _ = run(capsys, "check-cdga")
    assert code == 0
