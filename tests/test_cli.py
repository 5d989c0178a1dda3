import argparse
import io
import json
import os
import random
import re
import sys

import pytest

from helpers import CaseTimeout, oracle_report_json, random_valid_cdga, time_limit
from spw import cli, dsl, freecdga, gradedmixed
from spw.cli import main
from spw.errors import IdentityViolated, SpwError

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


def test_closed_forms_above_the_max_weight_exit_three(capsys):
    # p-forms have weight p: a window of weights p..max-weight is empty
    code, out, err = run(capsys, "closed-forms", path("cotangent.spw"), "--p", "7", "--max-weight", "6")
    assert code == 3 and out == ""
    assert err == "window too small: max weight 6 is below the form degree p = 7\n"


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


PLANE3 = "algebra B { gens = x(0), y(0), z(0); } form F { on = B; degree = 0; "


@pytest.mark.parametrize(
    "w2, code, out, err",
    [
        # de Rham closed only up to dx*dy*dz: no eta and gauge solve it in any window
        ("x*dy*dz", 1, "", "obstruction: no gauge in the window\n"),
        ("x*dx*dy", 0, '  potential: {"value": "1/2*x^2*dy"}\n', ""),
    ],
    ids=("obstruction", "potential"),
)
def test_strictify_reports_an_obstruction_or_a_potential(capsys, monkeypatch, w2, code, out, err):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PLANE3 + f"w2 = {w2}; }}"))
    got_code, got_out, got_err = run(capsys, "strictify")
    assert (got_code, got_err) == (code, err)
    assert got_out.endswith(out)


@pytest.mark.parametrize(
    "limit, err",
    [
        (("--max-weight", "1"), "max weight 1 is below the form degree p = 2"),
        (("--max-len", "0"), "the form's term dx*dxi is not a window word"),
        (("--max-len", "1"), "the form's term dx*dxi is not a window word"),
    ],
    ids=("max-weight-1", "max-len-0", "max-len-1"),
)
def test_strictify_in_a_window_that_cannot_hold_the_form_exits_three(capsys, limit, err):
    # omega = dx*dxi has weight 2 and two letters: none of these windows holds it
    code, out, got_err = run(capsys, "strictify", path("cotangent.spw"), *limit)
    assert (code, out, got_err) == (3, "", f"window too small: {err}\n")


def test_ce_and_invariants_and_z(capsys):
    code, out, _ = run(capsys, "ce", path("sl2.spw"))
    assert code == 0
    code, out, _ = run(capsys, "invariants", path("sl2.spw"), "--kind", "sym2")
    assert code == 0 and '"sym2": 1' in out
    code, out, _ = run(capsys, "invariants", path("sl2.spw"), "--kind", "wedge3")
    assert code == 0 and '"wedge3": 1' in out
    code, out, _ = run(capsys, "z-from-t", path("sl2.spw"))
    assert code == 0


def test_invariance_recheck_fails_on_a_tensor_that_is_not_invariant(capsys, monkeypatch):
    from spw import lieinfty

    # e1 (x) e1 is not sl2-invariant: sl2 has no centre
    monkeypatch.setattr(lieinfty, "invariants", lambda g, kind: [lieinfty.InvariantTensor("sym2", {(0, 0): 1})])
    code, out, _ = run(capsys, "invariants", path("sl2.spw"), "--kind", "sym2", "--json")
    assert code == 1
    assert json.loads(out)["verdicts"] == [{"check": "invariance recheck", "status": "fail"}]


def test_realize_fails_when_the_cell_model_oracle_disagrees(capsys, monkeypatch):
    from spw import gradedmixed

    code, out, _ = run(capsys, "realize", path("cell.spw"), "--json")
    assert code == 0
    assert json.loads(out)["verdicts"] == [{"check": "agrees with Hom(cell model, E)", "status": "pass"}]
    monkeypatch.setattr(
        gradedmixed, "realization_oracle_dims", lambda cx, wmax, degrees: {m: 7 for m in degrees}
    )
    code, out, _ = run(capsys, "realize", path("cell.spw"), "--json")
    assert code == 1
    assert json.loads(out)["verdicts"] == [{"check": "agrees with Hom(cell model, E)", "status": "fail"}]


def test_lie_from_mixed_roundtrip_via_files(capsys):
    code, out, _ = run(capsys, "lie-from-mixed", path("ce_sl2.spw"))
    assert code == 0
    assert "[e1,e2]" in out


def test_lie_from_mixed_reports_a_jacobi_failure(capsys, monkeypatch):
    # CE-shaped, but eps^2 xi1 != 0: [e1, e2] = e2 and [e2, e3] = e1 fail Jacobi
    source = ("algebra CE { gens = xi1(1, 1), xi2(1, 1), xi3(1, 1);"
              " eps(xi1) = -1*xi2*xi3; eps(xi2) = -1*xi1*xi2; }")
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code, out, err = run(capsys, "lie-from-mixed", "--json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdicts"] == [{"check": "extracted bracket satisfies Jacobi", "status": "fail"}]
    assert report["witnesses"]["extracted bracket satisfies Jacobi"].startswith("[('jacobi', ('e1', 'e2', 'e3', 'e1'))")
    assert report["tables"]["brackets"] == {"[e1,e2]": "1*e2", "[e2,e3]": "1*e1"}
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert run(capsys, "check-cdga")[0] == 1


@pytest.mark.parametrize(
    "source", ["lie g { dim = 2; bracket[1][2] = e1; }", "lie g { dim = 2; }"], ids=("nonabelian", "abelian")
)
def test_z_from_t_on_a_lie_algebra_that_is_not_semisimple_exits_one(capsys, monkeypatch, source):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code, out, err = run(capsys, "z-from-t")
    assert (code, out) == (1, "")
    assert err == "check failed: the Killing form is degenerate: g is not semisimple\n"


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


def _algebra_manifest(b):
    """The manifest of a free cdga: its generators and the d of each."""
    gens = ", ".join(f"{g.name}({g.degree})" for g in b.generators)
    lines = [f"algebra B {{\n  gens = {gens};\n"]
    for i, e in b.differential.items():
        terms = " + ".join(f"{c}*{'*'.join(b.generators[j].name for j in m)}" for m, c in e.terms.items())
        lines.append(f"  d({b.generators[i].name}) = {terms};\n")
    return "".join(lines) + "}\n"


def test_closed_forms_read_one_window(capsys, monkeypatch):
    """`spw closed-forms` images words only in the window closure (and in
    building the de Rham algebra's d, before any window), and builds one
    graded mixed complex and one chain complex per `closed_form_classes`:
    the towers read the closure's images, the fibres its d blocks."""
    calls = {"classes": 0, "mixed": 0, "chain": 0, "imaged outside": 0}
    depth = [0]

    def inside(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    image = freecdga._image

    def imaging(*args, **kwargs):
        if not depth[0]:
            calls["imaged outside"] += 1
        return image(*args, **kwargs)

    monkeypatch.setattr(freecdga, "_image", imaging)
    monkeypatch.setattr(freecdga, "_closure", inside(freecdga._closure))
    monkeypatch.setattr(freecdga, "de_rham", inside(freecdga.de_rham))
    monkeypatch.setattr(freecdga, "closed_form_classes", counted("classes", freecdga.closed_form_classes))
    monkeypatch.setattr(freecdga, "_mixed_complex", counted("mixed", freecdga._mixed_complex))
    monkeypatch.setattr(gradedmixed.ChainComplex, "__init__", counted("chain", gradedmixed.ChainComplex.__init__))
    runs = []
    for name in sorted(os.listdir(DATA)):
        with open(path(name), encoding="utf-8") as fh:
            if any(b.kind == "algebra" for b in dsl.parse(fh.read()).blocks):
                runs.append((path(name), "--max-weight", "4", "--max-len", "4"))
    assert len(runs) == 6
    rng = random.Random(2406)
    while len(runs) < 16:
        b = random_valid_cdga(rng, max_gens=3)
        text = _algebra_manifest(b)
        assert dsl.build_algebra(dsl.parse(text).blocks[0]).differential == b.differential
        p = rng.randint(0, 2)
        runs.append((text, "--p", str(p), "--degree", str(rng.randint(-1, 1)),
                     "--max-weight", str(p + rng.randint(1, 2)), "--max-len", "3"))
    towers = 0
    for argv in runs:
        if argv[0].startswith("algebra"):
            monkeypatch.setattr("sys.stdin", io.StringIO(argv[0]))
            argv = argv[1:]
        before = dict(calls)
        code, out, err = run(capsys, "closed-forms", *argv, "--json")
        assert (code, err) == (0, ""), argv
        towers += json.loads(out)["tables"]["dimension"]["classes"]
        assert {k: calls[k] - before[k] for k in calls} == {
            "classes": 1, "mixed": 1, "chain": 1, "imaged outside": 0
        }, argv
    assert towers > 20


def test_operad_commands(capsys):
    code, out, _ = run(capsys, "operad", "pn", "--arity", "3", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tables"]["dimension"]["Pn"] == 6
    assert payload["tables"]["weight distribution"] == {"0": 1, "-1": 3, "-2": 2}
    code, out, _ = run(capsys, "operad", "bd1", "--arity", "3", "--json")
    assert code == 0
    assert json.loads(out)["verdicts"] == [{"check": "dimension equals dim As = 3!", "status": "pass"}]
    code, _, _ = run(capsys, "operad", "bd0")
    assert code == 0
    code, out, _ = run(capsys, "operad", "arnold", "--arity", "3", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["tables"]["hilbert series"] == {"0": 1, "2": 3, "4": 2}
    for n in range(4):
        code, _, _ = run(capsys, "operad", "weyl", "--n", str(n))
        assert code == 0


def test_operad_weyl_probes_one_input_per_label(capsys, monkeypatch):
    from spw import operads

    seen = []
    real = operads.weyl_structure_map

    def recording(base, t, labels, n):
        seen.append((len(base.generators), labels))
        return real(base, t, labels, n)

    monkeypatch.setattr(operads, "weyl_structure_map", recording)
    for k in (2, 3, 4):
        for n in range(4):
            seen.clear()
            code, out, _ = run(capsys, "operad", "weyl", "--arity", str(k), "--n", str(n), "--json")
            assert code == 0 and all(v["status"] == "pass" for v in json.loads(out)["verdicts"])
            # the pairing and the t = 0 map, each on k generators and labels 1..k
            assert seen == [(k, tuple(range(1, k + 1)))] * 2

    def negated(base, t, labels, n):
        # the a-terms with the wrong sign: the pairing check must see it
        wm = real(base, t, labels, n)
        plain = wm.structure_map
        wm.structure_map = lambda inputs: {w: -e if w else e for w, e in plain(inputs).items()}
        return wm

    monkeypatch.setattr(operads, "weyl_structure_map", negated)
    code, out, _ = run(capsys, "operad", "weyl", "--arity", "3", "--n", "1", "--json")
    assert code == 1
    failed = [v["check"] for v in json.loads(out)["verdicts"] if v["status"] != "pass"]
    assert failed == ["a_12 coefficient is the pairing"]


@pytest.mark.parametrize(
    "operad, arity, least",
    [
        ("pn", 0, 1), ("pn", -1, 1), ("as", 0, 1), ("lie", -3, 1), ("bd1", 0, 1), ("bd0", 0, 1),
        ("weyl", 1, 2), ("weyl", 0, 2), ("arnold", 1, 2), ("arnold", -1, 2),
    ],
)
def test_operad_arity_below_its_least_exits_two(capsys, operad, arity, least):
    code, err = run_exit(capsys, "operad", operad, "--arity", str(arity), "--json")
    assert code == 2
    assert f"argument --arity: must be >= {least} for {operad}, got {arity}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("operad", ["pn", "as", "lie", "bd1", "bd0", "arnold", "weyl"])
def test_operad_arity_above_the_cap_exits_two(capsys, operad):
    code, out, err = run(capsys, "operad", operad, "--arity", "5", "--json")
    assert code == 2 and not out
    assert err == "error: operad computations are capped at arity 4\n"


def test_operad_specialize_is_a_usage_error(capsys):
    code, err = run_exit(capsys, "operad", "bd1", "--arity", "3", "--specialize", "0")
    assert code == 2
    assert "unrecognized arguments: --specialize 0" in err and "Traceback" not in err


@pytest.mark.parametrize("operad", ["pn", "as", "lie", "bd1"])
def test_operad_arity_one_is_accepted(capsys, operad):
    code, out, _ = run(capsys, "operad", operad, "--arity", "1", "--json")
    assert code == 0 and json.loads(out)["verdicts"]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("algebra B { gens = x(0); }"))
    code, out, _ = run(capsys, "check-cdga")
    assert code == 0


def test_an_empty_manifest_path_is_a_missing_file(capsys, monkeypatch):
    with open(path("plane_poisson.spw"), encoding="utf-8") as fh:
        stdin = io.StringIO(fh.read())
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "de-rham", "", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert stdin.tell() == 0  # stdin is not read


INVALID_CDGAS = ("algebra B { gens = x(0); d(x) = x; }", "algebra B { gens = x(0), y(1); d(x) = x + y; }")


@pytest.mark.parametrize("source", INVALID_CDGAS, ids=("d-not-of-degree-one", "d-inhomogeneous"))
def test_derived_commands_on_an_invalid_cdga(tmp_path, capsys, source):
    manifest = tmp_path / "bad.spw"
    manifest.write_text(source)
    code, out, err = run(capsys, "check-mixed", str(manifest), "--json")
    assert code == 1 and not err
    report = json.loads(out)
    assert report["verdicts"] == [{"check": "cdga identities", "status": "fail"}]
    assert "d^2" in report["witnesses"]["cdga identities"]
    for command in ("de-rham", "closed-forms"):
        code, out, err = run(capsys, command, str(manifest))
        assert code == 2 and not out
        assert err.startswith("error: d(x) has the term x outside bidegree (0, 1)")


def test_a_d_of_inhomogeneous_weight_fails_check_cdga_and_check_mixed(tmp_path, capsys):
    manifest = tmp_path / "bad.spw"
    manifest.write_text("algebra B { gens = x(0, 0), y(1, 0), z(1, 1); d(x) = y + z; }")
    for command in ("check-cdga", "check-mixed"):
        code, out, err = run(capsys, command, str(manifest), "--json")
        assert code == 1 and not err
        report = json.loads(out)
        assert report["verdicts"] == [{"check": "cdga identities", "status": "fail"}]
        assert report["witnesses"] == {"cdga identities": "[('d weight', 'x')]"}


def test_check_mixed_and_de_rham_build_no_window(capsys, monkeypatch):
    """Both decide the mixed identities on generators: with the window
    closure raising, each keeps its golden exit code on every example."""
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    with open(os.path.join(os.path.dirname(__file__), "golden_cli.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    def closure(alg, window):
        raise RuntimeError("a window closure")

    monkeypatch.setattr(freecdga, "_closure", closure)
    for name in sorted(os.listdir(DATA)):
        for command in ("check-mixed", "de-rham"):
            code, _, err = run(capsys, command, path(name), "--json")
            assert code == golden[f"{command} {name} --json"][0], (command, name, err)


@pytest.mark.parametrize("weight", [0, 7])
def test_de_rham_fails_d_squared_at_any_weight(tmp_path, capsys, weight):
    """d^2 x = z != 0, also when every word lies above the default weight 6."""
    manifest = tmp_path / "b.spw"
    manifest.write_text(f"algebra B {{ gens = x(0, {weight}), y(1, {weight}), z(2, {weight}); d(x) = y; d(y) = z; }}")
    for command, check, witness in (
        ("check-mixed", "cdga identities", "[('d^2', 'x')]"),
        ("de-rham", "de Rham mixed identities", "[('d^2', 'x'), ('d^2', 'dx')]"),
    ):
        code, out, err = run(capsys, command, str(manifest), "--json")
        assert (code, err) == (1, ""), command
        report = json.loads(out)
        assert report["verdicts"] == [{"check": check, "status": "fail"}]
        assert report["witnesses"] == {check: witness}


def test_de_rham_tabulates_from_the_least_generator_weight(tmp_path, capsys):
    """Generators of weight 7 show at weight 7 and their symbols at 8; the
    table runs from the unit's weight 0 to 7 + 2."""
    manifest = tmp_path / "b.spw"
    manifest.write_text("algebra B { gens = x(0, 7), y(1, 7), z(2, 7); d(x) = y; d(y) = z; }")
    code, out, err = run(capsys, "de-rham", str(manifest), "--json")
    assert (code, err) == (1, "")
    table = json.loads(out)["tables"]["weight dims"]
    assert list(table) == [str(w) for w in range(10)]
    assert table["0"] == {"0": 1}
    assert table["7"] == {"0": 1, "1": 1, "2": 1}  # x, y, z
    assert table["8"] == {"1": 1, "2": 1, "3": 1}  # dx, dy, dz
    assert not any(table[str(w)] for w in (1, 2, 3, 4, 5, 6, 9))


PLANE = "algebra B { gens = x(0), y(0); }\n"
ROW_LIMIT_S = 5.0
LINE = "algebra B { gens = x(0), xi(1); }\n"


def run_exit(capsys, *argv):
    """Exit code and stderr whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "command, source, env, message",
    [
        pytest.param(
            "check-cdga", "algebra B { gens = x(0), x(1); }", {}, "duplicate generator names",
            id="duplicate-generator",
        ),
        pytest.param(
            "de-rham", "algebra B { gens = x(0), dx(1); }", {}, "symbol name 'dx' collides",
            id="symbol-collision",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(0); d(y) = x; }", {}, "d(y) names no generator",
            id="undeclared-d",
        ),
        pytest.param(
            "check-mixed", "algebra B { gens = x(0); eps(y) = x; }", {}, "eps(y) names no generator",
            id="undeclared-eps",
        ),
        pytest.param(
            "check-cdga", "algebra B {\n  gens = x(0);\n  d(x) = 1/0;\n}", {}, "3:12: zero denominator",
            id="zero-denominator",
        ),
        pytest.param("ce", "lie g { dim = 2; bracket[1][5] = e1; }", {}, "bracket indices", id="bracket-index-above-dim"),
        pytest.param("ce", "lie g { dim = 2; bracket[0][1] = e1; }", {}, "bracket indices", id="bracket-index-zero"),
        pytest.param("ce", "lie g { dim = 2; bracket[1][2] = e0; }", {}, "combinations of e1..e2", id="bracket-value-e0"),
        pytest.param("ce", "lie g { dim = 2; bracket[1][2] = e3; }", {}, "combinations of e1..e2", id="bracket-value-above-dim"),
        pytest.param("check-cdga", "algebra B { gens = x(0); base = y; }", {}, "base y names no generator", id="base-undeclared"),
        pytest.param("check-cdga", "algebra B { gens = x(0); base = 1; }", {}, "base 1 names no generator", id="base-number"),
        pytest.param("ce", "lie g { dim = 2/3; }", {}, "dim a positive integer", id="dim-fraction"),
        pytest.param("ce", "lie g { dim = -1; }", {}, "dim a positive integer", id="dim-negative"),
        pytest.param(
            "koszul", "algebra B { gens = x(0); } ideal I { on = B; gens = 1; }", {}, "(0, 0) component",
            id="koszul-unit-relation",
        ),
        pytest.param(
            "d-functor", "algebra B { gens = x(0); } ideal I { on = B; gens = 1; }", {}, "(0, 0) component",
            id="d-functor-unit-relation",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(1/2); }", {}, "integer degree and weight", id="degree-fraction",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(0, 1/2); }", {}, "integer degree and weight", id="weight-fraction",
        ),
        pytest.param(
            "koszul", "algebra B { gens = x(0); } ideal I { on = B; gensgens = x; }", {}, "needs gens",
            id="koszul-no-gens",
        ),
        pytest.param(
            "koszul", "algebra B { gens = x(0), y(1); } ideal I { on = B; gens = x; }", {},
            "discrete polynomial ring", id="koszul-graded-base",
        ),
        pytest.param(
            "d-functor", "algebra B { gens = x(0), y(1); } ideal I { on = B; gens = x; }", {},
            "discrete polynomial ring", id="d-functor-graded-base",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(1, 2, 3); }", {}, "must be name(degree[, weight])",
            id="generator-three-arguments",
        ),
        pytest.param("check-cdga", "algebra B { gens = x(0); foo = 3; }", {}, "unknown key foo", id="unknown-key"),
        pytest.param(
            "check-cdga", "algebra B { gensgens = x(0); }", {}, "unknown key gensgens", id="misspelt-gens",
        ),
        pytest.param(
            "check-cdga", "algebra B {\n  gens = x(0);\n  gens = y(0);\n}", {}, "3:3: duplicate key gens",
            id="second-gens",
        ),
        pytest.param(
            "check-poisson", PLANE + "poisson P { on = B; shift = 1/2; p0 = @x*@y; }", {},
            "needs shift an integer", id="shift-fraction",
        ),
        pytest.param(
            "strictify", LINE + "form F { on = B; degree = 1/2; w2 = dx*dxi; }", {},
            "needs degree an integer", id="form-degree-fraction",
        ),
        pytest.param(
            "strictify", LINE + "form F { on = B; w1 = dx; }", {}, "w1 needs w2 before it", id="form-weight-one",
        ),
        pytest.param(
            "strictify", LINE + "form F { on = B; wx = dx*dxi; }", {}, "unknown key wx", id="form-weight-name",
        ),
        pytest.param(
            "strictify", LINE + "form F { on = B; w2 = dx*dxi; w02 = dx*dxi; }", {}, "duplicate key w02",
            id="form-weight-twice",
        ),
        pytest.param(
            "check-poisson", PLANE + "poisson P {\n  on = B;\n  p0 = @x*@y;\n  p2 = 0;\n}", {},
            "5:3: p2 needs p1 before it", id="tower-gap",
        ),
        pytest.param(
            "realize", "complex E { basis = a(1/2, 0); }", {}, "a(1/2, 0) needs an integer degree and weight",
            id="cell-weight-fraction",
        ),
        pytest.param(
            "realize", "complex E { basis = a(0, 0), b(0, 1); d(zz) = b; }", {}, "d(zz) names no basis label",
            id="complex-undeclared-source",
        ),
        pytest.param(
            "realize", "complex E { basis = a(0, 0), b(0, 1), c(0, 1); d(a) = 2*b*c; }", {},
            "combinations of basis labels", id="complex-product-term",
        ),
        pytest.param(
            "realize", "complex E { basis = a(0, 0), a(0, 1); }", {}, "duplicate basis label 'a'",
            id="complex-duplicate-label",
        ),
        pytest.param(
            "realize", "complex E { basis = a(0, 0), b(1, 1), c(2, 2); eps(a) = b; eps(b) = c; }", {},
            "d^2 != 0 at degree 0", id="complex-eps-squared-nonzero",
        ),
        pytest.param(
            "check-poisson", "lie g { dim = 1; }\npoisson P { on = g; p0 = 0; }", {},
            "2:13: on = g names a lie block", id="on-wrong-kind",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(0); d[1][2] = x; }", {}, "unknown key d[1][2]",
            id="algebra-indexed-d",
        ),
        pytest.param(
            "ce", "lie g { dim = 2; bracket[1][2] = e1; bracket[2][1] = -1*e1; }", {},
            "duplicate key bracket[2][1]", id="bracket-both-orders",
        ),
        pytest.param(
            "check-poisson", PLANE + "poisson P { on = B; p0 = x^100000*@x*@y; }", {},
            "exponent 100000 is above the cap 64", id="exponent-above-cap",
        ),
        pytest.param(
            "check-cdga", "options O { window = 1; }", {}, "unknown block kind 'options'", id="options-block",
        ),
        pytest.param(
            "check-cdga", "algebra B { gens = x(0); d(x) = " + "1" * 5000 + "; }", {}, "1:33: number too long",
            id="digits-above-int-limit",
        ),
        pytest.param("check-cdga", "algebra B { gens = x(0\u00b2); }", {}, "expected ')'", id="superscript-digit"),
        pytest.param(
            "closed-forms", "algebra B { gens = x(0); }", {"SPW_MAX_WEIGHT": "six"}, "invalid int value",
            id="env-max-weight",
        ),
        pytest.param(
            "koszul", "algebra B { gens = x(0); }", {"SPW_MAX_LEN": "1.5"}, "invalid int value",
            id="env-max-len",
        ),
    ],
)
def test_malformed_manifests_exit_two(tmp_path, capsys, monkeypatch, command, source, env, message):
    manifest = tmp_path / "bad.spw"
    manifest.write_text(source)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        with time_limit(ROW_LIMIT_S):
            code, err = run_exit(capsys, command, str(manifest))
    except CaseTimeout:
        pytest.fail(f"no answer within {ROW_LIMIT_S} s")
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(("de-rham", "plane_poisson.spw", "--max-len", "-1"), {}, id="de-rham-max-len"),
        pytest.param(("realize", "cell.spw", "--max-weight", "-1"), {}, id="realize-max-weight"),
        pytest.param(("closed-forms", "plane_poisson.spw", "--max-len", "-2"), {}, id="closed-forms-max-len"),
        pytest.param(("d-functor", "koszul_line.spw", "--max-weight", "-4"), {}, id="d-functor-max-weight"),
        pytest.param(("realize", "cell.spw"), {"SPW_MAX_WEIGHT": "-1"}, id="env-max-weight"),
        pytest.param(("koszul", "koszul_line.spw"), {"SPW_MAX_LEN": "-3"}, id="env-max-len"),
        pytest.param(("tate", "negative_weight.spw", "--stage", "-1"), {}, id="tate-stage"),
        pytest.param(("closed-forms", "cotangent.spw", "--p", "-1"), {}, id="closed-forms-p"),
    ],
)
def test_negative_window_sizes_exit_two(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, err = run_exit(capsys, argv[0], path(argv[1]), *argv[2:])
    assert code == 2
    assert "must be >= 0" in err and "Traceback" not in err


def test_zero_window_sizes_are_accepted(capsys):
    for argv in (
        ("de-rham", path("plane_poisson.spw"), "--max-len", "0"),
        ("d-functor", path("koszul_line.spw"), "--max-weight", "0", "--max-len", "0"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "[ok]" in out, argv


def test_two_calls_build_the_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        code, _, _ = run(capsys, "operad", "pn", "--arity", "2")
        assert code == 0
    assert len(builds) == 1


def test_max_weight_is_read_from_the_environment_on_each_call(capsys, monkeypatch):
    argv = ("closed-forms", path("plane_poisson.spw"), "--target", "B", "--max-len", "4", "--json")
    set_defaults = argparse.ArgumentParser.set_defaults
    calls = []

    def counting(parser, **kwargs):
        calls.append(kwargs)
        return set_defaults(parser, **kwargs)

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(argparse.ArgumentParser, "set_defaults", counting)
    stages, resets = [], []
    for weight in ("3", "4", "3", None, None):
        if weight is None:
            monkeypatch.delenv("SPW_MAX_WEIGHT", raising=False)
        else:
            monkeypatch.setenv("SPW_MAX_WEIGHT", weight)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        stages.append(sorted(json.loads(out)["tables"]["hodge stages"]))
        resets.append(len(calls))
        calls.clear()
    assert stages == [["2", "3"], ["2", "3", "4"], ["2", "3"], ["2", "3", "4", "5", "6"], ["2", "3", "4", "5", "6"]]
    # the defaults of each subparser with window options are set again only
    # when the limits change
    assert resets == [sum(1 for c in cli.COMMANDS.values() if c.limits)] * 4 + [0]
    assert resets[0] == 7


def operad_with(handler):
    """The `operad` command with its handler replaced."""
    operad = cli.COMMANDS["operad"]
    return cli._Command(handler, operad.manifest, operad.options, operad.limits)


@pytest.mark.parametrize(
    "fault, message",
    [
        (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
        (IdentityViolated("d^2 != 0 by construction"), "internal error: IdentityViolated: d^2 != 0 by construction\n"),
    ],
    ids=("runtime-error", "identity-violated"),
)
def test_an_internal_fault_exits_four_without_a_traceback(capsys, monkeypatch, fault, message):
    def handler(manifest, args, report):
        raise fault

    monkeypatch.setitem(cli.COMMANDS, "operad", operad_with(handler))
    code, out, err = run(capsys, "operad", "pn")
    assert (code, out, err) == (4, "", message)


def test_an_interrupt_is_not_an_internal_fault(monkeypatch):
    def handler(manifest, args, report):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "operad", operad_with(handler))
    with pytest.raises(KeyboardInterrupt):
        main(["operad", "pn"])


# -- argv reading: the command's table against parse_args ----------------------

ENV = ("SPW_MAX_WEIGHT", "SPW_MAX_LEN")
# an example that each manifest command reads
COMMAND_EXAMPLES = {
    "check-cdga": "ce_sl2", "check-mixed": "cell", "de-rham": "plane_poisson",
    "closed-forms": "cotangent", "check-poisson": "plane_poisson", "mc": "cotangent",
    "dualize": "cotangent", "strictify": "cotangent", "darboux": "jacobi_failure",
    "ce": "sl2", "lie-from-mixed": "ce_sl2", "invariants": "sl2", "z-from-t": "sl2",
    "koszul": "koszul_line", "d-functor": "koszul_line", "realize": "cell",
    "tate": "negative_weight",
}
DERHAM = ["de-rham", path("plane_poisson.spw")]
ARGV_CASES = [
    *([cmd, path(f"{name}.spw"), "--json"] + (["--kind", "wedge3"] if cmd == "invariants" else [])
      for cmd, name in COMMAND_EXAMPLES.items()),
    ["operad", "weyl", "--arity", "3", "--n", "1", "--json"],
    [], ["-h"], ["--version"], ["frobnicate"], ["--json", "de-rham"], ["-h", "de-rham"],
    [*DERHAM, "--bogus"], [*DERHAM, "--json", "extra"], ["operad", "pn", "--version"],
    ["operad", "pn", "--js"], ["operad", "pn", "--a", "3"], ["operad", "pn", "--json", "-h"],
    ["operad"], ["operad", "weyl", "--arity", "1"], ["invariants", path("sl2.spw")],
    ["de-rham", "--", path("plane_poisson.spw")], [*DERHAM, "--", "--json"],
    ["de-rham", "--json", "--", path("plane_poisson.spw")],
    [*DERHAM, "--max-len", "x"], [*DERHAM, "--max-len", "-1"], [*DERHAM, "--max-len=2", "--json"],
    ["operad", "--json"], [*DERHAM, "--max-len", "1", "--json", "--max-len", "2"],
    ["de-rham", "", "--json"], ["de-rham", "-", "--json"], ["operad", "pn", "--n", "-1", "--json"],
    ["invariants", path("sl2.spw"), "--kind", "sym3", "--json"],
]
ENV_CASES = [
    (["closed-forms", path("cotangent.spw"), "--json"], "3"),
    ([*DERHAM, "--json"], "-2"),
    ([*DERHAM, "--json"], "two"),
    ([*DERHAM, "--json", "--max-len", "2"], "-2"),
]


def run_either_way(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of main(argv) through `_parse_args`, and
    through `_parser.parse_args` alone, with plane_poisson.spw on stdin."""
    with open(path("plane_poisson.spw"), encoding="utf-8") as fh:
        source = fh.read()
    outcomes = []
    for parse in (cli._parse_args, lambda argv: cli._parser.parse_args(argv)):
        monkeypatch.setattr(cli, "_parse_args", parse)
        monkeypatch.setattr(sys, "stdin", io.StringIO(source))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_argv_cases_cover_every_command():
    assert {argv[0] for argv in ARGV_CASES if argv} >= set(cli.COMMANDS)


@pytest.mark.parametrize(
    "argv", ARGV_CASES, ids=lambda argv: " ".join(os.path.basename(a) for a in argv) or "[]"
)
def test_dispatch_equals_parse_args(capsys, monkeypatch, argv):
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    dispatched, parsed = run_either_way(capsys, monkeypatch, argv)
    assert dispatched == parsed
    assert dispatched[0] in (0, 1, 2, 3)


@pytest.mark.parametrize("argv, max_len", ENV_CASES, ids=("3", "-2", "two", "-2-and-option"))
def test_dispatch_equals_parse_args_with_a_max_len_override(capsys, monkeypatch, argv, max_len):
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("SPW_MAX_LEN", max_len)
    dispatched, parsed = run_either_way(capsys, monkeypatch, argv)
    assert dispatched == parsed


def test_dispatch_reads_sys_argv_when_argv_is_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["spw", "operad", "pn", "--arity", "3", "--json"])
    dispatched, parsed = run_either_way(capsys, monkeypatch, None)
    assert dispatched == parsed and dispatched[0] == 0 and json.loads(dispatched[1])["tables"]


OPERADS = ("pn", "as", "lie", "bd1", "bd0", "arnold", "weyl")
REGULAR_ARGV = [
    *ARGV_CASES[:len(COMMAND_EXAMPLES)],
    *(["operad", name, "--arity", str(k), "--n", str(m), "--json"]
      for name in OPERADS for k in (2, 3, 4) for m in range(4)),
    ["closed-forms", "--json", "--max-weight", "4", "--max-len", "5"],
]


def test_a_regular_argv_does_not_reach_argparse(capsys, monkeypatch):
    """Every command on its example, the operads and closed-forms on stdin
    are read off the command's table, into the namespace argparse gives."""
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    with open(path("plane_poisson.spw"), encoding="utf-8") as fh:
        source = fh.read()
    parse, known = cli._parse_args, argparse.ArgumentParser.parse_known_args
    read, calls = [], []

    def reading(argv):
        read.append(parse(argv))
        return read[-1]

    def counting(parser, *args, **kwargs):
        calls.append(parser.prog)
        return known(parser, *args, **kwargs)

    monkeypatch.setattr(cli, "_parse_args", reading)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in REGULAR_ARGV:
        monkeypatch.setattr(sys, "stdin", io.StringIO(source))
        assert main(argv) in (0, 1, 3), argv
        capsys.readouterr()
    assert calls == []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", known)
    assert len(read) == len(REGULAR_ARGV) == 102
    for argv, args in zip(REGULAR_ARGV, read):
        assert vars(args) == vars(cli._parser.parse_args(argv)), argv


def option_vocabulary():
    """{command: [(option string, action)]}: the command's own options four
    times over, then every command's, -h and --help aside."""
    every = [(flag, action) for sub in cli._parser.commands.values() for action in sub._actions
             if action.default is not argparse.SUPPRESS for flag in action.option_strings]
    return {name: [pair for pair in every if pair[1] in sub._actions] * 4 + every
            for name, sub in cli._parser.commands.items()}


def random_argv(rng, vocabulary):
    """An argv over the commands' option strings, fitting values and the
    pitfalls of ARGV_CASES; about 40% of them in the regular shape."""
    if rng.random() < 0.03:
        return rng.choice([[], ["-h"], ["--version"], ["frobnicate"], ["--json", "de-rham"]])
    name = rng.choice(list(cli.COMMANDS))
    argv = [name]
    if name == "operad":
        argv += rng.choice([[rng.choice(OPERADS)]] * 12 + [[], ["pm"], ["-"]])
    else:
        argv += rng.choice([[path(f"{COMMAND_EXAMPLES[name]}.spw")]] * 8 + [[]] * 4 + [[""], ["-"], ["a", "b"]])
    for _ in range(rng.randint(0, 4)):
        flag, action = rng.choice(vocabulary[name])
        argv.append(flag)
        if rng.random() < 0.06:
            argv += rng.choice([[], ["-1"], ["x"], [""], ["--json"], ["-"], ["sym3"], ["0", "0"]])
        elif action.nargs != 0:
            argv.append(rng.choice(action.choices or ("0", "2", "3")))
    if name == "invariants" and rng.random() < 0.8:
        argv += ["--kind", rng.choice(("sym2", "wedge3"))]
    if rng.random() < 0.06:
        token = rng.choice(["-", "--", "-h", "--max-len=2", "--js", "--a", "--version", "extra"])
        argv.insert(rng.randint(1, len(argv)), token)
    return argv


def test_reading_equals_parse_args_on_random_argv(capsys, monkeypatch):
    """`_parse_args` and `_parser.parse_args` give equal namespaces, or the
    same exit code, stdout and stderr, under each SPW_MAX_LEN that main applies."""
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    known = argparse.ArgumentParser.parse_known_args
    calls = []

    def counting(parser, *args, **kwargs):
        calls.append(1)
        return known(parser, *args, **kwargs)

    def outcome(parse, argv):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    rng = random.Random(2507)
    fast = exits = 0
    for max_len in (None, "3", "-2", "two"):
        if max_len is None:
            monkeypatch.delenv("SPW_MAX_LEN", raising=False)
        else:
            monkeypatch.setenv("SPW_MAX_LEN", max_len)
        with pytest.raises(SystemExit):
            main(["--version"])  # sets the limits as every call does
        capsys.readouterr()
        vocabulary = option_vocabulary()
        for _ in range(500):
            argv = random_argv(rng, vocabulary)
            before = len(calls)
            read = outcome(cli._parse_args, argv)
            fast += len(calls) == before
            parsed = outcome(cli._parser.parse_args, argv)
            assert read == parsed, (max_len, argv)
            exits += isinstance(parsed[0], int)
    assert fast > 800 and exits > 900, (fast, exits)  # 917 and 985


# -- window options: a command accepts those its handler reads ----------------

# the window options' dests, max_degree among them: no command reads it
# (the mixed identities are decided on generators), so each one refuses it
WINDOW = {dest: "--" + dest.replace("_", "-") for dest in ("max_weight", "max_degree", "max_len")}


class ReadLog(argparse.Namespace):
    """A namespace that logs the name of each attribute read off it."""

    def __init__(self, log, **values):
        super().__init__(**values)
        self._log = log

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_log").add(name)
        return object.__getattribute__(self, name)


def test_each_command_reads_exactly_its_window_options():
    """Every handler on every example manifest, and `operad` on every
    operad, with each window dest in its namespace: the dests a command's
    handler reads are the ones its row names."""
    parser = cli.build_parser()
    runs = []
    for name in sorted(os.listdir(DATA)):
        with open(path(name), encoding="utf-8") as fh:
            source = fh.read()
        for command in cli.COMMANDS:
            if command == "operad":
                continue
            extra = [["--kind", "sym2"], ["--kind", "wedge3"]] if command == "invariants" else [[]]
            runs += [(command, source, [command, path(name), *e]) for e in extra]
    runs += [("operad", None, ["operad", op, "--arity", "3"]) for op in OPERADS]
    read = {command: set() for command in cli.COMMANDS}
    finished = set()
    for command, source, argv in runs:
        values = {dest: int(default) for dest, _, default in cli._LIMITS}
        values.update(vars(parser.parse_args(argv)))
        args = ReadLog(read[command], **values)
        manifest = None if source is None else dsl.parse(source)
        try:
            cli.COMMANDS[command].handler(manifest, args, cli.Report(command, source or ""))
        except SpwError:
            continue
        finished.add(command)
    assert finished == set(cli.COMMANDS)
    assert {c: read[c] & set(WINDOW) for c in read} == {c: set(row.limits) for c, row in cli.COMMANDS.items()}
    assert sum(len(row.limits) for row in cli.COMMANDS.values()) == 10


def window_argv(command):
    """An argv of the command on its example in COMMAND_EXAMPLES."""
    if command == "operad":
        return ["operad", "pn"]
    kind = ["--kind", "sym2"] if command == "invariants" else []
    return [command, path(f"{COMMAND_EXAMPLES[command]}.spw"), *kind]


def test_an_unread_window_option_is_a_usage_error(capsys, monkeypatch):
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    accepted = refused = 0
    for command, row in cli.COMMANDS.items():
        for dest, flag in WINDOW.items():
            code, err = run_exit(capsys, *window_argv(command), "--json", flag, "2")
            if dest in row.limits:
                assert code in (0, 1, 3), (command, flag, err)
                accepted += 1
            else:
                assert code == 2 and f"unrecognized arguments: {flag} 2" in err, (command, flag)
                refused += 1
    assert (accepted, refused) == (10, 44)


def test_an_unread_window_variable_is_ignored(capsys, monkeypatch):
    """An SPW_MAX_* variable that a command does not read changes nothing,
    not even when its value is not a size."""
    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    ignored = 0
    for command, row in cli.COMMANDS.items():
        argv = window_argv(command)
        unread = ["SPW_" + dest.upper() for dest in WINDOW if dest not in row.limits]
        want = run(capsys, *argv, "--json")
        for var in unread:
            monkeypatch.setenv(var, "bad")
        assert run(capsys, *argv, "--json") == want, command
        ignored += len(unread)
        for var in unread:
            monkeypatch.delenv(var)
    assert ignored == 44


def test_readme_lists_each_command_s_options():
    """The README's CLI synopsis: the common options of the manifest
    commands and of `operad`, then one row per command with its own."""
    with open(os.path.join(DATA, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## The CLI\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    assert block[0].startswith("spw <command> [manifest.spw]") and block[1].startswith("spw operad ")
    assert block[2:4] == ["", "command          options"]
    common = {"manifest": set(re.findall(r"--[a-z-]+", block[0])), "operad": set(re.findall(r"--[a-z-]+", block[1]))}
    rows = {line.split()[0]: set(re.findall(r"--[a-z-]+", line)) for line in block[4:]}
    assert list(rows) == list(cli.COMMANDS)
    for name, sub in cli.build_parser().commands.items():
        flags = {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        mine = common["operad" if name == "operad" else "manifest"]
        assert rows[name] | mine == flags and not rows[name] & mine, name


# -- the report writer against json.dumps ---------------------------------------


def write_report(payload):
    out = []
    cli._write_json(payload, "\n", out)
    return "".join(out) + "\n"


def test_every_golden_report_equals_the_json_dumps_oracle(capsys, monkeypatch):
    from test_golden_cli import invocations

    for var in ENV:
        monkeypatch.delenv(var, raising=False)
    payloads = []
    write = cli._write_json

    def recording(value, newline, out):
        if newline == "\n":  # the whole payload; nested values start deeper
            payloads.append(value)
        write(value, newline, out)

    monkeypatch.setattr(cli, "_write_json", recording)
    argvs = [a if a[0] == "operad" else [a[0], path(a[1]), *a[2:]] for a in invocations()]
    argvs.append(["operad", "arnold", "--arity", "4", "--json", "--timings"])
    written = 0
    for argv in argvs:
        payloads.clear()
        main(argv)
        out = capsys.readouterr().out
        assert len(payloads) <= 1
        assert out == (oracle_report_json(payloads[0]) if payloads else ""), argv
        written += len(payloads)
    assert written > len(argvs) // 2
    assert "total_seconds" in payloads[0]["timings"]


STRINGS = (
    "", "plain", 'a "quoted" word', "back\\slash", "tab\tand\nnewline", "\x00\x1f\x7f",
    "déjà vu", "ω ∧ dθ", "\U0001d53d", "\u2028", "</script>",
)


def random_leaf(rng):
    pick = rng.randrange(7)
    if pick == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if pick == 1:
        return rng.randint(-10**6, 10**6)
    if pick == 2:
        return rng.choice((-1, 1)) * (10 ** rng.randint(18, 80) + rng.randrange(10**6))
    if pick == 3:
        return rng.choice((True, False, None))
    if pick == 4:
        return rng.choice(({}, [], ()))
    if pick == 5:
        return rng.choice((0.5, -2.25, 1e-07, 123456.789, 0.0))
    return rng.choice(STRINGS)


def random_payload(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    size = rng.randrange(6)
    if rng.random() < 0.4:
        items = [random_payload(rng, depth - 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.2 else items
    if rng.random() < 0.3:  # int keys: json sorts them as ints, then writes them
        keys = rng.sample(range(-12, 40), size)
    else:
        keys = [rng.choice(STRINGS) + str(rng.randrange(30)) for _ in range(size)]
    return {k: random_payload(rng, depth - 1) for k in keys}


def test_report_writer_equals_the_json_dumps_oracle_on_random_payloads():
    rng = random.Random(2121)
    payloads = [random_payload(rng, 4) for _ in range(600)]
    for payload in payloads:
        assert write_report(payload) == oracle_report_json(payload), payload
    assert {dict, list, tuple, str, int, bool, float, type(None)} <= {type(p) for p in payloads}


@pytest.mark.parametrize(
    "payload",
    [{1: "a", "b": 2}, {(1, 2): 3}, [{1, 2}], {"x": [1, object()]}],
    ids=("mixed-keys", "tuple-key", "set", "object"),
)
def test_report_writer_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        oracle_report_json(payload)
    with pytest.raises(TypeError):
        write_report(payload)
