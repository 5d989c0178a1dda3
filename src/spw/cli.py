"""Command line front end: parse a manifest, run checks, emit reports.

Exit codes: 0 all checks pass; 1 a mathematical check failed; 2 usage or
parse error; 3 a window was too small / a bounded check is inconclusive.
Reports are byte-deterministic for a fixed input and version; timings are
emitted only on request and live in a separate section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction as Rat

from . import __version__, dsl
from .errors import (
    Degenerate,
    GaugeNotFound,
    NotRegular,
    ParseError,
    SpwError,
    WindowTooSmall,
)
from .freecdga import Window

SCHEMA_VERSION = 1


class Report:
    def __init__(self, command, source):
        self.command = command
        self.digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        self.verdicts = []
        self.tables = {}
        self.witnesses = {}

    def check(self, name, ok, witness=None):
        status = "pass" if ok else "fail"
        self.verdicts.append({"check": name, "status": status})
        if witness is not None and not ok:
            self.witnesses[name] = str(witness)
        return ok

    def inconclusive(self, name, witness=None):
        self.verdicts.append({"check": name, "status": "inconclusive"})
        if witness is not None:
            self.witnesses[name] = str(witness)

    def table(self, name, data):
        if isinstance(data, dict):
            data = {str(k): (str(v) if isinstance(v, Rat) else v) for k, v in sorted(data.items(), key=lambda kv: str(kv[0]))}
        self.tables[name] = data

    @property
    def exit_code(self):
        if any(v["status"] == "fail" for v in self.verdicts):
            return 1
        if any(v["status"] == "inconclusive" for v in self.verdicts):
            return 3
        return 0

    def to_json(self, timings=None):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs_digest": self.digest,
            "verdicts": self.verdicts,
            "witnesses": dict(sorted(self.witnesses.items())),
            "tables": self.tables,
        }
        if timings is not None:
            payload["timings"] = timings
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = [f"{self.command}: digest {self.digest}"]
        for v in self.verdicts:
            mark = {"pass": "ok", "fail": "FAIL", "inconclusive": "?"}[v["status"]]
            lines.append(f"  [{mark}] {v['check']}")
            if v["check"] in self.witnesses:
                lines.append(f"        witness: {self.witnesses[v['check']]}")
        for name, data in self.tables.items():
            lines.append(f"  {name}: {json.dumps(data, sort_keys=True)}")
        return "\n".join(lines) + "\n"


def _window(args):
    return Window(
        wmin=0,
        wmax=args.max_weight,
        dmin=-args.max_degree,
        dmax=args.max_degree,
        max_len=args.max_len,
    )


def _target_block(manifest, args, kinds):
    name = args.target
    if name is None:
        for b in manifest.blocks:
            if b.kind in kinds:
                return b
        raise dsl.UnresolvedReference(f"manifest has no block of kind {kinds}")
    block = manifest.block(name)
    if block.kind not in kinds:
        raise dsl.UnresolvedReference(
            f"block {name!r} has kind {block.kind!r}, expected one of {kinds}"
        )
    return block


def _algebra_of(manifest, block):
    on = block.get(("on",))
    if on is None:
        raise dsl.UnresolvedReference(f"block {block.name!r} needs on = <algebra>")
    return dsl.build_algebra(manifest.block(on.ident))


# -- commands ------------------------------------------------------------------


def cmd_check_cdga(manifest, args, report):
    from .freecdga import validate_cdga

    block = _target_block(manifest, args, ("algebra",))
    alg = dsl.build_algebra(block)
    rep = validate_cdga(alg)
    report.check("cdga identities", rep.valid, witness=rep.violations[:3] or None)


def cmd_check_mixed(manifest, args, report):
    from .freecdga import graded_mixed_window, validate_cdga
    from .gradedmixed import validate_mixed

    block = _target_block(manifest, args, ("algebra", "complex"))
    if block.kind == "complex":
        cx = dsl.build_complex(block)
    else:
        alg = dsl.build_algebra(block)
        rep = validate_cdga(alg)
        if not report.check("cdga identities", rep.valid, witness=rep.violations[:3] or None):
            return
        cx, _ = graded_mixed_window(alg, _window(args))
    rep = validate_mixed(cx)
    report.check("mixed identities", rep.valid, witness=rep.violations[:3] or None)


def cmd_de_rham(manifest, args, report):
    from .freecdga import de_rham, graded_mixed_window
    from .gradedmixed import validate_mixed

    block = _target_block(manifest, args, ("algebra",))
    alg = dsl.build_algebra(block)
    dr = de_rham(alg)
    cx, _ = graded_mixed_window(dr.algebra, _window(args))
    rep = validate_mixed(cx)
    report.check("de Rham mixed identities", rep.valid)
    dims = {w: dict(dr.weight_dim_window(w, args.max_len)) for w in range(0, 3)}
    report.table("weight dims", {str(k): v for k, v in dims.items()})


def cmd_closed_forms(manifest, args, report):
    from .freecdga import closed_form_classes

    block = _target_block(manifest, args, ("algebra",))
    alg = dsl.build_algebra(block)
    rep = closed_form_classes(
        alg, args.p, args.degree, args.max_weight, max_len=args.max_len
    )
    report.table("dimension", {"classes": rep.dimension})
    report.table("hodge stages", rep.stage_dims)
    report.table("fiber dims", rep.fiber_dims)
    report.check("towers are cocycles", all(t.check_cocycle(args.max_weight) for t in rep.representatives))


def _poisson_inputs(manifest, args):
    from .polyvec import MaurerCartanTower, PolyvectorAlgebra

    block = _target_block(manifest, args, ("poisson",))
    alg = _algebra_of(manifest, block)
    shift_expr = block.get(("shift",))
    n = int(dsl.eval_scalar(shift_expr)) if shift_expr is not None else 0
    pol = PolyvectorAlgebra(alg, n + 1)
    components = []
    i = 0
    while True:
        expr = block.get((f"p{i}",))
        if expr is None:
            break
        components.append(dsl.eval_poly(expr, pol.algebra))
        i += 1
    if not components:
        raise dsl.UnresolvedReference(f"poisson block {block.name!r} needs p0")
    tower = MaurerCartanTower(pol, n, components)
    return alg, pol, n, tower


def cmd_check_poisson(manifest, args, report):
    from .polyvec import check_strict_poisson

    alg, pol, n, tower = _poisson_inputs(manifest, args)
    rep = check_strict_poisson(alg, n, tower.component(0), pol)
    report.check("d pi = 0", rep.d_pi.is_zero(), witness=rep.d_pi)
    report.check("[pi, pi] = 0", rep.self_bracket.is_zero(), witness=rep.self_bracket)
    if rep.valid:
        report.table(
            "bracket table",
            {f"{{{a},{b}}}": str(v) for (a, b), v in rep.bracket_table.items()},
        )


def cmd_mc(manifest, args, report):
    from .polyvec import mc_check

    _, _, _, tower = _poisson_inputs(manifest, args)
    rep = mc_check(tower)
    report.check(
        "Maurer-Cartan equations",
        rep.valid,
        witness=None if rep.valid else f"fails at i={rep.first_failure}: {rep.residual}",
    )


def cmd_dualize(manifest, args, report):
    from .compare import poisson_to_form, symplectic_to_poisson

    alg, pol, n, tower = _poisson_inputs(manifest, args)
    form = poisson_to_form(alg, tower.component(0), n)
    report.check("closed and strictly closed", True)
    report.table("omega", {"value": repr(form.omega)})
    back = symplectic_to_poisson(form)
    report.check("round trip identity", back == tower.component(0))


def cmd_strictify(manifest, args, report):
    from .compare import strictify_closed_two_form
    from .freecdga import ClosedFormTower, de_rham

    block = _target_block(manifest, args, ("form",))
    alg = _algebra_of(manifest, block)
    n_expr = block.get(("degree",))
    n = int(dsl.eval_scalar(n_expr)) if n_expr is not None else 0
    dr = de_rham(alg)
    comps = {}
    for key, expr in block.entries:
        if key[0].startswith("w") and key[0][1:].isdigit():
            w = int(key[0][1:])
            comps[w] = dsl.eval_poly(expr, dr.algebra)
    tower = ClosedFormTower(dr, 2, n, comps)
    window = Window(1, args.max_weight, n, n + 4, args.max_len)
    res = strictify_closed_two_form(alg, tower, window)
    report.check("strict representative found", True)
    report.table("strict form", {"value": repr(res.strict_form)})
    report.table("potential", {"value": repr(res.eta)})


def cmd_darboux(manifest, args, report):
    from .compare import darboux_leading_term
    from .polyvec import mc_check

    _, _, _, tower = _poisson_inputs(manifest, args)
    mc = mc_check(tower)
    if not mc.valid:
        report.check("Maurer-Cartan equations", False, witness=f"fails at i={mc.first_failure}")
        return
    rep = darboux_leading_term(tower)
    report.check("d q = 0", rep.q_closed)
    report.check("[q, q] = 0", rep.q_self_bracket_zero)
    report.check("rewritten MC equation", rep.rewritten_mc_ok)
    report.table("leading term", {"q": repr(rep.q)})


def cmd_ce(manifest, args, report):
    from .gradedmixed import realization, validate_mixed
    from .lieinfty import ce_complex, validate_lie

    block = _target_block(manifest, args, ("lie",))
    g = dsl.build_lie(block)
    report.check("Lie identities", validate_lie(g).valid)
    cx = ce_complex(g)
    report.check("CE mixed identities", validate_mixed(cx).valid)
    dims = realization(cx, g.dim).homology_dims(range(0, g.dim + 1))
    report.table("realization homology", dims)


def cmd_lie_from_mixed(manifest, args, report):
    from .lieinfty import lie_from_mixed

    block = _target_block(manifest, args, ("algebra",))
    alg = dsl.build_algebra(block)
    g = lie_from_mixed(alg)
    report.check("extracted bracket satisfies Jacobi", True)
    table = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            comps = {k: g.c[i][j][k] for k in range(g.dim) if g.c[i][j][k]}
            if comps:
                table[f"[e{i+1},e{j+1}]"] = " + ".join(
                    f"{v}*e{k+1}" for k, v in sorted(comps.items())
                )
    report.table("brackets", table)


def cmd_invariants(manifest, args, report):
    from .lieinfty import invariants

    block = _target_block(manifest, args, ("lie",))
    g = dsl.build_lie(block)
    kind = {"sym2": "sym2", "wedge3": "wedge3"}[args.kind]
    basis = invariants(g, kind)
    report.table("dimension", {kind: len(basis)})
    report.check("invariance recheck", True)


def cmd_z_from_t(manifest, args, report):
    from .lieinfty import killing_form, semi_strict_check, z_from_t

    block = _target_block(manifest, args, ("lie",))
    g = dsl.build_lie(block)
    t = killing_form(g)
    z = z_from_t(g, t)
    report.check("Z is nonzero", bool(z.coeffs))
    rep = semi_strict_check(g, z)
    report.check("semi-strict structure valid", rep.valid)
    report.table(
        "Z", {f"e{i+1}^e{j+1}^e{k+1}": str(v) for (i, j, k), v in sorted(z.coeffs.items())}
    )


def cmd_koszul(manifest, args, report):
    from .freecdga import koszul

    block = _target_block(manifest, args, ("ideal",))
    alg = _algebra_of(manifest, block)
    gens_expr = block.get(("gens",))
    items = gens_expr.items if isinstance(gens_expr, dsl.Items) else (gens_expr,)
    fs = [dsl.eval_poly(item, alg) for item in items]
    k = koszul(alg, fs)
    dims = k.homotopy_dims(max_len=args.max_len, min_degree=-3)
    report.table("homotopy dims", dims)
    report.check("computed", True)


def cmd_d_functor(manifest, args, report):
    from .freecdga import d_functor

    block = _target_block(manifest, args, ("ideal",))
    alg = _algebra_of(manifest, block)
    gens_expr = block.get(("gens",))
    items = gens_expr.items if isinstance(gens_expr, dsl.Items) else (gens_expr,)
    fs = [dsl.eval_poly(item, alg) for item in items]
    res = d_functor(alg, fs, wmax=args.max_weight, max_len=args.max_len)
    report.table("weight-0 homology", res.weight0_h0_dims)
    report.table("realization H0 convergence", res.realization_h0_dims)
    report.check(
        "convergence nondecreasing",
        all(
            res.realization_h0_dims[w] <= res.realization_h0_dims[w + 1]
            for w in range(0, args.max_weight)
        ),
    )


def cmd_realize(manifest, args, report):
    from .gradedmixed import realization

    block = _target_block(manifest, args, ("complex",))
    cx = dsl.build_complex(block)
    total = realization(cx, args.max_weight)
    report.table("homology dims", total.homology_dims())
    report.check("computed", True)


def cmd_tate(manifest, args, report):
    from .gradedmixed import realization, tate_realization

    block = _target_block(manifest, args, ("complex",))
    cx = dsl.build_complex(block)
    base = realization(cx, args.max_weight)
    full, _ = tate_realization(cx, args.stage, args.max_weight)
    report.table("realization homology", base.homology_dims())
    report.table("tate homology", full.homology_dims())
    nonneg = all(p >= 0 for p, _ in cx.module.support())
    if nonneg:
        report.check(
            "comparison is a quasi-isomorphism",
            base.homology_dims() == full.homology_dims(),
        )
    else:
        report.inconclusive(
            "comparison quasi-isomorphism (negative weights present)"
        )


def cmd_operad(manifest, args, report):
    from . import operads

    labels = tuple(range(1, args.arity + 1))
    which = args.operad
    if which in ("pn", "as", "lie"):
        name = {"pn": "Pn", "as": "As", "lie": "Lie"}[which]
        space = operads.multilinear_basis(name, labels, n=args.n)
        report.table("dimension", {name: space.dimension})
        report.table(
            "weight distribution",
            {str(k): v for k, v in space.weight_distribution().items()},
        )
        report.check("computed", True)
    elif which == "bd1":
        op = operads.rees_bd1(labels)
        report.table("dimension", {"BD1": op.dimension()})
        p1_dim = operads.multilinear_basis("Pn", labels, n=1).dimension
        as_dim = operads.multilinear_basis("As", labels).dimension
        report.check("hbar=0 rank equals P1", op.dimension() == p1_dim)
        report.check("hbar=1 rank equals As", op.dimension() == as_dim)
        if args.specialize is not None:
            report.table("specialized at", {"hbar": str(args.specialize)})
    elif which == "bd0":
        rep = operads.bd0_check()
        report.check("d{,} = 0", rep.d_bracket_zero)
        report.check("d(.) = hbar {,}", rep.d_product_is_hbar_bracket)
        report.check("d^2 = 0 on arity-3 words", rep.d_squared_zero_on_words)
        report.check("d respects the P0 relations", rep.derivation_respects_relations)
    elif which == "arnold":
        alg = operads.arnold_algebra(args.n, labels)
        report.table("hilbert series", alg.hilbert_series())
        ok = True
        for length in range(2, len(labels)):
            q, nf = alg.rank_certificate(length)
            ok = ok and q == nf
        report.check("rank certificates", ok)
    elif which == "weyl":
        from .freecdga import FreeCDGA, Generator

        b = FreeCDGA([Generator(f"xi{i+1}", 1) for i in range(2)])
        t = {(0, 1): Rat(1), (1, 0): Rat(1)}
        wm = operads.weyl_structure_map(b, t, (1, 2), n=args.n)
        out0 = wm.structure_map([b.gen("xi1"), b.gen("xi2")])
        report.check("degree-0 part is multiplication", out0[()] == b.gen("xi1") * b.gen("xi2"))
        a12 = out0.get(((1, 2),), b.zero())
        report.check("a_12 coefficient is the pairing", a12.constant_term() == 1)
        zero = operads.weyl_structure_map(b, {}, (1, 2), n=args.n)
        outz = zero.structure_map([b.gen("xi1"), b.gen("xi2")])
        report.check("t = 0 gives plain multiplication", set(outz) == {()})
    else:
        raise ValueError(which)


COMMANDS = {
    "check-cdga": cmd_check_cdga,
    "check-mixed": cmd_check_mixed,
    "de-rham": cmd_de_rham,
    "closed-forms": cmd_closed_forms,
    "check-poisson": cmd_check_poisson,
    "mc": cmd_mc,
    "dualize": cmd_dualize,
    "strictify": cmd_strictify,
    "darboux": cmd_darboux,
    "ce": cmd_ce,
    "lie-from-mixed": cmd_lie_from_mixed,
    "invariants": cmd_invariants,
    "z-from-t": cmd_z_from_t,
    "koszul": cmd_koszul,
    "d-functor": cmd_d_functor,
    "realize": cmd_realize,
    "tate": cmd_tate,
    "operad": cmd_operad,
}

_NEEDS_MANIFEST = {name for name in COMMANDS} - {"operad"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Exact workbench for graded mixed and shifted Poisson checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    env = os.environ

    def common(p, manifest=True):
        if manifest:
            p.add_argument("manifest", nargs="?", help="manifest file (default stdin)")
            p.add_argument("--target", help="block name to operate on")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--timings", action="store_true", help="include timings section")
        # string defaults pass through type=int, so a bad value is a usage error
        p.add_argument("--max-weight", type=int, default=env.get("SPW_MAX_WEIGHT", "6"))
        p.add_argument("--max-degree", type=int, default=env.get("SPW_MAX_DEGREE", "8"))
        p.add_argument("--max-len", type=int, default=env.get("SPW_MAX_LEN", "6"))

    for name in COMMANDS:
        if name == "operad":
            continue
        p = sub.add_parser(name)
        common(p)
        if name == "closed-forms":
            p.add_argument("--p", type=int, default=2)
            p.add_argument("--degree", type=int, default=0)
        if name == "invariants":
            p.add_argument("--kind", choices=("sym2", "wedge3"), required=True)
        if name == "tate":
            p.add_argument("--stage", type=int, default=1)
    p = sub.add_parser("operad")
    p.add_argument(
        "operad", choices=("pn", "as", "lie", "bd1", "bd0", "arnold", "weyl")
    )
    common(p, manifest=False)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--specialize", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    source = ""
    manifest = None
    try:
        if args.command in _NEEDS_MANIFEST:
            if args.manifest:
                with open(args.manifest, "r", encoding="utf-8") as fh:
                    source = fh.read()
            else:
                source = sys.stdin.read()
            manifest = dsl.parse(source)
        report = Report(args.command, source)
        COMMANDS[args.command](manifest, args, report)
    except (ParseError, dsl.DuplicateName, dsl.UnresolvedReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WindowTooSmall as exc:
        print(f"window too small: {exc}", file=sys.stderr)
        return 3
    except GaugeNotFound as exc:
        if exc.residual_class_dim:
            print(f"obstruction: {exc}", file=sys.stderr)
            return 1
        print(f"gauge not found in window: {exc}", file=sys.stderr)
        return 3
    except (Degenerate, NotRegular) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except SpwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timings = (
        {"total_seconds": round(time.monotonic() - started, 6)} if args.timings else None
    )
    out = report.to_json(timings) if args.json else report.to_text()
    sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
