"""Command line front end: parse a manifest, run checks, emit reports.

Exit codes: 0 all checks pass; 1 a mathematical check failed; 2 usage or
parse error; 3 a window was too small / a bounded check is inconclusive;
4 an internal error (a bug in spw, not in the input).
Reports are byte-deterministic for a fixed input and version; timings are
emitted only on request and live in a separate section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction as Rat
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, dsl
from .errors import (
    Degenerate,
    GaugeNotFound,
    IdentityViolated,
    NotRegular,
    SpwError,
    WindowTooSmall,
)
from .freecdga import Window
from .record import FrozenRecord

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
        out = []
        _write_json(payload, "\n", out)
        out.append("\n")
        return "".join(out)

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


def _write_json(value, newline, out):
    """Append `value` to `out` as `json.dumps(value, sort_keys=True,
    indent=2)` writes it, `newline` being the line break and indent of the
    line it starts on.  The C encoder has no indent, so json.dumps would
    run the pure-Python one."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner, sep = newline + "  ", "{"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = json.dumps(key)
            out += (sep, inner, _quote(key), ": ")
            _write_json(item, inner, out)
            sep = ","
        out += (newline, "}")
    elif isinstance(value, (list, tuple)) and value:
        inner, sep = newline + "  ", "["
        for item in value:
            out += (sep, inner)
            _write_json(item, inner, out)
            sep = ","
        out += (newline, "]")
    else:  # an empty container or a float, as json writes it
        out.append(json.dumps(value))


def _target_block(manifest, args, *kinds):
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


# -- commands ------------------------------------------------------------------


def _check_cdga(report, name, alg):
    """`validate_cdga` as the verdict `name`.  d^2, eps^2 and d eps + eps d
    are derivations, so vanishing on generators they vanish on every word,
    and so in every window: no window is built."""
    from .freecdga import validate_cdga

    rep = validate_cdga(alg)
    report.check(name, rep.valid, witness=rep.violations[:3] or None)


def cmd_check_cdga(manifest, args, report):
    _check_cdga(report, "cdga identities", dsl.build_algebra(_target_block(manifest, args, "algebra")))


def cmd_check_mixed(manifest, args, report):
    from .gradedmixed import validate_mixed

    block = _target_block(manifest, args, "algebra", "complex")
    if block.kind == "algebra":
        _check_cdga(report, "cdga identities", dsl.build_algebra(block))
        return
    rep = validate_mixed(dsl.build_complex(block))
    report.check("mixed identities", rep.valid, witness=rep.violations[:3] or None)


def cmd_de_rham(manifest, args, report):
    from .freecdga import de_rham

    b = dsl.build_algebra(_target_block(manifest, args, "algebra"))
    dr = de_rham(b)
    _check_cdga(report, "de Rham mixed identities", dr.algebra)
    # from the unit's weight 0, or B's least generator weight w0 below it, up to w0 + 2
    w0 = min((g.weight for g in b.generators), default=0)
    dims = dr.weight_dim_window(min(0, w0), w0 + 2, args.max_len)
    report.table("weight dims", {str(k): v for k, v in dims.items()})


def cmd_closed_forms(manifest, args, report):
    from .freecdga import closed_form_classes

    alg = dsl.build_algebra(_target_block(manifest, args, "algebra"))
    rep = closed_form_classes(
        alg, args.p, args.degree, args.max_weight, max_len=args.max_len
    )
    report.table("dimension", {"classes": rep.dimension})
    report.table("hodge stages", rep.stage_dims)
    report.table("fiber dims", rep.fiber_dims)
    report.check("towers are cocycles", all(t.check_cocycle(args.max_weight) for t in rep.representatives))


def cmd_check_poisson(manifest, args, report):
    from .polyvec import check_strict_poisson

    tower = dsl.build_poisson(_target_block(manifest, args, "poisson"))
    rep = check_strict_poisson(tower.pol, tower.component(0))
    report.check("d pi = 0", rep.d_pi.is_zero(), witness=rep.d_pi)
    report.check("[pi, pi] = 0", rep.self_bracket.is_zero(), witness=rep.self_bracket)
    if rep.valid:
        report.table(
            "bracket table",
            {f"{{{a},{b}}}": str(v) for (a, b), v in rep.bracket_table.items()},
        )


def cmd_mc(manifest, args, report):
    from .polyvec import mc_check

    tower = dsl.build_poisson(_target_block(manifest, args, "poisson"))
    rep = mc_check(tower)
    report.check(
        "Maurer-Cartan equations",
        rep.valid,
        witness=None if rep.valid else f"fails at i={rep.first_failure}: {rep.residual}",
    )


def cmd_dualize(manifest, args, report):
    from .compare import poisson_to_form, symplectic_to_poisson

    tower = dsl.build_poisson(_target_block(manifest, args, "poisson"))
    form = poisson_to_form(tower.pol.base, tower.component(0), tower.n)
    report.table("omega", {"value": repr(form.omega)})
    back = symplectic_to_poisson(form)
    report.check("round trip identity", back == tower.component(0))


def cmd_strictify(manifest, args, report):
    from .compare import strictify_closed_two_form

    tower = dsl.build_form(_target_block(manifest, args, "form"))
    window = Window(1, args.max_weight, tower.n, tower.n + 4, args.max_len)
    res = strictify_closed_two_form(tower.de_rham.base, tower, window)
    report.table("strict form", {"value": repr(res.strict_form)})
    report.table("potential", {"value": repr(res.eta)})


def cmd_darboux(manifest, args, report):
    from .compare import _darboux_report
    from .polyvec import mc_check

    tower = dsl.build_poisson(_target_block(manifest, args, "poisson"))
    mc = mc_check(tower)
    if not mc.valid:
        report.check("Maurer-Cartan equations", False, witness=f"fails at i={mc.first_failure}")
        return
    rep = _darboux_report(tower)  # the MC equations are checked above
    report.check("d q = 0", rep.q_closed)
    report.check("[q, q] = 0", rep.q_self_bracket_zero)
    report.check("rewritten MC equation", rep.rewritten_mc_ok)
    report.table("leading term", {"q": repr(rep.q)})


def cmd_ce(manifest, args, report):
    from .gradedmixed import validate_mixed, weight_window_total_complex
    from .lieinfty import ce_complex, validate_lie

    g = dsl.build_lie(_target_block(manifest, args, "lie"))
    report.check("Lie identities", validate_lie(g).valid)
    cx = ce_complex(g)
    report.check("CE mixed identities", validate_mixed(cx).valid)
    dims = weight_window_total_complex(cx, 0, g.dim).homology_dims(range(0, g.dim + 1))
    report.table("realization homology", dims)


def cmd_lie_from_mixed(manifest, args, report):
    from .lieinfty import lie_from_mixed, validate_lie

    alg = dsl.build_algebra(_target_block(manifest, args, "algebra"))
    g = lie_from_mixed(alg)
    rep = validate_lie(g)
    # the witnesses name basis elements as the table does: index i is e{i+1}
    witness = [(kind, tuple(f"e{i+1}" for i in at)) for kind, at in rep.violations[:3]]
    report.check("extracted bracket satisfies Jacobi", rep.valid, witness=witness or None)
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
    from .lieinfty import _action, _is_invariant, invariants

    g = dsl.build_lie(_target_block(manifest, args, "lie"))
    basis = invariants(g, args.kind)
    report.table("dimension", {args.kind: len(basis)})
    _, tables = _action(g, args.kind)
    report.check("invariance recheck", all(_is_invariant(tables, t) for t in basis))


def cmd_z_from_t(manifest, args, report):
    from .lieinfty import killing_form, semi_strict_check, z_from_t

    g = dsl.build_lie(_target_block(manifest, args, "lie"))
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

    alg, fs = dsl.build_ideal(_target_block(manifest, args, "ideal"))
    k = koszul(alg, fs)
    dims = k.homotopy_dims(max_len=args.max_len, min_degree=-3)
    report.table("homotopy dims", dims)


def cmd_d_functor(manifest, args, report):
    from .freecdga import d_functor

    alg, fs = dsl.build_ideal(_target_block(manifest, args, "ideal"))
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
    from .gradedmixed import realization_oracle_dims, weight_window_total_complex

    cx = dsl.build_complex(_target_block(manifest, args, "complex"))
    dims = weight_window_total_complex(cx, 0, args.max_weight).homology_dims()
    report.table("homology dims", dims)
    report.check(
        "agrees with Hom(cell model, E)",
        dims == realization_oracle_dims(cx, args.max_weight, sorted(dims)),
    )


def cmd_tate(manifest, args, report):
    from .gradedmixed import tate_realization, weight_window_total_complex

    cx = dsl.build_complex(_target_block(manifest, args, "complex"))
    base = weight_window_total_complex(cx, 0, args.max_weight).homology_dims()
    full = tate_realization(cx, args.stage, args.max_weight)[0].homology_dims()
    report.table("realization homology", base)
    report.table("tate homology", full)
    nonneg = all(p >= 0 for p, _ in cx.module.support())
    if nonneg:
        report.check("comparison is a quasi-isomorphism", base == full)
    else:
        report.inconclusive(
            "comparison quasi-isomorphism (negative weights present)"
        )


def cmd_operad(manifest, args, report):
    from . import operads

    which = args.operad
    least = 2 if which in ("weyl", "arnold") else 1
    if args.arity < least:
        _parser.commands["operad"].error(
            f"argument --arity: must be >= {least} for {which}, got {args.arity}"
        )
    labels = tuple(range(1, args.arity + 1))
    operads._check_arity(labels)
    if which in ("pn", "as", "lie"):
        name = {"pn": "Pn", "as": "As", "lie": "Lie"}[which]
        space = operads.multilinear_basis(name, labels, n=args.n)
        report.table("dimension", {name: space.dimension})
        report.table(
            "weight distribution",
            {str(k): v for k, v in space.weight_distribution().items()},
        )
        k = args.arity - 1 if which == "lie" else args.arity
        report.check(f"dimension equals {k}!", space.dimension == math.factorial(k))
    elif which == "bd1":
        op = operads.rees_bd1(labels)
        report.table("dimension", {"BD1": op.dimension()})
        as_dim = operads.multilinear_basis("As", labels).dimension
        report.check(f"dimension equals dim As = {args.arity}!", op.dimension() == as_dim)
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

        b = FreeCDGA([Generator(f"xi{i}", 1) for i in labels])
        xs = [b.gen(f"xi{i}") for i in labels]
        # a bracket of degree -n on degree-1 generators has
        # {a, b} = (-1)^n {b, a}, so the pairing of xi1 and xi2 must too
        t = {(0, 1): 1, (1, 0): -1 if args.n % 2 else 1}
        out0 = operads.weyl_structure_map(b, t, labels, n=args.n).structure_map(xs)
        report.check("degree-0 part is multiplication", out0[()] == math.prod(xs, start=b.one()))
        # a_12 pairs xi1 with xi2 and passes xi3 .. xik, of degree k - 2
        a12 = out0.get(((1, 2),), b.zero())
        sign = -1 if args.n * (args.arity - 2) % 2 else 1
        report.check("a_12 coefficient is the pairing", a12 == math.prod(xs[2:], start=b.scalar(sign)))
        outz = operads.weyl_structure_map(b, {}, labels, n=args.n).structure_map(xs)
        report.check("t = 0 gives plain multiplication", set(outz) == {()})
    else:
        raise ValueError(which)


class _Command(FrozenRecord):
    __slots__ = _fields = ("handler", "manifest", "options", "limits")

    def __init__(self, handler, manifest: bool = True, options: tuple = (), limits: tuple = ()):
        self.handler = handler
        self.manifest = manifest  # reads a manifest file (or stdin)
        self.options = options  # (flags, add_argument keywords) after the common options
        self.limits = limits  # the dests of the window options (_LIMITS) the handler reads


def _size(text):
    """A window size or a stage: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _option(*flags, **kwargs):
    return flags, kwargs


COMMANDS = {
    "check-cdga": _Command(cmd_check_cdga),
    "check-mixed": _Command(cmd_check_mixed),
    "de-rham": _Command(cmd_de_rham, limits=("max_len",)),
    "closed-forms": _Command(
        cmd_closed_forms,
        options=(_option("--p", type=_size, default=2), _option("--degree", type=int, default=0)),
        limits=("max_weight", "max_len"),
    ),
    "check-poisson": _Command(cmd_check_poisson),
    "mc": _Command(cmd_mc),
    "dualize": _Command(cmd_dualize),
    "strictify": _Command(cmd_strictify, limits=("max_weight", "max_len")),
    "darboux": _Command(cmd_darboux),
    "ce": _Command(cmd_ce),
    "lie-from-mixed": _Command(cmd_lie_from_mixed),
    "invariants": _Command(
        cmd_invariants, options=(_option("--kind", choices=("sym2", "wedge3"), required=True),)
    ),
    "z-from-t": _Command(cmd_z_from_t),
    "koszul": _Command(cmd_koszul, limits=("max_len",)),
    "d-functor": _Command(cmd_d_functor, limits=("max_weight", "max_len")),
    "realize": _Command(cmd_realize, limits=("max_weight",)),
    "tate": _Command(cmd_tate, options=(_option("--stage", type=_size, default=1),), limits=("max_weight",)),
    "operad": _Command(
        cmd_operad,
        manifest=False,
        options=(
            _option("operad", choices=("pn", "as", "lie", "bd1", "bd0", "arnold", "weyl")),
            _option("--arity", type=int, default=2),
            _option("--n", type=int, default=1),
        ),
    ),
}


# (dest, environment variable, default) of the window options; a command
# has those its row names, and main() reads their variables on every call
_LIMITS = (
    ("max_weight", "SPW_MAX_WEIGHT", "6"),
    ("max_len", "SPW_MAX_LEN", "6"),
)


def build_parser():
    """The spw argument parser; `parser.commands` maps each command name to
    its subparser, `parser.tables` to its table for `_read`."""
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Exact workbench for graded mixed and shifted Poisson checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        if command.manifest:
            p.add_argument("manifest", nargs="?", help="manifest file (default stdin)")
            p.add_argument("--target", help="block name to operate on")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--timings", action="store_true", help="include timings section")
        for dest, _, default in _LIMITS:
            if dest in command.limits:
                # string defaults pass through type=_size, so a bad value is a usage error
                p.add_argument("--" + dest.replace("_", "-"), type=_size, default=default)
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    parser.commands = sub.choices
    parser.limits = {dest: default for dest, _, default in _LIMITS}  # as the subparsers hold them
    parser.tables = _tables(parser.commands)
    return parser


_parser = None  # built by the first main() call, then reused


class _Irregular(Exception):
    """An argv that `_read` leaves to argparse."""


# what `_read` raises on an argv that argparse then reads, with its usage error
_UNREAD = (_Irregular, argparse.ArgumentTypeError, TypeError, ValueError)


def _tables(commands):
    """{command: (positionals, options, defaults, needed)} read off each
    subparser's actions: its positional actions in order, its option
    strings' actions, each dest's default as argparse leaves it when the
    argv does not set it (a string default passed through the action's
    type), and the dests argv must set (required, or a default that does
    not convert).  -h and --help are left out, so argparse prints the help."""
    tables = {}
    for name, sub in commands.items():
        positionals, options, defaults, needed = [], {}, {}, set()
        for action in sub._actions:
            if action.default is argparse.SUPPRESS:
                continue
            if action.nargs not in (None, 0, "?"):
                raise ValueError(f"{name}: no fast reading of nargs={action.nargs!r}")
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, action))
            else:
                positionals.append(action)
            if action.required:
                needed.add(action.dest)
            elif isinstance(action.default, str):
                try:
                    defaults[action.dest] = _value(action, action.default)
                except _UNREAD:
                    needed.add(action.dest)
            else:
                defaults[action.dest] = action.default
        tables[name] = (positionals, options, defaults, needed)
    return tables


def _value(action, token):
    """`token` read as argparse reads an argument of `action`."""
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise _Irregular
    return value


def _read(table, argv):
    """The namespace of argv in the regular shape: the command, its
    positionals in order, then option strings each with one value (none for
    a flag), no token of which starts with "-" unless it is an option string;
    `_Irregular` for any other argv."""
    positionals, options, defaults, needed = table
    values = dict(defaults)
    i, end = 1, len(argv)
    for action in positionals:
        if i < end and argv[i][:1] != "-":
            values[action.dest] = _value(action, argv[i])
            i += 1
        elif action.required:
            raise _Irregular
    while i < end:
        action = options.get(argv[i])
        if action is None:
            raise _Irregular
        if action.nargs == 0:
            values[action.dest] = action.const
        elif i + 1 < end and argv[i + 1][:1] != "-":
            i += 1
            values[action.dest] = _value(action, argv[i])
        else:
            raise _Irregular
        i += 1
    if not values.keys() >= needed:  # a needed dest has no default in values
        raise _Irregular
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv):
    """`_parser.parse_args(argv)`.  An argv in the regular shape (see
    `_read`) is read off its command's table; every other argv goes to
    argparse, which alone gives usage errors, help and the version."""
    if argv is None:
        argv = sys.argv[1:]
    table = _parser.tables.get(argv[0]) if argv else None
    if table is not None:
        try:
            return _read(table, argv)
        except _UNREAD:
            pass
    return _parser.parse_args(argv)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    limits = {dest: os.environ.get(var, default) for dest, var, default in _LIMITS}
    if limits != _parser.limits:
        for name, command in COMMANDS.items():
            if command.limits:
                _parser.commands[name].set_defaults(**{dest: limits[dest] for dest in command.limits})
        _parser.limits = limits
        _parser.tables = _tables(_parser.commands)
    args = _parse_args(argv)
    command = COMMANDS[args.command]
    started = time.monotonic()
    source = ""
    manifest = None
    try:
        if command.manifest:
            if args.manifest is not None:
                with open(args.manifest, "r", encoding="utf-8") as fh:
                    source = fh.read()
            else:
                source = sys.stdin.read()
            manifest = dsl.parse(source)
        report = Report(args.command, source)
        command.handler(manifest, args, report)
    except WindowTooSmall as exc:
        print(f"window too small: {exc}", file=sys.stderr)
        return 3
    except GaugeNotFound as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return 1
    except (Degenerate, NotRegular) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except IdentityViolated as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (SpwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    timings = (
        {"total_seconds": round(time.monotonic() - started, 6)} if args.timings else None
    )
    out = report.to_json(timings) if args.json else report.to_text()
    sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
