"""Command-line front end, and the one module that reads and writes JSON.

Subcommands build, couple, classify and analyze systems from inline
parameters, JSON descriptors or Foster data JSON, and emit reports (JSON),
grids (CSV) or netlists (text).  Output is deterministic: floats are
rounded to 12 significant digits, line endings are LF, and infinity, which
the library carries as the genuine IEEE infinity, is serialized as the
string "inf".

Exit codes: 0 success, 1 malformed input, 2 invariant violation,
3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, circuit, coupling, elementary, verify
from .colligation import LSystem, impedance_eval, validate
from .errors import DomainError, LivsicError
from .ratfun import RationalFunction

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVARIANT = 2
EXIT_DOMAIN = 3


# -- deterministic JSON rendering ---------------------------------------

def _num(x: float):
    if math.isinf(x):
        return "inf"
    return float(f"{float(x):.12g}")


def _cnum(z: complex) -> dict:
    return {"re": _num(z.real), "im": _num(z.imag)}


def _rat(r: RationalFunction) -> dict:
    return {"num": [_cnum(c) for c in r.num.coeffs],
            "den": [_cnum(c) for c in r.den.coeffs],
            "display": str(r)}


def _classification(c: analysis.DonoghueClassification) -> dict:
    return {"class": c.class_tag.value,
            "kappa": None if c.kappa is None else _num(c.kappa),
            "a": _num(c.a)}


def _system_json(sys: LSystem, lambda0: complex | None = None) -> dict:
    doc = {"T": [[_cnum(v) for v in row] for row in sys.T],
           "K": [_cnum(v) for v in sys.K],
           "J": sys.J}
    if lambda0 is not None:
        doc["lambda0"] = _cnum(lambda0)
    return doc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_report(report: dict, out: str | None = None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", out)


# -- input parsing -------------------------------------------------------

def _complex(doc) -> complex:
    return complex(float(doc["re"]), float(doc["im"]))


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_grid(text: str) -> tuple[float, float, float, float, int, int]:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"expected 'xmin,xmax,ymin,ymax,nx,ny', got {text!r}")
    return (float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
            int(parts[4]), int(parts[5]))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _factor_systems(doc) -> tuple[LSystem, LSystem]:
    """The two factors of a coupling descriptor, {"factors": [...]} or a
    bare list; any other count of factors is malformed."""
    factors = doc["factors"] if isinstance(doc, dict) else doc
    if len(factors) != 2:
        raise ValueError(f"coupling descriptor needs 2 factors, got {len(factors)}")
    return system_from_descriptor(factors[0]), system_from_descriptor(factors[1])


def system_from_descriptor(doc) -> LSystem:
    """Assemble a system from any supported descriptor shape:
    {"T","K","J"} with {"re","im"} entries and J = 1 by default,
    {"lambda0"}, {"factors": [...]} (recursively), or a bare two-element
    list treated as factors."""
    if isinstance(doc, list):
        doc = {"factors": doc}
    if not isinstance(doc, dict):
        raise ValueError(f"descriptor must be an object or list, got {type(doc).__name__}")
    if "T" in doc:
        return LSystem([[_complex(v) for v in row] for row in doc["T"]],
                       [_complex(v) for v in doc["K"]], doc.get("J", 1))
    if "lambda0" in doc:
        return elementary.make_elementary(_complex(doc["lambda0"])).system
    if "factors" in doc:
        return coupling.couple(*_factor_systems(doc)).system
    raise ValueError("descriptor has none of the keys 'T', 'lambda0', 'factors'")


def _require_valid(sys: LSystem) -> None:
    rep = validate(sys)
    if not rep.passed:
        raise LivsicError(
            f"colligation identity violated: residual {rep.residual:.3e} "
            f"> threshold {rep.threshold:.3e}")


# -- subcommand handlers --------------------------------------------------

def _entropy_fields(s: float) -> dict:
    return {"entropy": _num(s), "dissipation": _num(analysis.dissipation_from_entropy(s))}


def _cmd_elementary(args) -> int:
    lam = args.lambda0
    built = elementary.make_elementary(lam)
    report = {
        "lambda0": _cnum(lam),
        "system": _system_json(built.system, lam),
        "transfer": _rat(elementary.transfer_closed(lam)),
        "impedance": _rat(elementary.impedance_closed(lam)),
        "classification": _classification(analysis.classify_elementary(lam)),
        **_entropy_fields(analysis.c_entropy_elementary_closed(lam)),
    }
    _print_report(report)
    if args.out:
        _print_report(report["system"], args.out)
    return EXIT_OK


def _cmd_skew(args) -> int:
    lam = args.lambda0
    skew = elementary.make_skew_adjoint(lam)
    s = analysis.c_entropy_elementary_closed(lam)
    d = analysis.dissipation_elementary_closed(lam)
    block = coupling.self_skew_coupling(lam)
    v_i = coupling.self_skew_impedance_closed(lam)(1j)
    report = {
        "lambda0": _cnum(lam),
        "skew_system": _system_json(skew.system, lam),
        "transfer": _rat(elementary.skew_transfer_closed(lam)),
        "impedance": _rat(elementary.skew_impedance_closed(lam)),
        **_entropy_fields(s),
        "self_coupling": {
            "system": _system_json(block.system),
            "transfer": _rat(coupling.self_skew_transfer_closed(lam)),
            "impedance": _rat(coupling.self_skew_impedance_closed(lam)),
            "impedance_at_i": _cnum(v_i),
            "classification": _classification(analysis.classify_at_i(v_i)),
            **_entropy_fields(2.0 * s),
            "dissipation_identity": _num(2.0 * d - d * d),
        },
    }
    _print_report(report)
    if args.out:
        _print_report(report["skew_system"], args.out)
    return EXIT_OK


def _cmd_couple(args) -> int:
    if args.infile:
        sys1, sys2 = _factor_systems(_load_json(args.infile))
        lam = mu = None
    else:
        if args.lambda0 is None or args.mu0 is None:
            raise ValueError("couple needs either --in or both --lambda0 and --mu0")
        lam, mu = args.lambda0, args.mu0
        sys1 = elementary.make_elementary(lam).system
        sys2 = elementary.make_elementary(mu).system
    _require_valid(sys1)
    _require_valid(sys2)
    coupled = coupling.couple(sys1, sys2)

    s1, s2 = analysis.c_entropy(sys1), analysis.c_entropy(sys2)
    report = {
        "factors": [
            {"lambda0": _cnum(lam)} if lam is not None else {},
            {"lambda0": _cnum(mu)} if mu is not None else {},
        ],
        "system": _system_json(coupled.system),
        **_entropy_fields(analysis.compose_entropy(s1, s2)),
        "factor_entropies": [_num(s1), _num(s2)],
        "factor_dissipations": [_num(analysis.dissipation_from_entropy(s)) for s in (s1, s2)],
    }
    for i, sub in enumerate((sys1, sys2)):
        try:
            cls = analysis.classify_at_i(impedance_eval(sub, 1j))
            report["factors"][i]["classification"] = _classification(cls)
        except LivsicError:
            pass
    if lam is not None and mu is not None:
        report["transfer"] = _rat(coupling.coupling_transfer_closed(lam, mu))
        report["impedance"] = _rat(coupling.coupling_impedance_closed(lam, mu))
        report["dissipation_closed"] = _num(analysis.coupling_dissipation_closed(lam, mu))
    try:
        v_i = impedance_eval(coupled.system, 1j)
        report["impedance_at_i"] = _cnum(v_i)
        report["classification"] = _classification(analysis.classify_at_i(v_i))
    except LivsicError:
        pass
    _print_report(report)
    if args.out:
        _print_report(report["system"], args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    if args.infile:
        sys_ = system_from_descriptor(_load_json(args.infile))
    elif args.lambda0 is not None:
        sys_ = elementary.make_elementary(args.lambda0).system
    else:
        raise ValueError("classify needs --in or --lambda0")
    _require_valid(sys_)
    v_i = impedance_eval(sys_, 1j)
    report = {
        "impedance_at_i": _cnum(v_i),
        "classification": _classification(analysis.classify_at_i(v_i)),
        "source": "resolvent",
    }
    if args.lambda0 is not None and not args.infile:
        report["closed_form"] = _classification(analysis.classify_elementary(args.lambda0))
    _print_report(report, args.out)
    return EXIT_OK


def _cmd_entropy(args) -> int:
    if args.infile:
        sys_ = system_from_descriptor(_load_json(args.infile))
        _require_valid(sys_)
        report = _entropy_fields(analysis.c_entropy(sys_))
    elif args.lambda0 is not None:
        lam = args.lambda0
        sys_ = elementary.make_elementary(lam).system
        report = {"lambda0": _cnum(lam),
                  **_entropy_fields(analysis.c_entropy_elementary_closed(lam)),
                  "entropy_resolvent": _num(analysis.c_entropy(sys_))}
    else:
        raise ValueError("entropy needs --in or --lambda0")
    _print_report(report, args.out)
    return EXIT_OK


def _cmd_surface(args) -> int:
    x_min, x_max, y_min, y_max, nx, ny = args.grid
    xs, ys, s = analysis.entropy_surface(x_min, x_max, y_min, y_max, nx, ny)
    lines = ["x,y,S,D"]
    for iy in range(len(ys)):
        for ix in range(len(xs)):
            sv = float(s[iy, ix])
            dv = analysis.dissipation_from_entropy(sv)
            lines.append(f"{xs[ix]:.12g},{ys[iy]:.12g},{sv:.12g},{dv:.12g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    if not args.infile:
        raise ValueError("synth needs --in with Foster data JSON")
    doc = _load_json(args.infile)
    spec = circuit.FosterSpec(doc["a0"], [(s["a"], s["b"]) for s in doc.get("stages", [])])
    _emit(circuit.emit_netlist(circuit.synthesize(spec)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify.run_verification(seed=args.seed)
    ok = True
    for r in results:
        ok = ok and r.passed
        print(f"{r.name}: max_residual={r.max_residual:.6e} "
              f"tol={r.tol:.0e} {'PASS' if r.passed else 'FAIL'}")
    print(f"verification {'PASSED' if ok else 'FAILED'} ({len(results)} checks, seed={args.seed})")
    return EXIT_OK if ok else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for invariant
    # violations, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_MALFORMED)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="livsic",
                     description="Canonical L-systems: build, couple, classify, analyze, synthesize.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, lambda0=False, mu0=False, infile=False,
            out=True, grid=False, seed=False):
        p = sub.add_parser(name, help=helptext)
        if lambda0:
            p.add_argument("--lambda0", type=_parse_complex, metavar="RE,IM",
                           required=lambda0 == "required")
        if mu0:
            p.add_argument("--mu0", type=_parse_complex, metavar="RE,IM")
        if infile:
            p.add_argument("--in", dest="infile", metavar="FILE.json")
        if out:
            p.add_argument("--out", metavar="FILE")
        if grid:
            p.add_argument("--grid", type=_parse_grid, required=True,
                           metavar="XMIN,XMAX,YMIN,YMAX,NX,NY")
        if seed:
            p.add_argument("--seed", type=int, default=42)
        p.set_defaults(func=func)

    add("elementary", _cmd_elementary, "build a one-dimensional system from lambda0",
        lambda0="required")
    add("skew", _cmd_skew, "skew-adjoint companion and its self-coupling",
        lambda0="required")
    add("couple", _cmd_couple, "couple two systems", lambda0=True, mu0=True, infile=True)
    add("classify", _cmd_classify, "Donoghue class from V(i)", lambda0=True, infile=True)
    add("entropy", _cmd_entropy, "c-entropy and dissipation coefficient",
        lambda0=True, infile=True)
    add("surface", _cmd_surface, "CSV grid of c-entropy over the parameter plane",
        grid=True)
    add("synth", _cmd_synth, "LC netlist from Foster data JSON", infile=True)
    add("verify", _cmd_verify, "cross-check closed forms against the resolvent oracle",
        out=False, seed=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except LivsicError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
