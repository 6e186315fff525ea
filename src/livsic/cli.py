"""Command-line front end, and the one module that reads and writes JSON.

Subcommands build, couple, classify and analyze systems from inline
parameters, JSON descriptors or Foster data JSON, and emit reports (JSON),
grids (CSV) or netlists (text).  Output is deterministic: floats are
rounded to 12 significant digits, line endings are LF, and infinity, which
the library carries as the genuine IEEE infinity, is serialized as the
string "inf".

Exit codes: 0 success, 1 malformed input (usage errors included),
2 invariant violation, 3 domain error.  ``main`` is the one table that maps
an outcome to a code: handlers print and return, or raise.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import analysis, coupling, elementary
from .colligation import LSystem, impedance_resolvent, validate
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


def _wire(v):
    """The ``default`` hook of the encoder in ``_print_report``: the JSON form
    of a complex, an LSystem, a RationalFunction or a DonoghueClassification.
    json writes floats itself and never calls the hook for them, so a float
    enters a report through ``_num``."""
    if isinstance(v, complex):
        return {"re": _num(v.real), "im": _num(v.imag)}
    if isinstance(v, LSystem):
        return {"T": v.T.tolist(), "K": v.K.tolist(), "J": v.J}
    if isinstance(v, RationalFunction):
        return {"num": v.num.coeffs, "den": v.den.coeffs, "display": str(v)}
    if isinstance(v, analysis.DonoghueClassification):
        return {"class": v.class_tag.value,
                "kappa": None if v.kappa is None else _num(v.kappa),
                "a": _num(v.a)}
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_report(report, out: str | None = None) -> None:
    _emit(json.dumps(report, indent=2, default=_wire) + "\n", out)


# -- input parsing -------------------------------------------------------

def _field(doc, key: str, what: str):
    """doc[key] of the JSON object doc, which ``what`` names; ValueError
    naming both where doc is not an object or has no such key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{what} has no key {key!r}")
    return doc[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}


def _real(value, what: str) -> float:
    """The JSON number ``value`` as a float; ValueError naming ``what`` for
    any other JSON value (true and false included) and for an integer
    beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be a number, got {kind}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} is an integer beyond the float range")
    return float(value)


def _complex(doc, what: str) -> complex:
    return complex(_real(_field(doc, "re", what), f"'re' of {what}"),
                   _real(_field(doc, "im", what), f"'im' of {what}"))


# argparse reports an ArgumentTypeError by its message, and any other error
# by the name of the parsing function

def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from None


def _parse_grid(text: str) -> tuple[float, float, float, float, int, int]:
    try:
        x_min, x_max, y_min, y_max, nx, ny = text.split(",")
        return float(x_min), float(x_max), float(y_min), float(y_max), int(nx), int(ny)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'xmin,xmax,ymin,ymax,nx,ny', got {text!r}") from None


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
        if seed < 0:
            raise ValueError
        return seed
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None


def _read_in(args):
    """The JSON document of --in, which names the whole input: an inline
    --lambda0 or --mu0 beside it is malformed."""
    for opt in ("lambda0", "mu0"):
        if getattr(args, opt, None) is not None:
            raise ValueError(f"--in and --{opt} cannot be given together")
    with open(args.infile) as fh:
        return json.load(fh)


def _factor_systems(doc) -> list[LSystem]:
    """The factors of a coupling descriptor, {"factors": [...]} or a bare
    list, one or more of them; an empty list is malformed."""
    factors = doc
    if isinstance(doc, dict):
        factors = _list(_field(doc, "factors", "coupling descriptor"), "'factors'")
    elif not isinstance(doc, list):
        raise ValueError(
            f"coupling descriptor must be an object or list, got {type(doc).__name__}")
    if not factors:
        raise ValueError("coupling descriptor has no factors")
    return [system_from_descriptor(f) for f in factors]


def _coupled(systems: list[LSystem]) -> LSystem:
    return functools.reduce(lambda s1, s2: coupling.couple(s1, s2).system, systems)


def system_from_descriptor(doc) -> LSystem:
    """Assemble a system from any supported descriptor shape:
    {"T","K","J"} with {"re","im"} entries and J = 1 by default,
    {"lambda0"}, {"factors": [...]} of one or more descriptors coupled
    left to right (recursively), or a bare list treated as factors."""
    if isinstance(doc, list):
        doc = {"factors": doc}
    if not isinstance(doc, dict):
        raise ValueError(f"descriptor must be an object or list, got {type(doc).__name__}")
    if "T" in doc:
        t = [[_complex(v, f"'T' entry ({i}, {j})")
              for j, v in enumerate(_list(row, f"'T' row {i}"))]
             for i, row in enumerate(_list(doc["T"], "'T'"))]
        k = [_complex(v, f"'K' entry {i}")
             for i, v in enumerate(_list(_field(doc, "K", "system descriptor"), "'K'"))]
        return LSystem(t, k, doc.get("J", 1))
    if "lambda0" in doc:
        return elementary.make_elementary(_complex(doc["lambda0"], "'lambda0'")).system
    if "factors" in doc:
        return _coupled(_factor_systems(doc))
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


def _cmd_elementary(args) -> None:
    lam = args.lambda0
    built = elementary.make_elementary(lam)
    report = {
        "lambda0": lam,
        "system": {**_wire(built.system), "lambda0": lam},
        "transfer": elementary.transfer_closed(lam),
        "impedance": elementary.impedance_closed(lam),
        "classification": analysis.classify_elementary(lam),
        **_entropy_fields(analysis.c_entropy_elementary_closed(lam)),
    }
    _print_report(report)
    if args.out:
        _print_report(report["system"], args.out)


def _cmd_skew(args) -> None:
    lam = args.lambda0
    skew = elementary.make_skew_adjoint(lam)
    s = analysis.c_entropy_elementary_closed(lam)
    d = analysis.dissipation_elementary_closed(lam)
    # closed forms first: a lambda0 past the float range raises their RangeError
    w_block = coupling.self_skew_transfer_closed(lam)
    v_block = coupling.self_skew_impedance_closed(lam)
    v_i = v_block(1j)
    block = coupling.self_skew_coupling(lam)
    report = {
        "lambda0": lam,
        "skew_system": {**_wire(skew.system), "lambda0": lam},
        "transfer": elementary.skew_transfer_closed(lam),
        "impedance": elementary.skew_impedance_closed(lam),
        **_entropy_fields(s),
        "self_coupling": {
            "system": block.system,
            "transfer": w_block,
            "impedance": v_block,
            "impedance_at_i": v_i,
            "classification": analysis.classify_at_i(v_i),
            **_entropy_fields(analysis.compose_entropy(s, s)),
            "dissipation_identity": _num(analysis.compose_dissipation(d, d)),
        },
    }
    _print_report(report)
    if args.out:
        _print_report(report["skew_system"], args.out)


def _cmd_couple(args) -> None:
    if args.infile:
        systems = _factor_systems(_read_in(args))
        params, closed = [None] * len(systems), {}
    else:
        if args.lambda0 is None or args.mu0 is None:
            raise ValueError("couple needs either --in or both --lambda0 and --mu0")
        params = [args.lambda0, args.mu0]
        systems = [elementary.make_elementary(p).system for p in params]
        # closed forms first: parameters past the float range raise their RangeError
        closed = {"transfer": coupling.coupling_transfer_closed(*params),
                  "impedance": coupling.coupling_impedance_closed(*params),
                  "dissipation_closed": _num(analysis.coupling_dissipation_closed(*params))}
    for sub in systems:
        _require_valid(sub)
    coupled = _coupled(systems)

    entropies = [analysis.c_entropy(sub) for sub in systems]
    report = {
        "factors": [{} if p is None else {"lambda0": p} for p in params],
        "system": coupled,
        **_entropy_fields(functools.reduce(analysis.compose_entropy, entropies)),
        "factor_entropies": [_num(s) for s in entropies],
        "factor_dissipations": [_num(analysis.dissipation_from_entropy(s)) for s in entropies],
    }
    for entry, sub in zip(report["factors"], systems):
        try:
            entry["classification"] = analysis.classify_at_i(impedance_resolvent(sub, 1j))
        except LivsicError:
            pass
    report.update(closed)
    try:
        v_i = impedance_resolvent(coupled, 1j)
        report["impedance_at_i"] = v_i
        report["classification"] = analysis.classify_at_i(v_i)
    except LivsicError:
        pass
    _print_report(report)
    if args.out:
        _print_report(report["system"], args.out)


def _input_system(args) -> LSystem:
    """The system of the --in descriptor, else the elementary system of --lambda0."""
    if args.infile:
        return system_from_descriptor(_read_in(args))
    if args.lambda0 is None:
        raise ValueError(f"{args.command} needs --in or --lambda0")
    return elementary.make_elementary(args.lambda0).system


def _cmd_classify(args) -> None:
    sys_ = _input_system(args)
    _require_valid(sys_)
    v_i = impedance_resolvent(sys_, 1j)
    report = {
        "impedance_at_i": v_i,
        "classification": analysis.classify_at_i(v_i),
        "source": "resolvent",
    }
    if not args.infile:
        report["closed_form"] = analysis.classify_elementary(args.lambda0)
    _print_report(report, args.out)


def _cmd_entropy(args) -> None:
    sys_ = _input_system(args)
    if args.infile:
        _require_valid(sys_)
        report = _entropy_fields(analysis.c_entropy(sys_))
    else:
        lam = args.lambda0
        report = {"lambda0": lam,
                  **_entropy_fields(analysis.c_entropy_elementary_closed(lam)),
                  "entropy_resolvent": _num(analysis.c_entropy_resolvent(sys_))}
    _print_report(report, args.out)


def _cmd_surface(args) -> None:
    x_min, x_max, y_min, y_max, nx, ny = args.grid
    xs, ys, s = analysis.entropy_surface(x_min, x_max, y_min, y_max, nx, ny)
    lines = ["x,y,S,D"]
    for iy in range(len(ys)):
        for ix in range(len(xs)):
            sv = float(s[iy, ix])
            dv = analysis.dissipation_from_entropy(sv)
            lines.append(f"{xs[ix]:.12g},{ys[iy]:.12g},{sv:.12g},{dv:.12g}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_synth(args) -> None:
    from . import circuit  # the one subcommand that needs it

    if not args.infile:
        raise ValueError("synth needs --in with Foster data JSON")
    doc = _read_in(args)
    a0 = _real(_field(doc, "a0", "Foster data"), "'a0' of Foster data")
    stages = [tuple(_real(_field(s, key, f"Foster stage {i}"), f"'{key}' of Foster stage {i}")
                    for key in ("a", "b"))
              for i, s in enumerate(_list(doc.get("stages", []), "'stages'"), 1)]
    spec = circuit.FosterSpec(a0, stages)
    _emit(circuit.emit_netlist(circuit.synthesize(spec)), args.out)


def _cmd_verify(args) -> None:
    from . import verify  # the one subcommand that needs it

    results = verify.run_verification(seed=args.seed)
    for r in results:
        print(f"{r.name}: max_residual={r.max_residual:.6e} "
              f"tol={r.tol:.0e} {'PASS' if r.passed else 'FAIL'}")
    failed = sum(not r.passed for r in results)
    print(f"verification {'FAILED' if failed else 'PASSED'} "
          f"({len(results)} checks, seed={args.seed})")
    if failed:
        raise LivsicError(f"verification failed: {failed} of {len(results)} checks over tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livsic",
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
            p.add_argument("--seed", type=_parse_seed, default=42)
        p.set_defaults(func=func)

    add("elementary", _cmd_elementary, "build a one-dimensional system from lambda0",
        lambda0="required")
    add("skew", _cmd_skew, "skew-adjoint companion and its self-coupling",
        lambda0="required")
    add("couple", _cmd_couple, "couple L-systems", lambda0=True, mu0=True, infile=True)
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
    """Run one subcommand and return its exit code, by the table in the
    module docstring."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, the code of an invariant violation
        return EXIT_MALFORMED if exc.code else EXIT_OK
    try:
        args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except LivsicError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    # what reading input raises: a file that cannot be read, a value the
    # readers or LSystem reject, a descriptor nested past the recursion
    # limit; after LivsicError, as a RangeError is also a ValueError
    except (OSError, ValueError, RecursionError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
