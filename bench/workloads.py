"""Seeded workloads of the livsic benchmark and the oracles that check them.

Every workload builds its inputs and their references from the seed alone,
runs one operation at a time through livsic's public functions (or through
``python -m livsic.cli``) and checks each output afterwards.  No reference
uses the resolvent:

* a chain of elementary factors, like any colligation with Im T = K K*,
  has W(z) = det(T* - z)/det(T - z), which for the upper-triangular block
  systems built here is the product of (conj(t_kk) - z)/(t_kk - z);
* V = i(W - 1)/(W + 1) (the Cayley link), S = sum of the elementary
  closed forms, the Donoghue class from V(i);
* Foster data gives its atoms, Z(p), component values and class directly;
* the CLI's README examples are compared byte for byte with goldens.

An operation runs every step even after one fails, so that its cost does
not depend on how many steps the program gets right.  Values are compared
by the verify suite's own measure, relative error with a floor of 1, at
1e-10.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from livsic import analysis, circuit, cli, colligation, coupling, elementary, ratfun, verify

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

TOL = 1e-10
CLASS_TOL = 1e-9  # the package's Donoghue tolerance, the same for the reference


def rel(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def off(a, b) -> bool:
    """True when ``a`` misses ``b`` (NaN misses everything)."""
    return not rel(a, b) <= TOL


def attempt(fn, *args, **kwargs):
    """Run one step, returning the exception instead of raising it, so the
    operation goes on with its remaining steps and the failure is counted."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure of a step is a result to check
        return exc


def failed_step(step: str, value) -> str | None:
    return f"{step}: {type(value).__name__}" if isinstance(value, Exception) else None


def bit_reversed(count: int) -> list[int]:
    bits = count.bit_length() - 1
    assert count == 1 << bits, "stratified pools have a power-of-two size"
    return [int(format(j, f"0{bits}b")[::-1], 2) if bits else 0 for j in range(count)]


def stratified(rng, count: int) -> np.ndarray:
    """One U(0, 1) draw in each of ``count`` equal strata, in bit-reversed
    stratum order: every prefix of length 2^j covers [0, 1) evenly, so a
    run that stops part-way through the pool still sees the whole size
    distribution, and two seeds see the same distribution."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return u[bit_reversed(count)]


# -- references ------------------------------------------------------------

def transfer_ref(diag, z: complex) -> complex:
    return complex(np.prod((np.conj(diag) - z) / (diag - z)))


def impedance_ref(diag, z: complex) -> complex:
    w = transfer_ref(diag, z)
    return 1j * (w - 1.0) / (w + 1.0)


def entropy_ref(diag) -> float:
    x, y = np.real(diag), np.imag(diag)
    return float(np.sum(0.5 * np.log((x * x + (1.0 + y) ** 2) / (x * x + (1.0 - y) ** 2))))


def classify_ref(v_at_i: complex) -> tuple[str, float | None, float]:
    a = v_at_i.imag
    if abs(v_at_i.real) > CLASS_TOL:
        return "none", None, a
    if abs(a - 1.0) <= CLASS_TOL:
        return "M_hat", 0.0, a
    if a < 1.0:
        return "M_hat_kappa", (1.0 - a) / (1.0 + a), a
    return "M_hat_kappa_inverse", (a - 1.0) / (1.0 + a), a


def class_mismatch(tag: str, kappa, a: float, ref) -> bool:
    rtag, rkappa, ra = ref
    if tag != rtag or (kappa is None) != (rkappa is None):
        return True
    return off(a, ra) or (kappa is not None and off(kappa, rkappa))


def upper_triangular_diag(t: np.ndarray):
    """Diagonal of ``t`` when it is upper triangular (the only shape the
    resolvent-free references cover), else None."""
    if t.shape[0] > 1 and np.tril(t, -1).any():
        return None
    return np.diag(t).copy()


def draw_chain(rng, k: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, k) + 1j * rng.uniform(0.1, 2.5, k)


def draw_points(rng, lam: np.ndarray) -> list[complex]:
    """Two points in each half-plane, the upper ones at least 0.15 from
    every factor's pole (the verify suite's margin)."""
    upper = []
    while len(upper) < 2:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.5))
        if np.min(np.abs(lam - z)) > 0.15:
            upper.append(z)
    lower = [complex(rng.uniform(-3.0, 3.0), -rng.uniform(0.2, 2.5)) for _ in range(2)]
    return upper + lower


def self_check(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


class OracleError(RuntimeError):
    """A reference failed its own consistency check: outputs cannot be judged."""


# -- cascade ---------------------------------------------------------------

class Cascade:
    """Chains of k elementary factors, k log-uniform on [4, 256]."""

    name = "cascade"
    window = 64
    K_MIN, K_MAX = 4, 256

    def __init__(self, seed: int, pool: int = 512):
        rng = np.random.default_rng([seed, 1])
        u = stratified(rng, pool)
        ks = np.rint(self.K_MIN * (self.K_MAX / self.K_MIN) ** u).astype(int)
        self.chains, self.points, self.refs = [], [], []
        for k in ks:
            lam = draw_chain(rng, int(k))
            zs = draw_points(rng, lam)
            s_ref = entropy_ref(lam)
            # the oracle's own check: S from the product at -i agrees with the sum
            self_check(abs(-math.log(abs(transfer_ref(lam, -1j))) - s_ref) <= 1e-12 * max(1.0, s_ref),
                       "cascade: product and sum references disagree")
            self.chains.append([complex(x) for x in lam])
            self.points.append(zs)
            self.refs.append({
                "W": [transfer_ref(lam, z) for z in zs],
                "V": [impedance_ref(lam, z) for z in zs],
                "S": s_ref,
                "class": classify_ref(impedance_ref(lam, 1j)),
            })

    def __len__(self):
        return len(self.chains)

    def run(self, i: int) -> dict:
        lam, zs = self.chains[i], self.points[i]
        try:
            s = elementary.make_elementary(lam[0]).system
            for x in lam[1:]:
                s = coupling.couple(s, elementary.make_elementary(x).system).system
        except Exception as exc:  # a failed fold fails the whole operation
            return {"couple": exc}
        return {
            "validate": attempt(colligation.validate, s),
            "W": [attempt(colligation.transfer_eval, s, z) for z in zs],
            "V": [attempt(colligation.impedance_eval, s, z) for z in zs],
            "S": attempt(analysis.c_entropy, s),
            "class": attempt(lambda: analysis.classify_at_i(colligation.impedance_eval(s, 1j))),
        }

    def check(self, i: int, out: dict) -> list[str]:
        if "couple" in out:
            return [failed_step("couple", out["couple"])]
        ref, bad = self.refs[i], []
        rep = out["validate"]
        if isinstance(rep, Exception) or not rep.passed:
            bad.append(failed_step("validate", rep) or "validate: residual")
        for step, key in (("transfer_eval", "W"), ("impedance_eval", "V")):
            for got, want in zip(out[key], ref[key]):
                why = failed_step(step, got) or (f"{step}: off" if off(got, want) else None)
                if why:
                    bad.append(why)
        s = out["S"]
        why = failed_step("c_entropy", s) or ("c_entropy: off" if off(s, ref["S"]) else None)
        if why:
            bad.append(why)
        c = out["class"]
        if isinstance(c, Exception):
            bad.append(failed_step("classify_at_i", c))
        elif class_mismatch(c.class_tag.value, c.kappa, c.a, ref["class"]):
            bad.append("classify_at_i: off")
        return sorted(set(bad))


# -- oracle ----------------------------------------------------------------

class Oracle:
    """The package's own seeded verify suite, ten systems per call."""

    name = "oracle"
    window = 32
    N_SYSTEMS = 10

    def __init__(self, seed: int, pool: int = 256):
        rng = np.random.default_rng([seed, 2])
        self.base = int(rng.integers(0, 2 ** 31 - pool))
        self.pool = pool

    def __len__(self):
        return self.pool

    def run(self, i: int):
        return attempt(verify.run_verification, seed=self.base + i, n_systems=self.N_SYSTEMS)

    def check(self, i: int, out) -> list[str]:
        if isinstance(out, Exception):
            return [failed_step("run_verification", out)]
        return [f"check failed: {r.name}" for r in out if not r.passed]


# -- foster ----------------------------------------------------------------

def foster_z(a0: float, stages, p: complex) -> complex:
    """Z(p) = a0/p + sum a p/(b^2 + p^2), summed directly."""
    return (a0 / p if a0 > 0 else 0.0) + sum(a * p / (b * b + p * p) for a, b in stages)


def foster_atoms(a0: float, stages) -> list[tuple[float, float]]:
    atoms = [(0.0, a0)] if a0 > 0 else []
    for a, b in stages:
        atoms += [(b, a / 2.0), (-b, a / 2.0)]
    return sorted(atoms)


def atom_error(got, want) -> float | None:
    """Largest relative error over matched atoms, None when the counts differ."""
    if len(got) != len(want):
        return None
    return max((max(rel(t, rt), rel(w, rw)) for (t, w), (rt, rw) in zip(got, want)), default=0.0)


def netlist_values(text: str) -> dict[str, float]:
    lines = text.split("\n")
    if lines[-2:] != [".end", ""]:
        raise ValueError("netlist does not end with .end")
    return {ln.split()[0]: float(ln.split()[3]) for ln in lines[:-2]}


def netlist_ref(a0: float, stages) -> dict[str, float]:
    vals = {"C0": 1.0 / a0} if a0 > 0 else {}
    for k, (a, b) in enumerate(stages, start=1):
        vals[f"L{k}"] = a / (b * b)
        vals[f"C{k}"] = 1.0 / a
    return vals


def values_off(got: dict, want: dict) -> bool:
    return got.keys() != want.keys() or any(off(got[k], want[k]) for k in want)


class Foster:
    """Foster specs with m stages, m uniform on 1..24, a0 = 0 one time in three."""

    name = "foster"
    window = 64
    M_MAX = 24

    def __init__(self, seed: int, pool: int = 2048):
        rng = np.random.default_rng([seed, 3])
        ms = 1 + np.floor(self.M_MAX * stratified(rng, pool)).astype(int)
        self.specs, self.points, self.refs = [], [], []
        for m in ms:
            a0 = 0.0 if rng.uniform() < 1.0 / 3.0 else float(rng.uniform(0.1, 3.0))
            bs = rng.uniform(0.2, 5.0, m)
            while len(set(bs)) < m:
                bs = rng.uniform(0.2, 5.0, m)
            stages = [(float(a), float(b)) for a, b in zip(rng.uniform(0.1, 3.0, m), bs)]
            ps = [complex(rng.uniform(0.1, 2.0), rng.uniform(-5.0, 5.0)) for _ in range(4)]
            mass = a0 + sum(a / (b * b + 1.0) for a, b in stages)
            # the oracle's own check: Z(1) from the atoms' Cauchy transform
            z1 = sum(w / (t - 1j) for t, w in foster_atoms(a0, stages)) / 1j
            self_check(rel(z1, foster_z(a0, stages, 1.0)) <= 1e-12, "foster: atom and sum references disagree")
            self.specs.append((a0, stages))
            self.points.append(ps)
            self.refs.append({
                "atoms": foster_atoms(a0, stages),
                "Z": [foster_z(a0, stages, p) for p in ps],
                "netlist": netlist_ref(a0, stages),
                "class": classify_ref(1j * mass),
            })

    def __len__(self):
        return len(self.specs)

    def run(self, i: int) -> dict:
        a0, stages = self.specs[i]
        spec = attempt(circuit.FosterSpec, a0, stages)
        if isinstance(spec, Exception):
            return {"spec": spec}
        zr = attempt(circuit.positive_real_z, spec)
        return {
            "atoms": attempt(lambda: ratfun.partial_fractions_real_poles(circuit.foster_to_herglotz(spec))),
            "measure": attempt(circuit.measure_atoms, spec),
            "Z": zr if isinstance(zr, Exception) else [attempt(ratfun.rat_eval, zr, p) for p in self.points[i]],
            "netlist": attempt(self._netlist_roundtrip, spec),
            "class": attempt(circuit.classify_foster, spec),
        }

    @staticmethod
    def _netlist_roundtrip(spec):
        net = circuit.synthesize(spec)
        return circuit.emit_netlist(net), circuit.netlist_to_foster(net)

    def roundtrip_error(self, i: int, out: dict) -> float | None:
        atoms = out.get("atoms")
        if atoms is None or isinstance(atoms, Exception):
            return None
        return atom_error(atoms.atoms, self.refs[i]["atoms"])

    def check(self, i: int, out: dict) -> list[str]:
        if "spec" in out:
            return [failed_step("FosterSpec", out["spec"])]
        ref, bad = self.refs[i], []
        for step, key in (("partial_fractions", "atoms"), ("measure_atoms", "measure")):
            got = out[key]
            if isinstance(got, Exception):
                bad.append(failed_step(step, got))
            else:
                err = atom_error(got.atoms, ref["atoms"])
                if err is None or not err <= TOL:
                    bad.append(f"{step}: off")
        zs = out["Z"]
        if isinstance(zs, Exception):
            bad.append(failed_step("positive_real_z", zs))
        else:
            for got, want in zip(zs, ref["Z"]):
                why = failed_step("rat_eval", got) or ("positive_real_z: off" if off(got, want) else None)
                if why:
                    bad.append(why)
        net = out["netlist"]
        if isinstance(net, Exception):
            bad.append(failed_step("netlist", net))
        else:
            text, back = net
            a0, stages = self.specs[i]
            values = attempt(netlist_values, text)
            if isinstance(values, Exception) or values_off(values, ref["netlist"]):
                bad.append("emit_netlist: off")
            got = [(back.a0, 0.0)] + [(s.a, s.b) for s in back.stages]
            want = [(a0, 0.0)] + list(stages)
            if len(got) != len(want) or any(off(x, y) for g, w in zip(got, want) for x, y in zip(g, w)):
                bad.append("netlist_to_foster: off")
        c = out["class"]
        if isinstance(c, Exception):
            bad.append(failed_step("classify_foster", c))
        elif class_mismatch(c.class_tag.value, c.kappa, c.a, ref["class"]):
            bad.append("classify_foster: off")
        return sorted(set(bad))


# -- cli -------------------------------------------------------------------

#: README examples whose stdout is pinned byte for byte in goldens.json.
README_EXAMPLES = {
    "elementary": ["elementary", "--lambda0", "1,1"],
    "skew": ["skew", "--lambda0", "1,1"],
    "couple": ["couple", "--lambda0", "0,0.5", "--mu0", "0,0.5"],
    "surface": ["surface", "--grid=-2,2,0.05,3,81,60"],
    "verify": ["verify", "--seed", "42"],
}
SUBCOMMANDS = ("elementary", "skew", "couple", "classify", "entropy", "surface", "synth", "verify")


def nested_descriptor(lam) -> dict:
    """Balanced binary {"factors": [...]} tree over the elementary factors."""
    if len(lam) == 1:
        return {"lambda0": {"re": float(lam[0].real), "im": float(lam[0].imag)}}
    half = len(lam) // 2
    return {"factors": [nested_descriptor(lam[:half]), nested_descriptor(lam[half:])]}


def cli_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    self_check(goldens.keys() == README_EXAMPLES.keys(), "cli: goldens.json does not cover the README examples")
    return goldens


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


class Cli:
    """``python -m livsic.cli`` subprocesses cycling through every subcommand."""

    name = "cli"
    window = len(SUBCOMMANDS)
    FACTORS = 32
    STAGES = 8

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng([seed, 4])
        self.workdir = Path(workdir or ROOT / "bench" / "out" / f"cli-{seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        lam = draw_chain(rng, self.FACTORS)
        a0 = float(rng.uniform(0.1, 3.0))
        stages = [(float(a), float(b)) for a, b in zip(rng.uniform(0.1, 3.0, self.STAGES),
                                                      rng.uniform(0.2, 5.0, self.STAGES))]
        chain, spec = self.workdir / "chain.json", self.workdir / "foster.json"
        chain.write_text(json.dumps(nested_descriptor(lam)))
        spec.write_text(json.dumps({"a0": a0, "stages": [{"a": a, "b": b} for a, b in stages]}))
        s_ref = entropy_ref(lam)
        self.refs = {
            "S": s_ref,
            "D": 1.0 - math.exp(-2.0 * s_ref),
            "V_i": impedance_ref(lam, 1j),
            "netlist": netlist_ref(a0, stages),
            "goldens": load_goldens(),
        }
        self.argv = {**README_EXAMPLES,
                     "classify": ["classify", "--in", str(chain)],
                     "entropy": ["entropy", "--in", str(chain)],
                     "synth": ["synth", "--in", str(spec)]}

    def __len__(self):
        return len(SUBCOMMANDS)

    def sub(self, i: int) -> str:
        return SUBCOMMANDS[i % len(SUBCOMMANDS)]

    def run(self, i: int):
        """One subprocess call; returns (exit code, stdout bytes)."""
        proc = attempt(subprocess.run, [sys.executable, "-m", "livsic.cli", *self.argv[self.sub(i)]],
                       capture_output=True, env=cli_env(), cwd=ROOT, timeout=120)
        return proc if isinstance(proc, Exception) else (proc.returncode, proc.stdout)

    def run_inprocess(self, i: int):
        """The same call through ``livsic.cli.main`` with stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = attempt(cli.main, list(self.argv[self.sub(i)]))
        return code if isinstance(code, Exception) else (code, buf.getvalue().encode())

    def check(self, i: int, out) -> list[str]:
        sub = self.sub(i)
        if isinstance(out, Exception):
            return [failed_step(sub, out)]
        code, stdout = out
        if code != 0:
            return [f"{sub}: exit {code}"]
        if sub in README_EXAMPLES:
            return [] if digest(stdout) == self.refs["goldens"][sub] else [f"{sub}: stdout differs from golden"]
        if sub == "synth":
            got = attempt(netlist_values, stdout.decode())
            return [f"{sub}: off"] if isinstance(got, Exception) or values_off(got, self.refs["netlist"]) else []
        doc = attempt(json.loads, stdout)
        if isinstance(doc, Exception):
            return [f"{sub}: unparsable output"]
        try:
            if sub == "entropy":
                wrong = off(float(doc["entropy"]), self.refs["S"]) or off(float(doc["dissipation"]), self.refs["D"])
            else:
                v = complex(doc["impedance_at_i"]["re"], doc["impedance_at_i"]["im"])
                c = doc["classification"]
                wrong = off(v, self.refs["V_i"]) or class_mismatch(
                    c["class"], c["kappa"], float(c["a"]), classify_ref(self.refs["V_i"]))
        except (KeyError, TypeError, ValueError):
            return [f"{sub}: unparsable output"]
        return [f"{sub}: off"] if wrong else []


WORKLOADS = {w.name: w for w in (Cascade, Oracle, Foster, Cli)}

#: Failure reasons that trace to defects listed in ROADMAP.md.  They count in
#: ``failed`` like any other; any reason not listed here makes a run incorrect.
KNOWN_DEFECTS = frozenset({
    "c_entropy: off",                      # 2(a): W(-i) cancels, S sticks near 37
    "entropy: off",                        # 2(a) through `livsic entropy --in`
    "transfer_eval: SingularResolventError",  # 2(b): "in the spectrum" far from it
    "transfer_eval: off",                  # 2: the resolvent loses precision silently
    "partial_fractions: off",              # 3: coefficient-form Foster round trip
    "partial_fractions: NotHerglotzAtomicError",  # 3: the same, past the root checks
    "positive_real_z: off",                # 3: expanded coefficients evaluated at p
})
