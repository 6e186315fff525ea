"""Print one sha256 per group of livsic outputs, to check that a change keeps every byte.

    python3 scripts/output_digest.py > after.txt

Run it on the parent commit and on the change, each from its own checkout,
and diff the two files: any line that differs names a group whose outputs
changed.  The groups are

* the stdout of the five README examples, run in process, whose sha256 is the
  one that ``bench/goldens.json`` pins;
* ``run_verification`` at seeds 0 to 99 with ``n_systems=10``, and at seed 42;
* every step of every operation of the ``cascade`` and ``foster`` workloads at
  seeds 101 and 7 (``foster`` reaches ``rat_eval``'s pole-record path);
* both resolvents of every ``cascade`` chain at seed 101 with at most 8
  factors, at its points and at +/-i, one call per point and then one call
  over the sequence (the one-point calls a workload makes only rarely);
* for each chain length k <= 32 of the ``cascade`` chains at seed 101, one
  call of the resolvent kernel over all chains of that length at their
  points, for T and for Re T (the many-chain stacks ``verify`` does not
  build: its stacks have n <= 2);
* for each ``cascade`` chain at seed 101 with at most 16 factors, plain
  systems, which no workload builds: its triangular copy (T, K), a unitary
  similarity (QTQ*, QK), its adjoint (T*, K, -1) and, where one exists, that
  similarity scaled by the largest power of two that keeps T finite, at
  which some entry of T + T* overflows; on each, ``validate``, W and V by
  ``transfer_eval`` and ``impedance_eval`` at the chain's points and at
  +/-i, ``c_entropy`` and both resolvents over the sequence of points; then
  one resolvent kernel call per state dimension over the chains and their
  first three companions, for T and for Re T (the kernel refuses the scaled
  similarity, whose sigma_max passes the float range);
* the eight commands of the ``cli`` workload at seed 101, run in process.

Every value is written exactly: a float by ``float.hex``, an exception by its
type and message, a dataclass by its fields.  The script imports the
benchmark's workloads and changes nothing under ``bench/``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (needs the paths above)
from livsic import analysis, colligation, coupling, elementary, verify  # noqa: E402


def exact(v) -> str:
    """A text that two values share only when they are the same, bit for bit."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str, bytes)):
        return repr(v)
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, complex):
        return f"({v.real.hex()},{v.imag.hex()})"
    if isinstance(v, BaseException):
        return f"{type(v).__name__}({v})"
    if isinstance(v, enum.Enum):
        return f"{type(v).__name__}.{v.name}"
    if dataclasses.is_dataclass(v):
        fields = ",".join(f"{f.name}={exact(getattr(v, f.name))}" for f in dataclasses.fields(v))
        return f"{type(v).__name__}({fields})"
    if isinstance(v, dict):
        return "{" + ",".join(f"{exact(k)}:{exact(v[k])}" for k in sorted(v)) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(exact, v)) + "]"
    raise TypeError(f"no exact text for {type(v).__name__}")


def sha(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(exact(v).encode())
        h.update(b"\n")
    return h.hexdigest()


def fold(lam):
    """The chain of the parameters ``lam``, folded as the workload folds it."""
    s = elementary.make_elementary(lam[0]).system
    for x in lam[1:]:
        s = coupling.couple(s, elementary.make_elementary(x).system).system
    return s


def resolvents(seed: int):
    """Each resolvent of each short ``Cascade(seed)`` chain, point by point
    and then over the sequence."""
    wl = workloads.Cascade(seed)
    for lam, zs in zip(wl.chains, wl.points):
        if len(lam) > 8:
            continue
        s = fold(lam)
        points = [*zs, 1j, -1j]
        for ev in (colligation.transfer_resolvent, colligation.impedance_resolvent):
            yield [workloads.attempt(ev, s, z) for z in points]
            yield workloads.attempt(ev, s, points)


def stacks(seed: int):
    """One kernel call per chain length k <= 32 of ``Cascade(seed)`` and
    operator, over all chains of that length at their points."""
    wl = workloads.Cascade(seed)
    by_length = {}
    for lam, zs in zip(wl.chains, wl.points):
        if len(lam) <= 32:
            by_length.setdefault(len(lam), []).append((fold(lam), zs))
    for k in sorted(by_length):
        for re_t in (False, True):
            yield workloads.attempt(colligation._solve_guarded, by_length[k], re_t)


def companions(chain, rng):
    """The plain systems of a chain: its triangular copy, a unitary
    similarity, its adjoint, and that similarity scaled by 2^p, p the
    largest that keeps T finite, where T + T* then overflows somewhere."""
    t, k, n = chain.T, chain.K, chain.dim
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    similar = colligation.LSystem(q @ t @ q.conj().T, q @ k)
    out = [colligation.LSystem(t, k), similar, colligation.LSystem(t.conj().T, k, -1)]
    scale = math.ldexp(1.0, 1024 - math.frexp(float(np.abs(similar.T.view(float)).max()))[1])
    big = similar.T * scale
    with np.errstate(over="ignore"):
        if not np.isfinite(big + big.conj().T).all():
            out.append(colligation.LSystem(big, similar.K * math.sqrt(scale)))
    return out


def plain(seed: int):
    """The values of every companion of each short ``Cascade(seed)`` chain,
    then one kernel call per state dimension and operator over the chains
    and their unscaled companions."""
    wl = workloads.Cascade(seed)
    rng = np.random.default_rng(seed)
    by_dim = {}
    for lam, zs in zip(wl.chains, wl.points):
        if len(lam) > 16:
            continue
        chain = fold(lam)
        points = [*zs, 1j, -1j]
        systems = companions(chain, rng)
        for s in systems:
            yield workloads.attempt(colligation.validate, s)
            for ev in (colligation.transfer_eval, colligation.impedance_eval):
                yield [workloads.attempt(ev, s, z) for z in points]
            yield workloads.attempt(analysis.c_entropy, s)
            for ev in (colligation.transfer_resolvent, colligation.impedance_resolvent):
                yield workloads.attempt(ev, s, points)
        # the scaled similarity's sigma_max passes the float range, so the kernel
        # refuses it, and a stack that holds it refuses as a whole
        by_dim.setdefault(chain.dim, []).extend((s, zs) for s in [chain, *systems[:3]])
    for n in sorted(by_dim):
        for re_t in (False, True):
            yield workloads.attempt(colligation._solve_guarded, by_dim[n], re_t)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli = workloads.Cli(101, workdir=Path(tmp))
        for i, name in enumerate(workloads.SUBCOMMANDS):
            if name in workloads.README_EXAMPLES:
                code, stdout = cli.run_inprocess(i)
                print(f"golden {name} {workloads.digest(stdout)['sha256']} exit {code}")
        print(f"verify seeds 0-99 {sha(verify.run_verification(seed, n_systems=10) for seed in range(100))}")
        print(f"verify seed 42 {sha([verify.run_verification(42)])}")
        for kind in (workloads.Cascade, workloads.Foster):
            for seed in (101, 7):
                wl = kind(seed)
                print(f"{wl.name} {seed} {sha(wl.run(i) for i in range(len(wl)))}")
        print(f"resolvent 101 {sha(resolvents(101))}")
        print(f"stacks 101 {sha(stacks(101))}")
        print(f"plain 101 {sha(plain(101))}")
        for i, name in enumerate(workloads.SUBCOMMANDS):
            print(f"cli 101 {name} {sha([cli.run_inprocess(i)])}")


if __name__ == "__main__":
    main()
