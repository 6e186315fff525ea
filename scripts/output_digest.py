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
* the eight commands of the ``cli`` workload at seed 101, run in process.

Every value is written exactly: a float by ``float.hex``, an exception by its
type and message, a dataclass by its fields.  The script imports the
benchmark's workloads and changes nothing under ``bench/``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (needs the paths above)
from livsic import verify  # noqa: E402


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
        for i, name in enumerate(workloads.SUBCOMMANDS):
            print(f"cli 101 {name} {sha([cli.run_inprocess(i)])}")


if __name__ == "__main__":
    main()
