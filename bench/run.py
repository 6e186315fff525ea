"""Run one workload of the livsic benchmark and print its metrics.

    python3 bench/run.py --workload cascade --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The load is closed-loop with one client: the next operation
starts when the previous one returns.  ``--trace 0`` measures the
end-to-end metrics with no tracing, in seconds scaled to a reference
machine speed (see speed.py).  ``--trace 1`` runs the per-layer trace
instead (see tracing.py), in raw wall time.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a table of the same metrics.  A run record with the
machine, versions, seed, sample counts, raw times and every failure
reason is written to bench/out/.

Every run makes at least one whole pass over the workload's seeded inputs,
and then repeats them until ``--seconds`` are up.  ``attempted`` and
``failed`` count distinct inputs, each by its first verdict, so they depend
on the seed alone and not on how many repeats fit in the time.  A repeat is
checked as well and must reach the same verdict as the first run of its
input.  ``correct`` is false when a repeat's verdict differs, or when an
operation fails in a way not listed in ``workloads.KNOWN_DEFECTS``; known
defects still count in ``failed`` and in ``pass_frac``.  ``--workload all``
runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("cascade", "oracle", "foster", "cli")
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5
IMPORT_REPEATS = 3
SPAN_CAP = 400_000  # stop adding traced passes beyond this many spans

#: (name, unit) of the end-to-end metrics; pass_frac is 1 - fail_frac
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("pass_frac", "frac"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Tally:
    """Raw latencies and start times of a sequence of operations, and the
    verdict (its failure reasons) of each distinct input."""

    lat: list[float] = field(default_factory=list)
    at: list[float] = field(default_factory=list)
    idx: list[int] = field(default_factory=list)
    verdicts: dict[int, tuple[str, ...]] = field(default_factory=dict)
    changed: Counter = field(default_factory=Counter)

    def add(self, i: int, at: float, seconds: float, bad: list[str]) -> None:
        self.lat.append(seconds)
        self.at.append(at)
        self.idx.append(i)
        self.judge(i, tuple(bad))

    def judge(self, i: int, bad: tuple[str, ...]) -> None:
        first = self.verdicts.setdefault(i, bad)
        if bad != first:
            self.changed[f"input {i}: {list(first)} then {list(bad)}"] += 1

    def merge(self, other: "Tally") -> None:
        self.lat += other.lat
        self.at += other.at
        self.idx += other.idx
        for i, bad in other.verdicts.items():
            self.judge(i, bad)
        self.changed += other.changed

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(1 for bad in self.verdicts.values() if bad)

    @property
    def reasons(self) -> Counter:
        return Counter(r for bad in self.verdicts.values() for r in bad)

    def fastest(self, i: int) -> float:
        return min(t for t, k in zip(self.lat, self.idx) if k == i)


def timed(wl, run, i: int, tally: Tally):
    """One operation, timed alone and checked after its clock stops."""
    t = time.perf_counter()
    out = run(i)
    dt = time.perf_counter() - t
    tally.add(i, t, dt, wl.check(i, out))
    return out


def measure(wl, seconds: float, clock) -> Tally:
    """Operations back to back: one whole pass over the workload's inputs,
    then more passes until ``seconds`` are up, with the calibration task in
    between at least every ``speed.EVERY`` seconds."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i < len(wl) or time.perf_counter() - start < seconds:
        clock.tick()
        timed(wl, wl.run, i % len(wl), tally)
        i += 1
    clock.calibrate()
    return tally


@dataclass
class Passes:
    tally: Tally
    durations: list[float]
    first: list  # outputs of the first pass


def passes(wl, seconds: float, run, tracer=None) -> Passes:
    """Repeated passes over the workload's first ``window`` operations,
    under ``tracer`` if given: at least one, and no more than fit in
    ``seconds`` at the pace of the last one."""
    window = min(wl.window, len(wl))
    res = Passes(Tally(), [], [])
    start = time.perf_counter()
    p, last = 0, 0.0
    while p == 0 or (time.perf_counter() - start + last <= seconds
                     and (tracer is None or len(tracer.spans) < SPAN_CAP)):
        begun = time.perf_counter()
        before = len(res.tally.lat)
        for i in range(window):
            if tracer is None:
                out = timed(wl, run, i, res.tally)
            else:
                with tracer.op(p * window + i):
                    out = timed(wl, run, i, res.tally)
            if p == 0:
                res.first.append(out)
        res.durations.append(sum(res.tally.lat[before:]))
        last = time.perf_counter() - begun
        p += 1
    return res


def percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def latency_metrics(lat: list[float]) -> dict[str, float]:
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * percentile(lat, 90)}


def setup_time(name: str, seed: int, clock, workloads):
    """The workload, built at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_MIN_S``, and its set-up time: the median build time plus, for
    in-process workloads, the median ``import livsic`` time of fresh
    interpreters (the CLI pays the import in every operation)."""
    code = "import time; t = time.perf_counter(); import livsic; print(time.perf_counter() - t)"
    imports = []
    for _ in range(0 if name == "cli" else IMPORT_REPEATS):
        clock.calibrate()
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        imports.append((t, float(proc.stdout)))
    builds = []
    while len(builds) < SETUP_REPEATS or sum(d for _, d in builds) < SETUP_MIN_S:
        clock.tick()
        t = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        builds.append((t, time.perf_counter() - t))
    clock.calibrate()
    raw = {"import_s": [d for _, d in imports], "builds": len(builds),
           "build_s_median": statistics.median(d for _, d in builds)}
    scaled = [statistics.median([clock.scale(t, d) for t, d in part]) if part else 0.0
              for part in (imports, builds)]
    return wl, sum(scaled), raw


def fastest_run(argv: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return min(times)


def trace_metrics(wl, seconds: float, tally: Tally) -> tuple[dict[str, float], object]:
    """Per-layer metrics: an untraced and a traced set of passes over the
    same window; for ``cli`` also subprocess wall times per subcommand.
    Times per subcommand are the fastest of its calls."""
    import tracing
    import workloads

    m = {name: 0.0 for name, _ in tracing.PER_LAYER}
    run, share = wl.run, 0.5
    if wl.name == "cli":
        env = workloads.cli_env()
        interp = fastest_run([sys.executable, "-c", "pass"], env, 3)
        m["cli.interp_ms"] = 1e3 * interp
        m["cli.import_ms"] = 1e3 * (fastest_run([sys.executable, "-c", "import livsic.cli"], env, 3) - interp)
        wall = passes(wl, 0.35 * seconds, wl.run)
        tally.merge(wall.tally)
        run, share = wl.run_inprocess, 0.2
    plain = passes(wl, share * seconds, run)
    tally.merge(plain.tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = passes(wl, share * seconds, run, tracer)
    finally:
        tracer.uninstall()
    tally.merge(traced.tally)
    m.update(tracing.layer_metrics(tracer, min(wl.window, len(wl)), len(traced.durations)))
    m["trace.overhead_frac"] = 1.0 - min(plain.durations) / min(traced.durations)
    if wl.name == "foster":
        errs = [e for i, out in enumerate(traced.first) if (e := wl.roundtrip_error(i, out)) is not None]
        m["circuit.roundtrip_err_max"] = max(errs, default=0.0)
    if wl.name == "cli":
        for field_, res in (("wall_ms", wall), ("work_ms", plain)):
            for j, sub in enumerate(workloads.SUBCOMMANDS):
                m[f"cli.{sub}.{field_}"] = 1e3 * res.tally.fastest(j)
    return m, tracer


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, load: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "loadavg_start": load,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "livsic" / "__init__.py").is_file():
        print(f"bench: no livsic package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and the CLI's subprocesses, so the
    # calibration task measures the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load = os.getloadavg()[0]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import speed
    import workloads

    clock = speed.ScaledClock()
    wl, setup_s, setup_raw = setup_time(name, seed, clock, workloads)
    tracer = None
    if trace:
        import tracing

        tally = Tally()
        metrics, tracer = trace_metrics(wl, seconds, tally)
        units = dict(tracing.PER_LAYER)
        raw = {}
    else:
        tally = measure(wl, seconds, clock)
        scaled = [clock.scale(t, d) for t, d in zip(tally.at, tally.lat)]
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        metrics = {"setup_s": setup_s, **latency_metrics(scaled),
                   "pass_frac": 1.0 - tally.failed / tally.attempted,
                   "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
        raw = {"raw_" + k: v for k, v in latency_metrics(tally.lat).items()}
    unknown = {r: n for r, n in tally.reasons.items() if r not in workloads.KNOWN_DEFECTS}
    result = {
        "correct": not unknown and not tally.changed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    p90 = percentile(tally.lat, 90)
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        **environment(seed, load),
        "samples": {"operations": len(tally.lat), "beyond_p90": sum(x > p90 for x in tally.lat)},
        "setup_raw": setup_raw,
        **raw,
        **clock.summary(),
        "fail_frac": tally.failed / tally.attempted,
        "failure_reasons": dict(sorted(tally.reasons.items())),
        "unknown_failures": unknown,
        "changed_verdicts": dict(tally.changed),
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{name}-seed{seed}-spans.tsv")

    for k, v in {**metrics, "fail_frac": record["fail_frac"]}.items():
        print(f"{name:8} {k:40} {v:16.6g} {units.get(k, 'frac')}")
    print(f"{name:8} {'operations':40} {len(tally.lat):16d} ({record['samples']['beyond_p90']} beyond p90)")
    print(f"{name:8} {'inputs checked':40} {tally.attempted:16d} ({tally.failed} failed)")
    for reason, n in sorted(tally.reasons.items()):
        print(f"{name:8} failure {reason}: {n}{'' if reason in workloads.KNOWN_DEFECTS else ' (unknown)'}")
    for what, n in sorted(tally.changed.items()):
        print(f"{name:8} verdict changed on a repeat, {what}: {n}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
