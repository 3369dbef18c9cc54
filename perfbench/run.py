#!/usr/bin/env python3
"""hyperalg benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
`src/` directory.  `--trace 0` times whole rounds of the workload until
`--seconds` have passed and prints the end-to-end metrics; each unit's time is
scaled by a reference probe run next to it (see reference.py).  `--trace 1` runs
one round untraced and the same round again under the outside-in tracer, and
prints the per-layer metrics.  Either way every output is checked, a summary
is printed, and the last line of standard output is one JSON object.  The run
is a single process without threads; it starts child interpreters one at a
time (set-up probes, reference probes, `-X importtime`, and the `cli_cold`
invocations) and waits for each.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
# every module of the package, for the `import.<module>_s` metrics
PACKAGE_MODULES = (
    "hyperalg", "tolerance", "csets", "rsets", "qsets", "realhf", "ctrop", "axioms",
    "finite", "structures", "exotic", "homs", "deq", "cli",
)
# a run goes on past --seconds until this many unit runs lie beyond the tail
TAIL_BEYOND = 10


def percentile(xs: list, p: float) -> float:
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    f = int(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def run_units(units: list, scaler=None) -> tuple:
    """Run one round; returns per-unit latencies (scaled to the nominal host
    when a `reference.Scaler` is given), op counts and the errors."""
    lat, ops, errors = [], [], []
    for label, fn in units:
        t0 = time.perf_counter()
        try:
            n, errs = fn()
        except Exception as exc:  # an unexpected raise is a failed operation
            traceback.print_exc(file=sys.stderr)
            n, errs = 1, [f"{label}: raised {exc!r}"]
        dt = time.perf_counter() - t0
        lat.append(dt if scaler is None else scaler.scale(dt))
        ops.append(n)
        errors.extend(errs)
    return lat, ops, errors


def run_child(cmd: list, env: dict) -> tuple:
    """Start a child interpreter; returns (seconds until its first output line,
    that line, its stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {err.decode(errors='replace')}")
    return dt, line.decode().strip(), err.decode()


def setup_seconds(wl, seed: int, env: dict) -> list:
    """Fresh-process set-up times, each scaled by the reference children
    spawned just before and after it: interpreter start, imports and the
    round's construction for the in-process workloads, the child's own import
    time of `hyperalg.cli` for cli_cold."""
    scaler = reference.child_scaler(env)
    out = []
    for _ in range(SETUP_REPEATS):
        if wl.children:
            code = ("import time; t = time.perf_counter(); import hyperalg.cli; "
                    "print(time.perf_counter() - t)")
            _, line, _ = run_child([sys.executable, "-c", code], env)
            dt = float(line)
        else:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
                   "--seed", str(seed), "--probe-setup"]
            dt, line, _ = run_child(cmd, env)
            if line != "ready":
                raise RuntimeError(f"set-up probe printed {line!r}")
        out.append(scaler.scale(dt))
    return out


def import_times(env: dict) -> dict:
    """`import.<module>_s` (self time) and `import.total_s` from `-X importtime`,
    medians over a few fresh interpreters."""
    code = "import hyperalg.cli, hyperalg.homs, hyperalg.deq"
    samples: dict[str, list] = {}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        rows = []
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header row
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            if name == "hyperalg" or name.startswith("hyperalg."):
                rows.append((depth, name, int(self_us), int(cum_us)))
        top = min(d for d, *_ in rows)
        samples.setdefault("import.total_s", []).append(
            sum(cum for d, _, _, cum in rows if d == top) / 1e6)
        for _, name, self_us, _ in rows:
            short = name.split(".", 1)[1] if "." in name else name
            samples.setdefault(f"import.{short}_s", []).append(self_us / 1e6)
    return {f"import.{m}_s": statistics.median(samples.get(f"import.{m}_s", [0.0]))
            for m in PACKAGE_MODULES} | {"import.total_s": statistics.median(samples["import.total_s"])}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed_run(wl, seed: int, seconds: float, env: dict) -> int:
    setups = setup_seconds(wl, seed, env)
    units = wl.build(seed)
    scaler = reference.child_scaler(env) if wl.children else reference.loop_scaler()
    samples, errors, total_ops, wall, rounds = [], [], 0, 0.0, 0
    deadline = time.perf_counter() + seconds
    min_samples = math.ceil(TAIL_BEYOND * 100.0 / (100.0 - wl.tail_pct))
    while time.perf_counter() < deadline or len(samples) < min_samples:
        t0 = time.perf_counter()
        lat, unit_ops, r_errors = run_units(units, scaler)
        wall += time.perf_counter() - t0
        samples += lat
        total_ops += sum(unit_ops)
        errors += r_errors
        rounds += 1
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_s = percentile(samples, wl.tail_pct)
    attempted = total_ops
    for msg in errors[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    metrics = {
        "ops_per_s": (total_ops / sum(samples), "1/s"),
        "unit_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "unit_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    probes = scaler.probes
    print(f"workload={wl.name} seed={seed} rounds={rounds} units/round={len(units)} "
          f"ops/round={total_ops // rounds} wall_s={wall:.3f}")
    print(f"  op: {wl.op}")
    print(f"  unit: {wl.unit}")
    print(f"  times are scaled to the nominal host: reference probe median "
          f"{statistics.median(probes) * 1e3:.4g} ms over {len(probes)} probes "
          f"(nominal {scaler.nominal * 1e3:g} ms, range {min(probes) * 1e3:.4g}-{max(probes) * 1e3:.4g} ms)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "ops_per_s":
            note = f"  (unscaled, counting reference probes: {total_ops / wall:.6g})"
        elif name == "unit_p50_ms":
            note = f"  (over {len(samples)} unit runs)"
        elif name == "unit_tail_ms":
            note = (f"  (p{wl.tail_pct:g} of {len(samples)} unit runs; "
                    f"{sum(x > tail_s for x in samples)} beyond it)")
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:<13} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_frac':<13} {len(errors) / attempted:>14.6g} fraction  "
          f"({len(errors)} of {attempted} operations)")
    emit(not errors, attempted, len(errors), metrics)
    return 0


def trace_run(wl, seed: int, env: dict) -> int:
    from tracer import Tracer

    imports = import_times(env)
    units = (wl.trace_build or wl.build)(seed)
    t0 = time.perf_counter()
    _, ops0, errors0 = run_units(units)
    plain_s = time.perf_counter() - t0
    ops0 = sum(ops0)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _, ops1, errors1 = run_units(units)
        traced_s = time.perf_counter() - t0
        ops1 = sum(ops1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced_s)
    metrics.update({k: (v, "s") for k, v in imports.items()})
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")

    checks = []
    for m in wl.bypasses:
        if metrics[f"{m}.calls"][0]:
            checks.append(f"bypass: {m} was called {metrics[f'{m}.calls'][0]} times")
    for key in wl.uses:
        n = metrics[f"{key}.calls"][0] if "." not in key else tracer.calls(key)
        if not n:
            checks.append(f"predicted use: {key} was not called")
    errors = errors0 + errors1
    for msg in (errors + checks)[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{wl.name}-{seed}.json"
    tracer.dump(spans, {"workload": wl.name, "seed": seed, "traced_s": traced_s,
                        "untraced_s": plain_s, "self_checks": checks})
    print(f"workload={wl.name} seed={seed} traced round: {len(units)} units, {ops1} ops, "
          f"{traced_s:.3f} s traced, {plain_s:.3f} s untraced; spans in {spans.relative_to(ROOT)}")
    print(f"  self-checks: {'pass' if not checks else '; '.join(checks)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    emit(not errors and not checks, ops0 + ops1, len(errors), metrics)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "hyperalg" / "__init__.py").is_file():
        print(f"perfbench: no hyperalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HYPERALG_SEED", None)
    import hyperalg

    if not Path(hyperalg.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: hyperalg imported from {hyperalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        wl.build(args.seed)
        print("ready", flush=True)
        return 0
    env = child_env()
    if args.trace:
        return trace_run(wl, args.seed, env)
    return timed_run(wl, args.seed, args.seconds, env)


if __name__ == "__main__":
    sys.exit(main())
