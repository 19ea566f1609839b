"""Benchmark of ``llgvm run``: the coupled step loop plus the per-step ledger.

Run from the repository root:

    python3 perfbench/run.py --workload coupled32 --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload, single-threaded, through the public path
``llgvm.config.parse_config`` + ``llgvm.runner.run_simulation``, the way
``llgvm run --seed`` does. It repeats whole runs of the workload config while
a run of median length still fits in ``--seconds``. Every run is checked
(checks.py), and its ledger digest must match the other runs of the same seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs (tracer.py). A traced
process alternates untraced and traced runs, to report the tracing overhead.
Details of every run and the environment go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("coupled32", "hopfion48", "beam24")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SMOKE_STEPS = 3
TRACED_MIN_RUNS = 4  # cold untraced run, then traced and untraced in turn: two traced for the count check
P75_MIN_SAMPLES = 40  # ten samples beyond the 75th percentile

END_TO_END = (
    ("step_ms_p50", "ms"),
    ("step_ms_p75", "ms"),
    ("steps_per_s", "1/s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span, quantity). Quantities are totals per step over the step
# loop (from the first advance to the end of run_simulation), except "per_run",
# the median over traced runs of the run's total, and "rate", work per second.
PER_LAYER = (
    ("grid.fft.calls", "count", "grid.fft", "calls"),
    ("grid.fft.ms", "ms", "grid.fft", "ms"),
    ("grid.fft.mbytes", "MB", "grid.fft", "mbytes"),
    ("grid.fft.zero_input_calls", "count", "grid.fft", "flagged"),
    ("smoothing.mollify.calls", "count", "smoothing.mollify", "calls"),
    ("smoothing.mollify.ms", "ms", "smoothing.mollify", "ms"),
    ("magnetization.step.ms", "ms", "magnetization.step", "ms"),
    ("magnetization.energy.ms", "ms", "magnetization.energy", "ms"),
    ("magnetization.energy.calls", "count", "magnetization.energy", "calls"),
    ("emergent.compute_b.ms", "ms", "emergent.compute_b", "ms"),
    ("emergent.compute_b.calls", "count", "emergent.compute_b", "calls"),
    ("emergent.compute_e.ms", "ms", "emergent.compute_e", "ms"),
    ("topology.hopf_invariant.ms", "ms", "topology.hopf_invariant", "ms"),
    ("topology.skyrmion_number.ms", "ms", "topology.skyrmion_number", "ms"),
    ("runner.ledger_row.ms", "ms", "runner.ledger_row", "ms"),
    ("runner.ledger_row.self_ms", "ms", "runner.ledger_row", "self_ms"),
    ("kinetic.lorentz_push.ms", "ms", "kinetic.lorentz_push", "ms"),
    ("kinetic.deposit.ms", "ms", "kinetic.deposit", "ms"),
    ("kinetic.deposit.calls", "count", "kinetic.deposit", "calls"),
    ("kinetic.particle_pushes_per_s", "1/s", "kinetic.lorentz_push", "rate"),
    ("maxwell.step_fields.ms", "ms", "maxwell.step_fields", "ms"),
    ("maxwell.gauss_residual.ms", "ms", "maxwell.gauss_residual", "ms"),
    ("maxwell.div_b_norm.ms", "ms", "maxwell.div_b_norm", "ms"),
    ("maxwell.avg_to_nodes.ms", "ms", "maxwell.avg_to_nodes", "ms"),
    ("coupler.advance.ms", "ms", "coupler.advance", "ms"),
    ("coupler.advance.self_ms", "ms", "coupler.advance", "self_ms"),
    ("coupler.total_force_fields.ms", "ms", "coupler.total_force_fields", "ms"),
    ("coupler.energy_audit.ms", "ms", "coupler.energy_audit", "ms"),
    ("snapshots.write.calls", "count", "snapshots.write", "calls"),
    ("snapshots.write.ms", "ms", "snapshots.write", "ms"),
    ("snapshots.write.mbytes", "MB", "snapshots.write", "mbytes"),
    ("config.parse.ms", "ms", "config.parse", "per_run"),
    ("textures.make_texture.ms", "ms", "textures.make_texture", "per_run"),
    ("kinetic.sample_initial.ms", "ms", "kinetic.sample_initial", "per_run"),
    ("smoothing.build.ms", "ms", "smoothing.build", "per_run"),
    ("maxwell.init_compatible.ms", "ms", "maxwell.init_compatible", "per_run"),
)

# Metrics derived from the whole traced step loop.
TRACE_DERIVED = (
    ("trace.step_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("grid.fft.step_share_pct", "%"),
    ("kinetic.step_share_pct", "%"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run every workload for {SMOKE_STEPS} steps, traced and untraced,"
                             " and check that every metric in BENCHMARK.json is printed")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def _median(values):
    return statistics.median(values) if values else None


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "llgvm").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": source_fingerprint(),
    }


def _one_run(name, seed, n_steps, outdir, traced):
    """Parse the workload config and call run_simulation once, optionally traced."""
    from llgvm import config, runner
    from llgvm.errors import LLGVMError

    from checks import check_run, read_ledger
    from tracer import Patches, StepClock, Tracer, summarize

    patches = Patches()
    tracer = Tracer() if traced else None
    clock = StepClock()
    try:
        if traced:
            tracer.install(patches)
        clock.install(patches)
        t0 = time.perf_counter()
        cfg = config.parse_config(HERE / "workloads" / f"{name}.cfg")
        cfg.values["run.seed"] = seed
        cfg.values["kinetic.seed"] = seed
        if n_steps is not None:
            cfg.values["run.n_steps"] = n_steps
            cfg.values["run.snapshot_every"] = n_steps
        try:
            state = runner.run_simulation(cfg, output_dir=outdir)
            error = None
        except LLGVMError as err:
            state, error = None, f"{type(err).__name__}: {err}"
        t1 = time.perf_counter()
    finally:
        patches.restore()

    starts = clock.starts
    run = {
        "traced": traced,
        "steps": len(starts),
        "wall_s": t1 - t0,
        "setup_s": starts[0] - t0 if starts else None,
        "loop_s": t1 - starts[0] if starts else None,
        "step_ms": [1000.0 * (b - a) for a, b in zip(starts, starts[1:])],
        "problems": [error] if error else [],
        "digest": None,
    }
    if state is not None:
        data = (Path(outdir) / "ledger.csv").read_bytes()
        run["digest"] = hashlib.sha256(data).hexdigest()
        hopfion = cfg.values["llg.initial"] == "hopfion"
        run["problems"] += check_run(read_ledger(data), state.em.B.values, hopfion)
    if traced and state is not None:
        run["loop"] = summarize(tracer.spans, starts[0])
        run["all"] = summarize(tracer.spans, t0)
        run["counts"] = {k: [v["calls"], v["flagged"]] for k, v in sorted(run["all"].items())}
        run["unbound"] = tracer.unbound
        run["spans"] = [[n, round(1e6 * (s - t0)), round(1e6 * (e - t0)), p, a, f]
                        for n, s, e, p, a, f in tracer.spans]
    return run


def _check_repeats(runs, registry_key):
    """Same seed, same ledger digest; traced runs, same exact counts."""
    done = [r for r in runs if r["digest"] is not None]
    if done:
        registry = RESULTS / "digests.json"
        known = json.loads(registry.read_text()) if registry.is_file() else {}
        expected = known.setdefault(registry_key, done[0]["digest"])
        for r in done:
            if r["digest"] != expected:
                r["problems"].append(f"ledger digest {r['digest']} differs from {expected} for the same seed")
        tmp = registry.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, registry)
    counted = [r for r in runs if "counts" in r and not r["problems"]]
    for r in counted[1:]:
        if r["counts"] != counted[0]["counts"]:
            r["problems"].append("exact call counts differ between traced runs")


def _end_to_end(runs):
    ok = [r for r in runs if r["digest"] is not None]
    samples = [s for r in ok for s in r["step_ms"]]
    wall = sum(r["wall_s"] for r in ok)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "step_ms_p50": _median(samples),
        "step_ms_p75": statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else None,
        "steps_per_s": sum(r["steps"] for r in ok) / wall if wall else None,
        "run_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }, len(samples)


def _per_layer(runs):
    traced = [r for r in runs if "loop" in r]
    untraced = [r for r in runs if not r["traced"] and r["digest"] is not None]
    baseline = [s for r in untraced[1:] or untraced for s in r["step_ms"]]  # the first run is cold
    steps = sum(r["steps"] for r in traced)
    window = sum(r["loop_s"] for r in traced)
    if not steps:
        return {}

    def total(span, field):
        return sum(r["loop"].get(span, {}).get(field, 0) for r in traced)

    out = {}
    for metric, _, span, quantity in PER_LAYER:
        if quantity == "calls":
            value = total(span, "calls") / steps
        elif quantity == "flagged":
            value = total(span, "flagged") / steps
        elif quantity == "ms":
            value = 1000.0 * total(span, "seconds") / steps
        elif quantity == "self_ms":
            value = 1000.0 * total(span, "self_seconds") / steps
        elif quantity == "mbytes":
            value = total(span, "amount") / 1e6 / steps
        elif quantity == "rate":
            busy = total(span, "seconds")
            value = total(span, "amount") / busy if busy else 0.0
        else:  # per_run
            value = _median([1000.0 * r["all"].get(span, {}).get("seconds", 0.0) for r in traced])
        out[metric] = value
    traced_steps = [s for r in traced for s in r["step_ms"]]
    out["trace.step_ms"] = 1000.0 * window / steps
    out["trace.overhead_pct"] = (
        100.0 * (_median(traced_steps) / _median(baseline) - 1.0) if baseline and traced_steps else None
    )
    out["grid.fft.step_share_pct"] = 100.0 * total("grid.fft", "seconds") / window
    kinetic = total("kinetic.lorentz_push", "seconds") + total("kinetic.deposit", "seconds")
    out["kinetic.step_share_pct"] = 100.0 * kinetic / window
    return out


def run_workload(name, seed, seconds, trace, n_steps=None, quiet=False) -> dict:
    """Repeat runs of one workload for ``seconds``; return the printed result."""
    RESULTS.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if n_steps is not None else "")
    outdir = RESULTS / f"{name}-output"  # each run overwrites the previous run's files
    min_runs = TRACED_MIN_RUNS if trace else 1
    deadline = time.perf_counter() + seconds
    runs = []
    while True:
        runs.append(_one_run(name, seed, n_steps, outdir, traced=bool(trace) and len(runs) % 2 == 1))
        typical = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= min_runs and time.perf_counter() + typical > deadline:
            break
    steps = runs[0]["steps"]
    _check_repeats(runs, f"{name} seed={seed} steps={steps} source={source_fingerprint()}")

    failed = sum(1 for r in runs if r["problems"])
    units = dict(END_TO_END) if not trace else {m: u for m, u, _, _ in PER_LAYER} | dict(TRACE_DERIVED)
    if trace:
        values, n_samples = _per_layer(runs), None
    else:
        values, n_samples = _end_to_end(runs)
    metrics = {m: {"value": values.get(m), "unit": u} for m, u in units.items()}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "error_rate": failed / len(runs),
        "step_samples": n_samples,
        "ledger_sha256": sorted({r["digest"] for r in runs if r["digest"]}),
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "loop", "all")} for r in runs],
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    spans = [r["spans"] for r in runs if "spans" in r]
    if spans:
        (RESULTS / f"{tag}-spans.json").write_text(json.dumps(
            {"columns": ["name", "start_us", "end_us", "parent", "amount", "zero_input"],
             "spans": spans[-1]}))

    if not quiet:
        print(f"workload {name}, seed {seed}, trace {trace}: {len(runs)} runs of {steps} steps")
        for r in runs:
            for problem in r["problems"]:
                print(f"  FAILED: {problem}")
        for m, entry in metrics.items():
            print(f"  {m} = {entry['value']} {entry['unit']}")
        print(f"  error_rate = {failed / len(runs)} ({failed} of {len(runs)} runs failed)")
        print(f"  ledger sha256 = {', '.join(record['ledger_sha256'])}")
        unbound = sorted({t for r in runs for t in r.get("unbound", ())})
        if unbound:
            print(f"note: not traced, missing from the program: {', '.join(unbound)}", file=sys.stderr)
        if n_samples is not None:
            print(f"  step samples = {n_samples}")
            if n_samples < P75_MIN_SAMPLES:
                print(f"note: {n_samples} step samples leave fewer than ten beyond the 75th"
                      " percentile", file=sys.stderr)
        print(f"  environment = {json.dumps(record['environment'], sort_keys=True)}")
    return result


def smoke() -> int:
    """Every workload for a few steps, both modes; every BENCHMARK.json metric printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 1, 0.0, trace, n_steps=SMOKE_STEPS, quiet=True)
            printed = {m: e["unit"] for m, e in result["metrics"].items()
                       if isinstance(e["value"], (int, float))}
            if printed != wanted[trace]:
                diff = sorted(set(printed.items()) ^ set(wanted[trace].items()))
                bad.append(f"{name} trace {trace}: {diff} missing, extra or with another unit")
            if not result["correct"]:
                bad.append(f"{name} trace {trace}: {result['failed']} of {result['attempted']} runs failed")
            print(f"smoke {name} trace {trace}: {result['attempted']} runs, {len(printed)} metrics")
    for line in bad:
        print(f"FAILED: {line}")
    print(json.dumps({"smoke_ok": not bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "llgvm" / "__init__.py").is_file():
        print(f"error: no llgvm source tree at {ROOT / 'src' / 'llgvm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
