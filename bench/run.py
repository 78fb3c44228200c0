"""Run one workload of the infsup benchmark and print its metrics.

    python3 bench/run.py --workload pl-large --seed 1 --seconds 25 --trace 0

The run imports ``infsup`` from ``src/`` of the checkout it sits in,
builds the workload's inputs from the seed (several times, for a steady
set-up time), then repeats timed passes over them from one thread until
``--seconds`` of passes have run.  The outputs of the first pass are
checked against independent oracles (``oracles.py``); later passes must
reproduce them exactly.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
passes alternate untraced and traced, a size sweep follows, and the
object holds the per-layer metrics.  The lines before it print every
metric by name and unit, and the run's metadata.  A full result (with
failures and input sizes) and, for traced runs, the spans are written
under ``.bench_out/``.

Seed 7919 is the hold-out seed, kept for re-checking a claimed gain on
inputs nobody tuned against; seeds 1-60 were used while building this.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
HOLDOUT_SEED = 7919
SEED_SPACE = 2**64  # numpy seeds must be non-negative
SETUP_REPS = 5
MAX_TRACED = 3  # traced passes per run; spans of more would only cost memory
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The throughput metrics: work kind counted per busy second of that kind.
RATES = {
    "roundtrip_per_s": "roundtrip",
    "infconv_per_s": "infconv",
    "query_per_s": "query",
    "law_checks_per_s": "law",
    "groupoid_checks_per_s": "groupoid",
    "poly2_jobs_per_s": "poly2",
}


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha():
    """The checkout's commit, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(inp, seconds, traced, scaler, jobs, trace, oracles, check):
    """Timed passes until ``seconds`` of them have run.

    Untraced runs stop before a pass that would overrun the budget;
    traced runs alternate untraced and traced passes (up to MAX_TRACED
    traced ones) and make at least one of each.  The cyclic garbage
    collector is off during a pass and runs between passes, as timeit
    does: where a collection lands is fixed by the allocation pattern,
    so it would charge the same step in every pass of one seed and a
    different step for another seed.  Each pass's step times are kept
    as arrays in the order of ``keys``.  The first pass's outputs go
    through ``check`` as soon as the pass ends, outside the timing; later
    passes keep only a fingerprint of theirs, so no pass's outputs
    outlive the next one.  Returns (keys, untraced tallies, traced
    tallies, pass tracers, the check's tally, jobs per pass,
    reproduction mismatches, passes made).
    """
    plain = jobs.Plain()
    untraced, traced_tallies, tracers = [], [], []
    keys, checked, ref, mismatches = None, None, None, []
    spent, i = 0.0, 0
    while True:
        tracer = trace.Tracer("pass") if traced and i % 2 and len(tracers) < MAX_TRACED else None
        gc.collect()
        gc.freeze()  # inputs and kept outputs are never rescanned
        gc.disable()
        try:
            tally, outputs = jobs.run_pass(inp, tracer or plain, scaler)
            fp = oracles.fingerprint(outputs)  # with the collector on, it would rescan the outputs
        finally:
            gc.enable()
        spent += tally.wall
        keys = keys or list(tally.steps)
        if tracer:
            tracer.scale = sum(tally.steps.values()) / sum(tally.raw.values())
            tracers.append(tracer)
        tally.steps = array("d", (tally.steps.get(k, 0.0) for k in keys))
        tally.raw = array("d", (tally.raw.get(k, 0.0) for k in keys))
        (traced_tallies if tracer else untraced).append(tally)
        if ref is None:
            checked, ref = check(outputs), fp
        else:
            mismatches += [(i, j) for j, (a, b) in enumerate(zip(ref, fp)) if a != b]
        del outputs
        i += 1
        typical = statistics.median(t.wall for t in untraced + traced_tallies)
        enough = not traced or (untraced and traced_tallies)
        if enough and (spent >= seconds or spent + typical > seconds):
            return keys, untraced, traced_tallies, tracers, checked, len(ref), mismatches, i


def median_steps(keys, tallies, attr="steps"):
    """Each step's median seconds over the passes, by key.

    Their sum is a median pass: a burst of load from outside hits one
    step in one pass, and the per-step median drops it, where the median
    of a few whole-pass times would keep it.
    """
    return {k: statistics.median(getattr(t, attr)[i] for t in tallies) for i, k in enumerate(keys)}


def end_to_end(setup_s, keys, tallies, rss):
    med = median_steps(keys, tallies)
    m = {"setup_s": setup_s, "wall_s": sum(med.values())}
    for name, kind in RATES.items():
        m[name] = tallies[0].count[kind] / sum(v for (k, *_), v in med.items() if k == kind)
    m["peak_rss_mb"] = rss
    return m


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # every run compiles the same way, and leaves no caches
    if str(BENCH) not in sys.path:  # python3 -P, or PYTHONSAFEPATH, leaves the script's directory out
        sys.path.insert(0, str(BENCH))
    import spec

    names = [w["name"] for w in spec.WORKLOADS]
    args = parse_args(argv, names)
    if not (SRC / "infsup" / "__init__.py").is_file():
        fail(f"no infsup package under {SRC}; run from a checkout of the repository")
    if not spec.matches_file():
        fail("BENCHMARK.json is missing or out of date; regenerate it with python3 bench/spec.py")
    sys.path.insert(0, str(SRC))
    seed = args.seed % SEED_SPACE  # any integer; seeds 0 .. 2**64 - 1 are used as given

    import speed

    started = perf_counter()
    phases = {}  # raw wall seconds of each phase of the run, for the result file
    scaler = speed.Scaler()
    setup_times = []  # reference seconds: the import, then each generation
    t0 = perf_counter()
    import numpy as np

    import infsup
    import inputs
    import jobs
    import oracles
    import trace
    from infsup import extreal, functions

    scaler.add(t0, perf_counter(), lambda ref, _: setup_times.append(ref))
    scaler.flush()
    if Path(infsup.__file__).resolve().parent != (SRC / "infsup").resolve():
        fail(f"imported infsup from {infsup.__file__}, not from {SRC}")

    setup_tracer = trace.Tracer("setup")
    for _ in range(1 if args.trace else SETUP_REPS):
        inp = None
        gc.collect()
        t = perf_counter()
        inp = inputs.generate(args.workload, seed, setup_tracer if args.trace else inputs.plain)
        raw = perf_counter() - t
        scaler.add(t, t + raw, lambda ref, _: setup_times.append(ref))
        scaler.flush()
        setup_tracer.scale = setup_times[-1] / raw
    setup_s = setup_times[0] + statistics.median(setup_times[1:])
    phases["setup"] = perf_counter() - started

    check_s = []

    def check(outputs):
        t = perf_counter()
        tally = oracles.check_pass(outputs, seed, extreal, functions.fn_allclose)
        check_s.append(perf_counter() - t)
        return tally

    keys, untraced, traced, tracers, tally, n_jobs, mismatches, n_passes = measure(
        inp, args.seconds, bool(args.trace), scaler, jobs, trace, oracles, check
    )
    rss = peak_rss_mb()
    phases["checks"] = check_s[0]
    phases["passes"] = perf_counter() - started - sum(phases.values())

    for i, j in mismatches[:10]:
        tally.failures.append({"check": "reproducible", "input": f"pass {i} job {j} differs from pass 0"})
    tally.attempted += (n_passes - 1) * n_jobs
    tally.failed += len(mismatches)

    e2e = end_to_end(setup_s, keys, untraced, rss)
    e2e_failed_ratio = tally.failed / tally.attempted
    if args.trace:
        sweep_tracer = trace.Tracer("sweep")
        slopes, sweep_times = trace.sweep(seed, sweep_tracer, scaler)
        bulk_elems = untraced[0].count["bulk"]
        layer = trace.layer_metrics(spec, setup_tracer, tracers, bulk_elems)
        layer["functions.make.kept_ratio"] = _ratio(tally.kept["make"])
        layer["functions.closure_hull.kept_ratio"] = _ratio(tally.kept["closure_hull"])
        layer["functions.fn_allclose.disagree"] = tally.disagree
        for op, n in tally.alarms.items():
            layer[f"calculus.{op}.false_alarm"] = n
        for op, s in slopes.items():
            layer[f"{op}.loglog_slope"] = s
        phases["sweep"] = perf_counter() - started - sum(phases.values())
        layer["trace.overhead_ratio"] = sum(median_steps(keys, traced).values()) / e2e["wall_s"]
        wanted = spec.per_layer()
    else:
        layer, sweep_times, sweep_tracer = {}, {}, None
        wanted = [(n, u, b) for n, u, b, _ in spec.END_TO_END]
    source = layer if args.trace else e2e
    metrics = {}
    for name, unit, _ in wanted:
        value = float(source[name])
        if value != value:
            fail(f"metric {name} is not a number")
        metrics[name] = {"value": value, "unit": unit}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "phase_wall_s": phases,
        "sizes": inp.sizes,
        "loop": "closed, one caller, one thread",
    }
    result = {
        "meta": meta,
        "end_to_end": {**e2e, "failed_ratio": e2e_failed_ratio},
        "per_layer": layer,
        "passes": [
            {"wall_raw_s": t.wall, "steps_ref_s": sum(t.steps), "steps_raw_s": sum(t.raw)}
            for t in untraced
        ],
        "raw_medians": {"wall_s": sum(median_steps(keys, untraced, "raw").values())},
        "sweep_seconds": sweep_times,
        "checks": {name: {"attempted": a, "failed": f} for name, (a, f) in sorted(tally.by_check.items())},
        "sampled_checks": sorted(tally.sampled),
        "failures": tally.failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:  # the files are for reading later; a run whose metrics are in hand does not fail on them
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1, default=str))
        if args.trace:
            trace.write_spans(OUT_DIR / f"spans-{stem}.csv.gz", [setup_tracer, *tracers, sweep_tracer])
    except OSError as e:
        sys.stderr.write(f"bench: result files not written: {e}\n")

    print("# meta " + json.dumps(meta, default=str))
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    for name, value in e2e.items():
        print(f"{name:24s} {value:.6g} {units[name]}")
    print(f"{'failed_ratio':24s} {e2e_failed_ratio:.6g} ratio ({tally.failed}/{tally.attempted} outputs)")
    for f in tally.failures[:10]:
        print(f"# FAILED {f['check']}: {f['input']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


def _ratio(pair):
    kept, given = pair
    return kept / given if given else 1.0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
