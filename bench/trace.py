"""Spans recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, job): ``name`` is the layer op
(``calculus.infconv``) or a benchmark step (``bench.roundtrip``),
``parent`` is the index of the enclosing step span (-1 for none) and
``job`` numbers the job within its phase.  Spans stay in memory and are
written once, at the end of the run.  Nothing inside the library is
traced, so an op span has no children and its self time is its
duration.

The size sweep at the bottom times the ops named in ``spec.SLOPE_OPS``
over growing inputs and fits the log-log slope of time against size, so
that a change of complexity shows as a change of slope.
"""

from __future__ import annotations

import gzip
import math
import statistics
from time import perf_counter

import numpy as np

from infsup import calculus as ca
from infsup import functions as fn
from infsup import groupoid as gp
from infsup import poly2 as p2

import inputs as gen


class Tracer:
    """Call and record a span; one instance per phase (setup, pass, sweep)."""

    def __init__(self, phase, scale=1.0):
        self.phase = phase
        self.scale = scale  # reference seconds per raw second, set once known
        self.spans = []
        self.parent = -1
        self.job = -1

    def __call__(self, op, f, *args):
        t0 = perf_counter()
        r = f(*args)
        self.spans.append([op, t0, perf_counter(), self.parent, self.job])
        return r

    def open(self, name, job):
        self.job = job
        self.parent = len(self.spans)
        self.spans.append([name, perf_counter(), None, -1, job])

    def close(self):
        self.spans[self.parent][2] = perf_counter()
        self.parent = -1


def write_spans(path, tracers):
    with gzip.open(path, "wt") as fh:
        fh.write("phase,name,start,end,parent,job\n")
        for tr in tracers:
            for name, t0, t1, parent, job in tr.spans:
                fh.write(f"{tr.phase},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")


def _durations(tracers):
    """Per tracer: op name -> span durations in reference seconds."""
    per_pass = []
    for tr in tracers:
        d = {}
        for name, t0, t1, _, _ in tr.spans:
            if not name.startswith("bench."):
                d.setdefault(name, []).append((t1 - t0) * tr.scale)
        per_pass.append(d)
    return per_pass


def layer_metrics(spec, setup_tracer, pass_tracers, bulk_elems):
    """Per-layer calls, self time and latency percentiles from the spans."""
    out = {}
    per_pass = _durations(pass_tracers)
    for op in spec.PASS_OPS + ["extreal.bulk"]:
        runs = [d.get(op, []) for d in per_pass]
        every = sorted(t for r in runs for t in r)
        out[f"{op}.calls"] = len(runs[0])
        out[f"{op}.self_s"] = statistics.median(sum(r) for r in runs)
        if op == "extreal.bulk":
            out[f"{op}.elems_per_s"] = bulk_elems / out[f"{op}.self_s"]
            continue
        out[f"{op}.p50_us"] = 1e6 * _quantile(every, 0.5)
        if op in spec.P90_OPS:
            out[f"{op}.p90_us"] = 1e6 * _quantile(every, 0.9)
    setup = _durations([setup_tracer])[0]
    for op in spec.SETUP_OPS:
        out[f"{op}.self_s"] = sum(setup.get(op, []))
    return out


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return math.nan
    i = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[i]


# ---------------------------------------------------------------------------
# Size sweep.
# ---------------------------------------------------------------------------

SWEEP_PL = (100, 1000, 10000, 100000)
SWEEP_MAKE_RAW = (500, 1000, 2000, 4000)  # collinear raw points, quadratic today
SWEEP_CHAIN = (8, 16, 32, 48)
SWEEP_EDGES = (16, 32, 64, 128)
SWEEP_BUDGET_S = 0.05  # repeat cheap calls until this much time has accumulated
SWEEP_MAX_REPS = 7


def _timed(tracer, scaler, job, op, f, *args):
    """Median reference seconds of one call, repeated for small inputs."""
    raw, ref = [], []
    scaler.flush()
    while sum(raw) < SWEEP_BUDGET_S and len(raw) < SWEEP_MAX_REPS:
        tracer.job = job
        tracer(op, f, *args)
        t0, t1 = tracer.spans[-1][1:3]
        raw.append(t1 - t0)
        scaler.add(t0, t1, lambda r, *_: ref.append(r))
        scaler.tick()
    scaler.flush()
    return statistics.median(ref)


def _slope(sizes, seconds):
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def sweep(seed, tracer, scaler):
    """Log-log slope of time against input size for each swept op."""
    rng = np.random.default_rng([seed, 99])
    times = {}

    def record(op, size, t):
        times.setdefault(op, []).append((size, t))

    job = 0
    for n in SWEEP_MAKE_RAW:
        xs, vs, sl, sr = gen.pl_data(rng, 2 * n // 3, True, dyadic=True)
        xs, vs = gen.with_midpoints(xs, vs)
        raw = list(zip(xs.tolist(), vs.tolist()))
        record("functions.make", len(raw), _timed(tracer, scaler, job, "functions.make", fn.PLProper.make, raw, sl, sr))
        job += 1
    for k in SWEEP_PL:
        # f and g go to infconv, which needs operands convex in floats
        xs, vs, sl, sr = gen.pl_data(rng, k, True, dyadic=False)
        f = gen.convex_partner(gen.plain, fn.PLProper.make(list(zip(xs.tolist(), vs.tolist())), sl, sr))
        xs, vs, sl, sr = gen.pl_data(rng, k, True, dyadic=False)
        g = gen.convex_partner(gen.plain, fn.PLProper.make(list(zip(xs.tolist(), vs.tolist())), sl, sr))
        xs, vs, _, _ = gen.pl_data(rng, k, False, dyadic=False)
        nc = fn.PLProper.make(list(zip(xs.tolist(), vs.tolist())), None, None, xs[0], xs[-1])
        x0 = float(rng.uniform(xs[0], xs[-1]))
        record("functions.closure_hull", k, _timed(tracer, scaler, job, "functions.closure_hull", fn.closure_hull, nc))
        record("functions.slope_before", k, _timed(tracer, scaler, job, "functions.slope_before", f.slope_before, x0))
        record("calculus.conjugate_curve", k, _timed(tracer, scaler, job, "calculus.conjugate_curve", ca.conjugate_curve, f))
        record("calculus.biconjugate", k, _timed(tracer, scaler, job, "calculus.biconjugate", ca.biconjugate, f))
        record("calculus.infconv", k, _timed(tracer, scaler, job, "calculus.infconv", ca.infconv, f, g))
        record("calculus.dirderiv", k, _timed(tracer, scaler, job, "calculus.dirderiv", ca.dirderiv, f, x0, 1.0))
        job += 1
    for n in SWEEP_CHAIN:
        G = gen.lattice(gen.plain, (n,)).G
        record("groupoid.check_condition.C", n, _timed(tracer, scaler, job, "groupoid.check_condition.C", gp.check_condition, G, "C", "inf"))
        job += 1
    for k in SWEEP_EDGES:
        hp, _ = gen.tangent_polygon(rng, k, (0.0, 0.0), 1.0)
        hq, _ = gen.tangent_polygon(rng, k, (0.3, -0.2), 0.7)
        P = p2.ConvexPoly2.from_halfplanes(hp)
        Q = p2.ConvexPoly2.from_halfplanes(hq)
        record("poly2.from_halfplanes", k, _timed(tracer, scaler, job, "poly2.from_halfplanes", p2.ConvexPoly2.from_halfplanes, hp))
        record("poly2.minkowski", k, _timed(tracer, scaler, job, "poly2.minkowski", P.minkowski, Q))
        job += 1
    return {op: _slope(*zip(*pts)) for op, pts in times.items()}, times
