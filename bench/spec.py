"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of ``BENCHMARK.json``.  After changing
it, regenerate the file with ``python3 bench/spec.py``; ``run.py``
refuses to run while the two disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"

RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "pl-large",
        "why": "float PL functions swept over k = 1e2..1e5 plus collinear raw input: the per-breakpoint "
        "kernels of functions/calculus do nearly all the work",
    },
    {
        "name": "law-corpus",
        "why": "thousands of tiny dyadic functions of all four variants, law checks, 1e6-element bulk "
        "extreal: per-call dispatch and UpReal/DownReal churn dominate",
    },
    {
        "name": "lattice-geometry",
        "why": "chain/product lattices up to n = 48 (sampled condition C) and 16-128-edge polygons: "
        "the only load where groupoid and poly2 do the work",
    },
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("roundtrip_per_s", "1/s", "higher", 0.24),
    ("infconv_per_s", "1/s", "higher", 0.24),
    ("query_per_s", "1/s", "higher", 0.24),
    ("law_checks_per_s", "1/s", "higher", 0.24),
    ("groupoid_checks_per_s", "1/s", "higher", 0.24),
    ("poly2_jobs_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Library calls made by the timed passes; each gets calls, self_s, p50_us.
PASS_OPS = [
    "functions.make",
    "functions.closure_hull",
    "functions.eval",
    "functions.slope_before",
    "functions.slope_after",
    "calculus.conjugate_curve",
    "calculus.biconjugate",
    "calculus.infconv",
    "calculus.dirderiv",
    "calculus.subdiff_extended",
    "calculus.is_subgradient",
    "calculus.young_fenchel_check",
    "calculus.minorant_conditions",
    "calculus.subdiff_conjugate_check",
    "calculus.infconv_conjugate_check",
    "extreal.isum",
    "extreal.ssum",
    "extreal.idif",
    "extreal.sdif",
    "groupoid.check_condition.A",
    "groupoid.check_condition.B",
    "groupoid.check_condition.C",
    "groupoid.check_condition.D",
    "groupoid.residual",
    "poly2.from_halfplanes",
    "poly2.minkowski",
    "poly2.intersect_all",
    "poly2.hull_union",
    "poly2.support",
    "poly2.contains",
    "poly2.validate",
]

# Ops with at least 100 calls per pass on every workload; these also get p90_us.
P90_OPS = [
    "functions.eval",
    "functions.slope_before",
    "calculus.dirderiv",
    "calculus.subdiff_extended",
    "calculus.is_subgradient",
    "calculus.young_fenchel_check",
    "poly2.support",
    "poly2.contains",
]

# Library calls made only while generating inputs; each gets self_s.
SETUP_OPS = [
    "laws.random_closed_convex_fn",
    "laws.random_nonconvex_pl",
    "laws.random_ext_values",
    "groupoid.random_groupoid",
    "groupoid.FiniteOrderedGroupoid",
]

# Ops whose time is swept over input size in the traced run.
SLOPE_OPS = [
    "functions.make",
    "functions.closure_hull",
    "functions.slope_before",
    "calculus.conjugate_curve",
    "calculus.biconjugate",
    "calculus.infconv",
    "calculus.dirderiv",
    "groupoid.check_condition.C",
    "poly2.from_halfplanes",
    "poly2.minkowski",
]


def per_layer():
    """The traced run's metrics as (name, unit, better)."""
    out = []
    for op in PASS_OPS:
        out += [(f"{op}.calls", "count", "lower"), (f"{op}.self_s", "s", "lower"), (f"{op}.p50_us", "us", "lower")]
        if op in P90_OPS:
            out.append((f"{op}.p90_us", "us", "lower"))
    out += [(f"{op}.self_s", "s", "lower") for op in SETUP_OPS]
    out += [
        ("extreal.bulk.self_s", "s", "lower"),
        ("extreal.bulk.elems_per_s", "1/s", "higher"),
        ("functions.make.kept_ratio", "ratio", "lower"),
        ("functions.closure_hull.kept_ratio", "ratio", "lower"),
        ("functions.fn_allclose.disagree", "count", "lower"),
        ("calculus.young_fenchel_check.false_alarm", "count", "lower"),
        ("calculus.subdiff_conjugate_check.false_alarm", "count", "lower"),
    ]
    out += [(f"{op}.loglog_slope", "log/log", "lower") for op in SLOPE_OPS]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def document():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def render():
    return json.dumps(document(), indent=2) + "\n"


def matches_file():
    """Whether BENCHMARK.json holds what ``document()`` says, whatever its layout."""
    try:
        return json.loads(SPEC_FILE.read_text()) == document()
    except (OSError, ValueError):
        return False


if __name__ == "__main__":
    SPEC_FILE.write_text(render())
    sys.stdout.write(f"wrote {SPEC_FILE.name}: {len(per_layer())} per-layer metrics\n")
