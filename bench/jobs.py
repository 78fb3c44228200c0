"""The timed passes.

A pass runs every job of a workload once, in a fixed order, from one
thread: the next call starts only after the last one returned.  Every
call into the library goes through ``call(op, f, *args)``; in an
untraced pass that is a plain call, in a traced pass it also records a
span (see ``trace.py``).

A job is cut into steps, each one library call or a short run of cheap
ones.  Each step is timed on its own and keyed (kind, job, part); the
speed probe runs between steps (see ``speed.py``), so long jobs are
cut finely enough for the probe to follow the machine's drift.  Work
counts are added per kind; the end-to-end throughputs divide them by
the seconds of that kind's steps.
"""

from __future__ import annotations

import traceback
from functools import partial
from time import perf_counter

from infsup import calculus as ca
from infsup import extreal as xr
from infsup import functions as fn
from infsup import groupoid as gp
from infsup import poly2 as p2

KINDS = ("roundtrip", "infconv", "query", "law", "groupoid", "poly2", "bulk")
MODES = ("inf", "sup")
CONDITIONS = "ABCD"


class Plain:
    """Call without recording: the untraced passes."""

    def __call__(self, op, f, *args):
        return f(*args)

    def open(self, name, job):
        pass

    def close(self):
        pass


class Pass:
    """Seconds per step and work counts per kind, over one pass.

    ``steps`` holds reference seconds (see ``speed.py``) and ``raw`` the
    seconds as measured, both keyed (kind, job, part).
    """

    def __init__(self, call, scaler):
        self.call = call
        self.scaler = scaler
        self.steps = {}
        self.raw = {}
        self.count = dict.fromkeys(KINDS, 0)
        self.wall = 0.0

    def step(self, kind, job, part, body, *args):
        """Time ``body(call, *args)`` as one step and return its result."""
        self.scaler.tick()
        self.call.open("bench." + kind, job)
        t0 = perf_counter()
        try:
            return body(self.call, *args)
        finally:
            self.scaler.add(t0, perf_counter(), partial(self._settle, (kind, job, part)))
            self.call.close()

    def one(self, kind, job, part, op, f, *args):
        """A step that is exactly one library call."""
        return self.step(kind, job, part, lambda call: call(op, f, *args))

    def _settle(self, key, ref, raw):
        self.steps[key] = ref
        self.raw[key] = raw


def _subgradient_probe(g, x, a):
    return ca.is_subgradient(g, x, fn.DualElem.proper(a))


def probe_slope(sd):
    """A slope to test with is_subgradient, read off the subdifferential.

    The midpoint of the proper interval when it has width, one unit
    inside it when it is a halfline, 0 when there are no proper
    subgradients.  A single slope s is probed at s + 1, which is not a
    subgradient: probing s itself asks whether a tie holds, and in
    floating point the rounding of s decides that, not the library.
    """
    if sd.proper is None:
        return 0.0
    lo, hi = sd.proper
    if lo == -fn.INF and hi == fn.INF:
        return 0.0
    if lo == -fn.INF:
        return hi - 1.0
    if hi == fn.INF or hi == lo:
        return lo + 1.0
    return (lo + hi) / 2.0


def queries_at(call, f, g, x):
    pl = isinstance(g, fn.PLProper)
    ev = call("functions.eval", f.eval, x)
    sb = call("functions.slope_before", g.slope_before, x) if pl else None
    sa = call("functions.slope_after", g.slope_after, x) if pl else None
    dp = call("calculus.dirderiv", ca.dirderiv, g, x, 1.0)
    dm = call("calculus.dirderiv", ca.dirderiv, g, x, -1.0)
    sd = call("calculus.subdiff_extended", ca.subdiff_extended, g, x)
    a = probe_slope(sd)
    sg = call("calculus.is_subgradient", _subgradient_probe, g, x, a)
    return x, ev, sb, sa, dp, dm, sd, a, sg


def law_checks(call, f, g, partner, law):
    out = [call("calculus.young_fenchel_check", ca.young_fenchel_check, f, xi, r, x) for xi, r, x in law.yf]
    out += [call("calculus.minorant_conditions", ca.minorant_conditions, f, xi, r) for xi, r in law.minorant]
    out.append(call("calculus.subdiff_conjugate_check", ca.subdiff_conjugate_check, g, law.x0))
    xi, r = law.iccc
    out.append(call("calculus.infconv_conjugate_check", ca.infconv_conjugate_check, g, partner, xi, r))
    return out


def fn_job(tally, job, case):
    """Round trip, infconv with the partner, point queries, law checks."""
    one = tally.one
    if case.raw is not None:
        f = one("roundtrip", job, "make", "functions.make", fn.PLProper.make, case.raw, *case.make_args)
    else:
        f = case.given
    g = one("roundtrip", job, "hull", "functions.closure_hull", fn.closure_hull, f)
    cc = one("roundtrip", job, "conj", "calculus.conjugate_curve", ca.conjugate_curve, f)
    b = one("roundtrip", job, "biconj", "calculus.biconjugate", ca.biconjugate, f)
    tally.count["roundtrip"] += 1
    h = one("infconv", job, "", "calculus.infconv", ca.infconv, g, case.partner)
    tally.count["infconv"] += 1
    q = [tally.step("query", job, i, queries_at, f, g, x) for i, x in enumerate(case.points)]
    tally.count["query"] += len(q) * (7 if isinstance(g, fn.PLProper) else 5)
    laws = None
    if case.law:
        laws = tally.step("law", job, "", law_checks, f, g, case.partner, case.law)
        tally.count["law"] += len(laws)
    return f, g, cc, b, h, q, laws


def _scalar_laws(call, cases):
    """Six residuation/duality laws per scalar triple (a, b, c) and factor t."""
    out = []
    for ua, ub, uc, da, db, dc, t in cases:
        d = call("extreal.idif", xr.idif, ua, ub)
        feasible_up = ua <= call("extreal.isum", xr.isum, ub, d)
        least_up = not ua <= call("extreal.isum", xr.isum, ub, uc) or d <= uc
        e = call("extreal.sdif", xr.sdif, da, db)
        feasible_down = call("extreal.ssum", xr.ssum, db, e) <= da
        greatest_down = not call("extreal.ssum", xr.ssum, db, dc) <= da or dc <= e
        s = call("extreal.isum", xr.isum, ua, ub)
        duality = call("extreal.negate_up", xr.negate_up, s) == call(
            "extreal.ssum",
            xr.ssum,
            call("extreal.negate_up", xr.negate_up, ua),
            call("extreal.negate_up", xr.negate_up, ub),
        )
        scaling = call("extreal.scale", xr.scale, t, s) == call(
            "extreal.isum", xr.isum, call("extreal.scale", xr.scale, t, ua), call("extreal.scale", xr.scale, t, ub)
        )
        out.append((feasible_up, least_up, feasible_down, greatest_down, duality, scaling))
    return out


def scalar_job(tally, job, cases):
    out = tally.step("law", job, "", _scalar_laws, cases)
    tally.count["law"] += 6 * len(cases)
    return out


def bulk_job(tally, job, case):
    """The five bulk ops, then the two residuation laws evaluated in bulk."""
    a, b = case.a, case.b
    ops = {"isum": xr.isum_arr, "ssum": xr.ssum_arr, "idif": xr.idif_arr, "sdif": xr.sdif_arr}
    out = {name: tally.one("bulk", job, name, "extreal.bulk", f, a, b) for name, f in ops.items()}
    out["scale"] = tally.one("bulk", job, "scale", "extreal.bulk", xr.scale_arr, case.t, a)
    out["isum_b_idif"] = tally.one("bulk", job, "law1", "extreal.bulk", xr.isum_arr, b, out["idif"])
    out["ssum_b_sdif"] = tally.one("bulk", job, "law2", "extreal.bulk", xr.ssum_arr, b, out["sdif"])
    tally.count["bulk"] += len(out) * len(a)
    return out


def _residuals(call, G, mode):
    return {(mode, u, v): call("groupoid.residual", gp.residual, G, u, v, mode) for u in G.carrier for v in G.carrier}


def groupoid_job(tally, job, case):
    """The four residuation conditions in both modes, then every residual.

    ``check_equivalence`` is the four ``check_condition`` calls plus a
    comparison; they are made one by one here so each condition gets its
    own span without tracing inside the library.  One (carrier, mode)
    pair counts as one equivalence check.
    """
    G = case.G
    reports, residuals = {}, {}
    for mode in MODES:
        for c in CONDITIONS:
            op = "groupoid.check_condition." + c
            reports[(mode, c)] = tally.one("groupoid", job, mode + c, op, gp.check_condition, G, c, mode)
        residuals.update(tally.step("groupoid", job, mode, _residuals, G, mode))
    tally.count["groupoid"] += len(MODES)
    return reports, residuals


def _supports(call, X, dirs):
    return [call("poly2.support", X.support, d) for d in dirs]


def _contains(call, X, points):
    return [call("poly2.contains", X.contains, p) for p in points]


def poly_job(tally, job, case):
    one = tally.one
    build = p2.ConvexPoly2.from_halfplanes
    P = one("poly2", job, "P", "poly2.from_halfplanes", build, case.hp_p)
    Q = one("poly2", job, "Q", "poly2.from_halfplanes", build, case.hp_q)
    W = one("poly2", job, "W", "poly2.from_halfplanes", build, case.wedge)
    St = one("poly2", job, "St", "poly2.from_halfplanes", build, case.strip)
    S = one("poly2", job, "S", "poly2.minkowski", P.minkowski, Q)
    I = one("poly2", job, "I", "poly2.intersect_all", p2.intersect_all, [P, Q, W])
    H = one("poly2", job, "H", "poly2.hull_union", p2.hull_union, [P, Q])
    few = case.dirs[:16]
    out = {"S": S, "I": I, "H": H, "W": W, "St": St}
    out["support_S"] = tally.step("poly2", job, "hS", _supports, S, case.dirs)
    out["support_H"] = tally.step("poly2", job, "hH", _supports, H, few)
    out["support_W"] = tally.step("poly2", job, "hW", _supports, W, few)
    out["contains_I"] = tally.step("poly2", job, "cI", _contains, I, case.points)
    out["contains_St"] = tally.step("poly2", job, "cSt", _contains, St, case.points)
    out["valid"] = [
        one("poly2", job, "v" + name, "poly2.validate", out[name].validate) for name in ("S", "I", "H", "W", "St")
    ]
    tally.count["poly2"] += 1
    return out


def interleave(groups):
    """Merge the lists so that each one is spread evenly over the result.

    Every kind of work then samples the whole pass, early and late,
    rather than one stretch of it: the machine's speed drifts within a
    pass, and a kind measured in one stretch would carry that stretch's
    speed.
    """
    keyed = [((i + 0.5) / len(g), gi, i, item) for gi, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:3])]


def run_pass(inputs, call, scaler):
    """One pass over every job; returns the tally and the outputs by job.

    A job whose library call raises is recorded as ("error", case,
    traceback) and the pass goes on with the next job.
    """
    tally = Pass(call, scaler)
    families = {}
    for case in inputs.fns:
        families.setdefault(case.label.split("/")[0], []).append(("fn", fn_job, case))
    groups = list(families.values()) + [
        [("scalar", scalar_job, chunk) for chunk in inputs.scalars],
        [("bulk", bulk_job, inputs.bulk)],
        [("groupoid", groupoid_job, case) for case in inputs.groupoids],
        [("poly", poly_job, case) for case in inputs.polys],
    ]
    outputs = []
    t0 = perf_counter()
    for job, (kind, run, case) in enumerate(interleave(groups)):
        try:
            outputs.append((kind, case, run(tally, job, case)))
        except Exception:  # keep measuring; the checks count it as a failed output
            outputs.append(("error", case, traceback.format_exc(limit=3)))
    tally.wall = perf_counter() - t0
    scaler.flush()
    return tally, outputs
