"""Checks of the library's outputs by routes that share no code with it.

Functions are read through their public representation (breakpoints,
values, end slopes, domain; polygon halfplanes) and re-evaluated with
numpy: values by interpolation, conjugates by the brute-force maximum
max_i (a*x_i - v_i), one-sided slopes by difference quotients,
polygon supports from the closed-form vertices made at set-up, lattice
answers in closed form and small carriers by enumerating definitions.
The law checks the library ships (``young_fenchel_check`` and friends)
are theorems, so their reports are outputs too and must say "holds".

Checks that only look at a sample of the possible inputs are named with
a ``sampled:`` prefix.  Every comparison made is counted in
``attempted``; every one that disagrees in ``failed``, with enough of
the input to rebuild it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import traceback

import numpy as np

INF = math.inf
RTOL = 1e-9  # pointwise tolerance, relative to the data's value scale
SLOPE_TOL = 1e-6  # difference-quotient slopes, relative to the slope scale
POLY_TOL = 1e-7  # poly2 works at 1e-9..1e-7 on unit-scale data
N_SLOPES = 16  # sampled slopes per conjugate check


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.sampled = set()
        self.by_check = {}
        self.disagree = 0  # fn_allclose(biconjugate, hull) is False
        # law reports that say "fails" only because rounding broke a tie
        self.alarms = {"young_fenchel_check": 0, "subdiff_conjugate_check": 0}
        self.kept = {"make": [0, 0], "closure_hull": [0, 0]}

    def check(self, name, ok, detail):
        self.attempted += 1
        if name.startswith("sampled:"):
            self.sampled.add(name)
        tot = self.by_check.setdefault(name, [0, 0])
        tot[0] += 1
        if not ok:
            tot[1] += 1
            self.failed += 1
            if len(self.failures) < 40:
                self.failures.append({"check": name, "input": detail() if callable(detail) else detail})


# ---------------------------------------------------------------------------
# Reading functions.
# ---------------------------------------------------------------------------


class View:
    """A function's representation as numpy data."""

    def __init__(self, kind, xs=(), vs=(), sl=None, sr=None, lo=INF, hi=-INF):
        self.kind = kind
        self.xs, self.vs = np.asarray(xs, float), np.asarray(vs, float)
        self.sl, self.sr, self.lo, self.hi = sl, sr, lo, hi

    @classmethod
    def of(cls, f):
        kind = type(f).__name__
        if kind == "PLProper":
            return cls(kind, f.xs, f.vs, f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)
        if kind == "ImproperSplit":
            return cls(kind, lo=f.lo, hi=f.hi)
        if kind == "ConstBottom":
            return cls(kind, lo=-INF, hi=INF)
        if kind == "ConstTop":
            return cls(kind)
        raise TypeError(f"unknown function variant {kind}")

    def slopes(self):
        s = list(np.diff(self.vs) / np.diff(self.xs)) if len(self.xs) > 1 else []
        return [self.sl] * (self.sl is not None) + s + [self.sr] * (self.sr is not None)

    def scale(self):
        s = self.slopes()
        ax = float(np.max(np.abs(self.xs))) if len(self.xs) else 0.0
        av = float(np.max(np.abs(self.vs))) if len(self.vs) else 0.0
        return max(1.0, av, ax * max((abs(v) for v in s), default=0.0))

    def breaks(self):
        """Breakpoints, finite domain ends, and one point beyond each end."""
        pts = list(self.xs) + [p for p in (self.lo, self.hi) if math.isfinite(p)]
        if not pts:
            return np.array([-1.0, 0.0, 1.0])
        lo, hi = min(pts), max(pts)
        pad = 1.0 + (hi - lo)
        return np.unique(np.array(pts + [lo - pad, hi + pad]))

    def __call__(self, x):
        x = np.asarray(x, float)
        if self.kind == "ConstTop":
            return np.full(x.shape, INF)
        if self.kind in ("ConstBottom", "ImproperSplit"):
            return np.where((x >= self.lo) & (x <= self.hi), -INF, INF)
        xs, vs = self.xs, self.vs
        y = np.interp(x, xs, vs)
        if self.sl is not None:
            y = np.where(x < xs[0], vs[0] + self.sl * (x - xs[0]), y)
        if self.sr is not None:
            y = np.where(x > xs[-1], vs[-1] + self.sr * (x - xs[-1]), y)
        return np.where((x < self.lo) | (x > self.hi), INF, y)

    def conj(self, a):
        """sup_x (a*x - f(x)) by brute force over the breakpoints."""
        a = np.atleast_1d(np.asarray(a, float))
        if self.kind == "ConstTop":
            return np.full(a.shape, -INF)
        if self.kind != "PLProper":
            return np.full(a.shape, INF)
        out = np.array([float(np.max(ai * self.xs - self.vs)) for ai in a])
        if self.lo == -INF:
            out[a < self.sl] = INF
        if self.hi == INF:
            out[a > self.sr] = INF
        return out

    def slope_samples(self, rng):
        s = [v for v in self.slopes() if v is not None]
        lo, hi = (min(s) - 1.0, max(s) + 1.0) if s else (-2.0, 2.0)
        a = rng.uniform(lo, hi, size=N_SLOPES)
        ends = [v for v in (self.sl, self.sr) if v is not None]
        return np.concatenate([a, ends])


def _close(p, q, tol):
    """Equal infinities, or finite values within tol."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    inf_ok = np.where(np.isinf(p) | np.isinf(q), p == q, True)
    with np.errstate(invalid="ignore"):
        fin_ok = np.where(np.isfinite(p) & np.isfinite(q), np.abs(p - q) <= tol, True)
    return bool(np.all(inf_ok & fin_ok))


def _down_sum(p, q):
    """Sum in the down space: -inf wins over +inf."""
    with np.errstate(invalid="ignore"):
        s = p + q
    return np.where(np.isnan(s), -INF, s)


def _quotient(v1, v0, t):
    """(v1 up-minus v0) / t, with inf - inf resolving to -inf as the residual does."""
    with np.errstate(invalid="ignore"):
        d = v1 - v0
    d = -INF if math.isnan(d) else d
    return d / t


# ---------------------------------------------------------------------------
# PL function jobs.
# ---------------------------------------------------------------------------


def check_fn(tally, case, out, rng, allclose):
    f, g, cc, b, h, q, laws = out
    F, Gv, B = View.of(f), View.of(g), View.of(b)
    tol = RTOL * F.scale()
    label = case.label

    def where(extra=""):
        return lambda: f"{label}: {extra}".strip()

    if case.raw is not None:
        R = View("PLProper", [p[0] for p in case.raw], [p[1] for p in case.raw], *case.make_args)
        rx = R.xs
        probe = np.concatenate([R.breaks(), (rx[:-1] + rx[1:]) / 2.0])
        tally.check("make.pointwise", _close(F(probe), R(probe), tol), where("make(raw) differs from the raw data"))
        tally.kept["make"][0] += len(F.xs)
        tally.kept["make"][1] += len(rx)

    # hull: convex, below f, and with the same conjugate as f
    gs = Gv.slopes()
    gtol = SLOPE_TOL * max([1.0] + [abs(s) for s in gs])
    tally.check("closure_hull.convex", all(b2 >= b1 - gtol for b1, b2 in zip(gs, gs[1:])), where("hull not convex"))
    at = F.breaks()
    tally.check("closure_hull.minorant", bool(np.all(Gv(at) <= F(at) + tol)), where("hull above f"))
    a = F.slope_samples(rng)
    tally.check("sampled:closure_hull.conjugate", _close(Gv.conj(a), F.conj(a), tol), where("(hull f)* != f*"))
    if F.kind == "PLProper":
        tally.kept["closure_hull"][0] += len(Gv.xs)
        tally.kept["closure_hull"][1] += len(F.xs)

    # conjugate curve against the brute-force sup
    C = View.of(cc.curve)
    tally.check("sampled:conjugate_curve.values", _close(C(a), F.conj(a), tol), where("curve != max(a*x_i - v_i)"))

    # biconjugate equals the hull, pointwise at both breakpoint sets
    pts = np.unique(np.concatenate([B.breaks(), Gv.breaks()]))
    tally.check("biconjugate.pointwise", _close(B(pts), Gv(pts), tol), where("f** != hull f"))
    tally.disagree += not allclose(b, g)

    # infconv: its conjugate is the sum of the conjugates
    Pv, Hv = View.of(case.partner), View.of(h)
    a2 = np.concatenate([a, Pv.slope_samples(rng)])
    want = _down_sum(Gv.conj(a2), Pv.conj(a2))
    htol = RTOL * (F.scale() + Pv.scale())
    tally.check("sampled:infconv.conjugate", _close(Hv.conj(a2), want, htol), where("(f # g)* != f* + g*"))
    if case.minkowski_lower is not None:
        mx, my = case.minkowski_lower[:, 0], case.minkowski_lower[:, 1]
        tally.check("infconv.minkowski_lower", _close(Hv(mx), my, POLY_TOL * (1 + np.abs(my).max())), where("lower(P) # lower(Q) != lower(P + Q)"))

    check_queries(tally, F, Gv, q, tol, label)
    if laws is not None:
        check_laws(tally, case, F, Gv, laws, tol)


def _gap(G, x):
    """A step small enough that [x - t, x + t] holds no breakpoint other than x."""
    pts = [p for p in list(G.xs) + [G.lo, G.hi] if math.isfinite(p) and p != x]
    d = min((abs(p - x) for p in pts), default=1.0)
    return 0.25 * min(d, 1.0)


def check_queries(tally, F, G, q, tol, label):
    for x, ev, sb, sa, dp, dm, sd, a, sg in q:
        def where(what, x=x):
            return lambda: f"{label}: {what} at x={x!r}"

        tally.check("eval", _close(ev.value, F(x), tol), where("eval"))
        t = _gap(G, x)
        g0, gl, gr = (float(G(v)) for v in (x, x - t, x + t))
        right, left_neg = _quotient(gr, g0, t), _quotient(gl, g0, t)
        stol = SLOPE_TOL * max([1.0] + [abs(s) for s in G.slopes()])
        if G.kind == "PLProper":
            left = -left_neg
            ok_b = (sb is None) == (not math.isfinite(left)) and (sb is None or abs(sb - left) <= stol)
            ok_a = (sa is None) == (not math.isfinite(right)) and (sa is None or abs(sa - right) <= stol)
            tally.check("slope_before", ok_b, where(f"slope_before={sb!r}, quotient={left!r}"))
            tally.check("slope_after", ok_a, where(f"slope_after={sa!r}, quotient={right!r}"))
        tally.check("dirderiv.right", _close(dp.value, right, stol), where(f"dirderiv(+1)={dp!r}, quotient={right!r}"))
        tally.check("dirderiv.left", _close(dm.value, left_neg, stol), where(f"dirderiv(-1)={dm!r}, quotient={left_neg!r}"))
        if math.isfinite(g0):
            want = (-INF if not math.isfinite(left_neg) else -left_neg, INF if not math.isfinite(right) else right)
            ok = sd.proper is not None and _close(list(sd.proper), list(want), stol)
        else:
            ok = sd.proper is None
        tally.check("subdiff_extended.proper", ok, where(f"subdiff proper={sd.proper!r}"))
        # a is a subgradient iff a*x - g(x) <= a*x0 - g(x0) for all x; within
        # rounding of a tie either answer is right
        if math.isfinite(g0):
            margin = (a * x - g0) - float(G.conj(a)[0])
            ok = abs(margin) <= tol or sg == (margin > 0)
        else:
            margin, ok = None, sg is False
        tally.check("is_subgradient", ok, where(f"is_subgradient(a={a!r})={sg}, brute margin {margin!r}"))


def _rounding_only(report, G, x0, tol):
    """Whether every row where the two membership routes differ is a proper
    slope a at which g*(a) + g(x0) - a*x0, zero for every subgradient,
    is within rounding of zero; then the routes differ only by where
    rounding put that zero."""
    g0 = float(G(x0))
    s = sorted({v for v in G.slopes()})
    cands = s + [0.0] + ([s[0] - 0.5, s[-1] + 0.5] if s else []) + [(u + v) / 2 for u, v in zip(s, s[1:])]
    exact = {f"proper:{a:g}": a for a in cands}  # rows are labelled with 6 digits
    for name, via_sd, via_conj in report.probes:
        if via_sd == via_conj:
            continue
        if not name.startswith("proper:"):
            return False
        a = exact.get(name, float(name[7:]))
        if abs(float(G.conj(a)[0]) + g0 - a * x0) > tol:
            return False
    return True


def check_laws(tally, case, F, G, reports, tol):
    law = case.law
    n_yf, n_min = len(law.yf), len(law.minorant)
    for (xi, r, x), rep in zip(law.yf, reports[:n_yf]):
        # the inequality is tight exactly when xi is a subgradient at x; there
        # rounding of the conjugate decides the report, so a "fails" within
        # rounding of that tie is a false alarm
        fx = float(F(x))
        tie = not xi.is_hat and math.isfinite(fx) and abs(float(F.conj(xi.a)[0]) - (xi.a * x - fx)) <= tol
        ok = all(rep) or tie
        tally.alarms["young_fenchel_check"] += ok and not all(rep)
        tally.check("young_fenchel", ok, lambda xi=xi, r=r, x=x, rep=rep: f"{case.label}: young_fenchel_check({xi!r}, {r}, {x}) = {rep}")
    for (xi, r), rep in zip(law.minorant, reports[n_yf : n_yf + n_min]):
        if xi.is_hat:
            a = xi.a
            margin = INF if F.kind == "ConstTop" else r - (a * F.hi if a > 0 else a * F.lo if a < 0 else 0.0)
        else:
            margin = r - float(F.conj(xi.a)[0])
        ok = rep.all_agree and (rep.a_pointwise == (margin >= 0) or abs(margin) <= tol)
        tally.check("minorant_conditions", ok, lambda xi=xi, r=r: f"{case.label}: minorant_conditions({xi!r}, {r})")
    sdcc, iccc = reports[n_yf + n_min], reports[n_yf + n_min + 1]
    ok = sdcc.agree or _rounding_only(sdcc, G, law.x0, tol)
    tally.alarms["subdiff_conjugate_check"] += ok and not sdcc.agree
    tally.check("subdiff_conjugate_check", ok, lambda: f"{case.label}: subdiff_conjugate_check(hull, {law.x0}) rows {sdcc.probes}")
    tally.check("infconv_conjugate_check", iccc.equal, lambda: f"{case.label}: infconv_conjugate_check {law.iccc!r}")


# ---------------------------------------------------------------------------
# Extended reals.
# ---------------------------------------------------------------------------

LAW_NAMES = ("isum_residual_feasible", "idif_least", "ssum_residual_feasible", "sdif_greatest", "negation_duality", "scale_distributes")


def check_scalars(tally, cases, out):
    for case, row in zip(cases, out):
        for name, ok in zip(LAW_NAMES, row):
            tally.check("extreal." + name, ok, lambda case=case, name=name: f"{name} at a={case[0]!r}, b={case[1]!r}, c={case[2]!r}, t={case[6]}")


def check_bulk(tally, case, out, xr):
    """Bulk against the scalar ops on a sample; the two laws on every element."""
    a, b, idx = case.a, case.b, case.sample
    U, D = xr.UpReal, xr.DownReal
    scalar = {
        "isum": lambda p, q: xr.isum(U(p), U(q)).v,
        "ssum": lambda p, q: xr.ssum(D(p), D(q)).v,
        "idif": lambda p, q: xr.idif(U(p), U(q)).v,
        "sdif": lambda p, q: xr.sdif(D(p), D(q)).v,
        "scale": lambda p, q: xr.scale(case.t, U(p)).v,
    }
    for name, op in scalar.items():
        want = np.array([op(a[i], b[i]) for i in idx])
        tally.check(f"sampled:extreal.bulk_{name}", bool(np.array_equal(out[name][idx], want)), f"bulk {name} != scalar on sampled indices")
    tally.check("extreal.bulk_isum_residual", bool(np.all(a <= out["isum_b_idif"])), "a <= b + (a -. b) fails in bulk")
    tally.check("extreal.bulk_ssum_residual", bool(np.all(out["ssum_b_sdif"] <= a)), "b +. (a .- b) <= a fails in bulk")


# ---------------------------------------------------------------------------
# Groupoids.
# ---------------------------------------------------------------------------


def _lattice_answers(case):
    """Known answers for chains and products of chains with saturating addition.

    inf mode: the residual of (u, v) is max(u - v, 0) per coordinate, and
    all four conditions hold.  sup mode: the residual is u - v per
    coordinate when v <= u (any w when u is at the top), none when some
    coordinate has v > u; all four conditions fail (the residual set of
    (0-ish u, larger v) is empty, and the empty supremum breaks C).
    """
    dims = case.dims
    label_of = {c: lab for lab, c in case.coords.items()}

    def res(u, v, mode):
        cu, cv = case.coords[u], case.coords[v]
        w = []
        for a, b, d in zip(cu, cv, dims):
            if mode == "inf":
                w.append(max(a - b, 0))
            elif b > a:
                return None
            else:
                w.append(d - 1 if a == d - 1 else a - b)
        return label_of[tuple(w)]

    holds = {"inf": True, "sup": False}
    return holds, res


def _brute(G):
    """The four conditions and the residuals by enumerating definitions."""
    n = G.size
    L = np.array(G.leq, bool)
    A = np.array(G.add, int)

    def lower_bounds(S):
        return [x for x in range(n) if all(L[x, s] for s in S)]

    def upper_bounds(S):
        return [x for x in range(n) if all(L[s, x] for s in S)]

    def glb(S):
        lb = lower_bounds(S)
        return next((c for c in lb if all(L[b, c] for b in lb)), None)

    def lub(S):
        ub = upper_bounds(S)
        return next((c for c in ub if all(L[c, b] for b in ub)), None)

    def rset(u, v, mode):
        return [w for w in range(n) if (L[u, A[v, w]] if mode == "inf" else L[A[v, w], u])]

    def pick(S, mode):
        if mode == "inf":
            return next((m for m in S if all(L[m, s] for s in S)), None)
        return next((m for m in S if all(L[s, m] for s in S)), None)

    holds, residuals = {}, {}
    for mode in ("inf", "sup"):
        ext = glb if mode == "inf" else lub
        a_ok = b_ok = d_ok = True
        for u in range(n):
            for v in range(n):
                S = set(rset(u, v, mode))
                p = pick(sorted(S), mode)
                residuals[(mode, u, v)] = p
                b_ok &= p is not None
                a_ok &= any(
                    all((wp in S) == (L[w, wp] if mode == "inf" else L[wp, w]) for wp in range(n)) for w in range(n)
                )
                e = ext(sorted(S))
                d_ok &= e is not None and bool(L[u, A[v, e]] if mode == "inf" else L[A[v, e], u])
        c_ok = True
        for r in range(n + 1):
            for M in itertools.combinations(range(n), r):
                e = ext(M)
                if e is None:
                    continue
                for u in range(n):
                    right = ext([A[u, m] for m in M])
                    c_ok &= right is not None and right == A[u, e]
        holds[mode] = {"A": a_ok, "B": b_ok, "C": c_ok, "D": d_ok}
    return holds, residuals


def check_groupoid(tally, case, out):
    reports, residuals = out
    G = case.G
    if case.kind == "lattice":
        holds, res = _lattice_answers(case)
        want_holds = {m: dict.fromkeys("ABCD", holds[m]) for m in holds}

        def want_res(mode, u, v):
            return res(u, v, mode)
    else:
        want_holds, brute_res = _brute(G)

        def want_res(mode, u, v):
            p = brute_res[(mode, G.index(u), G.index(v))]
            return None if p is None else G.carrier[p]

    for (mode, c), rep in reports.items():
        tally.check(f"groupoid.condition_{c}", rep.holds == want_holds[mode][c], f"{case.label}: condition {c} mode {mode} holds={rep.holds}")
    bad = [(k, r) for k, r in residuals.items() if r != want_res(*k)]
    tally.check("groupoid.residual", not bad, lambda: f"{case.label}: residuals differ, first {bad[:3]}")


# ---------------------------------------------------------------------------
# Polygons.
# ---------------------------------------------------------------------------


def _satisfies(hps, p, tol):
    """+1 inside with margin, -1 outside with margin, 0 too close to call."""
    m = max(n[0] * p[0] + n[1] * p[1] - c for n, c in hps)
    return 1 if m < -tol else -1 if m > tol else 0


def check_poly(tally, case, out):
    vp, vq = case.verts_p, case.verts_q
    label = case.label

    def h(verts, d):
        return float(np.max(verts @ np.asarray(d)))

    sup_s = np.array([h(vp, d) + h(vq, d) for d in case.dirs])
    tally.check("sampled:poly2.minkowski_support", _close(out["support_S"], sup_s, POLY_TOL * (1 + np.abs(sup_s).max())), f"{label}: h(P+Q) != h(P) + h(Q)")
    few = case.dirs[:16]
    sup_h = np.array([max(h(vp, d), h(vq, d)) for d in few])
    tally.check("sampled:poly2.hull_union_support", _close(out["support_H"], sup_h, POLY_TOL * (1 + np.abs(sup_h).max())), f"{label}: h(co(P u Q)) != max")
    # wedge {z : n_i . z <= c_i}: support finite iff d is a nonnegative combination of the normals
    (n1, c1), (n2, c2) = case.wedge
    M = np.array([n1, n2]).T
    apex = np.linalg.solve(M.T, np.array([c1, c2]))
    want_w = []
    for d in few:
        lam = np.linalg.solve(M, np.asarray(d))
        want_w.append(float(np.dot(d, apex)) if np.all(lam >= 0) else INF)
    tally.check("sampled:poly2.wedge_support", _close(out["support_W"], want_w, POLY_TOL * (1 + float(np.abs(apex).max()))), f"{label}: wedge support")
    systems = {"contains_I": case.hp_p + case.hp_q + case.wedge, "contains_St": case.strip}
    for key, hps in systems.items():
        bad = []
        for p, got in zip(case.points, out[key]):
            s = _satisfies(hps, p, 1e-6)
            if s and got != (s > 0):
                bad.append(p)
        tally.check(f"sampled:poly2.{key}", not bad, lambda bad=bad, key=key: f"{label}: {key} wrong at {bad[:3]}")
    tally.check("poly2.validate", all(out["valid"]), f"{label}: validate() = {out['valid']}")


# ---------------------------------------------------------------------------


def check_pass(outputs, seed, xr, allclose):
    """Check every output of one pass; returns the tally."""
    tally = Tally()
    rng = np.random.default_rng([seed, 7])
    for kind, case, out in outputs:
        try:
            if kind == "fn":
                check_fn(tally, case, out, rng, allclose)
            elif kind == "scalar":
                check_scalars(tally, case, out)
            elif kind == "bulk":
                check_bulk(tally, case, out, xr)
            elif kind == "groupoid":
                check_groupoid(tally, case, out)
            elif kind == "poly":
                check_poly(tally, case, out)
            else:
                tally.check("no_exception", False, f"{getattr(case, 'label', kind)}: {out}")
        except Exception:  # an output the oracle cannot read is not a correct one
            tally.check("readable_output", False, f"{getattr(case, 'label', kind)}: {traceback.format_exc(limit=3)}")
    return tally


def fingerprint(outputs):
    """One hashable summary per job, to check that later passes reproduce the first."""
    return [_fp(out) for _, _, out in outputs]


def _fp(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_fp(y) for y in x)
    if isinstance(x, dict):
        return tuple((_fp(k), _fp(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes().__hash__())
    if hasattr(x, "xs"):  # PLProper: size, ends and the sum of values
        return ("PL", len(x.xs), x.xs[0], x.xs[-1], math.fsum(x.vs), x.slope_left, x.slope_right, x.dom_lo, x.dom_hi)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_fp(getattr(x, f.name)) for f in dataclasses.fields(x))
    if hasattr(x, "v"):  # UpReal / DownReal
        return (type(x).__name__, x.v)
    if hasattr(x, "lo"):  # ImproperSplit
        return ("split", x.lo, x.hi)
    return repr(x)
