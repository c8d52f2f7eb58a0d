"""Every check's measurement, and the four ``verify`` suites built on them.

The measurements return plain numbers; ``verify``, ``sweep-epsilon``, the
probe chain and the acceptance tests read each quantity from one function
here.  ``SUITES`` maps a suite name to a function yielding its checks in
report order as ``(name, bound, check)``; ``check()`` returns ``(margin,
passed[, extra])``, or ``None`` where it does not apply.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import kernels as K
from .domain_field.grid import (
    gradient,
    greens_function,
    harmonic_extension,
    harmonic_measure,
    kernel_measure,
)
from .domain_field.wos import wos_harmonic_measure
from .errors import LipvarError
from .omega import (
    OmegaLadder,
    Segment,
    _workspace,
    adjoint_sweep,
    cross_boundary_data,
    dyadic_partition,
    ode_check,
    omega_limit,
    omega_rho_bounds,
    omega_tilde,
    phi_property_check,
    pi_product,
)
from .variation_measure import SurfaceBall, nu_limit, probe_ball, variation_ratio, vertical_variation

# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def row_integral_errors(domain, u, ys):
    """Worst |K_y(1) - 1|, |C_y(1)| and |B_y(1)| over the heights ys."""
    k = max(np.abs(K.build_k(domain, y).row_integrals() - 1).max() for y in ys)
    c = max(np.abs(K.build_c(domain, u, y).row_integrals()).max() for y in ys)
    b = max(np.abs(K.build_b(domain, u, y).row_integrals()).max() for y in ys)
    return float(k), float(c), float(b)


def k_semigroup_error(domain, y1, y2):
    """k_y1 o k_y2 against k_(y1+y2): sup error / sup k, and the worst
    entrywise relative error (entries floored at 1e-6 of sup k)."""
    k12 = K.compose(K.build_k(domain, y1), K.build_k(domain, y2)).entries
    k3 = K.build_k(domain, y1 + y2).entries
    err = np.abs(k12 - k3)
    return (float(err.max() / k3.max()),
            float((err / np.maximum(k3, 1e-6 * k3.max())).max()))


def family_gap(domain, ys):
    """sup|k^power_y - k^martin_y| / sup|k^martin_y|, the worst over the grid
    levels n nearest the heights ys (within the band).  G^n is formed here as
    repeated products, and nowhere else: ``DiscreteDomain.row_power`` reads it
    from the band, or refuses it, and the gap measures the identity that read
    rests on, on any grid.  Returns the gap per level."""
    band = domain.kernel_table()
    levels = sorted({min(max(round(y / domain.h), 1), domain.band_rows) for y in ys})
    gaps = {}
    for n in levels:
        power = K._mass_to_kernel(domain, np.linalg.matrix_power(band[1], n))
        martin = K._mass_to_kernel(domain, band[n])
        gaps[round(n * domain.h, 12)] = float(np.abs(power - martin).max() / np.abs(martin).max())
    return gaps


def dyadic_decay(domain, u, seg, eps, tol):
    """Worst level-difference ratio for n >= 3, and the history.  With no such
    level recorded there is no decay evidence, and the ratio reads inf."""
    om = omega_limit(domain, u, seg, eps, tol=tol)
    history = om.meta["history"]
    ratios = [r for (n, _), r in zip(history[1:], om.meta["decay_ratios"]) if n >= 3]
    return max(ratios, default=float("inf")), history


def omega_split_error(domain, u, seg, eps, at):
    """Omega_[at,M] o Omega_[m,at] against Omega_seg: sup error / sup Omega."""
    whole = omega_limit(domain, u, seg, eps).entries
    left, right = (omega_limit(domain, u, s, eps).entries for s in seg.split(at))
    comp = (right * domain.hm_weights[None, :]) @ left
    return float(np.abs(comp - whole).max() / max(np.abs(whole).max(), 1e-300))


def closeness_gap(domain, u, seg, eps):
    """sup |Omega_seg - Omega_tilde_seg|, the limit taken to tol 1e-5."""
    om = omega_limit(domain, u, seg, eps, tol=1e-5)
    return float(np.abs(om.entries - omega_tilde(domain, u, seg, eps).entries).max())


def phi_ratios(domain, u, y, eps, arc):
    """phi-property ratios on [y/2, y] and [y/4, y/2] (None below the 2h floor)."""
    psi, _ = cross_boundary_data(domain, y, arc=arc)
    r1 = phi_property_check(domain, u, psi, Segment(y / 2, y), y, eps)["ratio"]
    if y / 4 < 2 * domain.h - 1e-12:
        return r1, None
    return r1, phi_property_check(domain, u, psi, Segment(y / 4, y / 2), y, eps)["ratio"]


def adjoint_sweep_error(domain, u, kappa, eps, nu, ys):
    """The adjoint sweep's error estimate: the relative sup distance of the
    foot density of nu, the measure ``nu_limit`` swept from kappa down ys,
    from a sweep of the same heights with half steps."""
    g = K._mass_to_kernel(domain, nu.s_masses)
    g2, _ = adjoint_sweep(domain, u, eps, kappa.s_masses, ys, substeps=2)
    foot = g2[int(np.argmin(ys))]
    return float(np.abs(g - foot).max() / np.abs(foot).max())


def ode_residuals(ladder, u, grid):
    """Relative ODE residual at the ladder's eps, and absolute residual at
    eps = 0 from a k-part ladder on the grid."""
    zero = OmegaLadder(ladder.domain, u, 0.0, grid)
    return (ode_check(ladder, u, u, grid)["rel_residual"],
            ode_check(zero, u, u, grid)["abs_residual"])


# ---------------------------------------------------------------------------
# the verify suites
# ---------------------------------------------------------------------------


def _at_most(value, bound):
    return value, value <= bound


def _unit_error(kernel):
    return np.abs(kernel.row_integrals() - 1).max()


def _field(cfg, domain, u, rng):
    measure = cache(lambda: harmonic_measure(domain, cfg.domain.pole))
    offset = cfg.domain.graph_offset

    def nonnegative():
        m = measure()
        low = m.s_masses.min()
        return (max(0.0, -low), low >= -1e-12,
                {"box_sides": m.box_side_mass, "box_top": m.box_top_mass})

    def max_principle():
        lo, hi = u.values.min(), u.values.max()
        return max(-lo, hi - 1, 0.0), lo >= -1e-12 and hi <= 1 + 1e-12

    def distance_comparability():
        c_bound = domain.graph.cone_constant
        worst, ok = 0.0, True
        for _ in range(100):
            i = rng.integers(0, domain.nx)
            y = rng.uniform(domain.h, 2.0)
            p = np.array([[domain.xs[i], domain.s_y[i] + y]])
            dist = domain.graph.distance(p, offset=offset)[0]
            ok &= dist <= y + 1e-9 and dist >= c_bound * y - 1e-9
            worst = max(worst, c_bound * y - dist, dist - y)
        return worst, ok, {"cone_constant": c_bound}

    def green_symmetry():
        # Green symmetry at random interior grid nodes (the discrete statement)
        pts = []
        while len(pts) < 6:
            i = rng.integers(1, domain.nx - 1)
            j = rng.integers(domain.jb[i] + 3, domain.ny - 1)
            pts.append((i, int(j)))
        gap = 0.0
        for a, b in zip(pts[::2], pts[1::2]):
            ga = greens_function(domain, (domain.xs[a[0]], (domain.j0 + a[1]) * domain.h))
            gb = greens_function(domain, (domain.xs[b[0]], (domain.j0 + b[1]) * domain.h))
            gap = max(gap, abs(ga.values[domain.index(*b)] - gb.values[domain.index(*a)]))
        return _at_most(gap, 1e-3)

    def harnack_gradient():
        # Harnack gradient bound on the positive field u; vertical offsets are
        # scaled so the slant distance to the polyline clears the stencil floor
        worst_c = 0.0
        y_floor = (2 * domain.h + 0.05) / domain.graph.cone_constant
        for _ in range(100):
            x = rng.uniform(-2, 2)
            y = rng.uniform(y_floor, max(2.0, y_floor + 0.5))
            p = (x, float(domain.graph(np.array([x]))[0]) + offset + y)
            dist = domain.graph.distance(np.array([p]), offset=offset)[0]
            if dist < 2 * domain.h + 1e-9:
                continue
            gv = np.linalg.norm(gradient(u, p))
            val = u.at(p)
            if val > 1e-9:
                worst_c = max(worst_c, gv * dist / val)
        return _at_most(worst_c, 4.0)

    def wos_oracle():
        n = cfg.wos_samples
        wm = wos_harmonic_measure(domain, cfg.domain.pole, n)
        edges = np.linspace(-2.0, 2.0, 11)
        worst_sig = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            p = wm.arc_mass(a, b)
            se = max(np.sqrt(p * max(1 - p, 0.0) / n), 1e-4)
            worst_sig = max(worst_sig, abs(p - measure().arc_mass(a, b)) / se)
        return worst_sig, worst_sig <= 3.0, {"n_samples": n, "capped_walks": wm.capped_walks}

    yield "measure_total", "|total-1| <= 1e-6", lambda: _at_most(abs(measure().total - 1), 1e-6)
    yield "measure_nonnegative", "min mass >= -1e-12", nonnegative
    yield "extension_of_one", "|ext(1)-1| <= 1e-6", lambda: _at_most(
        np.abs(harmonic_extension(domain, np.ones(domain.nx)).values - 1).max(), 1e-6)
    yield "mean_value", "residual <= 1e-9", lambda: _at_most(u.mean_value_residual(), 1e-9)
    yield "max_principle", "0 <= u <= 1", max_principle
    yield "distance_comparability", "y >= dist >= y/sqrt(1+L^2)", distance_comparability
    yield "green_symmetry", "|g(x,w)-g(w,x)| <= 1e-3", green_symmetry
    yield "harnack_gradient", "|grad u| dist/u <= 4", harnack_gradient
    yield "wos_oracle", "coarse arcs within 3 standard errors", wos_oracle


def _kernels(cfg, domain, u, rng):
    hs = domain.h
    ys = [y for y in (0.1, 0.5, 1.0) if y >= 2 * hs]
    y1, y2 = max(0.1, 2 * hs), max(0.2, 4 * hs)
    rows = cache(lambda: row_integral_errors(domain, u, ys))
    pairs = [(a, b) for a in (0.1, 0.2, 0.4) for b in (0.2, 0.4, 0.8) if 2 * hs <= a <= b]
    hold = [(a, b) for a in (0.15, 0.3) for b in (0.3, 0.6) if 2 * hs <= a <= b]
    fit = cache(lambda: K.harnack_alpha(domain, pairs))

    def semigroup():
        rel, _ = k_semigroup_error(domain, y1, y2)
        return rel, rel <= 0.02, {"heights": [y1, y2]}

    def families():
        gaps = family_gap(domain, (0.25, 0.5, 1.0))
        worst = max(gaps.values())
        return worst, worst <= 1e-10, {"heights": list(gaps), "gaps": list(gaps.values())}

    def identity_compose():
        p = K.build_k(domain, y2)
        gap = np.abs(K.compose(p, K.identity_kernel(domain)).entries - p.entries).max()
        return _at_most(gap / p.entries.max(), 1e-10)

    def associativity():
        p, q, r = K.build_k(domain, y2), K.build_c(domain, u, y2), K.build_k(domain, y1)
        lhs = K.compose(K.compose(p, q), r).entries
        rhs = K.compose(p, K.compose(q, r)).entries
        return _at_most(np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1e-300), 1e-10)

    @cache
    def bounds():
        cb = bb = 0.0
        for y in ys:
            kk = K.build_k(domain, y).entries
            mask = kk > 1e-9 * kk.max()
            cb = max(cb, (np.abs(K.build_c(domain, u, y).entries[mask]) * y / kk[mask]).max())
            bb = max(bb, (np.abs(K.build_b(domain, u, y).entries[mask]) * y / kk[mask]).max())
        return cb, bb

    def gradient_identity():
        # Kept apart from acceptance criterion 3, which takes the worst
        # entrywise relative error: on the h = 0.1 box-5 sawtooth (50 draws,
        # seeds 7 and 314) that form reads 2.16 % and 2.07 % against the 2 %
        # band, this sup error over sup |grad u| 1.53 % and 1.51 %.
        worst = 0.0
        for _ in range(50):
            y = rng.uniform(2 * hs, min(1.0, domain.field_rows * hs / 2 - hs))
            gy = K.apply_c(domain, u, y, u.rows(y))
            _, _, gn = u.sigma_rows(2 * y)
            core = np.abs(domain.xs) <= cfg.domain.box_halfwidth / 2
            live = core & (gn > 1e-3 * gn.max())
            worst = max(worst, float(np.abs(gy - gn)[live].max() / gn[live].max()))
        return _at_most(worst, 0.02)

    def harnack_alpha():
        alpha = fit().alpha
        flat = not cfg.domain.graph.breakpoints
        return alpha, alpha <= 1.1 if flat else np.isfinite(alpha), {"c": fit().c}

    yield "k_row_integrals", "|K_y(1)-1| <= 1e-3", lambda: _at_most(rows()[0], 1e-3)
    yield "c_row_integrals", "|C_y(1)| <= 1e-3", lambda: _at_most(rows()[1], 1e-3)
    yield "b_row_integrals", "|B_y(1)| <= 1e-3", lambda: _at_most(rows()[2], 1e-3)
    yield "semigroup", "rel sup error <= 2%", semigroup
    yield "family_gap", "power vs martin rows at grid levels <= 1e-10", families
    yield "identity_compose", "p o id = p", identity_compose
    yield "associativity", "((p q) r) = (p (q r)) to 1e-10", associativity
    yield "c_bound", "|c_y| y / k_y finite", lambda: (bounds()[0], np.isfinite(bounds()[0]))
    yield "b_bound", "|b_y| y / k_y finite", lambda: (bounds()[1], np.isfinite(bounds()[1]))
    yield "gradient_identity", "C_y(u_y) = |grad u(x_2y)| within 2%", gradient_identity
    yield "harnack_alpha", "flat alpha <= 1.1; finite otherwise", harnack_alpha
    yield "harnack_holdout", "held-out violations <= 1%", lambda: _at_most(
        K.harnack_violations(domain, fit(), hold), 0.01)


def _omega(cfg, domain, u, rng):
    eps = cfg.epsilon
    seg = Segment(*cfg.segments[0])
    part = dyadic_partition(seg, 5)
    ktol = len(part.segments) * 1e-3
    mid = 0.5 * (seg.m + seg.M)

    def decay():
        worst, history = dyadic_decay(domain, u, seg, eps, tol=1e-5)
        return worst, worst <= 0.6, {"history": history}

    def positivity():
        pos = seg
        if not seg.m - 1e-12 <= seg.length <= 3 * seg.m + 1e-12:
            pos = Segment(seg.m, min(3 * seg.m, 1.0))
        low = omega_limit(domain, u, pos, eps).entries.min()
        return -min(low, 0), low >= 0, {"segment": [pos.m, pos.M]}

    def b_additivity():
        # b through the omega workspace, whose cells the dyadic limits built
        def b(s):
            return K._mass_to_kernel(domain, _workspace(domain, u).b_entries(s))

        b_whole = b(seg)
        b_split = b(Segment(seg.m, mid)) + b(Segment(mid, seg.M))
        return _at_most(np.abs(b_whole - b_split).max()
                        / max(np.abs(b_whole).max(), 1e-300), 1e-3)

    def closeness():
        factor = (closeness_gap(domain, u, seg, eps)
                  / max(closeness_gap(domain, u, seg, eps / 2), 1e-300))
        return factor, 2.0 <= factor <= 6.0

    def phi():
        y = 0.5 if 0.5 >= 4 * domain.h else 4 * domain.h
        r1, r2 = phi_ratios(domain, u, y, eps, cfg.u_arc)
        ok = r2 is None or max(r1, r2) <= 2 * min(r1, r2) + 1e-12
        return r1, ok, {"halved_ratio": r2}

    step = max(0.05, 2 * domain.h)
    grid = np.arange(2 * domain.h + step, 1.0 - step / 2, step)
    # one eps-ladder serves the ODE check and the two-sided constants at 0.25
    ladder = cache(lambda: OmegaLadder(domain, u, eps, [*grid, 0.25]))

    def rho():
        rb = omega_rho_bounds(ladder(), 0.25)
        return (rb["c_plus"], rb["c_plus"] > 0 and rb["c_minus"] > 0,
                {"c_minus": rb["c_minus"], "steps": rb["steps"]})

    yield "tilde_normalization", "|Otilde(1)-1| <= 1e-3", lambda: _at_most(
        _unit_error(omega_tilde(domain, u, seg, eps)), 1e-3)
    yield "pi_normalization", f"|Pi(1)-1| <= {ktol:.1e}", lambda: _at_most(
        _unit_error(pi_product(domain, u, seg, part, eps)), ktol)
    yield "dyadic_decay", "ratio <= 0.6 per level for n >= 3", decay
    yield "omega_normalization", "|Omega(1)-1| <= 1e-3", lambda: _at_most(
        _unit_error(omega_limit(domain, u, seg, eps)), 1e-3)
    yield "omega_semigroup", "split composition within 2%", lambda: _at_most(
        omega_split_error(domain, u, seg, eps, mid), 0.02)
    yield "positivity", "min entry >= 0", positivity
    yield "b_additivity", "split additivity within 1e-3", b_additivity
    if eps > 0:
        yield "closeness_eps_factor", "halving eps shrinks gap by 4 +- 50%", closeness
    yield "phi_property", "ratio stable within factor 2 under halving", phi
    if len(grid) >= 5:
        ode = cache(lambda: ode_residuals(ladder(), u, grid))
        yield "ode_residual", "relative residual <= 5e-2", lambda: _at_most(ode()[0], 5e-2)
        yield "ode_eps_zero", "absolute residual <= 1e-3", lambda: _at_most(ode()[1], 1e-3)
    yield "omega_rho", "two-sided constants finite and positive", rho


def _variation(cfg, domain, u, rng):
    eps = cfg.epsilon
    V = cache(lambda: vertical_variation(domain, u))
    kappa = cache(lambda: kernel_measure(domain, (cfg.z1[0], cfg.z1[1] - 1.0)))
    nu = cache(lambda: nu_limit(domain, u, kappa(), eps, cfg.y_sequence))

    def dominates():
        ytop = min(1.0, (domain.field_rows - 1) * domain.h / 3)
        ys = np.linspace(V().y_min, ytop, 41)
        grad_int = np.zeros(domain.nx)
        for y0, y1 in zip(ys[:-1], ys[1:]):
            ym = 0.5 * (y0 + y1)
            _, _, gn = u.sigma_rows(3 * ym)
            grad_int += (y1 - y0) * gn
        return _at_most(float((grad_int - V().values).max()), 1e-2)

    def integrand_nonnegative():
        neg = 0.0
        for y in np.linspace(V().y_min, 1.0, 9):
            neg = min(neg, float(K.apply_b(domain, u, y, u.rows(y)).min()))
        return max(0.0, -neg), neg >= -1e-3

    def gamma_mass():
        masses = nu()[1].total_masses
        err = max(abs(mv - 1.0) for mv in masses)
        return err, err <= 1e-2, {"masses": masses}

    def sweep_error():
        nu_eps, diag = nu()
        err = adjoint_sweep_error(domain, u, kappa(), eps, nu_eps, diag.y_sequence)
        return err, err <= 1e-6, {"steps": diag.steps}

    def slope():
        s = nu()[1].slope
        return (s, abs(s - 1.0) <= 0.3) if np.isfinite(s) else None

    def ratio():
        r1 = variation_ratio(u, kappa(), eps, nu()[0], V())[0]
        return r1, np.isfinite(r1) and r1 >= 0

    def probe_chain():
        ball = SurfaceBall(tuple(cfg.balls[0]["center"]), float(cfg.balls[0]["radius"]))
        pr = probe_ball(domain, u, ball, z1=cfg.z1, eps=eps, variation=V(), nu=nu())
        return pr.chain["nu_ball_mass"], pr.chain_ok, {"ratio": pr.ratio}

    yield "variation_dominates", "V >= int |grad u(x_3y)| dy - 1e-2", dominates
    yield "integrand_nonnegative", "B_y(u_y) >= -1e-3", integrand_nonnegative
    yield "gamma_mass", "total mass 1 +- 1e-2 along the sequence", gamma_mass
    yield "adjoint_sweep_error", "half-step distance at the foot <= 1e-6", sweep_error
    yield "weak_convergence_slope", "log-log slope 1 +- 0.3", slope
    yield "variation_ratio", "R1 finite", ratio
    yield "probe_chain", "all chain links finite and ball mass > 1e-6", probe_chain


SUITES = {"field": _field, "kernels": _kernels, "omega": _omega, "variation": _variation}


def run_suites(cfg, domain, u, names):
    """Records of the named suites' checks in order.  Every check runs under
    one guard: a package error becomes a failed record carrying its text.
    The draws come from one generator seeded by ``cfg.domain.wos_seed``."""
    rng = np.random.default_rng(cfg.domain.wos_seed)
    records = []
    for suite in names:
        for name, bound, check in SUITES[suite](cfg, domain, u, rng):
            try:
                got = check()
            except LipvarError as e:
                got = (float("inf"), False, {"error": str(e)})
            if got is not None:
                margin, passed, *extra = got
                records.append({"name": name, "bound": bound, "margin": float(margin),
                                "passed": bool(passed)} | dict(*extra))
    return records
