"""Acceptance suite.

One test per headline criterion, each printing a PASS/FAIL line with its
measured margins.  Criteria 2-6 run on the reference flat grid (h = 0.05,
box [-8, 8] x [0, 8]); the field oracles of criterion 1 use a large
absorbing box; the measure criteria run at h = 0.025 where the transformed
measures can follow the y-sequence down to 0.05.
"""

import numpy as np
import pytest

from lipvar import checks
from lipvar import kernels as K
from lipvar.domain_field import (
    DomainConfig,
    LipschitzGraph,
    arc_indicator,
    build_domain,
    gradient,
    greens_function,
    harmonic_extension,
    harmonic_measure,
    kernel_measure,
    wos_harmonic_measure,
)
from lipvar.omega import OmegaLadder, Segment, omega_limit
from lipvar.variation_measure import SurfaceBall, nu_limit, probe_ball

EPS = 0.05
BALL = SurfaceBall((0.0, 0.0), 0.5)


def _line(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _probe_domain(graph, h):
    cfg = DomainConfig(graph, box_halfwidth=6.0, box_height=6.0,
                       grid_spacing=h, pole=(0.0, 1.0))
    domain = build_domain(cfg)
    u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
    return domain, u


@pytest.fixture(scope="module")
def measure_flat_fine():
    return _probe_domain(LipschitzGraph.flat(), 0.025)


@pytest.fixture(scope="module")
def probe_flat_coarse():
    return _probe_domain(LipschitzGraph.flat(), 0.05)


# -- criterion 1: field-layer oracle equivalence ------------------------------------


def test_acceptance_1_field_oracles():
    cfg = DomainConfig(LipschitzGraph.flat(), box_halfwidth=24.0, box_height=48.0,
                       grid_spacing=0.05, pole=(0.0, 1.0))
    domain = build_domain(cfg)

    m = harmonic_measure(domain, (0.0, 1.0))
    arc = m.arc_mass(-1.0, 1.0)
    err_direct = abs(arc - 0.5)

    n = 100_000
    wm = wos_harmonic_measure(domain, (0.0, 1.0), n, seed=2024)
    p = wm.arc_mass(-1.0, 1.0)
    se = np.sqrt(0.25 / n)
    sig = abs(p - 0.5) / se

    g = greens_function(domain, (0.0, 1.0))
    target = np.log(3.0) / (2 * np.pi)
    err_green = abs(g.at((0.0, 2.0)) - target)

    ok = err_direct <= 1e-3 and sig <= 3.0 and err_green <= 2e-3
    _line(1, ok, f"direct |arc-0.5|={err_direct:.2e} (<=1e-3), "
                 f"wos {sig:.2f} se (<=3), green err={err_green:.2e} (<=2e-3)")
    assert err_direct <= 1e-3
    assert sig <= 3.0
    assert err_green <= 2e-3


# -- criterion 2: kernel identities ---------------------------------------------------


def test_acceptance_2_kernel_identities(kernel_flat):
    domain, u = kernel_flat
    worst = dict(zip("KCB", checks.row_integral_errors(domain, u, (0.1, 0.5, 1.0))))
    semi, semi_entry = checks.k_semigroup_error(domain, 0.1, 0.2)

    ok = (worst["K"] <= 1e-3 and worst["C"] <= 1e-3 and worst["B"] <= 1e-3
          and semi <= 0.02 and semi_entry <= 0.02)
    _line(2, ok, f"|K(1)-1|={worst['K']:.1e}, |C(1)|={worst['C']:.1e}, "
                 f"|B(1)|={worst['B']:.1e} (<=1e-3), semigroup={semi:.2e} "
                 f"(entrywise {semi_entry:.4f}) (<=2%)")
    assert worst["K"] <= 1e-3 and worst["C"] <= 1e-3 and worst["B"] <= 1e-3
    assert semi <= 0.02
    assert semi_entry <= 0.02


# -- criterion 3: gradient identity ----------------------------------------------------


def test_acceptance_3_gradient_identity(kernel_flat, oracle_flat):
    domain, u = kernel_flat
    rng = np.random.default_rng(314)
    core = np.abs(domain.xs) <= 4.0
    worst = 0.0
    for _ in range(50):
        y = rng.uniform(2 * domain.h, 1.0)
        got = K.apply_c(domain, u, y, u.rows(y))
        _, _, want = u.sigma_rows(2 * y)
        live = core & (want > 1e-3 * want.max())
        worst = max(worst, float((np.abs(got - want)[live] / want[live]).max()))

    odom, ou = oracle_flat
    i0 = odom.nx // 2
    target = 2 / (5 * np.pi)
    spot_grad = abs(np.linalg.norm(gradient(ou, (0.0, 2.0))) - target)
    spot_c = abs(K.apply_c(odom, ou, 1.0, ou.rows(1.0))[i0] - target)

    ok = worst <= 0.02 and spot_grad <= 1e-3 and spot_c <= 1e-3
    _line(3, ok, f"identity sup rel={worst:.4f} (<=2%), spot |grad| err="
                 f"{spot_grad:.2e}, spot C err={spot_c:.2e} (<=1e-3)")
    assert worst <= 0.02
    assert spot_grad <= 1e-3
    assert spot_c <= 1e-3


# -- criterion 4: Harnack exponent ------------------------------------------------------


def test_acceptance_4_harnack_exponent(oracle_flat):
    odom, _ = oracle_flat
    train = [(y1, y2) for y1 in (0.1, 0.2, 0.4) for y2 in (0.2, 0.4, 0.8, 1.0)
             if y1 <= y2]
    fit_flat = K.harnack_alpha(odom, train)

    graph = LipschitzGraph.sawtooth(amplitude=0.5, n_teeth=2, support_radius=1.0)
    cfg = DomainConfig(graph, box_halfwidth=8.0, box_height=8.0,
                       grid_spacing=0.05, pole=(0.0, 1.0))
    sdom = build_domain(cfg)
    fit_saw = K.harnack_alpha(sdom, train)
    holdout = [(0.15, 0.3), (0.15, 0.6), (0.3, 0.6), (0.3, 0.9), (0.5, 1.0)]
    viol = K.harnack_violations(sdom, fit_saw, holdout)

    ok = fit_flat.alpha <= 1.1 and np.isfinite(fit_saw.alpha) and viol <= 0.01
    _line(4, ok, f"flat alpha={fit_flat.alpha:.4f} (<=1.1), sawtooth alpha="
                 f"{fit_saw.alpha:.4f} c={fit_saw.c:.3f}, holdout violations={viol:.3f} (<=1%)")
    assert fit_flat.alpha <= 1.1
    assert np.isfinite(fit_saw.alpha)
    assert viol <= 0.01


# -- criterion 5: the omega construction --------------------------------------------------


def test_acceptance_5_omega_construction(kernel_flat):
    domain, u = kernel_flat

    decay, _ = checks.dyadic_decay(domain, u, Segment(0.2, 0.5), EPS, tol=2e-5)

    oa = omega_limit(domain, u, Segment(0.2, 0.5), EPS)
    norm = np.abs(oa.row_integrals() - 1).max()
    semi = checks.omega_split_error(domain, u, Segment(0.2, 0.5), EPS, 0.3)

    om_pos = omega_limit(domain, u, Segment(0.1, 0.3), EPS)
    min_entry = om_pos.entries.min()

    ok = decay <= 0.6 and norm <= 1e-3 and semi <= 0.02 and min_entry >= 0
    _line(5, ok, f"decay={decay:.3f} (<=0.6), |Omega(1)-1|={norm:.1e} (<=1e-3), "
                 f"semigroup={semi:.4f} (<=2%), min entry={min_entry:.2e} (>=0)")
    assert decay <= 0.6
    assert norm <= 1e-3
    assert semi <= 0.02
    assert min_entry >= 0


def test_acceptance_5_epsilon_scaling_slope(kernel_flat):
    # The construction's closeness gap to its first-order expansion is
    # predicted to be second order in the coupling.  The measured gap is
    # first order: its leading term is the dressing difference between the
    # plain height integral of b and its composition-sandwiched version,
    # which the refinement limit does not cancel (see the known-issue note
    # in the README).  The slope
    # assertion is kept at its stated band and is expected to fail.
    domain, u = kernel_flat
    seg = Segment(0.3, 0.4)
    eps_list = (0.02, 0.04, 0.08)
    gaps = [checks.closeness_gap(domain, u, seg, eps) for eps in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(gaps), 1)[0])
    ok = abs(slope - 2.0) <= 0.3
    _line(5, ok, f"epsilon-scaling slope={slope:.3f} (target 2 +- 0.3); "
                 f"gaps={[f'{g:.3e}' for g in gaps]}")
    assert abs(slope - 2.0) <= 0.3, (
        f"measured log-log slope {slope:.3f}; the gap scales linearly in the "
        f"coupling (first-order dressing term), not quadratically"
    )


# -- criterion 6: phi-property and the differential equation ------------------------------


def test_acceptance_6_phi_property_and_ode(kernel_flat):
    domain, u = kernel_flat
    r1, r2 = checks.phi_ratios(domain, u, 0.5, EPS, (-1.0, 1.0))
    hi = max(r1, r2)
    lo = min(r1, r2)
    stable = hi <= 2.0 * lo

    grid = np.round(np.arange(0.15, 0.951, 0.05), 10)
    rel, abs0 = checks.ode_residuals(OmegaLadder(domain, u, EPS, grid), u, grid)

    ok = stable and rel <= 5e-2 and abs0 <= 1e-3
    _line(6, ok, f"phi ratios {r1:.3f}/{r2:.3f} (factor <=2), "
                 f"ode rel={rel:.3e} (<=5e-2), "
                 f"ode eps=0 abs={abs0:.3e} (<=1e-3)")
    assert stable
    assert rel <= 5e-2
    assert abs0 <= 1e-3


# -- criterion 7: transformed measures ------------------------------------------------------


def test_acceptance_7_measures(measure_flat_fine):
    domain, u = measure_flat_fine
    kappa = kernel_measure(domain, (0.0, 1.0))
    ys = (0.4, 0.2, 0.1, 0.05)

    nu, diag = nu_limit(domain, u, kappa, EPS, y_sequence=ys)
    mass_err = max(abs(mv - 1.0) for mv in diag.total_masses)
    slope = diag.slope

    mask = BALL.node_mask(domain)
    floors = {}
    for eps in (0.02, 0.05, 0.1):
        nu_e, _ = nu_limit(domain, u, kappa, eps, y_sequence=ys)
        floors[eps] = float(nu_e.s_masses[mask].sum())
    floor = min(floors.values())

    ok = mass_err <= 1e-2 and abs(slope - 1.0) <= 0.3 and floor >= 0.05
    _line(7, ok, f"mass err={mass_err:.2e} (<=1e-2), weak slope={slope:.3f} "
                 f"(1 +- 0.3), ball-mass floor={floor:.3f} (>=0.05) {floors}")
    assert mass_err <= 1e-2
    assert abs(slope - 1.0) <= 0.3
    assert floor >= 0.05


# -- criterion 8: the low-variation probe -------------------------------------------------------


def _chain_numbers(res):
    return {"ratio": res.ratio, "R1": res.chain["R1"],
            "ball_mass": res.chain["nu_ball_mass"]}


def _factors(a, b):
    return {k: max(a[k], b[k]) / max(min(a[k], b[k]), 1e-300) for k in a}


def test_acceptance_8_probe(probe_flat_coarse, measure_flat_fine):
    dom_c, u_c = probe_flat_coarse
    dom_f, u_f = measure_flat_fine

    res_c = probe_ball(dom_c, u_c, BALL, z1=(0.0, 2.0), eps=EPS)
    res_f = probe_ball(dom_f, u_f, BALL, z1=(0.0, 2.0), eps=EPS)
    fac_h = _factors(_chain_numbers(res_c), _chain_numbers(res_f))

    saw_a, u_a = _probe_domain(
        LipschitzGraph.sawtooth(amplitude=0.5, n_teeth=2, phase=0), 0.05)
    saw_b, u_b = _probe_domain(
        LipschitzGraph.sawtooth(amplitude=0.5, n_teeth=2, phase=1), 0.05)
    res_a = probe_ball(saw_a, u_a, BALL, z1=(0.0, 2.0), eps=EPS)
    res_b = probe_ball(saw_b, u_b, BALL, z1=(0.0, 2.0), eps=EPS)
    fac_p = _factors(_chain_numbers(res_a), _chain_numbers(res_b))

    all_finite = all(np.isfinite(r.ratio) and r.chain_ok
                     for r in (res_c, res_f, res_a, res_b))
    in_ball = all(
        np.linalg.norm(np.array(r.node_xy) - np.array(BALL.center)) <= BALL.radius
        for r in (res_c, res_f, res_a, res_b))
    worst_h = max(fac_h.values())
    worst_p = max(fac_p.values())

    ok = all_finite and in_ball and worst_h < 2.0 and worst_p < 2.0
    _line(8, ok, f"flat ratio {res_c.ratio:.4f}->{res_f.ratio:.4f} "
                 f"(h-refinement factor {worst_h:.2f} < 2), sawtooth A/B ratio "
                 f"{res_a.ratio:.4f}/{res_b.ratio:.4f} (phase factor {worst_p:.2f} < 2)")
    assert all_finite and in_ball
    assert worst_h < 2.0
    assert worst_p < 2.0
