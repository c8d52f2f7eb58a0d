import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipvar import kernels as K
from lipvar.domain_field import arc_indicator, harmonic_extension
from lipvar.errors import ConfigError, ConvergenceError
from lipvar.omega import (
    OmegaLadder,
    _workspace,
    Partition,
    Segment,
    check_omega_properties,
    cross_boundary_data,
    dyadic_partition,
    find_positive_epsilon,
    ode_check,
    omega_limit,
    omega_rho_bounds,
    omega_tilde,
    phi_property_check,
    pi_product,
)

EPS = 0.05


# -- segments and partitions ---------------------------------------------------


def test_segment_validation():
    with pytest.raises(ConfigError):
        Segment(0.0, 1.0)
    with pytest.raises(ConfigError):
        Segment(0.5, 0.5)
    s = Segment(0.25, 0.75)
    assert s.length == pytest.approx(0.5)
    assert s.ratio == pytest.approx(2.0)


def test_dyadic_partition_plain():
    p = dyadic_partition(Segment(0.25, 0.75), 2)
    assert [(s.m, s.M) for s in p.segments] == [(0.25, 0.5), (0.5, 0.75)]


def test_dyadic_partition_clips_cells():
    p = dyadic_partition(Segment(0.3, 0.6), 2)
    assert [(round(s.m, 6), round(s.M, 6)) for s in p.segments] == [
        (0.3, 0.5), (0.5, 0.6)]


@given(st.floats(0.05, 0.9), st.floats(0.05, 1.5), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_dyadic_partition_properties(m, length, n):
    seg = Segment(m, m + length)
    p = dyadic_partition(seg, n)
    assert p.parent == seg
    # clipped dyadic partitions are regular once two full cells fit,
    # which covers every depth the refinement limit actually visits
    if 2.0 ** n * seg.length >= 2.0:
        assert p.is_regular
    if n > 0:
        assert dyadic_partition(seg, n).refines(dyadic_partition(seg, n - 1))


def test_partition_rejects_gaps():
    with pytest.raises(ConfigError):
        Partition((Segment(0.1, 0.2), Segment(0.3, 0.4)))


# -- workspace -----------------------------------------------------------------


def test_dropped_u_frees_its_workspace(flat_small):
    domain, _ = flat_small
    gc.disable()
    try:
        u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
        omega_limit(domain, u, Segment(0.3, 0.4), EPS)
        ws = weakref.ref(_workspace(domain, u))
        assert ws()._b
        del u
        assert ws() is None
    finally:
        gc.enable()


def test_workspace_rejects_field_of_another_domain(flat_small, saw_small):
    domain, _ = flat_small
    _, u_saw = saw_small
    with pytest.raises(ConfigError):
        omega_tilde(domain, u_saw, Segment(0.2, 0.4), EPS)


# -- omega_tilde -----------------------------------------------------------------


def test_omega_tilde_eps_zero_is_pure_kernel(flat_small):
    domain, u = flat_small
    seg = Segment(0.2, 0.4)
    ot = omega_tilde(domain, u, seg, 0.0)
    k = K.build_k(domain, seg.length, family="power")
    assert np.array_equal(ot.entries, k.entries)


def test_omega_tilde_normalized(flat_small):
    domain, u = flat_small
    ot = omega_tilde(domain, u, Segment(0.2, 0.4), EPS)
    assert np.abs(ot.row_integrals() - 1.0).max() < 1e-3


def test_omega_tilde_b_envelope(flat_small):
    # entrywise omega_tilde >= k - eps * C * |seg| * (M^(a-1)/m^a) * k_m
    domain, u = flat_small
    seg = Segment(0.2, 0.4)
    fit = K.harnack_alpha(domain, [(0.2, 0.4), (0.3, 0.6), (0.2, 0.8)])
    ot = omega_tilde(domain, u, seg, EPS).entries
    k = K.build_k(domain, seg.length, family="power").entries
    km = K.build_k(domain, seg.m, family="power").entries
    envelope = (seg.M ** (fit.alpha - 1) / seg.m ** fit.alpha) * seg.length * km
    const = np.max((k - ot) / (EPS * envelope + 1e-300))
    assert np.isfinite(const)
    assert np.all(ot >= k - EPS * 50.0 * envelope - 1e-12)


# -- pi products --------------------------------------------------------------------


def test_pi_single_factor_is_omega_tilde(flat_small):
    domain, u = flat_small
    seg = Segment(0.2, 0.4)
    pi = pi_product(domain, u, seg, Partition((seg,)), EPS)
    ot = omega_tilde(domain, u, seg, EPS)
    assert np.abs(pi.entries - ot.entries).max() < 1e-12


def test_pi_fixes_constants(flat_small):
    domain, u = flat_small
    seg = Segment(0.2, 0.4)
    part = dyadic_partition(seg, 6)
    pi = pi_product(domain, u, seg, part, EPS)
    assert np.abs(pi.row_integrals() - 1.0).max() < len(part.segments) * 1e-3


def test_pi_positive_in_moderate_aspect(flat_small):
    domain, u = flat_small
    seg = Segment(0.2, 0.6)  # |seg| = 2 m
    pi = pi_product(domain, u, seg, dyadic_partition(seg, 5), EPS)
    assert pi.entries.min() >= 0


def test_pi_partition_must_cover(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        pi_product(domain, u, Segment(0.2, 0.4),
                   Partition((Segment(0.2, 0.3),)), EPS)


# -- the dyadic limit -----------------------------------------------------------------


def test_omega_limit_normalized_and_recorded(flat_small):
    domain, u = flat_small
    om = omega_limit(domain, u, Segment(0.2, 0.4), EPS)
    assert np.abs(om.row_integrals() - 1.0).max() < 1e-3
    assert om.meta["history"]


def test_omega_limit_decay_ratio(flat_small):
    domain, u = flat_small
    om = omega_limit(domain, u, Segment(0.2, 0.4), EPS, tol=2e-5)
    ratios = [r for (n, _), r in zip(om.meta["history"][1:], om.meta["decay_ratios"])
              if n >= 3]
    assert ratios
    assert max(ratios) <= 0.6


def test_omega_limit_semigroup(flat_small):
    domain, u = flat_small
    oa = omega_limit(domain, u, Segment(0.2, 0.5), EPS)
    ob = omega_limit(domain, u, Segment(0.3, 0.5), EPS)
    oc = omega_limit(domain, u, Segment(0.2, 0.3), EPS)
    comp = (ob.entries * domain.hm_weights[None, :]) @ oc.entries
    assert np.abs(comp - oa.entries).max() / np.abs(oa.entries).max() < 0.02


def test_omega_limit_nonconvergence_reports_history(flat_small):
    domain, u = flat_small
    with pytest.raises(ConvergenceError) as err:
        omega_limit(domain, u, Segment(0.2, 0.4), EPS, tol=1e-14, n_max=6)
    assert err.value.history


def test_omega_positivity_wide_segment(flat_small):
    domain, u = flat_small
    om = omega_limit(domain, u, Segment(0.2, 0.6), EPS)
    assert om.entries.min() >= 0


# -- property report -------------------------------------------------------------------


def test_check_properties_positive_segment(flat_small):
    domain, u = flat_small
    seg = Segment(0.2, 0.6)
    om = omega_limit(domain, u, seg, EPS)
    ot = omega_tilde(domain, u, seg, EPS)
    rep = check_omega_properties(om, ot, seg, EPS, u=u)
    assert rep["normalization"]["passed"]
    assert rep["semigroup"]["passed"]
    assert rep["positivity"]["passed"]


def test_check_properties_eps_zero_trivial(flat_small):
    domain, u = flat_small
    seg = Segment(0.3, 0.4)
    om = omega_limit(domain, u, seg, 0.0)
    ot = omega_tilde(domain, u, seg, 0.0)
    rep = check_omega_properties(om, ot, seg, 0.0, u=u)
    assert rep["closeness"]["gap"] < 1e-10
    assert rep["positivity"]["passed"]


def test_closeness_gap_shrinks_with_eps(flat_small):
    # stated slack: halving eps shrinks the gap by a factor in [2, 6];
    # tight limit tolerance keeps the refinement noise out of the gap
    domain, u = flat_small
    seg = Segment(0.3, 0.4)
    g = {}
    for eps in (EPS, EPS / 2):
        om = omega_limit(domain, u, seg, eps, tol=1e-5)
        ot = omega_tilde(domain, u, seg, eps)
        g[eps] = np.abs(om.entries - ot.entries).max()
    factor = g[EPS] / g[EPS / 2]
    assert 2.0 <= factor <= 6.0


def test_find_positive_epsilon(flat_small):
    domain, u = flat_small
    eps0 = find_positive_epsilon(domain, u, iters=4)
    assert eps0 > 0.01


def test_continuity_surrogate_under_mesh_refinement():
    from lipvar.domain_field import (DomainConfig, LipschitzGraph,
                                     arc_indicator, build_domain,
                                     harmonic_extension)

    seg = Segment(0.4, 0.8)
    built = {}
    for h in (0.2, 0.1):
        cfg = DomainConfig(LipschitzGraph.flat(), 4.0, 4.0, h, (0.0, 1.0))
        domain = build_domain(cfg)
        u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
        ot = omega_tilde(domain, u, seg, EPS)
        built[h] = (omega_limit(domain, u, seg, EPS), ot, u)
    om_c, ot_c, u_c = built[0.2]
    om_f, _, _ = built[0.1]
    rep = check_omega_properties(om_c, ot_c, seg, EPS, u=u_c, refined=om_f)
    assert rep["continuity"]["cauchy_ratio"] is not None
    assert rep["continuity"]["passed"]
    assert rep["continuity"]["cauchy_ratio"] <= 0.6


# -- omega_rho bounds ------------------------------------------------------------------


def test_omega_rho_eps_zero_constants_one(flat_small):
    domain, u = flat_small
    rb = omega_rho_bounds(domain, u, 0.25, 0.0)
    assert abs(rb["c_plus"] - 1.0) < 0.05
    assert abs(rb["c_minus"] - 1.0) < 0.05


def test_omega_rho_finite_margins(flat_small):
    domain, u = flat_small
    rb = omega_rho_bounds(domain, u, 0.25, EPS)
    assert rb["c_plus"] > 0 and np.isfinite(rb["c_plus"])
    assert rb["c_minus"] > 0


def test_omega_rho_margins_degrade_with_eps(flat_small):
    domain, u = flat_small
    spread = []
    for eps in (0.02, 0.05, 0.1):
        rb = omega_rho_bounds(domain, u, 0.25, eps)
        spread.append(rb["sup_ratio"] - rb["inf_ratio"])
    assert spread[0] <= spread[1] <= spread[2]


def test_omega_rho_rejects_large_rho(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        omega_rho_bounds(domain, u, 0.7, EPS)


# -- phi property -----------------------------------------------------------------------


def test_phi_property_constant_data(flat_small):
    domain, u = flat_small
    psi = np.ones(domain.nx)
    res = phi_property_check(domain, u, psi, Segment(0.25, 0.5), 0.5, EPS)
    assert res["sup_deviation"] < 1e-3


def test_phi_property_cross_boundary_stable(flat_small):
    domain, u = flat_small
    psi, v = cross_boundary_data(domain, 0.5, arc=(-1.0, 1.0))
    assert np.all(psi > 0)
    r1 = phi_property_check(domain, u, psi, Segment(0.25, 0.5), 0.5, EPS)
    r2 = phi_property_check(domain, u, psi, Segment(0.2, 0.4), 0.5, EPS)
    assert np.isfinite(r1["ratio"])
    hi, lo = max(r1["ratio"], r2["ratio"]), min(r1["ratio"], r2["ratio"])
    assert hi <= 2.0 * lo


def test_phi_property_sup_variant(flat_small):
    domain, u = flat_small
    psi, _ = cross_boundary_data(domain, 0.5, arc=(-0.5, 0.5))
    res = phi_property_check(domain, u, psi, Segment(0.25, 0.5), 0.5, EPS)
    assert res["sup_variant_constant"] <= 1.0


def test_phi_property_rejects_wide_segment(flat_small):
    domain, u = flat_small
    psi = np.ones(domain.nx)
    with pytest.raises(ConfigError):
        phi_property_check(domain, u, psi, Segment(0.1, 0.5), 0.5, EPS)


# -- differential equation ----------------------------------------------------------------


def test_ode_grid_validation(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        ode_check(domain, u, u, EPS, [0.3, 0.4, 0.5])


def test_ode_eps_zero_constant(flat_small):
    domain, u = flat_small
    grid = np.round(np.arange(0.3, 0.91, 0.1), 10)
    res = ode_check(domain, u, u, 0.0, grid)
    assert res["abs_residual"] <= 1e-3


def test_ode_comparison_bound(flat_small):
    domain, u = flat_small
    grid = np.round(np.arange(0.3, 0.91, 0.1), 10)
    res = ode_check(domain, u, u, EPS, grid)
    assert 0 <= res["comparison_constant"] <= 2.0


# -- the ladder -----------------------------------------------------------------------------


def test_ladder_matches_direct_limit(flat_small):
    domain, u = flat_small
    ladder = OmegaLadder(domain, u, EPS, [0.25, 0.5])
    direct = omega_limit(domain, u, Segment(0.25, 1.0), EPS)
    rel = (np.abs(ladder.omega_y(0.25).entries - direct.entries).max()
           / np.abs(direct.entries).max())
    assert rel < 0.02


def test_ladder_identity_at_top(flat_small):
    domain, u = flat_small
    ladder = OmegaLadder(domain, u, EPS, [0.5])
    f = u.rows(0.3)
    assert np.abs(ladder.apply(1.0, f) - f).max() < 1e-10
