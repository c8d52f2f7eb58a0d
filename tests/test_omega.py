import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from lipvar import checks, omega
from lipvar import kernels as K
from lipvar.domain_field import (
    DomainConfig,
    LipschitzGraph,
    arc_indicator,
    build_domain,
    grid,
    harmonic_extension,
    kernel_measure,
)
from lipvar.errors import ConfigError, ConvergenceError, ResolutionError
from lipvar.omega import (
    OmegaLadder,
    OmegaWorkspace,
    _workspace,
    Partition,
    Segment,
    adjoint_sweep,
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
from lipvar.variation_measure import vertical_variation

EPS = 0.05
# the ids `eigen` (flat) and `log` (sawtooth) name each grid after the power
# path it took when powers had two paths, kept so the test names stay stable
SWEEP_GRIDS = pytest.mark.parametrize("grid", ["flat_small", "saw_tall_u"],
                                      ids=["eigen", "log"])


def _rel_sup(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


# -- segments and partitions ---------------------------------------------------


def test_segment_validation():
    with pytest.raises(ConfigError):
        Segment(0.0, 1.0)
    with pytest.raises(ConfigError):
        Segment(0.5, 0.5)
    s = Segment(0.25, 0.75)
    assert s.length == pytest.approx(0.5)


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
        mesh = max(s.length for s in p.segments)
        assert mesh <= 2 * seg.length / len(p.segments) + 1e-12
    if n > 0:
        # every segment lies inside a segment of the coarser partition
        coarser = dyadic_partition(seg, n - 1).segments
        assert all(any(c.m <= s.m + 1e-12 and s.M <= c.M + 1e-12 for c in coarser)
                   for s in p.segments)


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


def test_omega_entries_do_not_depend_on_call_history():
    # the second segment and eps share the first's cache key but not their
    # last bits: the limit comes from the key, so either on a fresh
    # workspace gives the same entries
    domain = build_domain(DomainConfig(LipschitzGraph.flat(), 5.0, 5.0, 0.1, (0.0, 1.0)))
    u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
    a = OmegaWorkspace(domain, u).omega_entries(Segment(0.3, 0.4), 0.15)[0]
    b = OmegaWorkspace(domain, u).omega_entries(Segment(0.1 + 0.2, 0.7 - 0.3), 0.45 - 0.3)[0]
    assert np.array_equal(a, b)


def test_workspace_rejects_field_of_another_domain(flat_small, saw_small):
    domain, _ = flat_small
    _, u_saw = saw_small
    with pytest.raises(ConfigError):
        omega_tilde(domain, u_saw, Segment(0.2, 0.4), EPS)


def test_excluded_nodes_carry_no_density(monkeypatch):
    # a raised exclusion floor leaves the two far-corner nodes of the flat box out
    monkeypatch.setattr(grid, "NEGLIGIBLE_MASS", 2e-3)
    domain = build_domain(DomainConfig(LipschitzGraph.flat(), 5.0, 5.0, 0.1, (0.0, 1.0)))
    u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
    ex = domain.excluded_nodes
    assert len(ex)
    seg = Segment(0.3, 0.4)
    k = K.build_k(domain, seg.length, family="power").entries
    assert np.array_equal(omega_tilde(domain, u, seg, 0.0).entries, k)
    assert not K.build_b_segment(domain, u, seg, family="power").entries[:, ex].any()
    assert not omega_limit(domain, u, seg, EPS).entries[:, ex].any()


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


def _density_chain(domain, u, seg, n):
    """The level-n dyadic product as a chain of ``kernels.compose`` over the
    ``omega_tilde`` densities, the first factor acting first."""
    out = None
    for piece in dyadic_partition(seg, n).segments:
        f = omega_tilde(domain, u, piece, EPS)
        out = f if out is None else K.compose(f, out)
    return out.entries


@SWEEP_GRIDS
def test_pi_mass_products_match_density_chain(grid, request):
    domain, u = request.getfixturevalue(grid)
    seg = Segment(0.2, 0.4)
    pi = pi_product(domain, u, seg, dyadic_partition(seg, 5), EPS).entries
    assert _rel_sup(pi, _density_chain(domain, u, seg, 5)) <= 1e-13


def test_pi_mass_products_drop_excluded_nodes(monkeypatch):
    # with the two far-corner nodes excluded, the product's densities vanish
    # on their columns: the products run in plain mass form, and the
    # exclusion is applied once, where the masses become densities
    monkeypatch.setattr(grid, "NEGLIGIBLE_MASS", 2e-3)
    domain = build_domain(DomainConfig(LipschitzGraph.flat(), 5.0, 5.0, 0.1, (0.0, 1.0)))
    u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
    ex = domain.excluded_nodes
    assert len(ex)
    seg = Segment(0.2, 0.4)
    pi = pi_product(domain, u, seg, dyadic_partition(seg, 5), EPS).entries
    assert not pi[:, ex].any()


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


def test_omega_limit_nonconvergence_reports_history(flat_small, monkeypatch):
    domain, u = flat_small
    monkeypatch.setattr(omega, "N_MAX", 6)
    with pytest.raises(ConvergenceError) as err:
        omega_limit(domain, u, Segment(0.2, 0.4), EPS, tol=1e-14)
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
    assert np.abs(om.row_integrals() - 1.0).max() <= 1e-3
    assert checks.omega_split_error(domain, u, seg, EPS, 0.4) <= 0.02
    assert om.entries.min() >= 0.0


def test_check_properties_eps_zero_trivial(flat_small):
    domain, u = flat_small
    seg = Segment(0.3, 0.4)
    om = omega_limit(domain, u, seg, 0.0)
    assert checks.closeness_gap(domain, u, seg, 0.0) < 1e-10
    assert om.entries.min() >= 0.0


def test_closeness_gap_shrinks_with_eps(flat_small):
    # stated slack: halving eps shrinks the gap by a factor in [2, 6];
    # tight limit tolerance keeps the refinement noise out of the gap
    domain, u = flat_small
    seg = Segment(0.3, 0.4)
    factor = (checks.closeness_gap(domain, u, seg, EPS)
              / checks.closeness_gap(domain, u, seg, EPS / 2))
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
        built[h] = omega_limit(domain, u, seg, EPS)
    # adjacent nodes of the refined mesh sit half as far apart, so the
    # row modulus of a continuous kernel must shrink accordingly
    adj = float(np.abs(np.diff(built[0.2].entries, axis=0)).max())
    cauchy_ratio = float(np.abs(np.diff(built[0.1].entries, axis=0)).max()) / max(adj, 1e-300)
    assert cauchy_ratio <= 0.6


# -- omega_rho bounds ------------------------------------------------------------------


def test_omega_rho_eps_zero_constants_one(flat_small):
    domain, u = flat_small
    rb = omega_rho_bounds(OmegaLadder(domain, u, 0.0, [0.25]), 0.25)
    assert abs(rb["c_plus"] - 1.0) < 0.05
    assert abs(rb["c_minus"] - 1.0) < 0.05


def test_omega_rho_finite_margins(flat_small):
    domain, u = flat_small
    rb = omega_rho_bounds(OmegaLadder(domain, u, EPS, [0.25]), 0.25)
    assert rb["c_plus"] > 0 and np.isfinite(rb["c_plus"])
    assert rb["c_minus"] > 0


def test_omega_rho_margins_degrade_with_eps(flat_small):
    domain, u = flat_small
    spread = []
    for eps in (0.02, 0.05, 0.1):
        rb = omega_rho_bounds(OmegaLadder(domain, u, eps, [0.25]), 0.25)
        spread.append(rb["sup_ratio"] - rb["inf_ratio"])
    assert spread[0] <= spread[1] <= spread[2]


def test_omega_rho_rejects_large_rho(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        omega_rho_bounds(OmegaLadder(domain, u, 0.0, [0.7]), 0.7)


def _patched_ladder(domain, u, eps, monkeypatch, scale=1.0, entry=None):
    """A ladder at 0.25 whose omega entries are multiplied by ``scale`` and,
    unless ``entry`` is None, set to ``entry`` where the reference kernel
    k_0.75 peaks."""
    ladder = OmegaLadder(domain, u, eps, [0.25])
    om = ladder.omega_y(0.25).entries * scale
    if entry is not None:
        kref = K.build_k(domain, 0.75, "power").entries
        om[np.unravel_index(np.argmax(kref), kref.shape)] = entry
    monkeypatch.setattr(ladder, "omega_y", lambda y: K.BoundaryKernel(domain, om))
    return ladder


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.2, 0.5])
def test_omega_rho_constants_solve_their_conditions(flat_small, eps):
    # the closed forms meet c rho^(-c eps) = sup and c rho^(c eps) = inf;
    # c_minus is the root below the peak of c rho^(c eps) at c = 1/(-eps ln rho)
    domain, u = flat_small
    rb = omega_rho_bounds(OmegaLadder(domain, u, eps, [0.25]), 0.25)
    cp, cm = rb["c_plus"], rb["c_minus"]
    assert cp * 0.25 ** (-cp * eps) == pytest.approx(rb["sup_ratio"], rel=1e-12)
    assert cm * 0.25 ** (cm * eps) == pytest.approx(rb["inf_ratio"], rel=1e-12)
    assert cm < 1 / (-eps * np.log(0.25))


def test_omega_rho_c_minus_capped_above_the_peak(flat_small, monkeypatch):
    # c rho^(c eps) peaks at c = 1/(-eps ln rho), with value 1/(-eps e ln rho);
    # an inf ratio above the peak has no root and takes the peak's c
    domain, u = flat_small
    eps = 0.5
    rb = omega_rho_bounds(_patched_ladder(domain, u, eps, monkeypatch, scale=10.0), 0.25)
    a = -eps * np.log(0.25)
    assert rb["inf_ratio"] > 1 / (a * np.e)
    assert rb["c_minus"] == pytest.approx(1 / a, rel=1e-15)
    cp = rb["c_plus"]
    assert cp * 0.25 ** (-cp * eps) == pytest.approx(rb["sup_ratio"], rel=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_omega_rho_nonpositive_inf_ratio_gives_zero(flat_small, monkeypatch, value):
    domain, u = flat_small
    rb = omega_rho_bounds(_patched_ladder(domain, u, EPS, monkeypatch, entry=value), 0.25)
    assert rb["inf_ratio"] <= 0
    assert rb["c_minus"] == 0.0


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
    ys = [0.3, 0.4, 0.5]
    with pytest.raises(ConfigError):
        ode_check(OmegaLadder(domain, u, 0.0, ys), u, u, ys)


def test_ode_eps_zero_constant(flat_small):
    domain, u = flat_small
    grid = np.round(np.arange(0.3, 0.91, 0.1), 10)
    res = ode_check(OmegaLadder(domain, u, 0.0, grid), u, u, grid)
    assert res["abs_residual"] <= 1e-3


def test_ode_comparison_bound(flat_small):
    domain, u = flat_small
    grid = np.round(np.arange(0.3, 0.91, 0.1), 10)
    res = ode_check(OmegaLadder(domain, u, EPS, grid), u, u, grid)
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


# -- the adjoint sweep ----------------------------------------------------------------------

@SWEEP_GRIDS
def test_adjoint_sweep_matches_romberg_over_pi_products(grid, request):
    # Pi_n is a first-order splitting: two Richardson steps over Pi_8..Pi_10
    # reach its limit to a few 1e-8 on these grids (one step and two differ
    # by 2.6e-8 on flat_small and 4.1e-8 on saw_tall)
    domain, u = request.getfixturevalue(grid)
    kappa = kernel_measure(domain, (0.0, 1.0)).s_masses
    seg = Segment(0.4, 1.0)
    rows = {n: pi_product(domain, u, seg, dyadic_partition(seg, n), EPS).entries.T @ kappa
            for n in (8, 9, 10)}
    first = {n: 2 * rows[n] - rows[n - 1] for n in (9, 10)}
    romberg = (4 * first[10] - first[9]) / 3
    (gamma,), _ = adjoint_sweep(domain, u, EPS, kappa, [0.4])
    assert _rel_sup(gamma, romberg) <= 1e-7


@SWEEP_GRIDS
def test_adjoint_sweep_at_eps_zero_is_a_kernel_row(grid, request):
    domain, u = request.getfixturevalue(grid)
    kappa = kernel_measure(domain, (0.0, 1.0)).s_masses
    ys = (0.4, 0.25, 0.2)
    gammas, steps = adjoint_sweep(domain, u, 0.0, kappa, ys)
    assert steps == 20  # 12 h/2 cells down to 4h = 0.4, then 4 cells of two steps
    for y, gamma in zip(ys, gammas):
        krow = K.build_k(domain, 1.0 - y, "power").entries.T @ kappa
        assert _rel_sup(gamma, krow) <= 1e-12


@pytest.mark.parametrize("grid", ["kernel_flat", "readme_saw"], ids=["eigen", "log"])
def test_adjoint_sweep_off_kink_converges(grid, request):
    # h = 0.05: both points lie inside h/2 cells and above the 2h floor
    domain, u = request.getfixturevalue(grid)
    kappa = kernel_measure(domain, (0.0, 1.0)).s_masses
    ys = (0.33, 0.17)
    gammas, steps = adjoint_sweep(domain, u, EPS, kappa, ys)
    halved, halved_steps = adjoint_sweep(domain, u, EPS, kappa, ys, substeps=2)
    assert halved_steps == 2 * steps
    for gamma, ref in zip(gammas, halved):
        assert _rel_sup(gamma, ref) <= 1e-8


def test_power_rows_are_never_written(flat_small):
    # a power row is a view of the kernel band or a fraction table's own
    # array: the constructions that read them leave both bitwise as built
    domain, u = flat_small
    band = domain.kernel_table().copy()
    kappa = kernel_measure(domain, (0.0, 1.0)).s_masses
    omega_limit(domain, u, Segment(0.2, 0.4), EPS)
    omega_limit(domain, u, Segment(0.2, 0.4), 0.0)
    adjoint_sweep(domain, u, EPS, kappa, [0.55, 0.25])
    adjoint_sweep(domain, u, EPS, np.eye(domain.nx)[::10], [0.55, 0.25])
    vertical_variation(domain, u)
    assert np.array_equal(domain.kernel_table(), band)
    assert domain._fractions
    log = domain._log_generator()
    for f, table in domain._fractions.items():
        assert np.array_equal(table, np.real(sla.expm(f * log)))


def test_adjoint_sweep_rejects_heights_off_the_range(flat_small):
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0)).s_masses
    with pytest.raises(ResolutionError):
        adjoint_sweep(domain, u, EPS, kappa, [0.4, 0.15])
    with pytest.raises(ConfigError):
        adjoint_sweep(domain, u, EPS, kappa, [1.2, 0.4])


@pytest.mark.parametrize("grid", ["flat_small", "saw_tall_u"], ids=["eigen", "log"])
def test_adjoint_sweep_of_a_stack_sweeps_each_row(grid, request):
    domain, u = request.getfixturevalue(grid)
    stack = np.stack([kernel_measure(domain, (x, 1.0)).s_masses for x in (-2.5, 0.0, 2.5)])
    ys = (0.5, 0.3)
    gammas, steps = adjoint_sweep(domain, u, EPS, stack, ys)
    assert gammas.shape == (len(ys), len(stack), domain.nx)
    for i, kappa in enumerate(stack):
        alone, alone_steps = adjoint_sweep(domain, u, EPS, kappa, ys)
        assert alone_steps == steps
        for y in range(len(ys)):
            assert _rel_sup(gammas[y, i], alone[y]) <= 1e-12


# -- the ladder from the sweep --------------------------------------------------------------


@SWEEP_GRIDS
def test_ladder_matches_romberg_over_pi_products(grid, request):
    # the same two Richardson steps as the sweep's test above, on the matrices
    domain, u = request.getfixturevalue(grid)
    seg = Segment(0.4, 1.0)
    pis = {n: pi_product(domain, u, seg, dyadic_partition(seg, n), EPS).entries
           for n in (8, 9, 10)}
    first = {n: 2 * pis[n] - pis[n - 1] for n in (9, 10)}
    romberg = (4 * first[10] - first[9]) / 3
    romberg[domain.excluded_nodes, :] = 0.0  # the ladder's rows start from the identity
    ladder = OmegaLadder(domain, u, EPS, [0.4])
    assert _rel_sup(ladder.omega_y(0.4).entries, romberg) <= 1e-7


@SWEEP_GRIDS
def test_ladder_at_eps_zero_is_the_power_kernel(grid, request):
    domain, u = request.getfixturevalue(grid)
    ys = (0.4, 0.25, 0.2)
    ladder = OmegaLadder(domain, u, 0.0, ys)
    for y in ys:
        kref = K.build_k(domain, 1.0 - y, "power").entries
        kref[domain.excluded_nodes, :] = 0.0
        assert _rel_sup(ladder.omega_y(y).entries, kref) <= 1e-12


def test_ode_check_at_eps_zero_reads_no_stencil(flat_small, monkeypatch):
    domain, u = flat_small

    def refuse(self, y, *args):
        raise AssertionError("the eps = 0 ladder read a stencil row")

    for reader in ("stencil_rows", "stencil_vecmat", "stencil_matvec"):
        monkeypatch.setattr(grid.DiscreteDomain, reader, refuse)
    ys = np.round(np.arange(0.3, 0.91, 0.1), 10)
    res = ode_check(OmegaLadder(domain, u, 0.0, ys), u, u, ys)
    assert res["steps"] == 16  # 12 h/2 cells down to 4h = 0.4, then 2 cells of two steps


def test_ladder_rejects_heights_off_its_points(flat_small):
    domain, u = flat_small
    ladder = OmegaLadder(domain, u, EPS, [0.5])
    with pytest.raises(ConfigError):
        ladder.omega_y(0.4)
    with pytest.raises(ConfigError):
        ladder.apply(0.4, u.rows(0.4))
