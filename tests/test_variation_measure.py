import numpy as np
import pytest
from closed_forms import halfstrip_arc_gradient, halfstrip_density

from lipvar import kernels as K
from lipvar.domain_field import (
    grid,
    harmonic_extension,
    kernel_measure,
)
from lipvar.errors import ConfigError, ResolutionError
from lipvar.omega import adjoint_sweep
from lipvar.variation_measure import (
    N_ALPHA,
    SIGMA_HEIGHT,
    SurfaceBall,
    bump_extensions,
    nu_limit,
    probe_ball,
    variation_ratio,
    vertical_variation,
)

EPS = 0.05


# -- vertical variation ------------------------------------------------------


def test_variation_of_constant_vanishes(flat_small):
    domain, _ = flat_small
    const = harmonic_extension(domain, np.ones(domain.nx))
    V = vertical_variation(domain, const)
    assert np.abs(V.values).max() < 1e-3


def test_variation_nonnegative_integrand(flat_small):
    domain, u = flat_small
    for y in np.linspace(0.2, 1.0, 9):
        assert K.apply_b(domain, u, y, u.rows(y)).min() >= -1e-3


def test_variation_dominates_vertical_gradient(flat_small):
    domain, u = flat_small
    V = vertical_variation(domain, u)
    ys = np.linspace(V.y_min, 1.0, 81)
    grad_int = np.zeros(domain.nx)
    for y0, y1 in zip(ys[:-1], ys[1:]):
        _, _, gn = u.sigma_rows(3 * 0.5 * (y0 + y1))
        grad_int += (y1 - y0) * gn
    assert (grad_int - V.values).max() <= 1e-2


def test_variation_closed_form_flat(kernel_flat):
    # independent oracle: the half-strip convolution of the closed-form gradient
    domain, u = kernel_flat
    W = domain.config.box_halfwidth
    V = vertical_variation(domain, u)
    i0 = domain.nx // 2
    ys = np.linspace(V.y_min, 1.0, 201)
    xi = np.linspace(-W, W, 1601)
    vals = []
    for y in ys:
        gn = np.linalg.norm(halfstrip_arc_gradient((xi, 2 * y), -1.0, 1.0, W), axis=0)
        dens = halfstrip_density((0.0, y), xi, W)
        vals.append(np.trapezoid(dens * gn, xi))
    oracle = np.trapezoid(vals, ys)
    assert abs(V.values[i0] - oracle) <= 0.05 * oracle


def test_variation_matches_refined_reference(flat_small):
    # 8-point Gauss on two panels per cell between the kinks at multiples of h/2
    domain, u = flat_small
    V = vertical_variation(domain, u)
    nodes, wts = np.polynomial.legendre.leggauss(8)
    edges = np.arange(V.y_min, V.y_max + 1e-9, domain.h / 4)
    ref = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for t, wq in zip(nodes, wts):
            y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
            ref = ref + 0.5 * (hi - lo) * wq * K.apply_b(domain, u, y, u.rows(y))
    assert np.abs(V.values - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("grid_u", ["kernel_flat", "readme_saw"])
def test_variation_cells_match_per_node_products(grid_u, request):
    # each height cell's four nodes share one band product: the same rule as
    # one apply_b per node, and the same tail from apply_b at two heights
    domain, u = request.getfixturevalue(grid_u)
    V = vertical_variation(domain, u)
    rule = domain.height_rule(V.y_min, V.y_max)
    ref = K.cell_sum(rule, lambda k: np.stack(
        [K.apply_b(domain, u, y, u.rows(y)) for y in domain.cell_nodes(k)]))
    assert np.abs(V.values - ref).max() <= 1e-13 * np.abs(ref).max()
    assert V.n_evals == 4 * len(rule) + 2
    y2 = V.y_min + 2 * domain.h
    f0, f2 = (K.apply_b(domain, u, y, u.rows(y)) for y in (V.y_min, y2))
    slope = (f2 - f0) / (y2 - V.y_min)
    assert np.array_equal(V.tail_estimate, f0 * V.y_min - slope * V.y_min ** 2 / 2)


def test_cell_products_reject_heights_across_levels(flat_small):
    domain, _ = flat_small
    f = np.ones((domain.nx, 2))
    with pytest.raises(ResolutionError):
        domain.mass_matvec(np.array([0.45, 0.55]), f)
    with pytest.raises(ResolutionError):
        domain.stencil_matvec(np.array([0.45, 0.55]), f)


def test_variation_reports_tail(flat_small):
    domain, u = flat_small
    V = vertical_variation(domain, u)
    assert V.tail_estimate.shape == (domain.nx,)
    assert np.isfinite(V.tail_estimate).all()


# -- measure transforms: gamma_y of kappa by one adjoint sweep -------------------


def _gamma(domain, u, masses, y, eps):
    """gamma_y, the density against w of kappa's image under Omega_[y,1]."""
    (gamma,), _ = adjoint_sweep(domain, u, eps, masses, [y])
    return gamma


def test_transform_point_mass_eps_zero(flat_small):
    # eps = 0: the transformed density of a point mass is a pure kernel row
    domain, u = flat_small
    j = domain.nx // 2 + 3
    masses = np.zeros(domain.nx)
    masses[j] = 1.0
    y = 0.25
    gamma = _gamma(domain, u, masses, y, 0.0)
    krow = K.mass_rows(domain, 1.0 - y, "power")[j] / np.where(
        domain.hm_weights > 0, domain.hm_weights, 1.0)
    assert np.abs(gamma - krow).max() <= 1e-6 * max(krow.max(), 1.0)


def test_transform_mass_preserved(flat_small):
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    for y in (0.4, 0.2):
        masses = _gamma(domain, u, kappa.s_masses, y, EPS) * domain.hm_weights
        assert abs(masses.sum() - 1.0) < 1e-2
        assert masses.min() >= -1e-9


def test_transform_sandwich_with_rho_bounds(flat_small):
    from lipvar.omega import OmegaLadder, omega_rho_bounds

    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    y = 0.25
    rb = omega_rho_bounds(OmegaLadder(domain, u, EPS, [y]), y)
    gamma = _gamma(domain, u, kappa.s_masses, y, EPS)
    kimg = K.mass_rows(domain, 1.0 - y, "power").T @ kappa.s_masses / np.where(
        domain.hm_weights > 0, domain.hm_weights, 1.0)
    live = kimg > 1e-9 * kimg.max()
    lo = rb["c_minus"] * y ** (rb["c_minus"] * EPS)
    hi = rb["c_plus"] * y ** (-rb["c_plus"] * EPS)
    assert np.all(gamma[live] <= hi * kimg[live] * (1 + 1e-6))
    assert np.all(gamma[live] >= lo * kimg[live] * (1 - 1e-6) - 1e-12)


# -- nu limit ----------------------------------------------------------------------


def test_nu_eps_zero_y_independent(flat_small):
    # with eps = 0 the semigroup freezes the y-shifted pairings exactly;
    # the fixed-test-function differences keep their O(y/sigma) decay
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    nu, diag = nu_limit(domain, u, kappa, 0.0, y_sequence=(0.4, 0.2))
    assert np.abs(diag.shifted_diffs).max() < 1e-3
    assert abs(nu.total - 1.0) < 1e-6


def test_nu_mass_trace(flat_small):
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    nu, diag = nu_limit(domain, u, kappa, EPS, y_sequence=(0.4, 0.2))
    assert max(abs(m - 1.0) for m in diag.total_masses) < 1e-2
    assert nu.s_masses.min() >= -1e-9


def test_vector_paths_form_no_stencil_matrices(saw_small, monkeypatch):
    # nu's sweep of one row and V quadrature take the matrix-free stencil
    # products; the dense difference matrices serve only whole-kernel readers
    domain, u = saw_small
    kappa = kernel_measure(domain, (0.0, 1.0))

    def refuse(self, y):
        raise AssertionError("a vector path formed the stencil matrices")

    monkeypatch.setattr(grid.DiscreteDomain, "stencil_rows", refuse)
    nu, _ = nu_limit(domain, u, kappa, EPS, y_sequence=(0.4, 0.2))
    V = vertical_variation(domain, u)
    assert abs(nu.total - 1.0) < 1e-2 and np.all(np.isfinite(V.values))


@pytest.mark.parametrize("grid_name", ["flat_small", "saw_small", "kernel_flat"])
def test_bump_extensions_are_the_dirichlet_extensions(grid_name, request):
    # nu_limit's test functions are band products; they equal the Dirichlet
    # extensions of the bumps read at SIGMA_HEIGHT
    domain, _ = request.getfixturevalue(grid_name)
    alphas = bump_extensions(domain)
    centers = np.linspace(-2.0, 2.0, N_ALPHA)
    assert alphas.shape == (N_ALPHA, domain.nx)
    for alpha, c in zip(alphas, centers):
        bump = np.clip(1.0 - np.abs(domain.xs - c) / 0.5, 0.0, 1.0)
        ref = harmonic_extension(domain, bump).rows(SIGMA_HEIGHT)
        assert np.abs(alpha - ref).max() <= 1e-13 * np.abs(ref).max()


def test_nu_limit_makes_no_strip_solve(saw_small, monkeypatch):
    domain, u = saw_small
    domain.kernel_table()
    kappa = kernel_measure(domain, (0.0, 1.0))

    def refuse(self, f):
        raise AssertionError("nu_limit ran a Dirichlet solve")

    monkeypatch.setattr(grid._StripSolver, "solve", refuse)
    nu, diag = nu_limit(domain, u, kappa, EPS, y_sequence=(0.4, 0.2))
    assert abs(nu.total - 1.0) < 1e-2 and np.all(np.isfinite(diag.alpha_diffs))


def test_nu_rejects_sequence_below_floor(flat_small):
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    with pytest.raises(Exception):
        nu_limit(domain, u, kappa, EPS, y_sequence=(0.4, domain.h / 2))


# -- bounds check and probe -----------------------------------------------------------


def test_measure_bounds_eps_zero_collapse(flat_small):
    domain, u = flat_small
    kappa = kernel_measure(domain, (0.0, 1.0))
    nu, _ = nu_limit(domain, u, kappa, 0.0, y_sequence=(0.4, 0.2))
    V = vertical_variation(domain, u)
    r1, int_v, _, _ = variation_ratio(
        u, kappa, 0.0, nu, V, [SurfaceBall((0.0, 0.0), 0.5).node_mask(domain)])
    direct = float(nu.s_masses @ V.values)
    assert int_v == pytest.approx(direct)
    assert r1 == 0.0


def test_probe_flat_pipeline(flat_small):
    domain, u = flat_small
    res = probe_ball(domain, u, SurfaceBall((0.0, 0.0), 0.5), eps=EPS)
    assert abs(res.node_xy[0]) <= 0.5
    assert np.isfinite(res.ratio) and res.ratio >= 0
    assert res.chain_ok
    assert res.chain["nu_ball_mass"] > 1e-6
    assert res.chain["R1"] > 0


def test_probe_degenerate_ball_returns_global_minimizer(flat_small):
    domain, u = flat_small
    V = vertical_variation(domain, u)
    res = probe_ball(domain, u, SurfaceBall((0.0, 0.0), 100.0), eps=EPS,
                     variation=V)
    nu_floor = res.chain["nu_ball_mass"] / domain.nx / 10
    from lipvar.variation_measure import nu_limit as _nl
    kappa = kernel_measure(domain, (0.0, 1.0))
    nu, _ = _nl(domain, u, kappa, EPS)
    eligible = np.flatnonzero(nu.s_masses >= nu_floor)
    assert res.node_index == eligible[np.argmin(V.values[eligible])]


def test_probe_snaps_off_mesh_center(flat_small):
    domain, u = flat_small
    with pytest.warns(UserWarning, match="snapped"):
        res = probe_ball(domain, u, SurfaceBall((0.033, 0.21), 0.5), eps=EPS)
    assert res.snapped


def test_snapped_ball_always_holds_its_center_node(flat_small):
    domain, u = flat_small
    ball = SurfaceBall((0.033, 0.21), 1e-6)
    with pytest.warns(UserWarning):
        snapped = ball.snap_to(domain)
    assert snapped.node_mask(domain).sum() >= 1


def test_probe_rejects_low_z1(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        probe_ball(domain, u, SurfaceBall((0.0, 0.0), 0.5), z1=(0.0, 0.9),
                   eps=EPS)


@pytest.mark.parametrize("z1", [(0.0, 5.5), (5.5, 2.0), (-5.5, 2.0)])
def test_probe_rejects_z1_outside_the_grid(flat_small, z1):
    # u.at clipped the cell index and extrapolated off the top rows
    domain, u = flat_small
    with pytest.raises(ConfigError, match="outside the grid"):
        probe_ball(domain, u, SurfaceBall((0.0, 0.0), 0.5), z1=z1, eps=EPS)


def test_probe_sawtooth_pipeline(saw_small):
    domain, u = saw_small
    res = probe_ball(domain, u, SurfaceBall((0.0, 0.0), 0.5), eps=EPS)
    assert res.chain_ok
    assert np.isfinite(res.ratio)
    assert res.variation_at_node <= res.ratio * res.u_at_z1 + 1e-12
