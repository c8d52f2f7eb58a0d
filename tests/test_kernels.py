import numpy as np
import pytest
import scipy.linalg as sla
from closed_forms import halfstrip_arc_gradient, halfstrip_density

from lipvar import checks
from lipvar import kernels as K
from lipvar.domain_field import (
    DomainConfig,
    LipschitzGraph,
    arc_indicator,
    build_domain,
    harmonic_extension,
    kernel_measure,
)
from lipvar.errors import ConfigError, ConvergenceError, ResolutionError
from lipvar.omega import Segment


# -- martin kernel -----------------------------------------------------------


def _martin_kernel(domain, x):
    """k(x, .): the density of the exit measure from x against w."""
    return K._mass_to_kernel(domain, kernel_measure(domain, x).s_masses)


def test_martin_kernel_at_pole_is_one(flat_small):
    domain, _ = flat_small
    row = _martin_kernel(domain, (0.0, 1.0))
    assert np.abs(row - 1.0).max() < 1e-12


def test_martin_kernel_spot_oracle(kernel_flat):
    # the half-strip's density ratio: 0.5 on the half-plane
    domain, _ = kernel_flat
    W = domain.config.box_halfwidth
    i0 = domain.nx // 2
    val = _martin_kernel(domain, (0.0, 2.0))[i0]
    target = halfstrip_density((0.0, 2.0), 0.0, W) / halfstrip_density((0.0, 1.0), 0.0, W)
    assert target == pytest.approx(0.518792, abs=1e-6)
    assert abs(val - target) < 1e-2


def test_martin_kernel_row_integrals(flat_small):
    domain, _ = flat_small
    rng = np.random.default_rng(0)
    w = domain.hm_weights
    for _ in range(20):
        i = rng.integers(0, domain.nx)
        m = rng.integers(1, domain.band_rows + 1)
        row = _martin_kernel(domain, (domain.xs[i], domain.s_y[i] + m * domain.h))
        assert abs(row @ w - 1.0) < 1e-3


def test_martin_kernel_rejects_exterior(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        kernel_measure(domain, (0.0, -1.0))


# -- build_k -------------------------------------------------------------------


@pytest.mark.parametrize("y", [0.2, 0.5, 1.0])
def test_k_row_stochastic(flat_small, y):
    domain, _ = flat_small
    k = K.build_k(domain, y)
    assert np.abs(k.row_integrals() - 1.0).max() < 1e-3


def test_k_rejects_below_resolution(flat_small):
    domain, _ = flat_small
    with pytest.raises(ResolutionError):
        K.build_k(domain, domain.h)


def test_k_closed_form(kernel_flat):
    # the half-strip's density ratio P_y(x, xi) / P_1(0, xi), every target node
    domain, _ = kernel_flat
    W = domain.config.box_halfwidth
    y = 0.5
    k = K.build_k(domain, y)
    core = np.abs(domain.xs) <= 4.0
    xi = domain.xs
    exact = np.array([halfstrip_density((x, y), xi, W) for x in domain.xs[core]])
    exact /= halfstrip_density((0.0, 1.0), xi, W)
    rel = np.abs(k.entries[core] - exact) / exact
    assert rel.max() < 0.02


def test_k_extends_harmonic_fields(kernel_flat):
    # K_{y2} applied to u at height y1 recovers u at height y1+y2
    domain, u = kernel_flat
    lhs = K.apply_k(domain, 0.4, u.rows(0.3))
    rhs = u.rows(0.7)
    core = np.abs(domain.xs) <= 4.0
    assert np.abs(lhs - rhs)[core].max() <= 0.01 * np.abs(rhs[core]).max()


# -- compose ---------------------------------------------------------------------


@pytest.mark.parametrize("y1", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("y2", [0.1, 0.2, 0.4])
def test_compose_semigroup(kernel_flat, y1, y2):
    domain, _ = kernel_flat
    k12 = K.compose(K.build_k(domain, y1), K.build_k(domain, y2))
    k3 = K.build_k(domain, y1 + y2)
    rel = np.abs(k12.entries - k3.entries).max() / k3.entries.max()
    assert rel <= 0.02


def test_compose_semigroup_entrywise_at_reference_pair(kernel_flat):
    # stronger pointwise form of the same identity at the reference heights
    domain, _ = kernel_flat
    k12 = K.compose(K.build_k(domain, 0.1), K.build_k(domain, 0.2))
    k3 = K.build_k(domain, 0.3)
    rel = (np.abs(k12.entries - k3.entries)
           / np.maximum(k3.entries, 1e-6 * k3.entries.max())).max()
    assert rel <= 0.02


def test_compose_identity(flat_small):
    domain, _ = flat_small
    p = K.build_k(domain, 0.4)
    ident = K.identity_kernel(domain)
    for prod in (K.compose(p, ident), K.compose(ident, p)):
        assert np.abs(prod.entries - p.entries).max() <= 1e-10 * p.entries.max()


def test_compose_associative(flat_small):
    domain, u = flat_small
    p = K.build_k(domain, 0.3)
    q = K.build_c(domain, u, 0.4)
    r = K.build_k(domain, 0.2)
    lhs = K.compose(K.compose(p, q), r).entries
    rhs = K.compose(p, K.compose(q, r)).entries
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)


def test_compose_preserves_nonnegativity(flat_small):
    domain, _ = flat_small
    p = K.build_k(domain, 0.3)
    q = K.build_k(domain, 0.5)
    assert K.compose(p, q).entries.min() >= 0


def test_compose_rejects_domain_mismatch(flat_small, saw_small):
    d1, _ = flat_small
    d2, _ = saw_small
    with pytest.raises(ConfigError):
        K.compose(K.build_k(d1, 0.3), K.build_k(d2, 0.3))


# -- build_c ----------------------------------------------------------------------


def test_c_kills_constants(flat_small, saw_small):
    for domain, u in (flat_small, saw_small):
        for y in (0.3, 0.7):
            c = K.build_c(domain, u, y)
            assert np.abs(c.row_integrals()).max() < 1e-3


def test_c_gradient_identity(kernel_flat):
    domain, u = kernel_flat
    rng = np.random.default_rng(7)
    core = np.abs(domain.xs) <= 4.0
    for _ in range(20):
        y = rng.uniform(2 * domain.h, 1.0)
        got = K.apply_c(domain, u, y, u.rows(y))
        _, _, want = u.sigma_rows(2 * y)
        live = core & (want > 1e-3 * want.max())
        rel = np.abs(got - want)[live] / want[live]
        assert rel.max() < 0.02


def test_c_spot_oracle(kernel_flat):
    # |grad u| at (0, 2) in the half-strip: 2 / (5 pi) on the half-plane
    domain, u = kernel_flat
    i0 = domain.nx // 2
    target = np.linalg.norm(halfstrip_arc_gradient((0.0, 2.0), -1.0, 1.0,
                                                   domain.config.box_halfwidth))
    assert target == pytest.approx(0.119371, abs=1e-6)
    got = K.apply_c(domain, u, 1.0, u.rows(1.0))[i0]
    assert abs(got - target) < 1e-3


def test_c_bounded_by_k_over_y(flat_small):
    domain, u = flat_small
    for y in (0.3, 0.6):
        c = K.build_c(domain, u, y).entries
        k = K.build_k(domain, y).entries
        mask = k > 1e-9 * k.max()
        ratio = np.abs(c[mask]) * y / k[mask]
        assert np.isfinite(ratio.max())
        assert ratio.max() < 10.0


def test_c_zero_gradient_rows_vanish(flat_small):
    domain, _ = flat_small
    const = harmonic_extension(domain, np.ones(domain.nx))
    c = K.build_c(domain, const, 0.5)
    assert np.abs(c.entries).max() == 0.0


# -- build_b -----------------------------------------------------------------------


def test_b_kills_constants(flat_small):
    domain, u = flat_small
    for y in (0.3, 0.7):
        b = K.build_b(domain, u, y)
        assert np.abs(b.row_integrals()).max() < 1e-3


def test_b_bounded_by_k_over_y(flat_small):
    domain, u = flat_small
    y = 0.4
    b = K.build_b(domain, u, y).entries
    k = K.build_k(domain, y).entries
    mask = k > 1e-9 * k.max()
    assert (np.abs(b[mask]) * y / k[mask]).max() < 10.0


def test_b_dominates_vertical_gradient(kernel_flat):
    # B_y(u_y)(x) >= |grad u(x_3y)| - tol  (sub-mean-value property)
    domain, u = kernel_flat
    rng = np.random.default_rng(3)
    core = np.flatnonzero(np.abs(domain.xs) <= 3.0)
    for _ in range(50):
        y = rng.uniform(2 * domain.h, 1.0)
        byu = K.apply_b(domain, u, y, u.rows(y))
        _, _, g3 = u.sigma_rows(3 * y)
        i = rng.choice(core)
        assert byu[i] >= g3[i] - 1e-3


# -- b over segments ------------------------------------------------------------------


def test_b_segment_additive(flat_small):
    domain, u = flat_small
    whole = K.build_b_segment(domain, u, Segment(0.2, 0.4))
    parts = (K.build_b_segment(domain, u, Segment(0.2, 0.3)).entries
             + K.build_b_segment(domain, u, Segment(0.3, 0.4)).entries)
    scale = max(np.abs(whole.entries).max(), 1e-300)
    assert np.abs(whole.entries - parts).max() / scale < 1e-3


def test_b_segment_shrinks_with_length(flat_small):
    domain, u = flat_small
    ref = np.abs(K.build_b_segment(domain, u, Segment(0.3, 0.5)).entries).max()
    for length, bound in ((0.02, 0.2), (0.002, 0.02)):
        small = K.build_b_segment(domain, u, Segment(0.3, 0.3 + length))
        assert np.abs(small.entries).max() < bound * ref


def test_b_segment_respects_floor(flat_small):
    domain, u = flat_small
    with pytest.raises(ResolutionError):
        K.build_b_segment(domain, u, Segment(domain.h / 2, 0.4))


def test_b_segment_envelope_bound(flat_small):
    # |b_seg| <= C (M^(a-1)/m^a) |seg| k_m with the fitted Harnack exponent
    domain, u = flat_small
    seg = Segment(0.3, 0.5)
    fit = K.harnack_alpha(domain, [(0.3, 0.5), (0.3, 0.6), (0.4, 0.8), (0.2, 0.4)])
    b = K.build_b_segment(domain, u, seg).entries
    km = K.build_k(domain, seg.m).entries
    mask = km > 1e-9 * km.max()
    envelope = (seg.M ** (fit.alpha - 1) / seg.m ** fit.alpha) * seg.length * km[mask]
    const = (np.abs(b[mask]) / envelope).max()
    assert np.isfinite(const)
    assert const < 50.0


def _rel_sup(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def test_b_segment_rejects_empty_segment(flat_small):
    domain, u = flat_small
    with pytest.raises(ConfigError):
        K.build_b_segment(domain, u, (0.3, 0.3))


def _refined_power_b(domain, u, a, b, n=6, sub=2):
    """n-point Gauss on ``sub`` panels per piece between kinks (multiples of
    h/2 and the ends), summed node by node with build_b."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    half = domain.h / 2
    kinks = half * np.arange(np.ceil(a / half), np.floor(b / half) + 1)
    edges = np.unique(np.concatenate([[a, b], kinks]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = np.linspace(lo, hi, sub + 1)
        for p0, p1 in zip(panels[:-1], panels[1:]):
            mid, hw = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
            for t, wq in zip(nodes, wts):
                total = total + hw * wq * K.build_b(domain, u, mid + hw * t, "power").entries
    return total


@pytest.mark.parametrize("grid", ["flat_small", "saw_small"])
def test_b_segment_martin_cell_matches_node_kernels(grid, request):
    # one whole cell: its four Gauss nodes, weighted and summed with build_b
    domain, u = request.getfixturevalue(grid)
    k, half = 6, domain.h / 2
    _, gw = np.polynomial.legendre.leggauss(4)
    ref = sum(w * half / 2 * K.build_b(domain, u, y, "martin").entries
              for w, y in zip(gw, domain.cell_nodes(k)))
    b = K.build_b_segment(domain, u, (k * half, (k + 1) * half), family="martin")
    assert b.meta["panels"] == 1
    assert _rel_sup(b.entries, ref) <= 1e-13


# (grid, segment with ends on multiples of h/2): a flat grid and a tall
# sawtooth, whose eigenbasis is ill-conditioned.  The ids `eigen` and `log`
# name the two grids after the power paths they took when powers had two
# paths; the ids are kept so that the test names stay stable.  Near its 2h floor
# the tall sawtooth's b_y varies fast enough for the four-node cells to miss
# by 8.7e-12 on [0.3, 0.4]; on [0.5, 0.7] they miss by 6e-14.
POWER_GRIDS = [("kernel_flat", (0.3, 0.4)), ("saw_tall_u", (0.5, 0.7))]


@pytest.mark.parametrize("grid, lattice_seg", POWER_GRIDS, ids=["eigen", "log"])
def test_b_segment_matches_refined_reference(grid, lattice_seg, request):
    domain, u = request.getfixturevalue(grid)
    b = K.build_b_segment(domain, u, lattice_seg, family="power").entries
    assert _rel_sup(b, _refined_power_b(domain, u, *lattice_seg)) <= 1e-12
    # partial cells at both ends: cubic interpolation of b over each
    partial = K.build_b_segment(domain, u, (0.33, 0.41), family="power").entries
    assert _rel_sup(partial, _refined_power_b(domain, u, 0.33, 0.41)) <= 2e-6


@pytest.mark.parametrize("grid, lattice_seg", POWER_GRIDS, ids=["eigen", "log"])
def test_b_segment_split_additive_off_lattice(grid, lattice_seg, request):
    domain, u = request.getfixturevalue(grid)
    a, b = lattice_seg
    cut = a + 0.37 * (b - a)
    assert abs(cut / (domain.h / 2) - round(cut / (domain.h / 2))) > 0.1
    whole = K.build_b_segment(domain, u, (a, b), family="power").entries
    split = (K.build_b_segment(domain, u, (a, cut), family="power").entries
             + K.build_b_segment(domain, u, (cut, b), family="power").entries)
    assert _rel_sup(split, whole) <= 1e-12


@pytest.mark.parametrize("grid, lattice_seg", POWER_GRIDS, ids=["eigen", "log"])
def test_cell_kernels_stack_power_rows(grid, lattice_seg, request):
    domain, u = request.getfixturevalue(grid)
    half = domain.h / 2
    for k in range(int(round(lattice_seg[0] / half)), int(round(lattice_seg[1] / half))):
        ys = domain.cell_nodes(k)
        ref = (np.stack([domain.power_rows(y) for y in ys])
               @ np.stack([K.c_masses(domain, u, y) for y in ys]))
        assert _rel_sup(K.cell_kernels(domain, u, k, "power"), ref) <= 1e-12


# -- fractional powers through log G -------------------------------------------


def test_complex_spectrum_takes_the_log_path():
    # G = Q D Q^T, a normal G planted as the one-step operator: a rotation
    # block in D takes its spectrum off the real line, and a zero eigenvalue
    # leaves log G without a finite value; the powers must hold for both.
    # The band is planted whole, level n as G^n = Q D^n Q^T, since on this
    # flat grid G^n is read from the band
    def planted(lowest, rotation):
        domain = build_domain(DomainConfig(LipschitzGraph.flat(), box_halfwidth=2.0,
                                           box_height=2.0, grid_spacing=0.5))
        nx = domain.nx
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((nx, nx)))[0]
        D = np.diag(np.linspace(lowest, 0.9, nx))
        if rotation:
            c, s = np.cos(0.7), np.sin(0.7)
            D[:2, :2] = 0.6 * np.array([[c, -s], [s, c]])
        band = domain.kernel_table()
        for n in range(1, domain.band_rows + 1):
            band[n] = Q @ np.linalg.matrix_power(D, n) @ Q.T
        return domain, Q, D

    domain, Q, D = planted(0.3, rotation=True)
    for p in (0.5, 1.25, 3.0):
        ref = np.real(sla.fractional_matrix_power(Q @ D @ Q.T, p))
        assert np.abs(domain.row_power(None, p) - ref).max() <= 1e-12
    domain, Q, D = planted(0.0, rotation=False)
    for p in (0.5, 1.25, 3.0):
        ref = Q @ np.diag(np.diag(D) ** p) @ Q.T
        assert np.abs(domain.row_power(None, p) - ref).max() <= 1e-12


def test_family_gap_is_rounding_unless_a_step_skips_a_row(saw_small):
    # band level n against G^n as repeated products: rounding on the slope-1
    # sawtooth, and at slope 2, where a column step of two rows lets a walk
    # skip a level, the distance of the two families
    domain, _ = saw_small
    assert max(checks.family_gap(domain, (0.25, 0.5, 1.0)).values()) <= 1e-10
    steep = build_domain(DomainConfig(LipschitzGraph.sawtooth(1.0, 2, 1.0), 5.0, 5.0, 0.1,
                                      (0.0, 1.0)))
    assert min(checks.family_gap(steep, (0.25, 0.5, 1.0)).values()) > 1e-2


def test_log_path_powers_match_schur_pade(saw_tall):
    domain = saw_tall
    G = domain.kernel_table()[1]
    for y in (0.037, 0.1, 0.245, 0.3137):
        ref = np.real(sla.fractional_matrix_power(G, y / domain.h))
        assert _rel_sup(domain.power_rows(y), ref) <= 1e-12


@pytest.mark.parametrize("grid", ["kernel_flat", "saw_tall_u"], ids=["eigen", "log"])
def test_row_power_matches_power_rows(grid, request):
    domain, _ = request.getfixturevalue(grid)
    rows = np.random.default_rng(3).standard_normal((2, domain.nx))
    # 3 -+ 5e-10 count as 3 in both: one integer snap for every power
    for s in (0.0, 0.25, 3.0, 3 - 5e-10, 3 + 5e-10, 6.6, 7.875):
        ref = rows @ domain.power_rows(s * domain.h)
        assert _rel_sup(domain.row_power(rows, s), ref) <= 1e-12
        assert _rel_sup(domain.row_power(rows[0], s), ref[0]) <= 1e-12


def test_log_path_semigroup(saw_tall):
    # fractional parts 0.7 + 0.1 and, with a carry into G^n, 0.7 + 0.5
    domain = saw_tall
    for y1, y2 in ((0.37, 0.61), (0.37, 0.45)):
        prod = domain.power_rows(y1) @ domain.power_rows(y2)
        assert _rel_sup(prod, domain.power_rows(y1 + y2)) <= 1e-12


def test_log_path_on_a_defective_eigenbasis():
    # at h = 0.05 V diag(vals) V^-1 misses G by 2e5: powers through the
    # eigenbasis are lost, and the powers through log G still hold
    graph = LipschitzGraph.sawtooth(1.1, 2, 2.2)
    domain = build_domain(DomainConfig(graph, 5.0, 5.0, 0.05, (0.0, 2.1)))
    ref = np.real(sla.fractional_matrix_power(domain.kernel_table()[1], 7.4))
    assert _rel_sup(domain.power_rows(0.37), ref) <= 1e-12


def test_log_path_rejects_an_inaccurate_logarithm(saw_tall, monkeypatch):
    logm = sla.logm
    monkeypatch.setattr(sla, "logm", lambda G: logm(G) * (1.0 + 1e-9))
    with pytest.raises(ConvergenceError):
        build_domain(saw_tall.config).power_rows(0.25)


@pytest.mark.parametrize("graph, pole", [
    (LipschitzGraph.flat(), (0.0, 1.0)),
    (LipschitzGraph.sawtooth(1.1, 2, 2.2), (0.0, 2.1)),
], ids=["flat", "saw"])
def test_power_rows_do_not_depend_on_call_history(graph, pole):
    # 0.45 - 0.3 is 0.15 but for its last bit: the rows come from the split
    # of y/h and its 12-digit fraction key, so either height gives the same
    rows = []
    for y in (0.15, 0.45 - 0.3):
        domain = build_domain(DomainConfig(graph, 5.0, 5.0, 0.1, pole))
        rows.append(domain.power_rows(y))
    assert np.array_equal(rows[0], rows[1])


# -- harnack exponent ---------------------------------------------------------------


def test_harnack_alpha_flat(kernel_flat):
    domain, _ = kernel_flat
    pairs = [(y1, y2) for y1 in (0.1, 0.2, 0.4) for y2 in (0.2, 0.4, 0.8, 1.0)
             if y1 <= y2]
    fit = K.harnack_alpha(domain, pairs)
    assert fit.alpha <= 1.1


def test_harnack_equal_heights_pair(flat_small):
    domain, _ = flat_small
    fit = K.harnack_alpha(domain, [(0.4, 0.4), (0.2, 0.6)])
    assert np.isfinite(fit.alpha) and fit.alpha >= 0


def test_harnack_alpha_sawtooth_finite(saw_small):
    domain, _ = saw_small
    pairs = [(0.2, 0.4), (0.2, 0.8), (0.4, 0.8), (0.3, 0.9)]
    fit = K.harnack_alpha(domain, pairs)
    assert np.isfinite(fit.alpha)
    assert fit.alpha >= 1.0 - 0.05
    viol = K.harnack_violations(domain, fit, [(0.25, 0.5), (0.3, 0.6), (0.5, 1.0)])
    assert viol <= 0.01


def test_harnack_empty_pairs_rejected(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        K.harnack_alpha(domain, [])


# -- continuity surrogate under mesh refinement ---------------------------------------


def test_b_rows_continuity_under_refinement():
    cfgs = [DomainConfig(LipschitzGraph.flat(), 4.0, 4.0, h, (0.0, 1.0))
            for h in (0.2, 0.1)]
    sups = []
    for cfg in cfgs:
        domain = build_domain(cfg)
        u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
        b = K.build_b(domain, u, 0.4).entries
        core = np.abs(domain.xs[:-1]) <= 2.0
        step = np.abs(np.diff(b, axis=0))[core].max()
        sups.append(step)
    assert sups[1] / sups[0] <= 0.6
