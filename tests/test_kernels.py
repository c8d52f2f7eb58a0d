import numpy as np
import pytest

from lipvar import kernels as K
from lipvar.domain_field import (
    DomainConfig,
    LipschitzGraph,
    arc_indicator,
    build_domain,
    halfplane,
    harmonic_extension,
)
from lipvar.errors import ConfigError, ResolutionError
from lipvar.omega import Segment


# -- martin kernel -----------------------------------------------------------


def test_martin_kernel_at_pole_is_one(flat_small):
    domain, _ = flat_small
    row = K.martin_kernel(domain, (0.0, 1.0))
    assert np.abs(row - 1.0).max() < 1e-12


def test_martin_kernel_spot_oracle(oracle_flat):
    domain, _ = oracle_flat
    i0 = domain.nx // 2
    val = K.martin_kernel(domain, (0.0, 2.0), node=i0)
    target = halfplane.martin_ratio((0.0, 2.0), (0.0, 1.0), 0.0)
    assert target == pytest.approx(0.5)
    assert abs(val - target) < 1e-2


def test_martin_kernel_row_integrals(flat_small):
    domain, _ = flat_small
    rng = np.random.default_rng(0)
    w = domain.hm_weights
    for _ in range(20):
        i = rng.integers(0, domain.nx)
        m = rng.integers(1, domain.band_rows + 1)
        row = K.martin_kernel(domain, (domain.xs[i], domain.s_y[i] + m * domain.h))
        assert abs(row @ w - 1.0) < 1e-3


def test_martin_kernel_rejects_exterior(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        K.martin_kernel(domain, (0.0, -1.0))


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


def test_k_closed_form(oracle_flat):
    domain, _ = oracle_flat
    y = 0.5
    k = K.build_k(domain, y)
    core = np.abs(domain.xs) <= 4.0
    xi = domain.xs
    exact = np.array([y * (xi ** 2 + 1) / ((x - xi) ** 2 + y ** 2)
                      for x in domain.xs[core]])
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


def test_c_spot_oracle(oracle_flat):
    domain, u = oracle_flat
    i0 = domain.nx // 2
    got = K.apply_c(domain, u, 1.0, u.rows(1.0))[i0]
    assert abs(got - 2 / (5 * np.pi)) < 1e-3


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


def _per_node_power_b(domain, u, a, b):
    """One 4-point Gauss panel on [a, b] summed node by node with build_b."""
    nodes, wts = np.polynomial.legendre.leggauss(4)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return sum(half * wq * K.build_b(domain, u, mid + half * t, "power").entries
               for t, wq in zip(nodes, wts))


def _assert_fused_quadrature_matches(domain, u, a, b):
    fused = K._b_quadrature(domain, u, a, b, 1, "power")
    ref = _per_node_power_b(domain, u, a, b)
    assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()


def test_power_quadrature_in_real_eigenbasis(kernel_flat):
    domain, u = kernel_flat
    eig = domain._eigensystem()
    assert isinstance(eig, tuple)
    assert not any(np.iscomplexobj(a) for a in eig)
    _assert_fused_quadrature_matches(domain, u, 0.3, 0.4)


def test_power_quadrature_on_schur_path():
    # a tall sawtooth whose one-step eigenbasis reconstructs at ~6e-6, inside
    # the Schur-Pade band (1e-6, 1e-4] whatever the BLAS thread count
    graph = LipschitzGraph.sawtooth(1.1, 2, 2.2)
    domain = build_domain(DomainConfig(graph, 5.0, 5.0, 0.1, (0.0, 2.1)))
    u = harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))
    assert domain._eigensystem() == "schur"
    _assert_fused_quadrature_matches(domain, u, 0.3, 0.4)


# -- harnack exponent ---------------------------------------------------------------


def test_harnack_alpha_flat(oracle_flat):
    domain, _ = oracle_flat
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
