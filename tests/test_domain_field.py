import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from closed_forms import (
    halfstrip_arc_gradient,
    halfstrip_arc_measure,
    halfstrip_density,
    rectangle_arc_measure,
)

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
    wos,
    wos_harmonic_measure,
)
from lipvar.errors import ConfigError, ResolutionError


def _flat_cfg(**kw):
    base = dict(graph=LipschitzGraph.flat(), box_halfwidth=5.0, box_height=5.0,
                grid_spacing=0.1, pole=(0.0, 1.0))
    base.update(kw)
    return DomainConfig(**base)


# -- build_domain -----------------------------------------------------------


def test_build_rejects_box_smaller_than_support_plus_margin():
    graph = LipschitzGraph.sawtooth(support_radius=1.0)
    with pytest.raises(ConfigError, match="box too small"):
        build_domain(DomainConfig(graph, 2.5, 5.0, 0.1, (0.0, 1.0)))


def test_build_rejects_h_above_breakpoint_gap():
    graph = LipschitzGraph.sawtooth(n_teeth=4, support_radius=1.0)  # gap 0.25
    with pytest.raises(ConfigError, match="breakpoint gap"):
        build_domain(DomainConfig(graph, 5.0, 5.0, 0.3, (0.0, 1.0)))


def test_build_rejects_low_pole():
    with pytest.raises(ConfigError, match="vertical distance"):
        build_domain(_flat_cfg(pole=(0.0, 0.5)))


def test_boundary_mesh_flat_uniform(flat_small):
    domain, _ = flat_small
    assert np.allclose(np.diff(domain.xs), domain.h)
    assert np.all(domain.s_y == 0.0)
    assert np.allclose(domain.arc_weights, domain.h)


def test_sawtooth_mesh_follows_graph(saw_small):
    domain, _ = saw_small
    assert np.allclose(domain.s_y, domain.graph(domain.xs), atol=1e-9)
    inside = np.abs(domain.xs) <= 1.0 - 1e-9
    # diagonal cells are longer by sqrt(2)
    assert np.all(domain.arc_weights[inside] > domain.h * 1.2)


def test_hm_weights_probability(flat_small):
    domain, _ = flat_small
    w = domain.hm_weights
    assert w.min() >= 0
    assert abs(w.sum() - 1.0) < 1e-6


def test_hm_weights_match_halfstrip_density(kernel_flat):
    # the pole masses against the half-strip density times each node's cell;
    # the end nodes' cells end at the mirrored sides, h/2 wide
    domain, _ = kernel_flat
    w = domain.hm_weights
    cells = np.full(domain.nx, domain.h)
    cells[[0, -1]] = domain.h / 2
    oracle = halfstrip_density((0.0, 1.0), domain.xs, domain.config.box_halfwidth) * cells
    err = np.abs(w - oracle)
    assert err.max() <= 0.02 * oracle.max()


def test_distance_comparability_sawtooth(saw_small):
    domain, _ = saw_small
    rng = np.random.default_rng(5)
    c = domain.graph.cone_constant
    assert c == pytest.approx(1 / np.sqrt(2))
    for _ in range(100):
        i = rng.integers(0, domain.nx)
        y = rng.uniform(domain.h, 2.0)
        p = np.array([[domain.xs[i], domain.s_y[i] + y]])
        d = domain.graph.distance(p)[0]
        assert d <= y + 1e-9
        assert d >= c * y - 1e-9


# -- harmonic_measure ---------------------------------------------------------


def test_measure_total_and_box_split(flat_small):
    domain, _ = flat_small
    m = harmonic_measure(domain, (0.0, 1.0))
    assert abs(m.total - 1.0) < 1e-6
    assert m.s_masses.min() >= -1e-15
    assert m.box_side_mass > 0 and m.box_top_mass > 0


def test_measure_rejects_outside_pole(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        harmonic_measure(domain, (0.0, -0.5))


def test_measure_arc_oracle(kernel_flat):
    # the absorbing closure against its continuum: the Dirichlet rectangle
    # whose walls and top sit on the ghost slots, one step beyond the box
    domain, _ = kernel_flat
    cfg = domain.config
    m = harmonic_measure(domain, (0.0, 1.0))
    target = rectangle_arc_measure((0.0, 1.0), -1.0, 1.0, cfg.box_halfwidth + domain.h,
                                   cfg.box_height + domain.h)
    assert target == pytest.approx(0.491557, abs=1e-6)
    assert abs(m.arc_mass(-1.0, 1.0) - target) < 1e-3


def test_pole_near_top_escapes_through_box():
    cfg = _flat_cfg(box_halfwidth=3.0, box_height=40.0, grid_spacing=0.2,
                    pole=(0.0, 38.0))
    domain = build_domain(cfg)
    m = harmonic_measure(domain, (0.0, 38.0))
    assert m.s_total < 0.05
    assert m.box_top_mass + m.box_side_mass > 0.95


def test_kernel_measure_is_probability_on_graph(saw_small):
    domain, _ = saw_small
    m = kernel_measure(domain, (0.3, 1.7))
    assert abs(m.total - 1.0) < 1e-9
    assert m.box_side_mass == 0.0


# -- harmonic_extension -------------------------------------------------------


def test_extension_of_one_is_one(flat_small):
    domain, _ = flat_small
    one = harmonic_extension(domain, np.ones(domain.nx))
    assert np.abs(one.values - 1.0).max() < 1e-6


def test_extension_rejects_nonfinite(flat_small):
    domain, _ = flat_small
    data = np.ones(domain.nx)
    data[3] = np.nan
    with pytest.raises(ConfigError):
        harmonic_extension(domain, data)


def test_extension_rejects_stacked_data(saw_small):
    domain, _ = saw_small
    for shape in ((domain.nx, 2), (domain.nx, 2, 2), (domain.nx + 1,)):
        with pytest.raises(ConfigError):
            harmonic_extension(domain, np.ones(shape))


def test_extension_indicator_spot_oracle(kernel_flat):
    # the half-strip's measure of [-1, 1] from (0, 1): 0.5 on the half-plane
    domain, u = kernel_flat
    target = halfstrip_arc_measure((0.0, 1.0), -1.0, 1.0, domain.config.box_halfwidth)
    assert target == pytest.approx(0.508181, abs=1e-6)
    assert abs(u.at((0.0, 1.0)) - target) < 1e-3


@pytest.mark.parametrize("point", [(0.0, 5.3), (5.4, 1.0), (-5.4, 1.0), (0.0, -0.2)])
def test_field_at_rejects_points_off_the_grid(flat_small, point):
    # the bilinear read once clipped its cell index and extrapolated
    domain, u = flat_small
    with pytest.raises(ConfigError, match=r"point \(.*\) outside the grid"):
        u.at(point)
    assert np.isfinite(u.at((5.0, 5.0))) and np.isfinite(u.at((-5.0, 0.0)))


def test_extension_max_principle(saw_small):
    domain, u = saw_small
    assert u.values.min() >= -1e-12
    assert u.values.max() <= 1.0 + 1e-12


def test_extension_mean_value(flat_small):
    _, u = flat_small
    assert u.mean_value_residual() < 1e-9


# -- greens_function ----------------------------------------------------------


def test_green_zero_on_boundary_and_positive(flat_small):
    domain, _ = flat_small
    g = greens_function(domain, (0.0, 1.0))
    assert np.all(g.boundary_data == 0.0)
    assert g.values.min() > -1e-14


def test_green_rejects_boundary_source(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        greens_function(domain, (0.3, 0.0))


def test_green_log_singularity_bounded(flat_small):
    domain, _ = flat_small
    g = greens_function(domain, (0.0, 1.0))
    rs = np.array([2, 3, 4, 6]) * domain.h
    vals = [g.at((0.0, 1.0 + r)) + np.log(r) / (2 * np.pi) for r in rs]
    assert np.ptp(vals) < 0.05  # the log part is removed, remainder stays flat


def test_green_symmetry_at_nodes(flat_small):
    domain, _ = flat_small
    rng = np.random.default_rng(2)
    for _ in range(20):
        i1, i2 = rng.integers(5, domain.nx - 5, size=2)
        j1, j2 = rng.integers(3, domain.ny - 2, size=2)
        a = (domain.xs[i1], (domain.j0 + j1) * domain.h)
        b = (domain.xs[i2], (domain.j0 + j2) * domain.h)
        ga = greens_function(domain, a)
        gb = greens_function(domain, b)
        assert abs(ga.values[domain.index(i2, j2)]
                   - gb.values[domain.index(i1, j1)]) < 1e-3


# -- gradient -------------------------------------------------------------------


def test_gradient_of_constant_vanishes(flat_small):
    domain, _ = flat_small
    one = harmonic_extension(domain, np.ones(domain.nx))
    assert np.linalg.norm(gradient(one, (0.3, 1.2))) < 1e-12


def test_gradient_rejects_near_boundary(flat_small):
    domain, u = flat_small
    with pytest.raises(ResolutionError):
        gradient(u, (0.0, 0.1))


def test_gradient_spot_oracle(kernel_flat):
    # |grad u| at (0, 2) in the half-strip: 2 / (5 pi) on the half-plane
    domain, u = kernel_flat
    target = np.linalg.norm(halfstrip_arc_gradient((0.0, 2.0), -1.0, 1.0,
                                                   domain.config.box_halfwidth))
    assert target == pytest.approx(0.119371, abs=1e-6)
    assert abs(np.linalg.norm(gradient(u, (0.0, 2.0))) - target) < 1e-3


def test_gradient_harnack_bound(flat_small):
    domain, u = flat_small
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-2, 2)
        y = rng.uniform(0.3, 2.0)
        val = u.at((x, y))
        if val < 1e-9:
            continue
        g = np.linalg.norm(gradient(u, (x, y)))
        dist = domain.graph.distance(np.array([[x, y]]))[0]
        assert g <= 4.0 * val / dist


# -- walk on spheres -------------------------------------------------------------


def test_wos_single_sample_unit_mass(flat_small):
    domain, _ = flat_small
    m = wos_harmonic_measure(domain, (0.0, 1.0), 1, seed=3)
    assert m.s_masses.sum() == pytest.approx(1.0)
    assert (m.s_masses > 0).sum() == 1


def test_wos_deterministic(flat_small):
    domain, _ = flat_small
    a = wos_harmonic_measure(domain, (0.0, 1.0), 500, seed=42)
    b = wos_harmonic_measure(domain, (0.0, 1.0), 500, seed=42)
    assert np.array_equal(a.s_masses, b.s_masses)


def test_wos_agrees_with_halfplane(flat_small):
    domain, _ = flat_small
    n = 20000
    m = wos_harmonic_measure(domain, (0.0, 1.0), n, seed=1)
    se = np.sqrt(0.25 / n)
    assert abs(m.arc_mass(-1.0, 1.0) - 0.5) <= 3 * se


def test_wos_rejects_zero_samples(flat_small):
    domain, _ = flat_small
    with pytest.raises(ConfigError):
        wos_harmonic_measure(domain, (0.0, 1.0), 0)


def test_wos_vs_direct_on_sawtooth_coarse_arcs(saw_small):
    domain, _ = saw_small
    n = 4000
    wm = wos_harmonic_measure(domain, (0.0, 1.5), n, seed=9)
    dm = harmonic_measure(domain, (0.0, 1.5))
    edges = np.linspace(-1.5, 1.5, 11)
    for a, b in zip(edges[:-1], edges[1:]):
        p = wm.arc_mass(a, b)
        se = max(np.sqrt(p * (1 - p) / n), 1e-3)
        # small box: allow the truncation bias of the direct solve on top
        assert abs(p - dm.arc_mass(a, b)) <= 3 * se + 0.02


def _wos_reference(domain, pole, n, seed):
    """The sampler over a mask of live walks in a fixed array: ``distance``
    on every live walk each step, then ``project`` on the ones that stop.
    The reference for the compacted walks of ``wos_harmonic_measure``."""
    graph, offset, h = domain.graph, domain.config.graph_offset, domain.h
    rng = np.random.default_rng(seed)
    counts = np.zeros(domain.nx, dtype=np.int64)
    capped = 0

    def bin_exits(pts):
        exits = graph.project(pts, offset=offset)
        cols = np.round((exits[:, 0] + domain.config.box_halfwidth) / h)
        np.add.at(counts, np.clip(cols, 0, domain.nx - 1).astype(np.int64), 1)

    for lo in range(0, n, wos._BATCH):
        m = min(wos._BATCH, n - lo)
        pts = np.tile(np.array(pole, dtype=float), (m, 1))
        active = np.ones(m, dtype=bool)
        for _ in range(wos._MAX_STEPS):
            d = graph.distance(pts[active], offset=offset)
            stop = d < h / 2
            done = np.flatnonzero(active)[stop]
            bin_exits(pts[done])
            active[done] = False
            d = d[~stop]
            if not active.any():
                break
            theta = rng.uniform(0.0, 2 * np.pi, size=d.shape)
            pts[active] += np.column_stack([d * np.cos(theta), d * np.sin(theta)])
        else:
            capped += int(active.sum())
            bin_exits(pts[active])
    return counts / float(n), capped


@pytest.mark.parametrize("max_steps", [None, 6])
def test_wos_matches_the_masked_reference(saw_small, monkeypatch, max_steps):
    # the live walks are compacted in their order, so each walk meets the
    # same draws as in the masked loop: the masses are equal bit for bit,
    # over several batches (the last one partial) and with the step cap hit
    domain, _ = saw_small
    assert domain.graph.breakpoints[1][1] > 0  # teeth up
    monkeypatch.setattr(wos, "_BATCH", 700)
    if max_steps is not None:
        monkeypatch.setattr(wos, "_MAX_STEPS", max_steps)
    m = wos_harmonic_measure(domain, (0.0, 1.5), 2000, seed=11)
    masses, capped = _wos_reference(domain, (0.0, 1.5), 2000, seed=11)
    assert np.array_equal(m.s_masses, masses)
    assert m.capped_walks == capped
    assert (capped > 0) == (max_steps is not None)


def test_arc_mass_halves_endpoint_cells(flat_small):
    domain, _ = flat_small
    m = harmonic_measure(domain, (0.0, 1.0))
    full = m.arc_mass(-1.0, 1.0)
    left = m.arc_mass(-1.0, 0.0)
    right = m.arc_mass(0.0, 1.0)
    assert full == pytest.approx(left + right, abs=1e-12)


# -- band readers ----------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["flat_small", "saw_small"])
@pytest.mark.parametrize("y", [0.5, 0.537])
def test_kernel_band_and_field_band_agree(fixture, y, request):
    domain, _ = request.getfixturevalue(fixture)
    f = np.cos(domain.xs) + 0.1 * domain.xs
    v = harmonic_extension(domain, f)
    scale = np.abs(f).max()
    assert np.abs(domain.mass_rows(y) @ f - v.rows(y)).max() <= 1e-12 * scale
    dx, dy = domain.stencil_rows(y)
    gx, gy = v.grad_rows(y)
    assert np.abs(dx @ f - gx).max() <= 1e-12 * scale / domain.h
    assert np.abs(dy @ f - gy).max() <= 1e-12 * scale / domain.h


def test_band_readers_share_the_top(flat_small):
    # one height rule serves both bands; each reader raises past the top of
    # its own band, and each top is its band's last level
    domain, u = flat_small
    for band, top, reads in ((domain.kernel_table(), domain.band_rows,
                              (domain.mass_rows, domain.stencil_rows)),
                             (u.band(), domain.field_rows, (u.rows, u.grad_rows))):
        assert len(band) == top + 1
        for read in reads:
            with pytest.raises(ResolutionError):
                read((top + 0.5) * domain.h)
        assert np.array_equal(reads[0](top * domain.h), band[-1])
    # the field band reaches past the kernel band's top
    y = (domain.band_rows + 0.5) * domain.h
    assert domain.field_rows > domain.band_rows
    assert np.all(np.isfinite(u.rows(y))) and np.all(np.isfinite(u.grad_rows(y)))


def test_grad_rows_do_not_depend_on_call_history(saw_small):
    # 0.45 - 0.3 shares the cache key 0.15 but not its last bit: the rows
    # come from the key, so either height on a fresh field gives the same
    domain, u = saw_small
    a, b = (harmonic_extension(domain, u.boundary_data).grad_rows(y) for y in (0.15, 0.45 - 0.3))
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


@pytest.fixture(scope="module")
def saw_steep():
    """Sawtooth of slope 2 at h = 0.1: wall nodes under the snapped steps."""
    graph = LipschitzGraph.sawtooth(amplitude=1.0, n_teeth=2, support_radius=1.0)
    domain = build_domain(DomainConfig(graph, 5.0, 5.0, 0.1, (0.0, 1.0)))
    assert np.abs(np.diff(domain.jb)).max() >= 2
    return domain, harmonic_extension(domain, arc_indicator(domain, -1.0, 1.0))


@pytest.mark.parametrize("fixture", ["saw_small", "saw_steep"])
def test_kernel_band_reaches_one(fixture, request):
    domain, _ = request.getfixturevalue(fixture)
    assert domain.mass_rows(1.0).shape == (domain.nx, domain.nx)
    dx, dy = domain.stencil_rows(1.0)
    assert np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))


@pytest.mark.parametrize("fixture", ["flat_small", "saw_small", "saw_steep"])
def test_stencil_products_match_dense(fixture, request):
    # the matrix-free products read the same stencil keys as the dense
    # matrices: at 2h, on a level, between levels and at 1; saw_steep's
    # level offsets reach +-2
    domain, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for y in (2 * domain.h, 0.5, 0.537, 1.0):
        dx, dy = domain.stencil_rows(y)
        ax, ay, f = rng.standard_normal((3, domain.nx))
        ref = ax @ dx + ay @ dy
        got = domain.stencil_vecmat(y, ax, ay)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for got, ref in zip(domain.stencil_matvec(y, f), (dx @ f, dy @ f)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = domain.mass_rows(y) @ f
        assert np.abs(domain.mass_matvec(y, f) - ref).max() <= 1e-13 * np.abs(ref).max()
    # every path leaves the band where the dense stencil does, at each half
    # level from h/2 (below the stencil's first level) past the band's top
    f = np.ones(domain.nx)
    products = (lambda y: domain.stencil_vecmat(y, f, f),
                lambda y: domain.stencil_matvec(y, f))
    left = []
    for k in range(1, 2 * domain.band_rows + 2):
        y = k * domain.h / 2
        try:
            domain.stencil_rows(y)
        except ResolutionError:
            left.append(k)
            for read in products:
                with pytest.raises(ResolutionError):
                    read(y)
        else:
            for read in products:
                assert np.all(np.isfinite(read(y)))
    assert left[0] == 1 and left[-1] == 2 * domain.band_rows + 1
    assert round(2 / domain.h) not in left
    with pytest.raises(ResolutionError):
        domain.mass_matvec((domain.band_rows + 0.5) * domain.h, f)


def test_kernel_band_memory(kernel_flat):
    # heights up to 1 plus the stencil's reach: 18.1 MB on this grid
    domain, _ = kernel_flat
    assert domain.kernel_table().nbytes <= 25e6


@pytest.mark.parametrize("point", [(0.0, 0.5), (0.0, 2.0), (0.7, 4.2)])
def test_kernel_measure_is_a_kernel_closure_row(point):
    # within the kernel band the masses are a band row, above it one
    # adjoint solve; either way the mass at node j is the value at the
    # point of the extension of e_j in the same closure
    domain = build_domain(_flat_cfg())
    m = kernel_measure(domain, point)
    at = domain.index(*domain.snap_point(point))
    for j in (0, 37, domain.nx // 2, domain.nx - 1):
        e = np.zeros(domain.nx)
        e[j] = 1.0
        ext = harmonic_extension(domain, e).values[at]
        assert abs(m.s_masses[j] - ext) <= 1e-14


# -- kernel band on the boundary strip -------------------------------------------


def _top_coupling(domain):
    """The reflecting closure's semi-infinite top as a matrix on the interior
    nodes: the grid's top row couples to N = Q diag(s*) Q⁻¹, where s* is the
    decaying root (d − √(d² − 4))/2 of each cosine mode's column recurrence,
    d = 2 + λ.  Built from the dense bases in extended precision."""
    nx = domain.nx
    Q, Qinv = _range_reduced_modes(nx, "reflect")
    pi = np.arccos(np.longdouble(-1.0))
    d = 2 + 4 * np.sin(pi * np.arange(nx) / (2 * (nx - 1))) ** 2
    N = ((Q * ((d - np.sqrt(d * d - 4)) / 2)) @ Qinv).astype(float)
    top = domain.index(np.arange(nx), domain.ny - 1)
    n = domain.n_interior
    return sp.csr_matrix((N.ravel(), (np.repeat(top, nx), np.tile(top, nx))), shape=(n, n))


def _closure_matrix(domain, mode):
    """The whole closure's system (A, B, X): the assembled rows, and under the
    reflecting closure the top row's dense coupling to the region above."""
    A, B, X = domain._assemble(mode)
    if mode == "reflect":
        A = A - _top_coupling(domain)
    return A, B, X


def _full_lu(domain, mode):
    """The whole-grid LU of one closure, as every solve factored it before the
    strip solver: the reference for ``_StripSolver``."""
    A, B, X = _closure_matrix(domain, mode)
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A"), B, X


def _band_full_solve(domain):
    """The band and pole masses from nx solves of the whole kernel closure:
    the reference for the strip solve of ``DiscreteDomain.kernel_table``."""
    lu, B, _ = _full_lu(domain, "reflect")
    nx = domain.nx
    band = np.empty((domain.band_rows + 1, nx, nx))
    band[0] = np.eye(nx)
    gather = np.array([domain.index(np.arange(nx), domain.jb + m)
                       for m in range(1, domain.band_rows + 1)])
    pidx = domain.index(*domain.snap_point(domain.config.pole))
    sol = lu.solve(B.toarray())
    band[1:] = sol[gather, :]
    return band, sol[pidx, :]


def _box_rows(domain):
    """Rows of the box above the lowest row over every graph node."""
    return domain.ny - 1 - (int(domain.jb.max()) + 1)


def _tooth_cfg(pole=(3.0, 1.0), **kw):
    """A tooth of height 1 (slope 2) at h = 0.1, the pole beside it."""
    return _flat_cfg(graph=LipschitzGraph.sawtooth(1.0, 2, 1.0), pole=pole, **kw)


_STRIP_GRIDS = {
    # short flat boxes, and a pole above the kernel band's top level
    "box0": _flat_cfg(box_height=1.1),
    "box1": _flat_cfg(box_height=1.2),
    "box2": _flat_cfg(box_height=1.3),
    "pole_above_band": _flat_cfg(pole=(0.0, 1.5)),
    # a flat grid with a 1-row box
    "flat_box1": _flat_cfg(box_halfwidth=2.0, box_height=2.0, grid_spacing=1.0),
    # a tall tooth in short boxes: the box above the strip has 0, 1 and 2
    # rows, and with none the strip is the whole grid, its top row coupled
    # to the region above; the pole beside the tooth sits in the strip
    "tooth_box0": _tooth_cfg(box_height=1.1),
    "tooth_box1": _tooth_cfg(box_height=1.2),
    "tooth_box2": _tooth_cfg(box_height=1.3),
    # the pole above the tooth, in the box and above the band's top level
    "tooth_pole_in_box": _tooth_cfg(box_height=2.5, pole=(0.0, 1.5)),
    # a plateau rising from x = -0.8: wings of two lengths, each swept alone
    "lopsided": _flat_cfg(graph=LipschitzGraph(((-0.8, 0.0), (-0.3, 0.5), (0.5, 0.5),
                                                (1.0, 0.0)), 1.0), pole=(0.0, 1.5)),
    # teeth down: the graph's ends are its top, so there are no wings
    "teeth_down": _flat_cfg(graph=LipschitzGraph.sawtooth(0.5, 2, 1.0, 1)),
}


def _strip_grid(name, request):
    if name in _STRIP_GRIDS:
        return build_domain(_STRIP_GRIDS[name])
    return request.getfixturevalue(name)[0]


@pytest.mark.parametrize("name", ["flat_small", "saw_small", "saw_steep", *_STRIP_GRIDS])
def test_strip_band_matches_full_solve(name, request):
    domain = _strip_grid(name, request)
    band, w = _band_full_solve(domain)
    assert np.abs(domain.kernel_table() - band).max() <= 1e-14
    assert np.abs(domain.hm_weights - w).max() <= 1e-14


@pytest.mark.parametrize("cfg", [_flat_cfg(graph=LipschitzGraph.sawtooth(0.5, 2, 1.0)),
                                 _STRIP_GRIDS["teeth_down"]],
                         ids=["teeth_up", "teeth_down"])
def test_band_does_not_depend_on_the_solve_chunk(cfg, monkeypatch):
    # the strip is solved in chunks of right-hand sides, and the box levels
    # come from one top-row array that the chunks fill: a chunk of 7 (101
    # columns: 14 full chunks and one of 3) and one of 32 give the same
    # band, bit for bit
    from lipvar.domain_field import grid

    bands = []
    for chunk in (7, 32):
        monkeypatch.setattr(grid, "_SOLVE_CHUNK", chunk)
        bands.append(build_domain(cfg).kernel_table())
    assert np.array_equal(*bands)


@pytest.mark.parametrize("name", list(_STRIP_GRIDS))
def test_exit_rows_build_only_the_box_walls(name):
    # harmonic_measure and kernel_measure above the band read the adjoint
    # solve through B, which vanishes on the box, and X, which reaches it
    # only on its walls: the walls alone give the full adjoint's masses, to
    # rounding of the row's total mass (a wall value is a sum of modes some
    # 70 times larger than it, so a transform and a dot product part there)
    from lipvar.domain_field.grid import _exit_row

    domain = build_domain(_STRIP_GRIDS[name])
    for mode in ("absorb", "reflect"):
        c = domain._strip_solver(mode)
        for point in (domain.config.pole, _box_point(domain)):
            i, j = domain.snap_point(point)
            e = np.zeros(domain.n_interior)
            e[domain.index(i, j)] = 1.0
            g = c.adjoint(e)
            s, box = c.B.T @ g, c.X.T @ g
            got_s, got_box = _exit_row(domain, mode, i, j)
            total = np.abs(s).sum() + np.abs(box).sum()
            assert np.abs(got_s - s).max() <= 1e-15 * total
            assert np.abs(got_box - box).max() <= 1e-15 * total


# grids with no column step above one row
_BAND_POWER_GRIDS = ["flat_small", "saw_small", "box0", "box1", "box2", "pole_above_band",
                     "lopsided", "teeth_down"]


@pytest.mark.parametrize("name", _BAND_POWER_GRIDS)
def test_integer_powers_are_band_levels(name, request):
    # semi-infinite above, the region over level n - 1 is the region over the
    # graph shifted up, and a walk from level n must pass level n - 1: band
    # level n is G^n, and row_power returns it as a view of the band
    domain = _strip_grid(name, request)
    assert domain._band_powers
    band = domain.kernel_table()
    for n in range(1, domain.band_rows + 1):
        ref = np.linalg.matrix_power(band[1], n)
        got = domain.row_power(None, n)
        assert np.shares_memory(got, band)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # above the band there is no G^n to read
    with pytest.raises(ResolutionError):
        domain.row_power(None, domain.band_rows + 1)


@pytest.mark.parametrize("name, cause", [("saw_steep", "column step of 2 grid rows")],
                         ids=["saw_steep"])
def test_no_powers_where_band_levels_are_not_powers(name, cause, request):
    # a column step of two rows (saw_steep) lets a walk skip a level: band
    # level n is not G^n, so no power of G exists there, while the band's
    # own rows still serve the same heights
    domain = _strip_grid(name, request)
    assert not domain._band_powers
    for s in (0.5, 1.0, 2.0):
        y = s * domain.h
        with pytest.raises(ConfigError, match=cause):
            domain.row_power(None, s)
        with pytest.raises(ConfigError, match=cause):
            domain.power_rows(y)
        with pytest.raises(ConfigError, match=cause):
            K.build_k(domain, y, "power")
        assert np.isfinite(domain.mass_rows(y)).all()
    # the stencil's lowest level reaches one column step below its height
    for y in (2 * domain.h, 2.5 * domain.h):
        assert all(np.isfinite(d).all() for d in domain.stencil_rows(y))
    gaps = checks.family_gap(domain, [domain.band_rows * domain.h])
    assert min(gaps.values()) > 1e-2


# a slope-1 extreme: one tooth of amplitude 4 pointing down in a 16 x 7 box,
# whose smallest pole mass is 1.3e-4 of the total
_DEEP_TOOTH = DomainConfig(LipschitzGraph.sawtooth(4.0, 1, 4.0, 1), 16.0, 7.0, 0.1,
                           (0.0, 1.0))


@pytest.mark.parametrize("name", [*_BAND_POWER_GRIDS, "kernel_flat", "readme_saw",
                                  "saw_tall_u", "deep_tooth"])
def test_no_excluded_nodes_where_powers_exist(name, request):
    # the omega and variation layers run only where powers of G exist, and
    # multiply exit masses with no exclusion: no node of negligible pole
    # mass may occur there
    domain = build_domain(_DEEP_TOOTH) if name == "deep_tooth" else _strip_grid(name, request)
    assert domain._band_powers
    assert not len(domain.excluded_nodes)


def test_kernel_closure_does_not_depend_on_box_height():
    # the reflecting closure is semi-infinite above, so the box height only
    # sizes the grid: on the README sawtooth the band and the pole masses of
    # boxes 3 and 12 high agree on their common levels
    def domain(height):
        return build_domain(DomainConfig(LipschitzGraph.sawtooth(0.5, 2, 1.0, 0), 6.0,
                                         height, 0.05, (0.0, 1.0)))

    low, tall = domain(3.0), domain(12.0)
    n = min(low.band_rows, tall.band_rows) + 1
    assert n > round(1.0 / low.h)
    assert np.abs(low.kernel_table()[:n] - tall.kernel_table()[:n]).max() <= 1e-13
    assert np.abs(low.hm_weights - tall.hm_weights).max() <= 1e-13


def test_strip_grids_cover_the_box_cases():
    domains = {name: build_domain(cfg) for name, cfg in _STRIP_GRIDS.items()
               if name.startswith("tooth")}
    boxes = [domains[f"tooth_box{k}"] for k in range(3)]
    assert [_box_rows(d) for d in boxes] == [0, 1, 2]
    # the strip is the whole grid only where no box row is left above it
    assert [d.strip_top == d.ny - 1 for d in boxes] == [True, False, False]
    for d in boxes:
        assert d.snap_point(d.config.pole)[1] <= d.strip_top
    d = build_domain(_STRIP_GRIDS["flat_box1"])
    assert _box_rows(d) == 1 and d.strip_top == d.ny - 2
    d = domains["tooth_pole_in_box"]
    pi, pj = d.snap_point(d.config.pole)
    assert pj > d.strip_top and pj - d.jb[pi] > d.band_rows


@pytest.mark.parametrize("name", ["flat_small", "saw_small", "saw_steep", *_STRIP_GRIDS])
def test_strip_holds_only_the_graph_rows(name, request):
    # the strip stops at the lowest row above every graph node, so it has
    # sum_i (jt - jb_i) unknowns: nx on a flat grid with a box above it
    domain = _strip_grid(name, request)
    c = domain._strip_solver("reflect")
    jt = domain.strip_top
    assert len(c.strip) == (jt - domain.jb).sum()
    if c.rows:
        assert jt == domain.jb.max() + 1
        if not domain.graph.breakpoints:
            assert len(c.strip) == domain.nx
    else:
        assert jt == domain.ny - 1


@pytest.mark.parametrize("name", ["flat_small", "saw_small", "saw_steep", *_STRIP_GRIDS])
def test_wings_leave_the_core_to_the_sparse_lu(name, request):
    # the flat ends of a rising graph are eliminated in closed form; the
    # sparse LU holds only the lower rows between them
    domain = _strip_grid(name, request)
    for mode in ("reflect", "absorb"):
        c = domain._strip_solver(mode)
        wing_nodes = sum(w.nodes.size for w in c.wings)
        assert c.lu.shape == (len(c.core),) * 2
        assert len(c.core) + wing_nodes + domain.nx == len(c.strip)
        rises = np.ptp(domain.jb) > 0 and domain.strip_top - 1 > domain.jb[0]
        assert (wing_nodes > 0) == rises
        if rises:
            assert wing_nodes > len(c.core)
    if name == "lopsided":
        assert [w.c for w in c.wings] == [1, 1]
        assert c.wings[0].a > c.wings[1].a
    if name == "saw_small":
        assert [w.c for w in c.wings] == [2]


def _box_point(domain):
    """A grid point in the box above the strip (the top row on a 0-row box)."""
    return domain.xs[domain.nx // 3], (domain.j0 + domain.ny - 1) * domain.h


@pytest.mark.parametrize("name", ["flat_small", "saw_small", "saw_steep", *_STRIP_GRIDS])
def test_every_solve_matches_full_solve(name, request):
    domain = _strip_grid(name, request)
    tol = 1e-13
    data = np.cos(domain.xs) + 0.1 * domain.xs
    full = {mode: _full_lu(domain, mode) for mode in ("reflect", "absorb")}
    # Dirichlet solves of both closures
    for mode, (lu, B, _) in full.items():
        assert np.abs(domain.solve_dirichlet(data, mode) - lu.solve(B @ data)).max() <= tol
    lu, B, _ = full["reflect"]
    assert np.abs(harmonic_extension(domain, data).values - lu.solve(B @ data)).max() <= tol
    # harmonic measure and Green's function: a source in the strip and one in
    # the box
    lu, B, X = full["absorb"]
    for point in (domain.config.pole, _box_point(domain)):
        e = np.zeros(domain.n_interior)
        e[domain.index(*domain.snap_point(point))] = 1.0
        g = lu.solve(e)
        assert np.abs(greens_function(domain, point).values - g).max() <= tol
        s, box = B.T @ g, X.T @ g
        m = harmonic_measure(domain, point)
        assert np.abs(m.s_masses - s).max() <= tol
        assert abs(m.box_side_mass - box[:2 * domain.ny].sum()) <= tol
        assert abs(m.box_top_mass - box[2 * domain.ny:].sum()) <= tol
    # kernel measure from above the band: the transposed solve
    lu, B, _ = full["reflect"]
    point = _box_point(domain)
    e = np.zeros(domain.n_interior)
    e[domain.index(*domain.snap_point(point))] = 1.0
    g = lu.solve(e, trans="T")
    assert np.abs(kernel_measure(domain, point).s_masses - B.T @ g).max() <= tol


def test_box_elimination_is_the_box_inverse():
    # the box solve against a sparse LU of the box block with the strip's
    # top row as bottom-row data
    domain = build_domain(_flat_cfg(box_halfwidth=3.0, box_height=2.0))
    c = domain._strip_solver("reflect")
    assert c.rows >= 2
    A, _, _ = _closure_matrix(domain, "reflect")
    box = c.box
    Abox = A[box][:, box].tocsc()
    lu = spla.splu(Abox)

    def box_solve(f):
        # the LU solution refined once against an extended-precision
        # residual: the LU alone is about 2e-14 off on the zero domain
        x = lu.solve(f)
        r = f - Abox.astype(np.longdouble) @ x.astype(np.longdouble)
        return x + lu.solve(r.astype(float))

    cols = np.arange(domain.nx)
    bottom = np.flatnonzero(np.isin(box, domain.index(cols, domain.strip_top + 1)))
    E = np.zeros((len(box), domain.nx))
    E[bottom, cols] = 1.0
    fb = np.random.default_rng(3).random(E.shape)
    v = np.random.default_rng(4).random((domain.nx, domain.nx))
    modes = c.box_modes(fb)
    ref = box_solve(fb + E @ v)
    assert np.abs(c.box_values(modes, v) - ref).max() <= 1e-14 * np.abs(ref).max()
    # N, the bottom-row block of the box's inverse
    N = c.box_values(None, np.eye(domain.nx))[bottom]
    assert np.abs(N - box_solve(E)[bottom]).max() <= 1e-14


def _range_reduced_modes(nx, mode):
    """Dense Q and Q⁻¹ of the box's side operator in extended precision,
    each argument reduced to one period before it is scaled by π: in double
    precision the products with them are themselves about 1e-14 off at
    nx = 481."""
    k = np.arange(nx)
    pi = np.arccos(np.longdouble(-1.0))
    if mode == "reflect":
        M = nx - 1
        Q = np.cos(pi * (np.outer(k, k) % (2 * M)) / M)
        e = np.where((k == 0) | (k == M), 0.5, 1.0)
        return Q, (2.0 / M) * e[:, None] * Q * e
    L = nx + 1
    Q = np.sin(pi * (np.outer(k + 1, k + 1) % (2 * L)) / L)
    return Q, (2.0 / L) * Q


@pytest.mark.parametrize("mode", ["reflect", "absorb"])
@pytest.mark.parametrize("halfwidth, h, nx", [(2.25, 0.5, 10), (6.0, 0.025, 481)])
def test_box_transforms_match_range_reduced_bases(halfwidth, h, nx, mode):
    # the box's modes by DCT-I / DST-I, and N = Q diag(s_0) Q⁻¹ from one
    # transform, against dense bases with range-reduced arguments: unreduced,
    # cos(π k l / M) is up to 2.7e-13 off at nx = 481
    domain = build_domain(_flat_cfg(box_halfwidth=halfwidth, box_height=1.5,
                                    grid_spacing=h))
    assert domain.nx == nx
    c = domain._strip_solver(mode)
    Q, Qinv = _range_reduced_modes(nx, mode)
    lift = np.cumprod(c.s, axis=0)
    v = np.random.default_rng(6).random((nx, 3))
    ref = (Q @ (lift.T[:, :, None] * (Qinv @ v)[:, None]).reshape(nx, -1)).reshape(-1, 3)
    assert np.abs(c.box_values(None, v) - ref).max() <= 2e-15 * np.abs(ref).max()
    N = (Q * c.s0) @ Qinv
    assert np.abs(c.box_coupling() - N).max() <= 2e-15 * np.abs(N).max()


@pytest.mark.parametrize("mode", ["reflect", "absorb"])
@pytest.mark.parametrize("name", ["flat_small", "saw_small", "saw_steep", *_STRIP_GRIDS])
def test_closure_symmetrizer(name, mode, request):
    # D A is symmetric for the closure's diagonal D, so Aᵀ = D A D⁻¹ and the
    # adjoint D A⁻¹ D⁻¹ is the transposed solve; the sources sit in column 0
    # (D = ½ under the mirrored closure): at its top, where the reflecting
    # closure's dense top coupling meets the mirrored side, halfway up, and
    # on its lowest interior row, in the wing where there is one
    domain = _strip_grid(name, request)
    c = domain._strip_solver(mode)
    lu, _, _ = _full_lu(domain, mode)
    DA = domain._assemble(mode)[0].multiply(c.sym[:, None]).tocsr()
    assert (DA != DA.T).nnz == 0
    for j in (domain.ny - 1, (domain.jb[0] + domain.ny) // 2, domain.jb[0] + 1):
        e = np.zeros(domain.n_interior)
        e[domain.index(0, j)] = 1.0
        assert np.abs(c.adjoint(e) - lu.solve(e, trans="T")).max() <= 1e-13


def test_no_solve_factors_the_whole_grid(monkeypatch):
    # every solve runs on the strip: no factored matrix spans the whole
    # grid, and each closure is factored once, by one sparse LU of the
    # strip's core rows (none on a flat grid) and one dense LU of the top
    # row's Schur complement
    from lipvar.domain_field import grid

    shapes, dense = [], []

    def splu(A, **kw):
        shapes.append(A.shape)
        return spla.splu(A, **kw)

    def lu_factor(S, **kw):
        dense.append(S.shape)
        return sla.lu_factor(S, **kw)

    monkeypatch.setattr(grid, "splu", splu)
    monkeypatch.setattr(grid, "lu_factor", lu_factor)
    saw = LipschitzGraph.sawtooth(0.5, 2, 1.0)
    for cfg in (_flat_cfg(), _flat_cfg(graph=saw)):
        shapes.clear()
        dense.clear()
        domain = build_domain(cfg)
        domain.kernel_table()
        harmonic_extension(domain, np.ones(domain.nx))
        harmonic_measure(domain, (0.0, 1.0))
        greens_function(domain, (0.0, 1.0))
        point = _box_point(domain)
        assert domain.snap_point(point)[1] - domain.jb.max() > domain.band_rows
        kernel_measure(domain, point)
        assert len(shapes) == 2
        assert all(n < domain.n_interior for n, _ in shapes)
        assert dense == [(domain.nx, domain.nx)] * 2


# -- assembly ----------------------------------------------------------------------


def _assemble_loop(domain, mode):
    """The 5-point system built one node at a time: the reference for
    ``DiscreteDomain._assemble``."""
    nx, ny, jb = domain.nx, domain.ny, domain.jb
    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []
    xrows, xcols, xvals = [], [], []
    n_box = 2 * ny + nx
    reflecting = mode == "reflect"
    for i in range(nx):
        ii_w, ii_e = (1, nx - 2) if reflecting else (None, None)
        for j in range(jb[i] + 1, ny):
            p = domain.offsets[i] + (j - jb[i] - 1)
            rows.append(p); cols.append(p); vals.append(4.0)
            nbrs = ((i - 1, j, 0, j), (i + 1, j, 1, j),
                    (i, j - 1, None, None), (i, j + 1, 2, i))
            for (ni, nj, side, slot) in nbrs:
                if ni < 0 or ni >= nx or nj >= ny:
                    if reflecting and nj >= ny:
                        continue  # the semi-infinite top: the strip solver's
                    if reflecting:
                        mi = ii_w if ni < 0 else ii_e
                        mj = nj
                        if mj > jb[mi]:
                            rows.append(p); cols.append(domain.offsets[mi] + (mj - jb[mi] - 1))
                            vals.append(-1.0)
                        else:
                            brows.append(p); bcols.append(mi); bvals.append(1.0)
                    else:
                        base = 0 if side == 0 else (ny if side == 1 else 2 * ny)
                        xrows.append(p); xcols.append(base + slot); xvals.append(1.0)
                    continue
                if nj > jb[ni]:
                    rows.append(p); cols.append(domain.offsets[ni] + (nj - jb[ni] - 1))
                    vals.append(-1.0)
                else:
                    brows.append(p); bcols.append(ni); bvals.append(1.0)
    n = domain.n_interior
    return (sp.csr_matrix((vals, (rows, cols)), shape=(n, n)),
            sp.csr_matrix((bvals, (brows, bcols)), shape=(n, nx)),
            sp.csr_matrix((xvals, (xrows, xcols)), shape=(n, n_box)))


@pytest.mark.parametrize("mode", ["reflect", "absorb"])
@pytest.mark.parametrize("name", list(_STRIP_GRIDS))
def test_subset_assembly_is_the_full_systems_rows(name, mode, monkeypatch):
    # rows at the given nodes equal the full system's, the others are empty;
    # the strip solver's nodes hold every row of B and X, so its B and X are
    # the full system's
    domain = build_domain(_STRIP_GRIDS[name])
    n = domain.n_interior
    assemble = domain._assemble
    full = assemble(mode)
    asked = []

    def spy(mode, nodes=None):
        asked.append(nodes)
        return assemble(mode, nodes)

    monkeypatch.setattr(domain, "_assemble", spy)
    c = domain._strip_solver(mode)
    (solver_nodes,) = asked
    assert np.isin(c.strip, solver_nodes).all()
    rng = np.random.default_rng(5)
    for nodes in (solver_nodes, np.sort(rng.choice(n, n // 3, replace=False)),
                  np.arange(n), np.zeros(0, dtype=int)):
        others = np.setdiff1d(np.arange(n), nodes)
        for sub, ref in zip(assemble(mode, nodes), full):
            assert sub.shape == ref.shape
            assert (sub[nodes] != ref[nodes]).nnz == 0
            assert sub[others].nnz == 0
    for sub, ref in zip((c.B, c.X), full[1:]):
        assert (sub != ref).nnz == 0


@pytest.mark.parametrize("mode", ["reflect", "absorb"])
@pytest.mark.parametrize("fixture", ["flat_small", "saw_small", "saw_steep"])
def test_assembly_matches_node_loop(fixture, mode, request):
    domain, _ = request.getfixturevalue(fixture)
    for new, ref in zip(domain._assemble(mode), _assemble_loop(domain, mode)):
        assert new.shape == ref.shape
        assert (new != ref).nnz == 0
