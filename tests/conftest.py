import pytest

from lipvar.domain_field import (
    DomainConfig,
    LipschitzGraph,
    arc_indicator,
    build_domain,
    harmonic_extension,
)

# Shared lazily built domains.  Unit tests run on coarse boxes; the
# closed-form comparisons run on kernel_flat against the half-strip, the
# continuum of the kernel closure (tests/closed_forms.py), so only the
# discretization is under test.


def _domain_with_u(cfg, arc=(-1.0, 1.0)):
    domain = build_domain(cfg)
    u = harmonic_extension(domain, arc_indicator(domain, *arc))
    return domain, u


@pytest.fixture(scope="session")
def flat_small():
    cfg = DomainConfig(LipschitzGraph.flat(), box_halfwidth=5.0, box_height=5.0,
                       grid_spacing=0.1, pole=(0.0, 1.0))
    return _domain_with_u(cfg)


@pytest.fixture(scope="session")
def saw_small():
    graph = LipschitzGraph.sawtooth(amplitude=0.5, n_teeth=2, support_radius=1.0)
    cfg = DomainConfig(graph, box_halfwidth=5.0, box_height=5.0,
                       grid_spacing=0.1, pole=(0.0, 1.0))
    return _domain_with_u(cfg)


@pytest.fixture(scope="session")
def kernel_flat():
    cfg = DomainConfig(LipschitzGraph.flat(), box_halfwidth=8.0, box_height=8.0,
                       grid_spacing=0.05, pole=(0.0, 1.0))
    return _domain_with_u(cfg)


@pytest.fixture(scope="session")
def saw_tall():
    """A tall sawtooth (teeth 1.1 high, slope 1) at h = 0.1, the pole at
    (0, 2.1): its one-step exit operator G has a badly conditioned
    eigenbasis (kappa_2 ~ 8e7), where the powers through log G must hold."""
    graph = LipschitzGraph.sawtooth(1.1, 2, 2.2)
    return build_domain(DomainConfig(graph, 5.0, 5.0, 0.1, (0.0, 2.1)))


@pytest.fixture(scope="session")
def saw_tall_u(saw_tall):
    return saw_tall, harmonic_extension(saw_tall, arc_indicator(saw_tall, -1.0, 1.0))


@pytest.fixture(scope="session")
def readme_saw():
    """The README sawtooth at h = 0.05, box 6."""
    cfg = DomainConfig(LipschitzGraph.sawtooth(0.5, 2, 1.0, 0), box_halfwidth=6.0,
                       box_height=6.0, grid_spacing=0.05, pole=(0.0, 1.0))
    return _domain_with_u(cfg)
