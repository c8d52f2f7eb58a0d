"""Geometry, discretization, and harmonic machinery of the near half-space."""

from .geometry import LipschitzGraph
from .grid import (
    BoundaryMeasure,
    DiscreteDomain,
    DomainConfig,
    HarmonicField,
    arc_indicator,
    build_domain,
    gradient,
    greens_function,
    harmonic_extension,
    harmonic_measure,
    kernel_measure,
)
from .wos import wos_harmonic_measure

__all__ = [
    "LipschitzGraph",
    "DomainConfig",
    "DiscreteDomain",
    "HarmonicField",
    "BoundaryMeasure",
    "build_domain",
    "harmonic_measure",
    "kernel_measure",
    "harmonic_extension",
    "arc_indicator",
    "greens_function",
    "gradient",
    "wos_harmonic_measure",
]
