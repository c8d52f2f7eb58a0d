"""lipvar: harmonic-measure kernels and bounded-variation probes on Lipschitz
graph domains.

The package discretizes the near half-space above a compactly supported
piecewise-linear boundary profile, builds the Martin-kernel operator algebra
on its boundary mesh (k_y, c_y, b_y, the perturbed family omega_tilde and its
dyadic-product limit omega_Delta), transforms boundary measures through the
adjoint operators, and probes surface balls for boundary points whose mean
vertical variation is controlled by the value of the underlying positive
harmonic function at an elevated point.

Subpackages / modules
---------------------
domain_field       geometry, grid discretization, Dirichlet solves, harmonic
                   measure, Green's function, walk-on-spheres oracle
kernels            dense boundary-kernel algebra and the Harnack exponent fit
omega              segments, partitions, the perturbed kernel family and its
                   dyadic refinement limit
variation_measure  vertical variation, transformed measures, R1, ball probes
checks             every check's measurement and the verify suites
cli                command-line front end (solve / verify / probe / ...)
"""

__version__ = "0.1.0"

__all__ = [
    "domain_field",
    "kernels",
    "omega",
    "variation_measure",
    "checks",
    "cli",
    "__version__",
]


def __getattr__(name):
    # Lazy submodule access keeps `import lipvar` cheap so the CLI can pin
    # thread counts before numpy is loaded.
    if name in __all__:
        import importlib

        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module 'lipvar' has no attribute {name!r}")
