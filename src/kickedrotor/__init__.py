"""Simulation toolkit for delta-kicked planar and rigid quantum rotors.

Exact quantum evolution (2D Fourier / 3D spherical-harmonic packets),
classical ensemble dynamics with their focus/rainbow/glory catastrophes,
the uniform semiclassical approximations that describe them (Pearcey,
Airy, uniform Airy, uniform Bessel, Ford-Wheeler), thermal Monte Carlo
ensembles, and the accumulative-squeezing pulse-train scheme.
"""

__version__ = "0.1.0"

from . import classical, quantum2d, quantum3d, semiclassical, specfun, squeeze, thermal
from .classical import Coupling, Geometry

__all__ = [
    "__version__",
    "classical",
    "quantum2d",
    "quantum3d",
    "semiclassical",
    "specfun",
    "squeeze",
    "thermal",
    "Coupling",
    "Geometry",
]
