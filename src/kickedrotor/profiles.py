"""Shared density-profile container for 2D and 3D results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DensityProfile"]


@dataclass(frozen=True)
class DensityProfile:
    """Angular density sampled on a grid.

    On the sphere, `weighted` carries 2 pi sin(theta) |psi|^2 (the
    solid-angle density whose theta-integral is 1).
    """

    grid: np.ndarray
    values: np.ndarray
    weighted: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape:
            raise ValueError("grid and values must have matching shapes")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
