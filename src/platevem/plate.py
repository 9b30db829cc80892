"""Kirchhoff plate material: bending rigidity and Poisson ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaterialParams:
    """Plate material: bending rigidity D and Poisson ratio."""

    rigidity: float
    poisson: float

    def __post_init__(self):
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")
        if not 0.0 < self.rigidity < np.inf:
            raise ValueError("bending rigidity must be positive and finite")


DEFAULT_MATERIAL = MaterialParams(1.0, 0.3)
