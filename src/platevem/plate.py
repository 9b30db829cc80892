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
        # A subnormal rigidity loses digits, and the loads it scales underflow to 0.
        if not np.finfo(float).tiny <= self.rigidity < np.inf:
            raise ValueError("bending rigidity must be positive and finite, and not subnormal")


DEFAULT_MATERIAL = MaterialParams(1.0, 0.3)
