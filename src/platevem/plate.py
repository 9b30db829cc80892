"""Kirchhoff plate material: Young modulus, thickness, Poisson ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaterialParams:
    """Plate material: Young modulus, thickness, and Poisson ratio."""

    young: float
    thickness: float
    poisson: float

    def __post_init__(self):
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")
        if not 0.0 < self.rigidity < np.inf:
            raise ValueError("bending rigidity must be positive and finite")

    @property
    def rigidity(self) -> float:
        """Bending rigidity D = E t^3 / (12 (1 - nu^2))."""
        return self.young * self.thickness**3 / (12.0 * (1.0 - self.poisson**2))

    @classmethod
    def from_rigidity(cls, rigidity: float, poisson: float, thickness: float = 1.0):
        young = 12.0 * rigidity * (1.0 - poisson**2) / thickness**3
        return cls(young, thickness, poisson)


DEFAULT_MATERIAL = MaterialParams.from_rigidity(1.0, 0.3)
