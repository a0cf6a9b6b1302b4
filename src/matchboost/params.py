"""Accuracy parameter handling and per-scale phase parameters.

All knobs live in :class:`Constants` so experiments can override any of
the default coefficients without touching engine code.  Derived counts
are rounded up whenever the formulas are non-integral.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .errors import InvalidEpsilonError


@dataclass(frozen=True)
class Constants:
    """Coefficient knobs for the derived parameters."""

    ell_coeff: int = 3           # depth cap: ell_max = ell_coeff / eps
    limit_coeff: int = 6         # hold threshold: limit_h = limit_coeff / h + 1
    bundle_coeff: int = 72       # pass bundles per phase: bundle_coeff / (h eps)
    phase_coeff: int = 144       # phases per scale: phase_coeff / (h eps)
    delta_coeff: int = 36        # structure size cap: delta_coeff / (h eps)
    iter_coeff: int = 22         # sim iterations: ceil(iter_coeff * c * ln(1/eps))
    scale_floor_coeff: int = 64  # smallest scale: eps^2 / scale_floor_coeff

    def with_overrides(self, overrides: dict[str, float] | None) -> "Constants":
        if not overrides:
            return self
        bad = set(overrides) - set(self.__dataclass_fields__)
        if bad:
            raise InvalidEpsilonError(f"unknown constant overrides: {sorted(bad)}")
        return replace(self, **{k: int(v) for k, v in overrides.items()})


def normalize_epsilon(epsilon: float) -> float:
    """Clamp epsilon to (0, 1/4] with 1/epsilon a power of two.

    Values whose reciprocal is not a power of two are strengthened to
    the next power of two (a smaller epsilon), with a warning.
    """
    if not (0.0 < epsilon <= 0.25):
        raise InvalidEpsilonError(f"epsilon must be in (0, 1/4], got {epsilon}")
    inv = 1.0 / epsilon
    k = math.ceil(math.log2(inv) - 1e-12)
    snapped = 2.0 ** (-k)
    if abs(snapped - epsilon) > 1e-12:
        warnings.warn(
            f"epsilon {epsilon} rounded to {snapped} (1/eps must be a power of two)",
            stacklevel=2,
        )
    return snapped


def scale_sequence(epsilon: float, constants: Constants = Constants()) -> list[float]:
    """Scales 1/2, 1/4, ... down to eps^2 / scale_floor_coeff."""
    floor = epsilon * epsilon / constants.scale_floor_coeff
    out = []
    h = 0.5
    while h >= floor - 1e-18:
        out.append(h)
        h /= 2.0
    return out


@dataclass(frozen=True)
class PhaseParams:
    """Derived integer parameters for one scale of one run."""

    epsilon: float
    h: float
    ell_max: int
    limit_h: int
    tau_max: int
    delta_h: int
    phases: int
    iter_coeff: int
    constants: Constants

    @staticmethod
    def for_scale(
        epsilon: float, h: float, constants: Constants = Constants()
    ) -> "PhaseParams":
        c = constants
        return PhaseParams(
            epsilon=epsilon,
            h=h,
            ell_max=math.ceil(c.ell_coeff / epsilon),
            limit_h=math.ceil(c.limit_coeff / h) + 1,
            tau_max=math.ceil(c.bundle_coeff / (h * epsilon)),
            delta_h=math.ceil(c.delta_coeff / (h * epsilon)),
            phases=math.ceil(c.phase_coeff / (h * epsilon)),
            iter_coeff=c.iter_coeff,
            constants=c,
        )

    def sim_iterations(self, oracle_c: float) -> int:
        return math.ceil(self.iter_coeff * oracle_c * math.log(1.0 / self.epsilon))
