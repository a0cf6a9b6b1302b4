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
        """A copy with some coefficients replaced.

        Each value must be a non-negative integer, and a positive one
        for the coefficients that divide or count scales, phases or
        bundles; anything else raises instead of being rounded.
        """
        if not overrides:
            return self
        bad = set(overrides) - set(self.__dataclass_fields__)
        if bad:
            raise InvalidEpsilonError(f"unknown constant overrides: {sorted(bad)}")
        for k, v in overrides.items():
            if not (isinstance(v, (int, float)) and float(v).is_integer() and v >= 0):
                raise InvalidEpsilonError(f"constant {k} must be a non-negative integer, got {v!r}")
            if v == 0 and k in _POSITIVE_CONSTANTS:
                raise InvalidEpsilonError(f"constant {k} must be positive, got 0")
        return replace(self, **{k: int(v) for k, v in overrides.items()})


_POSITIVE_CONSTANTS = ("bundle_coeff", "phase_coeff", "scale_floor_coeff")


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
    """Scales 1/2, 1/4, ... down to eps^2 / scale_floor_coeff.

    Raises ``InvalidEpsilonError`` when that floor is 0.0 in floating
    point, since the halving would then never stop.
    """
    floor = epsilon * epsilon / constants.scale_floor_coeff
    if floor == 0.0:
        raise InvalidEpsilonError(
            f"epsilon {epsilon} too small: eps^2 / {constants.scale_floor_coeff} is 0.0"
        )
    out = []
    h = 0.5
    while h >= floor:
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

    @staticmethod
    def for_scale(
        epsilon: float, h: float, constants: Constants = Constants()
    ) -> "PhaseParams":
        """The counts of scale ``h``.

        Raises ``InvalidEpsilonError`` when a count overflows to
        infinity in floating point, as a tiny epsilon makes it do on
        the smallest scales.
        """
        c = constants

        def count(coeff: int, denom: float, name: str) -> int:
            x = coeff / denom if denom else math.inf
            if not math.isfinite(x):
                raise InvalidEpsilonError(
                    f"epsilon {epsilon} too small: {name} is {x} at scale {h}"
                )
            return math.ceil(x)

        return PhaseParams(
            epsilon=epsilon,
            h=h,
            ell_max=count(c.ell_coeff, epsilon, "ell_max"),
            limit_h=count(c.limit_coeff, h, "limit_h") + 1,
            tau_max=count(c.bundle_coeff, h * epsilon, "tau_max"),
            delta_h=count(c.delta_coeff, h * epsilon, "delta_h"),
            phases=count(c.phase_coeff, h * epsilon, "phases"),
            iter_coeff=c.iter_coeff,
        )

    def sim_iterations(self, oracle_c: float) -> int:
        return math.ceil(self.iter_coeff * oracle_c * math.log(1.0 / self.epsilon))
