"""Correlation vectors realizable by spin measurements on the singlet state.

Alice's settings a1, a2 and Bob's b1, b2 are unit vectors in real 3-space;
the observed correlation under context (i, j) is the negated dot product
-(a_i . b_j).  The arcsin family is the exact characterization of which
correlation vectors arise this way, so realizability delegates to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import CorrelationVector
from .errors import DomainError
from .inequalities import DEFAULT_EPSILON, quantum_arcsin
from .sampling import slot_rng

_UNIT_EPS = 1e-9


@dataclass(frozen=True)
class SettingVector:
    """A measurement direction: a 3-vector of unit length within 1e-9."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= _UNIT_EPS:  # NaN fails this test too
            raise DomainError(f"setting vector has norm {norm!r}, expected 1 within {_UNIT_EPS}")

    def dot(self, other: "SettingVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def unit(x: float, y: float, z: float) -> SettingVector:
    """Normalize an arbitrary nonzero finite 3-vector into a SettingVector."""
    u, v, w = x, y, z
    norm = math.sqrt(u * u + v * v + w * w)
    scale = max(abs(x), abs(y), abs(z))
    if (norm == 0.0 or not math.isfinite(norm)) and 0.0 < scale < math.inf:
        # the squares underflowed or overflowed; with the largest component
        # scaled to 1 they cannot.  (math.hypot cannot either, but it differs
        # from the plain norm in the last bit and would move random_settings.)
        u, v, w = x / scale, y / scale, z / scale
        norm = math.sqrt(u * u + v * v + w * w)
    if norm == 0.0:
        raise DomainError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise DomainError(f"cannot normalize ({x!r}, {y!r}, {z!r}): its norm is {norm!r}")
    return SettingVector(u / norm, v / norm, w / norm)


def singlet_correlations(
    a1: SettingVector, a2: SettingVector, b1: SettingVector, b2: SettingVector
) -> CorrelationVector:
    """e_ij = -(a_i . b_j); components clamped to [-1, 1] against 1-ulp spill."""
    return CorrelationVector(
        -a1.dot(b1),
        -a1.dot(b2),
        -a2.dot(b1),
        -a2.dot(b2),
    )


def realizability_check(c, epsilon: float = DEFAULT_EPSILON) -> bool:
    """True iff the vector satisfies the arcsin family, the exact criterion
    for being some singlet_correlations output."""
    return quantum_arcsin(c, epsilon).satisfied


def standard_chsh_settings() -> tuple[SettingVector, SettingVector, SettingVector, SettingVector]:
    """The configuration that saturates the Tsirelson bound: Alice along x
    and y, Bob along the two diagonals between them."""
    r = math.sqrt(0.5)
    return (
        SettingVector(1.0, 0.0, 0.0),
        SettingVector(0.0, 1.0, 0.0),
        SettingVector(r, r, 0.0),
        SettingVector(r, -r, 0.0),
    )


def random_settings(sampler_seed: int, index: int) -> tuple[SettingVector, ...]:
    """Four independent uniform directions (normalized Gaussian triples),
    deterministic per (seed, slot)."""
    rng = slot_rng(sampler_seed, index)
    out = []
    while len(out) < 4:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        if x * x + y * y + z * z < 1e-12:  # degenerate draw; discard
            continue
        out.append(unit(x, y, z))
    return tuple(out)
