"""Seeded scenario generation: Gaussian mixtures and Sobol candidate lattices.

Randomness policy: all sampling goes through numpy's Generator with the
PCG64 bit generator; normal variates use its ziggurat standard_normal.
Both are fixed, documented algorithms, so streams are reproducible across
platforms for a given seed. Component streams are split with SeedSequence
so per-component clouds do not depend on how many samples the others draw.

The Sobol generator uses the first ten dimensions of the Joe and Kuo
direction-number table (the new-joe-kuo-6 set; dimension one is the plain
van der Corput sequence) with Gray-code ordering, and includes the zero
point. No scrambling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Primitive-polynomial degree s, coefficient a, and initial m values per
# dimension (dimensions 2..10 of the Joe-Kuo table; dimension 1 needs none).
_JOE_KUO = [
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
]

MAX_SOBOL_DIM = 1 + len(_JOE_KUO)

_NBITS = 32
_SCALE = float(2**_NBITS)


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component with a symmetric positive-definite covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64).ravel()
        cov = np.array(self.covariance, dtype=np.float64)
        if cov.shape != (len(mean), len(mean)):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean length {len(mean)}"
            )
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValidationError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "covariance must be positive definite"
            ) from exc
        for arr in (mean, cov, chol):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws via the Cholesky transform of standard normals."""
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


def sample_gaussian_mixture(components, n_per_component: int, seed: int):
    """Per-component particle clouds, one (n, dim) array per component.

    Each component gets its own child stream spawned from the seed, so the
    clouds are independent and individually reproducible.
    """
    if n_per_component < 1:
        raise ValidationError("n_per_component must be >= 1")
    children = np.random.SeedSequence(seed).spawn(len(components))
    return [
        comp.sample(n_per_component, np.random.default_rng(child))
        for comp, child in zip(components, children)
    ]


def demo_mixture():
    """The five-component 2-D benchmark mixture used across the examples."""
    means = [(0, 0), (4, -1), (-3, 3), (2.5, 2.5), (-1, -2)]
    covs = [
        [[0.5, -0.2], [-0.2, 0.5]],
        [[2.0, 0.0], [0.0, 2.0]],
        [[1.0, -0.1], [-0.1, 1.0]],
        [[2.0, 0.5], [0.5, 2.0]],
        [[1.6, -1.2], [-1.2, 1.6]],
    ]
    return [GaussianComponent(m, c) for m, c in zip(means, covs)]


def _direction_integers(dim_index: int) -> np.ndarray:
    """Direction integers v_1..v_NBITS (already shifted) for one dimension."""
    # dimension one, van der Corput, has every m_i = 1
    s, a, m = ((_NBITS, 0, (1,) * _NBITS) if dim_index == 0
               else _JOE_KUO[dim_index - 1])
    m = list(m)
    for i in range(s, _NBITS):
        new = m[i - s] ^ (m[i - s] << s)
        for j in range(1, s):
            if (a >> (s - 1 - j)) & 1:
                new ^= m[i - j] << j
        m.append(new)
    return np.array([mi << (_NBITS - 1 - i) for i, mi in enumerate(m)],
                    dtype=np.uint64)


def sobol_unit(dim: int, count: int) -> np.ndarray:
    """First `count` Sobol points in [0,1)^dim, Gray-code order, zero first."""
    if not (1 <= dim <= MAX_SOBOL_DIM):
        raise ValidationError(
            f"dim {dim} outside supported range 1..{MAX_SOBOL_DIM}"
        )
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > 2**_NBITS:
        raise ValidationError("count exceeds the 32-bit sequence length")
    directions = np.stack([_direction_integers(d) for d in range(dim)])
    # point n is point n-1 xor the direction of n's lowest set bit, whose
    # index frexp reads off exactly from the power of two n & -n
    n = np.arange(1, count, dtype=np.int64)
    lowest = np.frexp((n & -n).astype(np.float64))[1] - 1
    out = np.zeros((count, dim), dtype=np.uint64)
    np.bitwise_xor.accumulate(directions[:, lowest].T, axis=0, out=out[1:])
    return out.astype(np.float64) / _SCALE


def sobol_lattice(dim: int, count: int, box) -> np.ndarray:
    """Sobol points affinely mapped into box = (low, high)."""
    low = np.asarray(box[0], dtype=np.float64).ravel()
    high = np.asarray(box[1], dtype=np.float64).ravel()
    if len(low) != dim or len(high) != dim:
        raise ValidationError("box corners must match dim")
    if np.any(low >= high):
        raise ValidationError("box must satisfy low < high per coordinate")
    unit = sobol_unit(dim, count)
    return low + unit * (high - low)
