"""Arithmetic-intensity profiles (Figure 4 and Table 5 of the paper).

Arithmetic intensity ``A`` is flops executed per byte of input moved — the
x-axis of the roofline model.  The paper's scheduler needs two things from
an application:

* its intensity at a given block size (constant for most SPMD apps, but an
  increasing function of block size for BLAS3-class kernels, §III.B.3b);
* the inverse of that function, to find the minimal block size that reaches
  the GPU ridge point (Equation 11).

Table 5 of the paper fixes the intensities we must reproduce:
``A(GEMV) = 2``, ``A(C-means) = 5*M`` (M clusters) and
``A(GMM) = 11*M*D`` (M components, D dimensions).  The catalogue in
:data:`APPLICATION_INTENSITIES` adds the qualitative anchors of Figure 4
(word count at the low end, DGEMM at the high end, FFT/K-means in the
middle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro._validation import require_positive, require_positive_int


class IntensityProfile:
    """Arithmetic intensity of an application as a function of block size.

    Subclasses implement :meth:`at` (flops/byte for a block of ``nbytes``)
    and may override :meth:`inverse` when a closed form exists; the default
    inverse is a monotone bisection search.
    """

    #: human-readable application label, used in reports
    label: str = "?"

    def at(self, nbytes: float) -> float:
        """Intensity (flops/byte) when processing a block of *nbytes*."""
        raise NotImplementedError

    def flops(self, nbytes: float) -> float:
        """Total flops executed for a block of *nbytes* bytes."""
        require_positive("nbytes", nbytes)
        return self.at(nbytes) * nbytes

    def inverse(self, intensity: float) -> float:
        """Smallest block size (bytes) whose intensity reaches *intensity*.

        This is ``F_ag^-1`` in Equation (11).  Raises ``ValueError`` when
        the profile can never reach the requested intensity (e.g. constant
        profiles below it).
        """
        require_positive("intensity", intensity)
        lo, hi = 1.0, 2.0
        if self.at(lo) >= intensity:
            return lo
        # Exponential search for an upper bracket, then bisect.
        for _ in range(120):
            if self.at(hi) >= intensity:
                break
            hi *= 2.0
        else:
            raise ValueError(
                f"{self.label}: intensity {intensity} is unreachable at any block size"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.at(mid) >= intensity:
                hi = mid
            else:
                lo = mid
            if hi - lo <= max(1.0, 1e-9 * hi):
                break
        return hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label}>"


@dataclass(frozen=True, repr=False)
class ConstantIntensity(IntensityProfile):
    """Intensity independent of block size (most SPMD map tasks)."""

    value: float
    label: str = "const"

    def __post_init__(self) -> None:
        require_positive("value", self.value)

    def at(self, nbytes: float) -> float:
        require_positive("nbytes", nbytes)
        return self.value

    def inverse(self, intensity: float) -> float:
        require_positive("intensity", intensity)
        if intensity > self.value:
            raise ValueError(
                f"{self.label}: constant intensity {self.value} never reaches "
                f"{intensity}"
            )
        return 1.0


@dataclass(frozen=True, repr=False)
class BlockScaledIntensity(IntensityProfile):
    """Intensity growing as a power of block size: ``A(B) = c * B**exponent``.

    Square DGEMM on an ``n x n`` single-precision block has ``2n^3`` flops
    over ``3 * 4 n^2`` bytes, i.e. ``A = n/6``; with ``B = 12 n^2`` bytes
    that is ``A(B) = sqrt(B/12)/6 ≈ 0.048 * B**0.5`` — the ``O(N)``
    growth the paper cites for BLAS3 (§III.B.3b).
    """

    coefficient: float
    exponent: float = 0.5
    label: str = "blas3"

    def __post_init__(self) -> None:
        require_positive("coefficient", self.coefficient)
        require_positive("exponent", self.exponent)

    def at(self, nbytes: float) -> float:
        require_positive("nbytes", nbytes)
        return self.coefficient * nbytes**self.exponent

    def inverse(self, intensity: float) -> float:
        require_positive("intensity", intensity)
        return (intensity / self.coefficient) ** (1.0 / self.exponent)


# ---------------------------------------------------------------------------
# Catalogue (Figure 4 + Table 5)
# ---------------------------------------------------------------------------


def gemv_intensity() -> ConstantIntensity:
    """GEMV: A = 2 flops/byte (Table 5)."""
    return ConstantIntensity(2.0, label="gemv")


def cmeans_intensity(n_clusters: int) -> ConstantIntensity:
    """C-means: A = 5 * M flops/byte for M clusters (Table 5)."""
    require_positive_int("n_clusters", n_clusters)
    return ConstantIntensity(5.0 * n_clusters, label=f"cmeans(M={n_clusters})")


def kmeans_intensity(n_clusters: int) -> ConstantIntensity:
    """K-means: same leading cost as C-means without the fuzzy memberships.

    The paper reports "similar performance ratios for Kmeans"; we charge
    3*M flops/byte (distance evaluation only, no membership matrix).
    """
    require_positive_int("n_clusters", n_clusters)
    return ConstantIntensity(3.0 * n_clusters, label=f"kmeans(M={n_clusters})")


def gmm_intensity(n_components: int, n_dims: int) -> ConstantIntensity:
    """GMM EM: A = 11 * M * D flops/byte (Table 5)."""
    require_positive_int("n_components", n_components)
    require_positive_int("n_dims", n_dims)
    return ConstantIntensity(
        11.0 * n_components * n_dims, label=f"gmm(M={n_components},D={n_dims})"
    )


def wordcount_intensity() -> ConstantIntensity:
    """Word count: ~0.25 flops/byte — the low-intensity anchor of Figure 4."""
    return ConstantIntensity(0.25, label="wordcount")


def fft_intensity(n: int = 1 << 20) -> ConstantIntensity:
    """1-D FFT of n points: 5 n log2 n flops over 8 n bytes (single complex)."""
    require_positive_int("n", n)
    return ConstantIntensity(5.0 * math.log2(n) / 8.0, label=f"fft(n={n})")


def dgemm_intensity() -> BlockScaledIntensity:
    """Square single-precision GEMM: A(B) = sqrt(B/12)/6 (O(N) growth)."""
    return BlockScaledIntensity(
        coefficient=1.0 / (6.0 * math.sqrt(12.0)), exponent=0.5, label="dgemm"
    )


def spmv_intensity() -> ConstantIntensity:
    """Sparse matrix-vector product: classic roofline anchor at ~0.25."""
    return ConstantIntensity(0.25, label="spmv")


def stencil_intensity() -> ConstantIntensity:
    """7-point stencil: ~0.5 flops/byte."""
    return ConstantIntensity(0.5, label="stencil7")


def loganalysis_intensity() -> ConstantIntensity:
    """Log analysis: ~0.15 flops/byte — named with word count in §I."""
    return ConstantIntensity(0.15, label="loganalysis")


def _catalogue() -> Mapping[str, IntensityProfile]:
    return {
        "loganalysis": loganalysis_intensity(),
        "wordcount": wordcount_intensity(),
        "spmv": spmv_intensity(),
        "stencil7": stencil_intensity(),
        "gemv": gemv_intensity(),
        "fft": fft_intensity(),
        "kmeans": kmeans_intensity(10),
        "cmeans": cmeans_intensity(100),
        "gmm": gmm_intensity(10, 60),
        "dgemm": dgemm_intensity(),
    }


#: The Figure 4 spectrum: applications ordered from low to high intensity.
APPLICATION_INTENSITIES: Mapping[str, IntensityProfile] = _catalogue()
