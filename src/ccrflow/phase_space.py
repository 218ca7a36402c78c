"""Measure algebra on the phase plane.

The phase plane R^2 carries the symplectic form

    omega((x, y), (x', y')) = (x'y - xy') / 2,

and finite measures on it form an algebra under convolution.  The
symplectic Fourier transform

    mu_hat(zeta) = integral of exp(i*omega(zeta, z)) dmu(z)

turns convolution into pointwise multiplication and sends the Gaussian
family onto the heat multipliers exp(-t*|zeta|^2).  Everything here is
discretized on uniform square grids: a measure is a table of complex
cell weights, and its transform is a plain (factorized) sum over cells
at the requested dual points, so no FFT periodicity artifacts enter
unless a routine explicitly opts in.

Grid convention: a ``GridSpec`` with half-width L and M points per axis
places nodes at -L + k*h for k = 0..M-1 with h = 2L/M, covering
[-L, L)^2.  M is even, so the origin is always a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy import signal

__all__ = [
    "GridSpec",
    "GridMeasure",
    "omega",
    "symplectic_ft_at",
    "inverse_symplectic_lattice",
    "conjugate_lattice",
    "convolve",
    "gaussian_measure",
    "default_gaussian_grid",
    "cauchy_measure",
    "plateau_profile",
    "sqrt_density_ft",
    "band_limited_approximant",
    "default_lemma_grid",
    "measure_from_atoms",
    "gaussian_density",
]

#: Nyquist-style guard that sizes Gaussian grids: default_gaussian_grid
#: keeps h * 4 at 3/4 of it, so the sampled phase exp(i*omega(zeta, z))
#: stays well below the lattice Nyquist rate for |zeta| <= 4.
ALIAS_GUARD = math.pi / 2

_GAUSSIAN_CAPTURE = 1e-9


def _coords(z) -> tuple[float, float]:
    x, y = z
    return float(x), float(y)


def omega(z1, z2) -> float:
    """Symplectic form omega(z1, z2) = (x2*y1 - x1*y2) / 2.

    Accepts any (x, y) pair.  Bilinear, antisymmetric, and normalized so
    that omega((1, 0), (0, 1)) = -1/2.
    """
    x1, y1 = _coords(z1)
    x2, y2 = _coords(z2)
    return 0.5 * (x2 * y1 - x1 * y2)


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid over [-L, L)^2 with M nodes per axis (M even)."""

    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError("grid half-width must be positive and finite")
        m = self.points_per_axis
        if not isinstance(m, (int, np.integer)) or m < 2 or m % 2 != 0:
            raise ValueError("points_per_axis must be an even integer >= 2")

    @property
    def h(self) -> float:
        """Node spacing 2L/M."""
        return 2.0 * self.half_width / self.points_per_axis

    def axis(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.points_per_axis)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinates with x varying along axis 0."""
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

    def cell_area(self) -> float:
        return self.h * self.h

    def index_of(self, z) -> tuple[int, int]:
        """Indices of the node at z; z must sit on a node within 1e-9 cells."""
        x, y = _coords(z)
        ix = (x + self.half_width) / self.h
        iy = (y + self.half_width) / self.h
        i, j = round(ix), round(iy)
        if abs(ix - i) > 1e-9 or abs(iy - j) > 1e-9:
            raise ValueError(f"point ({x}, {y}) is not a grid node")
        if not (0 <= i < self.points_per_axis and 0 <= j < self.points_per_axis):
            raise ValueError(f"point ({x}, {y}) lies outside the grid")
        return i, j

    def compatible_with(self, other: "GridSpec") -> bool:
        return abs(self.h - other.h) <= 1e-12 * max(self.h, other.h)


@dataclass
class GridMeasure:
    """Complex measure as cell weights on a grid: weights[i, j] is the mass
    attached to the node (x_i, y_j)."""

    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=complex)
        m = self.grid.points_per_axis
        if self.weights.shape != (m, m):
            raise ValueError(
                f"weights must have shape ({m}, {m}), got {self.weights.shape}"
            )

    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def total_mass(self) -> complex:
        return complex(self.weights.sum())

    def _binop(self, other: "GridMeasure", sign: float) -> "GridMeasure":
        if self.grid != other.grid:
            raise ValueError("measures live on different grids")
        return GridMeasure(self.grid, self.weights + sign * other.weights)

    def __add__(self, other: "GridMeasure") -> "GridMeasure":
        return self._binop(other, 1.0)

    def __sub__(self, other: "GridMeasure") -> "GridMeasure":
        return self._binop(other, -1.0)

    def scaled(self, c: complex) -> "GridMeasure":
        return GridMeasure(self.grid, c * self.weights)


def measure_from_atoms(
    grid: GridSpec, atoms: Iterable[tuple[object, complex]]
) -> GridMeasure:
    """Atomic measure from (point, weight) pairs; points must be grid nodes."""
    w = np.zeros((grid.points_per_axis, grid.points_per_axis), dtype=complex)
    for z, c in atoms:
        i, j = grid.index_of(z)
        w[i, j] += c
    return GridMeasure(grid, w)


# ---------------------------------------------------------------------------
# Symplectic Fourier transform
# ---------------------------------------------------------------------------

def symplectic_ft_at(mu: GridMeasure, points: np.ndarray) -> np.ndarray:
    """Transform of ``mu`` at arbitrary dual points, shape (P, 2) -> (P,)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x = mu.grid.axis()
    # phase[p, i, j] = exp(i*(x_i*b_p - a_p*y_j)/2); factorize per point
    ex = np.exp(0.5j * np.outer(pts[:, 1], x))  # [p, x]
    ey = np.exp(-0.5j * np.outer(pts[:, 0], x))  # [p, y]
    return np.einsum("pi,ij,pj->p", ex, mu.weights, ey, optimize=True)


def _centered_dft(values: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """DFT with both index sets centered at M/2.

    Computes out[a] = sum_b exp(sign * 2j*pi*(a - M/2)*(b - M/2)/M) v[b]
    along ``axis``.  Requires M divisible by 4 so the constant phase
    i**(sign*M) collapses to 1.
    """
    m = values.shape[axis]
    if m % 4 != 0:
        raise ValueError("centered DFT requires M divisible by 4")
    shape = [1] * values.ndim
    shape[axis] = m
    alt = ((-1.0) ** np.arange(m)).reshape(shape)
    if sign < 0:
        core = np.fft.fft(values * alt, axis=axis)
    else:
        core = np.fft.ifft(values * alt, axis=axis) * m
    return alt * core


def inverse_symplectic_lattice(
    dual_values: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Inverse symplectic transform from the conjugate lattice onto ``grid``.

    The conjugate lattice of a grid with spacing h and M nodes per axis is
    the grid with spacing eta = 4*pi/(M*h); on that pairing the kernel
    exp(-i*omega(zeta, z)) reduces to a pair of centered DFTs.  Input and
    output are (M, M) tables; the result approximates

        f(z) = (1/(16*pi^2)) * integral exp(-i*omega(zeta, z)) F(zeta) dzeta.
    """
    m = grid.points_per_axis
    eta = 4.0 * math.pi / (m * grid.h)
    # f[ax, ay] = sum_{bx, by} F[bx, by] e^{-i x(ax) zeta_y(by)/2} e^{+i zeta_x(bx) y(ay)/2}
    # x(a)*eta*(b - M/2)/2 = (2*pi/M)(a - M/2)(b - M/2): centered DFT pairs.
    t = _centered_dft(dual_values, axis=1, sign=-1)  # contracts by -> index ax
    out = _centered_dft(t, axis=0, sign=+1)  # contracts bx -> index ay
    # after the two passes axes are (ax from old axis 1, ay from old axis 0)
    return out.T * (eta * eta / (16.0 * math.pi**2))


def conjugate_lattice(grid: GridSpec) -> GridSpec:
    """Dual grid on which the symplectic kernel is exactly DFT-resolved."""
    m = grid.points_per_axis
    eta = 4.0 * math.pi / (m * grid.h)
    return GridSpec(half_width=eta * m / 2.0, points_per_axis=m)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def convolve(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """Convolution of two grid measures by exact cell-index summation.

    Node sums land on nodes again because both grids share the spacing h,
    so the full linear convolution of the weight tables is exact at grid
    scale; there is no circular wraparound.  The result lives on the
    enlarged grid of half-width L1 + L2, so no weight is lost.
    """
    if not mu.grid.compatible_with(nu.grid):
        raise ValueError("convolution requires equal grid spacings")
    m1, m2 = mu.grid.points_per_axis, nu.grid.points_per_axis
    full = signal.convolve(mu.weights, nu.weights, mode="full", method="auto")
    # index k <-> coordinate -(L1+L2) + k*h, k = 0..m1+m2-2; pad to even M.
    m_out = m1 + m2
    big = GridSpec(half_width=mu.grid.half_width + nu.grid.half_width,
                   points_per_axis=m_out)
    weights = np.zeros((m_out, m_out), dtype=complex)
    weights[: m1 + m2 - 1, : m1 + m2 - 1] = full
    return GridMeasure(big, weights)


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------

def gaussian_density(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Density of the heat-flow Gaussian at time t > 0.

    Normalized so the symplectic transform is exp(-t*|zeta|^2); with the
    half-angle kernel this forces

        u_t(z) = exp(-|z|^2 / (16 t)) / (16 pi t).
    """
    return np.exp(-(x * x + y * y) / (16.0 * t)) / (16.0 * math.pi * t)


def gaussian_measure(t: float, grid: GridSpec) -> GridMeasure:
    """Midpoint-sampled heat Gaussian, renormalized to unit mass.

    Rejects grids that truncate more than 1e-9 of the mass (radial tail
    exp(-L^2/(16t)) plus quadrature defect).
    """
    if not t > 0:
        raise ValueError("gaussian measure requires t > 0")
    x, y = grid.mesh()
    w = gaussian_density(t, x, y) * grid.cell_area()
    captured = float(w.sum())
    if captured < 1.0 - _GAUSSIAN_CAPTURE:
        raise ValueError(
            f"grid captures mass {captured:.12f} < 1 - {_GAUSSIAN_CAPTURE:g}; widen it"
        )
    return GridMeasure(grid, (w / captured).astype(complex))


def default_gaussian_grid(t: float) -> GridSpec:
    """A grid wide enough to capture the time-t Gaussian and fine enough to
    transform onto duals of half-width 4."""
    radius = math.sqrt(16.0 * t * math.log(1.0 / _GAUSSIAN_CAPTURE)) * 1.02
    sigma = math.sqrt(8.0 * t)
    h_max = min(ALIAS_GUARD / 4.0 * 0.75, sigma / 3.0)
    m = int(math.ceil(2.0 * radius / h_max / 2.0) * 2)
    return GridSpec(half_width=radius, points_per_axis=m)


def cauchy_measure(
    t: float, grid: GridSpec, max_deficit: float = 1e-2
) -> GridMeasure:
    """Product-Cauchy measure whose transform is exp(-t*(|a| + |b|)).

    The half-angle in the kernel doubles the scale: each axis carries a
    one-dimensional Cauchy density with scale 2t, integrated exactly over
    cells via arctan differences.  Heavy tails make perfect capture
    impossible on a finite grid, so the un-renormalized deficit is checked
    against ``max_deficit`` and the kept mass is rescaled to 1.
    """
    if not t > 0:
        raise ValueError("cauchy measure requires t > 0")
    gamma = 2.0 * t
    ax = grid.axis()
    hi = (ax + grid.h / 2.0) / gamma
    lo = (ax - grid.h / 2.0) / gamma
    cell = (np.arctan(hi) - np.arctan(lo)) / math.pi
    w = np.outer(cell, cell)
    captured = float(w.sum())
    if 1.0 - captured > max_deficit:
        raise ValueError(
            f"cauchy tails leave mass deficit {1.0 - captured:.3g} > "
            f"{max_deficit:g}; widen the grid"
        )
    return GridMeasure(grid, (w / captured).astype(complex))


# ---------------------------------------------------------------------------
# Plateau profile and the band-limited approximant
# ---------------------------------------------------------------------------

def _bump_profile(s: np.ndarray) -> np.ndarray:
    """Standard C-infinity bump on [0, 1), zero outside."""
    out = np.zeros_like(s, dtype=float)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def plateau_profile(delta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Radial profile G with G = 1 on r <= delta/4 and G = 0 on r >= delta/2.

    G is the disk indicator of radius 3*delta/8 convolved with a radial
    bump mollifier of radius delta/16.  For a probe at distance r, the
    mollifier ring of radius s contributes the fraction of its circumference
    lying inside the disk, which is an explicit arccos, so the convolution
    collapses to a single 512-node radial quadrature.  The plateau
    conditions hold exactly (with margin delta/16 on each side) because
    the mollifier mass is normalized by the same quadrature rule.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    disk_r = 3.0 * delta / 8.0
    moll_r = delta / 16.0
    s = (np.arange(512) + 0.5) * (moll_r / 512)
    ring = _bump_profile(s / moll_r) * 2.0 * math.pi * s
    norm = ring.sum()

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        vals = np.where(r <= disk_r - moll_r, 1.0, 0.0)
        # only the transition annulus needs the quadrature; the clamps above
        # realize the exact plateau and exact vanishing
        band = (r > disk_r - moll_r) & (r < disk_r + moll_r)
        if band.any():
            rr = r[band][:, None]
            ss = s[None, :]
            cosang = (rr * rr + ss * ss - disk_r * disk_r) / (2.0 * rr * ss)
            frac = np.arccos(np.clip(cosang, -1.0, 1.0)) / math.pi
            vals[band] = (ring[None, :] * frac).sum(axis=1) / norm
        return vals

    return profile


def sqrt_density_ft(t: float, dual_points_r: np.ndarray) -> np.ndarray:
    """Closed form for the transform of sqrt(gaussian density):
    8*sqrt(pi*t) * exp(-2*t*r^2)."""
    return 8.0 * math.sqrt(math.pi * t) * np.exp(-2.0 * t * dual_points_r**2)


def band_limited_approximant(
    t: float, delta: float, grid: GridSpec
) -> GridMeasure:
    """Probability measure close to the time-t Gaussian whose transform is
    supported in the disk |zeta| <= delta.

    Construction: q_hat = (plateau profile) * (transform of f_t) on the
    conjugate lattice of ``grid``; q = inverse transform of q_hat; the
    measure has cell weights h^2*|q|^2, rescaled to unit mass.  Since
    q_hat vanishes outside |zeta| <= 7*delta/16, the measure's transform
    is a lattice autocorrelation supported inside |zeta| <= 7*delta/8,
    strictly inside the delta disk; off-lattice leakage is bounded by the
    (tiny) mass of q*q-bar beyond the grid edge.

    As t grows the measure tracks the Gaussian: total_variation of the
    difference decays once t*delta^2 is large.
    """
    if not t > 0:
        raise ValueError("approximant requires t > 0")
    if not delta > 0:
        raise ValueError("approximant requires delta > 0")
    lattice = conjugate_lattice(grid)
    eta = lattice.h
    if eta >= delta / 16.0 * (1 + 1e-12):
        raise ValueError(
            "grid too small: conjugate lattice spacing "
            f"{eta:.4g} must resolve delta/16 = {delta / 16.0:.4g}"
        )
    zx, zy = lattice.mesh()
    r = np.hypot(zx, zy)
    ghat = plateau_profile(delta)(r.ravel()).reshape(r.shape)
    qhat = ghat * sqrt_density_ft(t, r)
    q = inverse_symplectic_lattice(qhat, grid)
    w = np.abs(q) ** 2 * grid.cell_area()
    return GridMeasure(grid, (w / w.sum()).astype(complex))


def default_lemma_grid(delta: float) -> GridSpec:
    """Grid sized so the approximant's off-lattice transform leakage sits
    far below 1e-6 for t up to ~16 at the given delta."""
    half_width = max(200.0, 64.0 * math.pi / delta)
    m = int(math.ceil(half_width / 0.25 / 4.0) * 4)
    return GridSpec(half_width=half_width, points_per_axis=m)
