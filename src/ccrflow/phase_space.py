"""Measure algebra on the phase plane.

The phase plane R^2 carries the symplectic form

    omega((x, y), (x', y')) = (x'y - xy') / 2,

and finite measures on it form an algebra under convolution.  The
symplectic Fourier transform

    mu_hat(zeta) = integral of exp(i*omega(zeta, z)) dmu(z)

turns convolution into pointwise multiplication and sends the Gaussian
family onto the heat multipliers exp(-t*|zeta|^2).  Everything here is
discretized on uniform square grids: a measure is a table of real or
complex cell weights, and its transform is a plain (factorized) sum over
cells at the requested dual points, so no FFT periodicity artifacts enter
unless a routine explicitly opts in.  symplectic_ft_at, the one transform
that takes complex tables, sums one as its real part plus i times its
imaginary part, each through one real engine.  That engine folds
each axis about its node 0 onto the half axis (cos rows meet even parts,
sin rows odd parts) and sums over chunks of points.  On the conjugate
lattice, for real tables only, the Hermitian half rows come forward by a
real FFT of column blocks and inverse by products over the block of
nonzero values, with no (M, M) temporary; the lemma mirrors moduli only.

Grid convention: a ``GridSpec`` with half-width L and M points per axis
places nodes at h*(k - M/2) for k = 0..M-1 with h = 2L/M, covering
[-L, L)^2.  M is even, so the origin is always a node, exactly 0.0, and
every node but the edge -L has its mirror at exactly minus itself: a
measure symmetric under z -> -z is symmetric in floating point too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "GridSpec",
    "GridMeasure",
    "omega",
    "symplectic_ft_at",
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

#: Entries of a per-chunk table: symplectic_ft_at's (points x M) products
#: (81 points at M = 808), _dft_half's blocks of 81 columns or rows there,
#: and plateau_profile's (radii x 512) quadrature.
_CHUNK_ENTRIES = 1 << 16


def _coords(z) -> tuple[float, float]:
    x, y = z
    return float(x), float(y)


def omega(z1, z2):
    """Symplectic form omega(z1, z2) = (x2*y1 - x1*y2) / 2.

    Accepts (x, y) pairs or broadcastable arrays of them, shape (..., 2).
    Bilinear, antisymmetric, and normalized so that omega((1, 0), (0, 1)) = -1/2.
    """
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    return 0.5 * (z2[..., 0] * z1[..., 1] - z1[..., 0] * z2[..., 1])


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid over [-L, L)^2 with M nodes per axis (M even),
    node k at h*(k - M/2): node M/2 is 0.0, and the axis is exactly antisymmetric."""

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
        return self.h * (np.arange(self.points_per_axis) - self.points_per_axis // 2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinates with x varying along axis 0."""
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

    def cell_area(self) -> float:
        return self.h * self.h

    def index_of(self, z) -> tuple[int, int]:
        """Indices of the node at z; z must sit on a node within 1e-9 cells."""
        x, y = _coords(z)
        ix = x / self.h + self.points_per_axis // 2
        iy = y / self.h + self.points_per_axis // 2
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
    """Measure as cell weights on a grid: weights[i, j] is the mass attached
    to the node (x_i, y_j), float64 for real data, complex128 otherwise."""

    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        self.weights = w.astype(complex if np.iscomplexobj(w) else float, copy=False)
        m = self.grid.points_per_axis
        if self.weights.shape != (m, m):
            raise ValueError(
                f"weights must have shape ({m}, {m}), got {self.weights.shape}"
            )

    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def __sub__(self, other: "GridMeasure") -> "GridMeasure":
        if self.grid != other.grid:
            raise ValueError("measures live on different grids")
        return GridMeasure(self.grid, self.weights - other.weights)


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

def _fold(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts v[M/2 + k] +- v[M/2 - k] of v along its last axis,
    on the half axis k = 0..M/2: the origin counts once, and the edge node
    -L folds in as the mirror of +L, which carries no node."""
    m = v.shape[-1] // 2
    even, odd = np.zeros((2, *v.shape[:-1], m + 1), dtype=v.dtype)
    even[..., :m] = odd[..., :m] = v[..., m:]
    even[..., 1:] += v[..., m - 1::-1]
    odd[..., 1:] -= v[..., m - 1::-1]
    even[..., 0] += 0.0  # the origin pairs with a zero: v[M/2] + 0 turns -0.0 into +0.0
    return even, odd


def _half_axis_phases(theta: np.ndarray, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of theta_p*h*k, shape (P, n), k = 0..n-1, from coarse and
    fine factors exp(i*theta*h*(J*q + r)) = exp(i*theta*h*J*q) * exp(i*theta*h*r)."""
    j = math.isqrt(n - 1) + 1
    fine = np.exp(1j * np.outer(theta * h, np.arange(j)))
    coarse = np.exp(1j * np.outer(theta * (h * j), np.arange(j)))
    table = (coarse[:, :, None] * fine[:, None, :]).reshape(len(theta), -1)[:, :n]
    return table.real.copy(), table.imag.copy()


def symplectic_ft_at(mu: GridMeasure, points: np.ndarray) -> np.ndarray:
    """Transform of ``mu`` at arbitrary dual points, shape (P, 2) -> (P,).

    The phase exp(i*(x_i*b_p - a_p*y_j)/2) factorizes per point, and each
    axis is symmetric about its node 0, so both factors fold onto the half
    axis 0, h, .., L: cos rows meet the even part of the weights, sin rows
    the odd part.  The weights fold once; then, per chunk of points, two
    real (P x (M/2+1))((M/2+1) x M) products run along x and the y fold
    finishes each point's sum.  Only BLAS edge tiles may round a point
    differently in another chunk; at M = 808 no chunk of 2 or more does."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = mu.grid.points_per_axis // 2 + 1
    step = max(1, _CHUNK_ENTRIES // mu.grid.points_per_axis)

    def real_ft(w: np.ndarray) -> np.ndarray:
        even, odd = _fold(w.T)
        out = np.empty(len(pts), dtype=complex)
        for start in range(0, len(pts), step):
            cos_x, sin_x = _half_axis_phases(0.5 * pts[start:start + step, 1], mu.grid.h, n)
            cos_y, sin_y = _half_axis_phases(0.5 * pts[start:start + step, 0], mu.grid.h, n)
            # sum_x w e^{+i b x/2} = re + i im, then sum_y (re + i im) e^{-i a y/2}
            re_even, re_odd = _fold(cos_x @ even.T)
            im_even, im_odd = _fold(sin_x @ odd.T)
            out[start:start + step] = ((re_even * cos_y + im_odd * sin_y).sum(axis=1)
                                       + 1j * (im_even * cos_y - re_odd * sin_y).sum(axis=1))
        return out

    w = mu.weights
    if np.iscomplexobj(w):  # real part plus i times imaginary part
        return real_ft(w.real) + 1j * real_ft(w.imag)
    return real_ft(w)


def _column_band(values: np.ndarray) -> slice:
    """Columns from the first to the last nonzero one (none in a zero table)."""
    cols = np.flatnonzero(values.any(axis=0))
    return slice(cols[0], cols[-1] + 1) if len(cols) else slice(0, 0)


def _symmetrize_edges(half: np.ndarray) -> np.ndarray:
    """Rows 0 and M/2 of a real table's centered DFT, their own mirrors, made Hermitian in place."""
    m = half.shape[1]
    edge = [0, m // 2]
    half[edge] = 0.5 * (half[edge] + half[edge][:, -np.arange(m) % m].conj())
    return half


def _mirror_half(table: np.ndarray) -> np.ndarray:
    """Rows M/2 + 1.. of an (M, M) table whose rows a0 <= M/2 hold a real
    table's centered DFT, or its moduli, filled in place by
    F[-a0, -a1] = conj(F[a0, a1])."""
    m = table.shape[1]
    low = table[m // 2 - 1:0:-1]  # rows M/2 - 1..1; column 0 is its own mirror
    np.conjugate(low[:, 0], out=table[m // 2 + 1:, 0])
    np.conjugate(low[:, :0:-1], out=table[m // 2 + 1:, 1:])
    return table


def _dft_half(values: np.ndarray) -> np.ndarray:
    """Rows a0 <= M/2 of the centered DFT,
    out[a] = sum_b exp(s*2j*pi*(a - M/2)*(b - M/2)/M) v[b], of a real (M, M)
    table, s = -1 along axis 0 then s = +1 along axis 1.  With M divisible by
    4 that is a plain 2-D DFT between checkerboards (-1)**(a0 + a1): rffts of
    signed column blocks, then a second pass and the signs of row blocks on
    the half in place, with no (M, M) temporary.  Mirrored, its entry
    [by, bx] is the conjugate of the forward transform of the weights at the
    node (bx, by) of conjugate_lattice; the band-limit check reads the
    half's moduli."""
    m = values.shape[0]
    if m % 4 != 0:
        raise ValueError("centered DFT requires M divisible by 4")
    alt = (-1.0) ** np.arange(m)
    half = np.empty((m // 2 + 1, m), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // m)
    for start in range(0, m, step):
        sl = slice(start, start + step)
        half[:, sl] = np.fft.rfft(values[:, sl] * np.multiply.outer(alt, alt[sl]), axis=0)
    np.fft.ifft(half, axis=1, norm="forward", out=half)
    row_signs = alt[: m // 2 + 1]
    for start in range(0, len(row_signs), step):
        half[start:start + step] *= np.multiply.outer(row_signs[start:start + step], alt)
    return _symmetrize_edges(half)


def _unit_roots(m: int) -> np.ndarray:
    """exp(2j*pi*k/M), k = 0..M-1: each angle is folded into the first
    octant, then carried back by an exact swap and quarter turn."""
    if m % 4 != 0:
        raise ValueError("centered DFT requires M divisible by 4")
    quarter, k = np.divmod(np.arange(m), m // 4)
    swap = 8 * k > m
    roots = np.exp(2j * math.pi * np.where(swap, m // 4 - k, k) / m)
    return np.where(swap, 1j * roots.conj(), roots) * np.array([1, 1j, -1, -1j])[quarter]


def _centered_phases(m: int, a: np.ndarray, b: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign*2j*pi*(a - M/2)*(b - M/2)/M) on the index sets a x b."""
    return _unit_roots(m)[sign * np.multiply.outer(a - m // 2, b - m // 2) % m]


def _block_half(block: np.ndarray, box: slice, m: int) -> np.ndarray:
    """_dft_half of the real (M, M) table that holds ``block`` on box x box
    and zeros elsewhere, by products over the block's nonzero band.  Fed F.T,
    for F a table on conjugate_lattice, these are rows ax <= M/2 of the
    inverse sum over zeta of exp(-i*omega(zeta, z)) F(zeta) at the nodes z."""
    rows, cols = _column_band(block.T), _column_band(block)
    k = np.arange(m)
    half = (_centered_phases(m, k[: m // 2 + 1], k[box][rows], -1) @ block[rows, cols]
            @ _centered_phases(m, k[box][cols], k, 1))
    return _symmetrize_edges(half)


def conjugate_lattice(grid: GridSpec) -> GridSpec:
    """Dual grid on which the symplectic kernel is exactly DFT-resolved."""
    m = grid.points_per_axis
    eta = 4.0 * math.pi / (m * grid.h)
    return GridSpec(half_width=eta * m / 2.0, points_per_axis=m)


def _lattice_box(grid: GridSpec, radius: float) -> tuple[slice, np.ndarray]:
    """The centered box of conjugate_lattice(grid), clipped to the lattice,
    that holds every node within ``radius`` of 0, and |zeta| on it."""
    lattice = conjugate_lattice(grid)
    m, k = lattice.points_per_axis, math.ceil(radius / lattice.h) + 1
    box = slice(max(m // 2 - k, 0), m // 2 + k + 1)
    axis = lattice.axis()[box]
    return box, np.hypot(axis[:, None], axis[None, :])


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def convolve(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """Convolution of two grid measures by cell-index summation.

    Node sums land on nodes again because both grids share the spacing h,
    so the full linear convolution of the weight tables is exact at grid
    scale; it is taken through 2-D FFTs zero-padded to the full size
    m1 + m2 - 1, so there is no circular wraparound.  The result lives on
    the enlarged grid of half-width L1 + L2, so no weight is lost.
    """
    if not mu.grid.compatible_with(nu.grid):
        raise ValueError("convolution requires equal grid spacings")
    m1, m2 = mu.grid.points_per_axis, nu.grid.points_per_axis
    shape = (m1 + m2 - 1,) * 2
    full = np.fft.ifft2(np.fft.fft2(mu.weights, shape) * np.fft.fft2(nu.weights, shape))
    if not (np.iscomplexobj(mu.weights) or np.iscomplexobj(nu.weights)):
        full = full.real  # real tables keep float64 weights
    # index k <-> coordinate h*(k - (m1+m2)/2), k = 0..m1+m2-2; pad to even M.
    big = GridSpec(half_width=mu.grid.half_width + nu.grid.half_width,
                   points_per_axis=m1 + m2)
    return GridMeasure(big, np.pad(full, (0, 1)))


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
    # a product over the axes: density(x, y) = 16*pi*t * g(x) * g(y)
    g = gaussian_density(t, grid.axis(), 0.0)
    w = np.outer(g, g)
    w *= 16.0 * math.pi * t * grid.cell_area()
    captured = float(w.sum())
    if captured < 1.0 - _GAUSSIAN_CAPTURE:
        raise ValueError(
            f"grid captures mass {captured:.12f} < 1 - {_GAUSSIAN_CAPTURE:g}; widen it"
        )
    w /= captured
    return GridMeasure(grid, w)


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
    return GridMeasure(grid, w / captured)


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


@lru_cache(maxsize=2)
def _approximant_band(grid: GridSpec, delta: float) -> tuple[slice, np.ndarray, ...]:
    """The box of conjugate_lattice(grid) around |zeta| < 7*delta/16, |zeta|
    on it, its nodes inside disk_r + moll_r (plateau_profile's float
    expression), beyond which the profile is 0: where q_hat may be nonzero,
    and the profile there, read-only and shared by a lemma run's times."""
    box, radius = _lattice_box(grid, 7.0 * delta / 16.0)
    inside = radius < 3.0 * delta / 8.0 + delta / 16.0
    profile = plateau_profile(delta)(radius[inside])
    for a in (radius, inside, profile):
        a.setflags(write=False)
    return box, radius, inside, profile


def plateau_profile(delta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Radial profile G with G = 1 on r <= delta/4 and G = 0 on r >= delta/2.

    G is the disk indicator of radius 3*delta/8 convolved with a radial
    bump mollifier of radius delta/16.  For a probe at distance r, the
    mollifier ring of radius s contributes the fraction of its circumference
    lying inside the disk, which is an explicit arccos, so the convolution
    collapses to a single 512-node radial quadrature, over chunks of radii
    (bitwise the one-shot sum).  The plateau conditions hold exactly (with
    margin delta/16 on each side) because the mollifier mass is normalized
    by the same quadrature rule.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    disk_r = 3.0 * delta / 8.0
    moll_r = delta / 16.0
    s = (np.arange(512) + 0.5) * (moll_r / 512)
    ring = _bump_profile(s / moll_r) * 2.0 * math.pi * s
    norm = ring.sum()
    step = _CHUNK_ENTRIES // len(s)

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        vals = np.where(r <= disk_r - moll_r, 1.0, 0.0)
        # only the transition annulus needs the quadrature; the clamps above
        # realize the exact plateau and exact vanishing
        band = np.flatnonzero((r > disk_r - moll_r) & (r < disk_r + moll_r))
        for start in range(0, len(band), step):
            chunk = band[start:start + step]
            rr = r[chunk][:, None]
            cosang = (rr * rr + s * s - disk_r * disk_r) / (2.0 * rr * s)
            frac = np.arccos(np.clip(cosang, -1.0, 1.0)) / math.pi
            vals[chunk] = (ring * frac).sum(axis=1) / norm
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

    Construction: the real q_hat = (plateau profile) * (transform of f_t),
    evaluated on the conjugate-lattice nodes of ``grid`` inside
    |zeta| < 7*delta/16 (a box around 0 holds them), off which the profile
    is exactly 0; q = inverse transform of q_hat; the measure has real cell
    weights h^2*|q|^2, rescaled to unit mass, whose table takes the moduli
    of q's half rows and mirrors them in place.  Its transform is a lattice
    autocorrelation supported inside |zeta| <= 7*delta/8, strictly inside
    the delta disk; off-lattice leakage is bounded by the (tiny) mass of
    q*q-bar beyond the grid edge.

    As t grows the measure tracks the Gaussian: total_variation of the
    difference decays once t*delta^2 is large.
    """
    if not t > 0:
        raise ValueError("approximant requires t > 0")
    if not delta > 0:
        raise ValueError("approximant requires delta > 0")
    m = grid.points_per_axis
    eta = 4.0 * math.pi / (m * grid.h)  # the conjugate lattice spacing
    if eta >= delta / 16.0 * (1 + 1e-12):
        raise ValueError(
            "grid too small: conjugate lattice spacing "
            f"{eta:.4g} must resolve delta/16 = {delta / 16.0:.4g}"
        )
    box, r, inside, profile = _approximant_band(grid, delta)
    qhat = np.zeros(r.shape)  # on the box; zero on the rest of the lattice
    qhat[inside] = profile * sqrt_density_ft(t, r[inside])
    # q(z) = eta^2 / (16 pi^2) * sum_zeta exp(-i omega(zeta, z)) q_hat(zeta):
    # its half rows by products over the support box, then its moduli mirrored
    half = _block_half(qhat.T, box, m)
    half *= eta * eta / (16.0 * math.pi**2)
    w = np.empty((m, m))
    np.abs(half, out=w[: m // 2 + 1])
    _mirror_half(w)
    np.square(w, out=w)
    w *= grid.cell_area()
    w /= w.sum()
    return GridMeasure(grid, w)


def default_lemma_grid(delta: float) -> GridSpec:
    """Grid sized so the approximant's off-lattice transform leakage sits
    far below 1e-6 for t up to ~16 at the given delta: about 804 / delta
    nodes per axis below delta = 1, 800 up to 5.8 and about 137 delta past it.

    A grid measure's transform repeats every 4 pi / h along each axis.  The
    lemma check samples off-band points out to 3 delta, and the approximant's
    transform lives inside 7 delta / 8, so no sample folds back into the band
    while h < 32 pi / (31 delta): the spacing is 0.5, or that bound times
    0.9 where it is smaller.  Refused past 2^23 nodes (2,896 per axis, 128 MiB
    a complex table), which leaves delta from about 0.2777 to 21.13; 0.3
    takes 2,684 nodes per axis."""
    half_width = max(200.0, 64.0 * math.pi / delta)
    alias_free = 0.9 * 32.0 * math.pi / 31.0  # delta h within 0.9 of its alias bound
    h = min(0.5, alias_free / delta)
    quarters = 2.0 * half_width / h / 4.0  # inf at a tiny delta: compared before ceil
    if not quarters <= 724:  # M <= 4 * 724: half_width <= 724 and h >= 100 / 724
        lo, hi = 64.0 * math.pi / 724, alias_free * 7.24
        raise ValueError(f"delta {delta:g} needs a lemma grid past 2^23 nodes; "
                         f"the lemma grid takes delta from about {lo:.4g} to {hi:.4g}")
    return GridSpec(half_width=half_width, points_per_axis=int(math.ceil(quarters) * 4))
