"""Coefficient-space fields on the two-dimensional torus.

A real field f(x) = sum_n c_n e^{i n.x}, n in Z^2, is stored as the finite
coefficient block {|n_1| <= max_mode, |n_2| <= max_mode} of a complex array
kept Hermitian (c_{-n} = conj(c_n)), so the field it represents is real.
The torus is normalized to unit volume: integrate(f) returns c_0 and
inner_product(f, g) = sum_n f_n g_{-n} is the L^2 pairing (Parseval).

Fields reach the grid through grid_stack, which takes every coefficient
block of one window, a whole block of Monte Carlo states' factors
included, to the grid in one pruned transform (an ifft down the K + 1
columns of the n2 >= 0 half of each block, then an irfft along the rows),
and come back through rfft2.  A product of four
window-K fields has modes up to 4K, so its plain mean on quadrature_grid(K)
>= 4K + 1 points per direction is its exact integral.  The direct product
convolves coefficient arrays and is kept as an independent oracle.

A field built from outside (SpectralField(max_mode, coeffs)) has its
block checked for shape, finite entries and Hermitian symmetry; the
package's own operations build their results unchecked.  Fields are
immutable after construction and every operation is a pure function of
its inputs, so values can be shared freely across threads and worker
processes.

Fourier multipliers (Bessel and Riesz powers, dyadic blocks, derivatives)
act on coefficients; project_ball is the projection Pi_N onto the ball
|n| <= N, and _cube_half the truncated cube Pi_N((Pi_N u)^3) that the
flow steps with.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len, rfft2

_HERMITIAN_TOL = 1e-12


class SpectralError(ValueError):
    """A field or multiplier violated its domain contract."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=128)
def _mode_axis(max_mode: int) -> np.ndarray:
    return _frozen(np.arange(-max_mode, max_mode + 1))


@lru_cache(maxsize=128)
def _sq_modulus(max_mode: int) -> np.ndarray:
    # |n|^2 on the coefficient block
    ax = _mode_axis(max_mode).astype(float)
    return _frozen(ax[:, None] ** 2 + ax[None, :] ** 2)


@lru_cache(maxsize=128)
def _sq_bracket(max_mode: int) -> np.ndarray:
    # 1 + |n|^2
    return _frozen(1.0 + _sq_modulus(max_mode))


def _hermitian_defect(coeffs: np.ndarray) -> float:
    return float(np.abs(coeffs - np.conj(coeffs[::-1, ::-1])).max())


def _from_half(half: np.ndarray) -> np.ndarray:
    """Hermitian block from its n2 >= 0 columns, the rest by conjugate mirror."""
    K = half.shape[1] - 1
    c = np.empty((2 * K + 1, 2 * K + 1), np.complex128)
    c[:, K:] = half
    c[:, :K] = np.conj(half[::-1, K:0:-1])
    c[:K, K] = np.conj(c[:K:-1, K])
    c[K, K] = c[K, K].real
    return c


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Real field on the torus, stored as its centered coefficient block.

    coeffs[i, j] is the coefficient of e^{i n.x} with n = (i - max_mode,
    j - max_mode).  Coefficients outside the block are implicitly zero.
    """

    max_mode: int
    coeffs: np.ndarray
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted: bool) -> None:
        if _trusted:
            # Freshly built by an internal op: already Hermitian, not shared.
            self.coeffs.flags.writeable = False
            return
        if self.max_mode < 0:
            raise SpectralError(f"max_mode must be >= 0, got {self.max_mode}")
        c = np.array(self.coeffs, dtype=np.complex128)
        side = 2 * self.max_mode + 1
        if c.shape != (side, side):
            raise SpectralError(
                f"coefficient block must have shape {(side, side)}, got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise SpectralError("coefficients must be finite")
        scale = max(float(np.abs(c).max()), 1.0)
        if _hermitian_defect(c) > _HERMITIAN_TOL * scale:
            raise SpectralError("coefficients are not Hermitian-symmetric")
        object.__setattr__(self, "coeffs", _frozen(c))


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A point (u, v) of phase space; both components share one window."""

    u: SpectralField
    v: SpectralField

    def __post_init__(self) -> None:
        if self.u.max_mode != self.v.max_mode:
            raise SpectralError(
                "phase-space components must share max_mode, got "
                f"{self.u.max_mode} and {self.v.max_mode}"
            )

    @property
    def max_mode(self) -> int:
        return self.u.max_mode


# -- constructors ----------------------------------------------------------


def zero_field(max_mode: int) -> SpectralField:
    return SpectralField(max_mode, np.zeros((2 * max_mode + 1,) * 2, np.complex128),
                         _trusted=True)


# -- Fourier multipliers ----------------------------------------------------


@dataclass(frozen=True)
class Multiplier:
    """Diagonal operator c_n -> symbol(n) c_n; build via the factories below."""

    kind: str
    exponent: float = 0.0
    cutoff: int = 0
    order: tuple = (0, 0)


def bessel_power(sigma: float) -> Multiplier:
    """Symbol (1 + |n|^2)^(sigma/2): smoothing for sigma < 0."""
    if not math.isfinite(sigma):
        raise SpectralError("bessel_power exponent must be finite")
    return Multiplier("bessel_power", exponent=float(sigma))


def riesz_power(sigma: float) -> Multiplier:
    """Symbol |n|^sigma with the zero mode annihilated for sigma > 0.

    For sigma < 0 the operator is only defined on mean-zero fields;
    apply_multiplier raises on a field with nonzero mean.
    """
    if not math.isfinite(sigma):
        raise SpectralError("riesz_power exponent must be finite")
    return Multiplier("riesz_power", exponent=float(sigma))


def dyadic_block(block: int) -> Multiplier:
    """Keeps the shell block <= (1 + |n|^2)^(1/2) < 2 * block."""
    if block < 0:
        raise SpectralError("dyadic_block parameter must be >= 0")
    return Multiplier("dyadic_block", cutoff=int(block))


def derivative(order1: int, order2: int) -> Multiplier:
    """Partial derivative of multi-order (order1, order2): symbol (i n)^order."""
    if order1 < 0 or order2 < 0:
        raise SpectralError("derivative orders must be >= 0")
    return Multiplier("derivative", order=(int(order1), int(order2)))


@lru_cache(maxsize=512)
def _symbol(m: Multiplier, max_mode: int) -> np.ndarray:
    sq_mod = _sq_modulus(max_mode)
    if m.kind == "bessel_power":
        sym = _sq_bracket(max_mode) ** (m.exponent / 2.0)
    elif m.kind == "riesz_power":
        if m.exponent == 0.0:
            sym = np.ones_like(sq_mod)
        else:
            with np.errstate(divide="ignore"):
                sym = sq_mod ** (m.exponent / 2.0)
            # |0|^sigma = 0 for sigma > 0; the sigma < 0 mean check happens
            # in apply_multiplier before this symbol is used.
            sym[max_mode, max_mode] = 0.0
    elif m.kind == "dyadic_block":
        br = _sq_bracket(max_mode)
        sym = ((br >= m.cutoff**2) & (br < 4 * m.cutoff**2)).astype(float)
    elif m.kind == "derivative":
        ax = _mode_axis(max_mode).astype(float)
        a1, a2 = m.order
        sym = (1j * ax[:, None]) ** a1 * (1j * ax[None, :]) ** a2
    else:
        raise SpectralError(f"unknown multiplier kind {m.kind!r}")
    return _frozen(sym)


def apply_multiplier(f: SpectralField, m: Multiplier) -> SpectralField:
    """Multiply coefficients by the symbol of m; same window as f."""
    K = f.max_mode
    if m.kind == "riesz_power" and m.exponent < 0 and f.coeffs[K, K] != 0:
        raise SpectralError(
            "riesz_power with negative exponent needs a mean-zero field "
            "(the zero mode would divide by |0|)"
        )
    return SpectralField(K, _multiply(f.coeffs, m), _trusted=True)


def _multiply(coeffs: np.ndarray, m: Multiplier) -> np.ndarray:
    """apply_multiplier on a coefficient block or a stack of them."""
    return coeffs * _symbol(m, coeffs.shape[-1] // 2)


def project_ball(f: SpectralField, cutoff: int) -> SpectralField:
    """Pi_N f for N = cutoff: the sharp projection onto the Euclidean ball
    |n| <= cutoff, on the block shrunk to min(max_mode, cutoff), which
    keeps downstream product grids tight."""
    return SpectralField(min(f.max_mode, cutoff), _ball(f.coeffs, cutoff), _trusted=True)


def _ball(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """project_ball on a coefficient block or a stack of them."""
    K = coeffs.shape[-1] // 2
    K_new = min(K, cutoff)
    return _crop(coeffs, K, K_new) * (_sq_modulus(K_new) <= cutoff**2)


def _crop(coeffs: np.ndarray, K: int, K_new: int) -> np.ndarray:
    lo, hi = K - K_new, K + K_new + 1
    return coeffs[..., lo:hi, lo:hi]


# -- grid transport ---------------------------------------------------------


def quadrature_grid(max_mode: int) -> int:
    """Grid on which a mean of four window-max_mode factors is exact."""
    return next_fast_len(4 * max_mode + 1, real=True)


def grid_stack(blocks, grid: int) -> np.ndarray:
    """Values on the grid x_j = 2 pi j / grid in each direction of
    coefficient blocks of one window: `blocks` is a sequence of arrays of
    one shape (..., 2K + 1, 2K + 1), a block or a stack of them each, and
    the result has shape (len(blocks), ..., grid, grid).

    The n2 >= 0 halves of the blocks are transformed together: one ifft
    along n1 over their K + 1 columns only (the other columns are zero),
    then one irfft along n2; bitwise the irfft2 of each zero-filled half.
    Requires grid >= 2 * max_mode + 1 so modes occupy distinct bins.
    """
    shapes = {b.shape for b in blocks}
    if len(shapes) != 1:
        raise SpectralError(f"grid_stack needs blocks of one shape, got {sorted(shapes)}")
    K = blocks[0].shape[-1] // 2
    if grid < 2 * K + 1:
        raise SpectralError(f"grid {grid} cannot hold window {K}")
    return _halves_to_grid([b[..., K:] for b in blocks], grid)


def _halves_to_grid(halves, grid: int) -> np.ndarray:
    """grid_stack from the n2 >= 0 half blocks of one window.  The spectrum
    is built with all grid // 2 + 1 columns irfft reads, so it pads none."""
    K = halves[0].shape[-1] - 1
    spec = np.zeros((len(halves), *halves[0].shape[:-2], grid, grid // 2 + 1),
                    np.complex128)
    rows = _mode_axis(K) % grid
    for i, half in enumerate(halves):
        spec[i][..., rows, :K + 1] = half
    cols = spec[..., :K + 1]
    out = ifft(cols, axis=-2, norm="forward", overwrite_x=True)
    if not np.may_share_memory(out, spec):  # pocketfft wrote elsewhere, not in place
        cols[...] = out
    return irfft(spec, n=grid, axis=-1, norm="forward")


def grid_values(f: SpectralField, grid: int) -> np.ndarray:
    """Values of f on the grid x_j = 2 pi j / grid in each direction."""
    return grid_stack((f.coeffs,), grid)[0]


def _from_grid(values: np.ndarray, max_mode: int) -> np.ndarray:
    """Window-max_mode coefficient block of real grid values (rfft2)."""
    spec = rfft2(values, norm="forward")
    return _from_half(spec[_mode_axis(max_mode) % values.shape[0], :max_mode + 1])


# -- products, integrals, norms ---------------------------------------------


def pointwise_product(f: SpectralField, g: SpectralField,
                      method: str = "fft") -> SpectralField:
    """Exact coefficients of the pointwise product f * g.

    The block widens to the sum of the factors' blocks, so no mode is
    truncated.  method="fft" samples both factors on a grid with
    2 * (K_f + K_g) + 1 or more points per direction (alias-free for every
    retained mode); method="direct" convolves coefficient arrays and serves
    as the independent oracle for the fast path.
    """
    K_out = f.max_mode + g.max_mode
    if method == "direct":
        from scipy.signal import convolve2d  # slow to import; oracle only
        c = _from_half(convolve2d(f.coeffs, g.coeffs, mode="full")[:, K_out:])
    elif method == "fft":
        grid = next_fast_len(2 * K_out + 1, real=True)
        fg = grid_values(f, grid)
        c = _from_grid(fg * (fg if g is f else grid_values(g, grid)), K_out)
    else:
        raise SpectralError(f"unknown product method {method!r}")
    return SpectralField(K_out, c, _trusted=True)


@lru_cache(maxsize=128)
def _ball_half(max_mode: int, cutoff: int) -> np.ndarray:
    """The n2 >= 0 half of the mask |n| <= cutoff on the window block,
    as complex128 (a product with coefficients casts it so anyway)."""
    K = max_mode
    return _frozen((_sq_modulus(K) <= cutoff**2)[:, K:].astype(np.complex128))


def _cube_half(half: np.ndarray, cutoff: int, window: int) -> np.ndarray:
    """n2 >= 0 half of the truncated cube Pi_N((Pi_N u)^3), N = cutoff, from
    the n2 >= 0 half of u.  The cube is formed alias-free on its own window
    K_out = min(cutoff, 3 min(K, cutoff)) and zero-padded to `window`.

    The working grid has at least 4 * cutoff + 2 points per direction
    (rounded up to an FFT-friendly size): folding from the cube's support
    then cannot reach any retained mode.  Column n2 = 0 is made Hermitian
    as _from_half makes it, so the half evolves like the full block.
    """
    K = half.shape[1] - 1
    Kw = min(K, cutoff)
    K_out = min(cutoff, 3 * Kw)
    grid = next_fast_len(max(4 * cutoff + 2, 3 * Kw + K_out + 2), real=True)
    w = half[K - Kw:K + Kw + 1, :Kw + 1] * _ball_half(Kw, cutoff)
    vals = _halves_to_grid((w,), grid)[0]
    cube = vals * vals
    cube *= vals
    c = rfft2(cube, norm="forward")[_mode_axis(K_out) % grid, :K_out + 1]
    c[:K_out, 0] = np.conj(c[:K_out:-1, 0])
    c[K_out, 0] = c[K_out, 0].real
    c *= _ball_half(K_out, cutoff)
    pad = window - K_out
    return np.pad(c, ((pad, pad), (0, pad))) if pad else c


def integrate(f: SpectralField) -> float:
    """Integral over the unit-volume torus: the zero-mode coefficient."""
    return float(f.coeffs[f.max_mode, f.max_mode].real)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2 pairing: integral of f g = sum_n f_n g_{-n} (Parseval)."""
    K = min(f.max_mode, g.max_mode)
    a = _crop(f.coeffs, f.max_mode, K)
    b = _crop(g.coeffs, g.max_mode, K)
    return float(_pairing(a[None], b[None])[0])


def sobolev_norm(p: PhaseState, sigma: float) -> float:
    """Norm of (u, v) in H^sigma x H^(sigma-1) via bracket-weighted sums."""
    K = p.max_mode
    br = _sq_bracket(K)
    uu = np.sum(br ** sigma * np.abs(p.u.coeffs) ** 2)
    vv = np.sum(br ** (sigma - 1.0) * np.abs(p.v.coeffs) ** 2)
    return float(np.sqrt(uu + vv))


def grid_sup_norm(f: SpectralField) -> float:
    """Max of |f| over an equispaced grid of 4 (2K+1) points per direction."""
    return float(_sup_norms(f.coeffs[None])[0])


def _sup_norms(coeffs: np.ndarray) -> np.ndarray:
    """grid_sup_norm of each block of a (B, 2K + 1, 2K + 1) stack."""
    grid = 4 * coeffs.shape[-1]
    return np.abs(grid_stack((coeffs,), grid)[0]).reshape(len(coeffs), -1).max(axis=1)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each row of a stack over all its other axes: a row is
    flattened and summed as the whole array of one state would be (the
    reduction ndarray.sum calls, without its wrapper)."""
    return np.add.reduce(x.reshape(len(x), -1), axis=1)


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """inner_product of each pair of rows of two stacks of one window.
    g_{-n} = conj(g_n), so the pairing is Re sum a conj(b); plain NumPy
    sums keep it off the threaded BLAS dot product."""
    return _row_sum(a.real * b.real) + _row_sum(a.imag * b.imag)


# -- serialization ----------------------------------------------------------


@lru_cache(maxsize=64)
def _half_lattice(max_mode: int):
    """Flat block indices of the stored half (n2 > 0, or n2 = 0 and
    n1 >= 0) in lexicographic (n1, n2) order, and of their mirrors -n,
    whose coefficients Hermitian symmetry implies.  n = 0 is at position
    K^2 of the order."""
    ax = _mode_axis(max_mode)
    n1, n2 = ax[:, None], ax[None, :]
    flat = np.flatnonzero((n2 > 0) | ((n2 == 0) & (n1 >= 0)))  # C order is lexicographic
    return _frozen(flat), _frozen((2 * max_mode + 1) ** 2 - 1 - flat)


def field_to_dict(f: SpectralField) -> dict:
    K = f.max_mode
    flat, _ = _half_lattice(K)
    n1, n2 = np.divmod(flat, 2 * K + 1)
    c = f.coeffs.ravel()[flat]
    rows = zip((n1 - K).tolist(), (n2 - K).tolist(), c.real.tolist(), c.imag.tolist())
    return {"max_mode": K, "coeffs": [list(row) for row in rows]}


def field_from_dict(d: dict) -> SpectralField:
    K = int(d["max_mode"])
    c = np.zeros((2 * K + 1, 2 * K + 1), np.complex128)
    for n1, n2, re, im in d["coeffs"]:
        n1, n2 = int(n1), int(n2)
        if not (n2 > 0 or (n2 == 0 and n1 >= 0)):
            raise SpectralError(f"serialized mode {(n1, n2)} is not in the stored half")
        if abs(n1) > K or abs(n2) > K:
            raise SpectralError(f"serialized mode {(n1, n2)} outside window {K}")
        c[n1 + K, n2 + K] = complex(re, im)
        c[-n1 + K, -n2 + K] = complex(re, -im)
    return SpectralField(K, c)


def state_to_dict(p: PhaseState) -> dict:
    return {"u": field_to_dict(p.u), "v": field_to_dict(p.v)}


def state_from_dict(d: dict) -> PhaseState:
    return PhaseState(field_from_dict(d["u"]), field_from_dict(d["v"]))
