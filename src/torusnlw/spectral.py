"""Coefficient-space fields on the two-dimensional torus.

A real field f(x) = sum_n c_n e^{i n.x}, n in Z^2, is stored as the finite
coefficient block {|n_1| <= max_mode, |n_2| <= max_mode} of a complex array
kept Hermitian (c_{-n} = conj(c_n)), so the field it represents is real.
The torus is normalized to unit volume: integrate(f) returns c_0 and
inner_product(f, g) = sum_n f_n g_{-n} is the L^2 pairing (Parseval).

Every block the package computes is the n2 >= 0 half of one, shape
(..., 2K + 1, K + 1): the draws, the symbols and masks, the ball, the
multipliers, the flow's steps and the Monte Carlo factors.  The full block
is built only where a SpectralField is returned; _mirror fills it from the
half and is the one owner of the Hermitian layout, and _lattice_sum is the
one owner of a full-block sum read off a half (weight 2 off column n2 = 0,
1 on it).  The public functions take the halves of their fields.

Halves reach the grid through grid_stack, one field's spectrum at a time
(an ifft down its K + 1 columns, then an irfft along the rows into its slot
of the output stack), a whole block of Monte Carlo states' factors at
once, and come back through the reverse: an rfft along the rows, then an
fft down only the columns of the window kept.  A product of four
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
flow steps with.  Its transforms write into work buffers (_cube_buffers)
that the caller owns: each trajectory of the flow owns one set.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

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


def _mirror(c: np.ndarray) -> np.ndarray:
    """Make c Hermitian in place from its n2 >= 0 half, and return it.

    c is a block of 2K + 1 rows, or a stack of them, whose last K + 1
    columns hold n2 = 0..K.  Any columns before them (n2 = -K..-1) and the
    n1 < 0 half of column n2 = 0 are filled by conjugate mirror, and the
    zero mode is made real, so a half block alone (K + 1 columns) gets
    only its column n2 = 0 made Hermitian."""
    K = c.shape[-2] // 2
    z = c.shape[-1] - K - 1  # the column of n2 = 0
    if z:
        c[..., :z] = np.conj(c[..., ::-1, :z:-1])
    c[..., :K, z] = np.conj(c[..., :K:-1, z])
    c[..., K, z] = c[..., K, z].real
    return c


def _from_half(half: np.ndarray) -> np.ndarray:
    """Hermitian block from its n2 >= 0 columns, the rest by conjugate mirror."""
    K = half.shape[1] - 1
    c = np.empty((2 * K + 1, 2 * K + 1), np.complex128)
    c[:, K:] = half
    return _mirror(c)


def _half(f: SpectralField) -> np.ndarray:
    """The n2 >= 0 half of a field's block, as a view."""
    return f.coeffs[:, f.max_mode:]


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


def _power(base: str, sigma: float) -> Multiplier:
    """base^sigma for base "bessel" (J = (1 - Lap)^(1/2)) or "riesz" (|grad|)."""
    return bessel_power(sigma) if base == "bessel" else riesz_power(sigma)


@lru_cache(maxsize=512)
def _symbol(m: Multiplier, max_mode: int) -> np.ndarray:
    """The symbol of m on the n2 >= 0 half block of the window."""
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
    return _frozen(np.ascontiguousarray(sym[:, max_mode:]))


def apply_multiplier(f: SpectralField, m: Multiplier) -> SpectralField:
    """Multiply coefficients by the symbol of m; same window as f."""
    K = f.max_mode
    if m.kind == "riesz_power" and m.exponent < 0 and f.coeffs[K, K] != 0:
        raise SpectralError(
            "riesz_power with negative exponent needs a mean-zero field "
            "(the zero mode would divide by |0|)"
        )
    return SpectralField(K, _from_half(_multiply(_half(f), m)), _trusted=True)


def _multiply(half: np.ndarray, m: Multiplier) -> np.ndarray:
    """apply_multiplier on a half block or a stack of them."""
    return half * _symbol(m, half.shape[-1] - 1)


def project_ball(f: SpectralField, cutoff: int) -> SpectralField:
    """Pi_N f for N = cutoff: the sharp projection onto the Euclidean ball
    |n| <= cutoff, on the block shrunk to min(max_mode, cutoff), which
    keeps downstream product grids tight."""
    return SpectralField(min(f.max_mode, cutoff), _from_half(_ball(_half(f), cutoff)),
                         _trusted=True)


@lru_cache(maxsize=128)
def _ball_mask(max_mode: int, cutoff: int) -> np.ndarray:
    """The mask |n| <= cutoff on the window's half block, as complex128 (a
    product with coefficients casts it so anyway)."""
    mask = _sq_modulus(max_mode)[:, max_mode:] <= cutoff**2
    return _frozen(mask.astype(np.complex128))


def _ball(half: np.ndarray, cutoff: int) -> np.ndarray:
    """project_ball on a half block or a stack of them."""
    K = half.shape[-1] - 1
    K_new = min(K, cutoff)
    return _crop(half, K, K_new) * _ball_mask(K_new, cutoff)


def _crop(half: np.ndarray, K: int, K_new: int) -> np.ndarray:
    """The window-K_new part of window-K half blocks."""
    return half[..., K - K_new:K + K_new + 1, :K_new + 1]


# -- grid transport ---------------------------------------------------------


@lru_cache(maxsize=128)
def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n: a fast transform length."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def quadrature_grid(max_mode: int) -> int:
    """Grid on which a mean of four window-max_mode factors is exact."""
    return _fast_len(4 * max_mode + 1)


def grid_stack(halves, grid: int, *, out=None, spec=None) -> np.ndarray:
    """Values on the grid x_j = 2 pi j / grid in each direction of fields of
    one window: `halves` is a sequence of their n2 >= 0 half blocks, arrays
    of one shape (..., 2K + 1, K + 1), a block or a stack of them each, and
    the result has shape (len(halves), ..., grid, grid).

    One spectrum, with all grid // 2 + 1 columns irfft reads (so it pads
    none), takes each half in turn: an ifft along n1 over its K + 1 columns
    only (the other columns are zero), then an irfft along n2 into the
    half's slot of the result; bitwise the irfft2 of each zero-filled half.
    Writes into `out` and `spec` where the caller passes them.  Requires
    grid >= 2K + 1 so modes occupy distinct bins.
    """
    shapes = {h.shape for h in halves}
    if len(shapes) != 1:
        raise SpectralError(f"grid_stack needs halves of one shape, got {sorted(shapes)}")
    lead, K = halves[0].shape[:-2], halves[0].shape[-1] - 1
    if grid < 2 * K + 1:
        raise SpectralError(f"grid {grid} cannot hold window {K}")
    out = np.empty((len(halves), *lead, grid, grid)) if out is None else out
    spec = np.empty((*lead, grid, grid // 2 + 1), np.complex128) if spec is None else spec
    spec[..., K + 1:] = 0
    cols = spec[..., :K + 1]
    for half, values in zip(halves, out):
        cols[..., :K + 1, :] = half[..., K:, :]  # n1 = 0..K, then n1 = -K..-1 at the end
        cols[..., K + 1:grid - K, :] = 0  # the last half's column pass filled these rows
        cols[..., grid - K:, :] = half[..., :K, :]
        ifft(cols, axis=-2, norm="forward", out=cols)
        irfft(spec, n=grid, axis=-1, norm="forward", out=values)
    return out


def grid_values(f: SpectralField, grid: int) -> np.ndarray:
    """Values of f on the grid x_j = 2 pi j / grid in each direction."""
    return grid_stack((_half(f),), grid)[0]


def _grid_half(values: np.ndarray, max_mode: int, out=None) -> np.ndarray:
    """n2 >= 0 half of the window-max_mode block of real square-grid values:
    the forward-normalized rfft2, with only the kept columns sent down the
    column fft (its 1 / grid^2 scales the row pass, as rfft2's does).  The
    row pass writes into `out` where given; the half returned is fresh."""
    grid = values.shape[0]
    spec = rfft(values, out=out)
    cols = spec[:, :max_mode + 1]
    cols *= 1.0 / grid**2
    fft(cols, axis=0, out=cols)
    return spec[_mode_axis(max_mode) % grid, :max_mode + 1]


def _from_grid(values: np.ndarray, max_mode: int) -> np.ndarray:
    """Window-max_mode coefficient block of real grid values."""
    return _from_half(_grid_half(values, max_mode))


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
        grid = _fast_len(2 * K_out + 1)
        fg = grid_values(f, grid)
        c = _from_grid(fg * (fg if g is f else grid_values(g, grid)), K_out)
    else:
        raise SpectralError(f"unknown product method {method!r}")
    return SpectralField(K_out, c, _trusted=True)


def _cube_buffers(cutoff: int, K: int) -> tuple:
    """_cube_half's work buffers at one cutoff, for halves of window K: the
    grid values (a stack of one), the cubed grid and one spectrum.  The grid
    has at least 4 * cutoff + 2 points per direction (rounded up to an
    FFT-friendly size): folding from the cube's support then cannot reach
    any retained mode."""
    Kw = min(K, cutoff)
    grid = _fast_len(max(4 * cutoff + 2, 3 * Kw + min(cutoff, 3 * Kw) + 2))
    return (np.empty((1, grid, grid)), np.empty((grid, grid)),
            np.empty((grid, grid // 2 + 1), np.complex128))


def _cube_half(half: np.ndarray, cutoff: int, window: int, buffers: tuple) -> np.ndarray:
    """n2 >= 0 half of the truncated cube Pi_N((Pi_N u)^3), N = cutoff, from
    the n2 >= 0 half of u.  The cube is formed alias-free on its own window
    K_out = min(cutoff, 3 min(K, cutoff)) and zero-padded to `window`, on
    the grid of `buffers`, from _cube_buffers(cutoff, K); the result is none
    of the buffers.  Column n2 = 0 is made Hermitian by _mirror, as
    _from_half makes it, so the half evolves like the full block.
    """
    K = half.shape[1] - 1
    K_out = min(cutoff, 3 * min(K, cutoff))
    vals, cube, spec = buffers
    grid_stack((_ball(half, cutoff),), len(cube), out=vals, spec=spec)
    np.multiply(vals[0], vals[0], out=cube)
    cube *= vals[0]
    c = _mirror(_grid_half(cube, K_out, out=spec))
    c *= _ball_mask(K_out, cutoff)
    pad = window - K_out
    return np.pad(c, ((pad, pad), (0, pad))) if pad else c


def integrate(f: SpectralField) -> float:
    """Integral over the unit-volume torus: the zero-mode coefficient."""
    return float(f.coeffs[f.max_mode, f.max_mode].real)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2 pairing: integral of f g = sum_n f_n g_{-n} (Parseval)."""
    K = min(f.max_mode, g.max_mode)
    a = _crop(_half(f), f.max_mode, K)
    b = _crop(_half(g), g.max_mode, K)
    return float(_pairing(a[None], b[None])[0])


def sobolev_norm(p: PhaseState, sigma: float) -> float:
    """Norm of (u, v) in H^sigma x H^(sigma-1) via bracket-weighted sums."""
    uu = _weighted_mass(_half(p.u)[None], "bessel", sigma)
    vv = _weighted_mass(_half(p.v)[None], "bessel", sigma - 1.0)
    return float(np.sqrt(uu + vv)[0])


def grid_sup_norm(f: SpectralField) -> float:
    """Max of |f| over an equispaced grid of 4 (2K+1) points per direction."""
    return float(_sup_norms(_half(f)[None])[0])


def _sup_norms(halves: np.ndarray) -> np.ndarray:
    """grid_sup_norm of each field of a (B, 2K + 1, K + 1) stack of halves."""
    grid = 4 * halves.shape[-2]
    return np.abs(grid_stack((halves,), grid)[0]).reshape(len(halves), -1).max(axis=1)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each row of a stack over all its other axes: a row is
    flattened and summed as the whole array of one state would be (the
    reduction ndarray.sum calls, without its wrapper)."""
    return np.add.reduce(x.reshape(len(x), -1), axis=1)


def _lattice_sum(x: np.ndarray) -> np.ndarray:
    """The sum over the whole block of a quantity even in n, x(-n) = x(n),
    from each row of a stack of its n2 >= 0 halves: weight 2 off column
    n2 = 0, whose mirrors the half omits, and 1 on it, which holds n and -n
    (and n = 0 once)."""
    return 2.0 * _row_sum(x) - _row_sum(x[..., 0])


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """inner_product of each pair of rows of two stacks of halves of one
    window.  g_{-n} = conj(g_n), so the pairing is Re sum a conj(b); plain
    NumPy sums keep it off the threaded BLAS dot product."""
    x = a.real * b.real
    x += a.imag * b.imag
    return _lattice_sum(x)


def _weighted_mass(half: np.ndarray, base: str, sigma: float) -> np.ndarray:
    """int (base^sigma f)^2 as a lattice sum, for each half of a stack:
    the weight |symbol of base^sigma|^2 is the symbol of base^(2 sigma)."""
    weight = _symbol(_power(base, 2 * sigma), half.shape[-1] - 1)
    return _lattice_sum(weight * np.abs(half) ** 2)


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
