"""Quasi-periodic column shifts and their pure-point diffraction data.

For a planar frequency set (m, beta(m)+n) whose shift function beta
extends to a finite sum of periodic trigonometric components with
rationally independent periods, the exponential sum over the set pairs
against a test function in two equivalent ways: directly, by summing the
test transform over the set, or through a weighted point-mass expansion
whose weights come from Fourier analysis of exp(i*2*pi*beta(.)*n) at each
integer height n.  Both routes are implemented; their agreement on
Gaussian test functions is the acceptance experiment, and the constant-
shift case reduces to plain Poisson summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence, Union

import numpy as np

from .model import SpectralBoxError, group_bits
from .reporting import write_svg

__all__ = [
    "CoefficientTailError",
    "TrigComponent",
    "QuasiPeriodicModel",
    "GaussianTestFunction",
    "density_coeffs",
    "DiffractionDensity",
    "build_density",
    "height_radius",
    "check_diffraction_size",
    "eval_direct",
    "eval_diffraction",
    "lattice_sum",
    "emit_diffraction_svg",
]


_OVERSAMPLE = 4096  # samples per period in the harmonic analysis
_TAIL_TOL = 1e-4  # coefficient mass allowed outside the harmonic window
_HEIGHT_BLOCK = 64  # heights whose sampled signals are held at once, 4 MiB
# a period ratio within _RATIO_TOL of some p/q with q <= _MAX_DENOMINATOR
# is flagged as likely rational
_MAX_DENOMINATOR = 50
_RATIO_TOL = 1e-9
_EPS = 1e-14  # value cutoff of the Gaussian test function's radii
MAX_DIRECT_TERMS = 2**22  # eval_direct's frequency points, about 50 B each
MAX_DENSITY_TERMS = 2**20  # build_density's point masses, about 250 B each
MAX_PAIRING_TERMS = 2**27  # eval_diffraction's comb samples, about 1 s
_EVAL_BLOCK = 2**18  # comb samples eval_diffraction holds at once


class CoefficientTailError(SpectralBoxError):
    """Too much coefficient mass falls outside the harmonic window."""


@dataclass(frozen=True)
class TrigComponent:
    """One periodic component: xi(x) = sum_n c_n exp(i*2*pi*n*x/period).

    Coefficients must be Hermitian (c_{-n} = conj(c_n)) so the component
    is real-valued.
    """

    period: float
    coeffs: Mapping[int, complex]

    def __post_init__(self) -> None:
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError(
                f"period must be positive and finite, got {self.period}"
            )
        table = {int(k): complex(v) for k, v in dict(self.coeffs).items()}
        for k, v in table.items():
            if not np.isfinite(v):
                raise ValueError(f"coefficient at {k} must be finite, got {v}")
            partner = table.get(-k, 0.0 + 0.0j)
            if abs(partner - np.conj(v)) > 1e-12:
                raise ValueError(
                    f"coefficients at +-{k} are not Hermitian; the component "
                    "would not be real-valued"
                )
        object.__setattr__(self, "coeffs", table)

    @classmethod
    def cosine(
        cls, period: float, amplitude: float, harmonic: int = 1
    ) -> "TrigComponent":
        """amplitude * cos(2*pi*harmonic*x/period)."""
        half = amplitude / 2.0
        return cls(period, {harmonic: half, -harmonic: half})

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x, dtype=complex)
        for k, c in self.coeffs.items():
            acc = acc + c * np.exp(2j * np.pi * k * x / self.period)
        return acc.real


@dataclass(frozen=True)
class QuasiPeriodicModel:
    """Finite sum of periodic components with independent periods.

    Rational independence of the periods cannot be verified numerically;
    it is a user assertion.  `rational_ratio_warnings` flags period ratios
    suspiciously close to small-denominator rationals.
    """

    components: tuple[TrigComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("model needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(c.period for c in self.components)

    def beta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for comp in self.components:
            acc = acc + comp.value(x)
        return acc

    def amplitude_bound(self) -> float:
        """Upper bound on |beta| from the coefficient tables."""
        return float(
            sum(
                sum(abs(c) for c in comp.coeffs.values())
                for comp in self.components
            )
        )

    def rational_ratio_warnings(self) -> list[str]:
        warnings = []
        ps = self.periods
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                ratio = ps[i] / ps[j]
                frac = Fraction(ratio).limit_denominator(_MAX_DENOMINATOR)
                if frac.denominator <= _MAX_DENOMINATOR and abs(
                    ratio - float(frac)
                ) < _RATIO_TOL:
                    warnings.append(
                        f"period ratio {ps[i]}/{ps[j]} is within {_RATIO_TOL} "
                        f"of {frac.numerator}/{frac.denominator}; the "
                        "independence assertion looks violated"
                    )
        return warnings


@dataclass(frozen=True)
class GaussianTestFunction:
    """Separable Gaussian with an analytic transform.

    value(x, y) = exp(-pi ((x-cx)/sx)^2 - pi ((y-cy)/sy)^2);
    transform(l) = sx sy exp(i 2 pi l.c) exp(-pi (sx lx)^2 - pi (sy ly)^2),
    the pairing integral of exp(i 2 pi l . x) against the value.
    """

    center: tuple[float, float] = (0.0, 0.0)
    widths: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if min(self.widths) <= 0:
            raise ValueError("widths must be positive")

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cx, cy = self.center
        sx, sy = self.widths
        return np.exp(
            -np.pi * ((np.asarray(x) - cx) / sx) ** 2
            - np.pi * ((np.asarray(y) - cy) / sy) ** 2
        )

    def transform(self, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
        cx, cy = self.center
        sx, sy = self.widths
        return (
            sx
            * sy
            * np.exp(2j * np.pi * (np.asarray(lx) * cx + np.asarray(ly) * cy))
            * np.exp(-np.pi * (sx * np.asarray(lx)) ** 2)
            * np.exp(-np.pi * (sy * np.asarray(ly)) ** 2)
        )

    def space_radius(self) -> float:
        """Half-width beyond which the value drops below 1e-14."""
        return max(self.widths) * math.sqrt(math.log(1.0 / _EPS) / math.pi)

    def freq_radius(self) -> float:
        """Radius beyond which the transform drops below 1e-14."""
        s = min(self.widths)
        return math.sqrt(math.log(1.0 / _EPS) / math.pi) / s


def _component_coeffs(comp: TrigComponent, heights, k_radius: int) -> np.ndarray:
    """Harmonic analysis of x -> exp(i*2*pi*xi(x)*n) over one period, a row
    a height n: (1/period) * integral of the signal against
    exp(+i*2*pi*k*x/period), k = -k_radius..k_radius, the k-sign convention
    under which the point-mass pairing reproduces the direct sum.  xi is
    sampled once; exp and ifft act on each row alone, as at one height.
    """
    x = np.arange(_OVERSAMPLE) * comp.period / _OVERSAMPLE
    phase = 2j * np.pi * comp.value(x)
    window = np.arange(-k_radius, k_radius + 1) % _OVERSAMPLE
    coeffs = np.empty((heights.size, window.size), dtype=complex)
    for at in range(0, heights.size, _HEIGHT_BLOCK):
        # ifft gives (1/M) sum g_i exp(+i 2 pi k i / M): the +k convention
        g = np.exp(phase * heights[at : at + _HEIGHT_BLOCK, None])
        coeffs[at : at + _HEIGHT_BLOCK] = np.fft.ifft(g)[:, window]
    return coeffs


def density_coeffs(model: QuasiPeriodicModel, n, k_radius: int) -> np.ndarray:
    """Weights c(k, n) over the harmonic window, products over components;
    at an array of heights n, one such table a height, stacked.

    Entry [k_1 + k_radius, ...] is ((1+0j) * c_1[k_1]) * ... * c_C[k_C],
    in real arithmetic spelled out as Python's complex product does it.
    A component's signal has unit modulus, hence coefficient mass one; its
    deficit in the window is the tail guard, tried height by height.
    """
    heights = np.atleast_1d(np.asarray(n, dtype=np.int64))
    coeffs = [_component_coeffs(comp, heights, k_radius) for comp in model.components]
    deficit = 1.0 - np.stack([np.sum(np.abs(c) ** 2, axis=1) for c in coeffs], axis=1)
    for row, col in np.argwhere(deficit > _TAIL_TOL)[:1]:
        raise CoefficientTailError(
            f"coefficient tail mass {deficit[row, col]:.3e} above {_TAIL_TOL:.1e} "
            f"for height {heights[row]}; enlarge the harmonic window"
        )
    re, im = np.ones(heights.size), np.zeros(heights.size)
    for c in coeffs:
        c = c.reshape((heights.size,) + (1,) * (re.ndim - 1) + c.shape[1:])
        re, im = (re[..., None] * c.real - im[..., None] * c.imag,
                  re[..., None] * c.imag + im[..., None] * c.real)
    table = np.stack((re, im), axis=-1).view(complex)[..., 0]
    return table if np.ndim(n) else table[0]


@dataclass(frozen=True)
class DiffractionDensity:
    """Point masses c(k, n) at (freq(k) + m, n) on a grid: the harmonic
    `tuples` (K, C) ints, lexicographic, and the distinct `heights` (H,)
    ints, as given.  The complex `weights` (H K,) are height-major, a row
    per mass: row h K + j is tuple j at height h."""

    tuples: np.ndarray
    heights: np.ndarray
    weights: np.ndarray
    periods: tuple[float, ...]

    def frequencies(self) -> np.ndarray:
        """freq(k) = k_1/period_1 + ... + k_C/period_C per tuple, left to right."""
        return sum(k / period for k, period in zip(self.tuples.T, self.periods))

    def rows(self) -> np.ndarray:
        """(H K, C + 1) ints, a row per mass: its tuple, then its height."""
        return np.column_stack((
            np.tile(self.tuples, (len(self.heights), 1)),
            np.repeat(self.heights, len(self.tuples)),
        ))

    def sorted_order(self) -> np.ndarray:
        """Row permutation that sorts by (harmonic tuple, height): the
        transpose of the H x K grid, its heights ascending."""
        return (np.argsort(self.heights) * len(self.tuples)
                + np.arange(len(self.tuples))[:, None]).ravel()


def build_density(
    model: QuasiPeriodicModel, n_values: Sequence[int], k_radius: int
) -> DiffractionDensity:
    """Density over the distinct heights `n_values` and the harmonic window."""
    heights = np.array([int(n) for n in n_values], dtype=np.int64)
    seen: set = set()
    for n in heights.tolist():
        if n in seen:
            raise ValueError(f"height {n} is repeated; the heights must be distinct")
        seen.add(n)
    window = (2 * k_radius + 1,) * len(model.components)
    tuples = np.indices(window).reshape(len(window), -1).T - k_radius
    if not heights.size:
        tuples = tuples[:0]  # no masses, so no stems either
    return DiffractionDensity(
        tuples, heights, density_coeffs(model, heights, k_radius).reshape(-1),
        model.periods,
    )


def height_radius(
    model: QuasiPeriodicModel, test_fn: GaussianTestFunction
) -> int:
    """Largest integer height |n| at which the pairing can see the set.

    Points (m, beta(m)+n) with |n| beyond it sit where the test transform
    is below 1e-14, because |beta| is at most the model's amplitude bound.
    """
    return math.ceil(test_fn.freq_radius() + model.amplitude_bound() + 1)


def check_diffraction_size(
    model: QuasiPeriodicModel,
    test_function: GaussianTestFunction,
    lambda_window: int,
    k_radius: int,
) -> None:
    """Raise ValueError unless a diffraction run of this size is sensible.

    The 2 k_radius + 1 harmonics must stay below the _OVERSAMPLE samples
    per period, past which two harmonics read one coefficient, and the
    direct sum, the density and the pairing, each mass's comb of about
    2 space_radius + 1 samples, must stay within their term caps.
    """
    harmonics = 2 * k_radius + 1
    if harmonics > _OVERSAMPLE:
        raise ValueError(
            f"k_radius {k_radius} aliases: {harmonics} harmonics exceed "
            f"the {_OVERSAMPLE} samples per period"
        )
    heights = 2 * height_radius(model, test_function) + 1
    masses = harmonics ** len(model.components) * heights
    comb = math.ceil(2 * test_function.space_radius() + 1)
    for what, terms, cap in (
        ("direct sum", (2 * lambda_window + 1) * heights, MAX_DIRECT_TERMS),
        ("density", masses, MAX_DENSITY_TERMS),
        ("pairing", masses * comb, MAX_PAIRING_TERMS),
    ):
        if terms > cap:
            raise ValueError(f"the {what} has {terms} terms, more than {cap}")


def eval_direct(
    model: QuasiPeriodicModel, test_fn: GaussianTestFunction, m_window: int
) -> complex:
    """Direct pairing: sum of the test transform over (m, beta(m)+n).

    m runs over [-m_window, m_window] and n over the height radius.
    """
    n_window = height_radius(model, test_fn)
    ms = np.arange(-m_window, m_window + 1)
    ns = np.arange(-n_window, n_window + 1)
    betas = model.beta(ms.astype(float))
    lx = np.repeat(ms, ns.size)
    ly = (betas[:, None] + ns[None, :]).ravel()
    return complex(np.sum(test_fn.transform(lx, ly)))


def eval_diffraction(
    density: DiffractionDensity, test_fn: GaussianTestFunction
) -> complex:
    """Point-mass pairing: sum of c(k,n) * test(freq(k) + m, n).

    Each point-mass comb is summed over the integers m that land inside
    the test function's effective support, a block of combs of one length
    at a time; the weighted comb sums then accumulate in row order.  A
    comb's first m and length depend on its tuple alone.
    """
    cx = test_fn.center[0]
    r = test_fn.space_radius()
    freq = density.frequencies()
    first = np.floor(cx - freq - r).astype(np.int64)
    runs = np.ceil(cx - freq + r).astype(np.int64) - first + 1
    theta, lo, lengths = (np.tile(a, len(density.heights)) for a in (freq, first, runs))
    heights = np.repeat(density.heights, len(freq))
    sums = np.empty(theta.shape)
    for length in np.unique(runs).tolist():
        rows = np.flatnonzero(lengths == length)
        for block in np.array_split(rows, -(-rows.size * length // _EVAL_BLOCK)):
            x = theta[block, None] + (lo[block, None] + np.arange(length))
            sums[block] = test_fn.value(x, heights[block, None]).sum(axis=1)
    terms = np.concatenate(([0j], density.weights * sums))
    return complex(np.cumsum(terms)[-1])


def lattice_sum(test_fn: GaussianTestFunction, window: int) -> complex:
    """Plain integer-lattice sum of the test function values."""
    ms = np.arange(-window, window + 1)
    x, y = np.meshgrid(ms, ms, indexing="ij")
    return complex(np.sum(test_fn.value(x.astype(float), y.astype(float))))


def _stem_masses(density: DiffractionDensity) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions freq(k) mod 1, rounded to 9 decimals, and the
    mass |c|^2 on each, added up in (harmonic tuple, height) order."""
    pos, pos_of = group_bits(density.frequencies() % 1.0)
    keys, key_of = group_bits(np.array([round(p, 9) for p in pos.tolist()]))
    c = density.weights[density.sorted_order()]
    # abs(c) ** 2 bit for bit: Python squares the hypot with libm pow, not h * h
    mass_of_row = np.power(np.hypot(c.real, c.imag).astype(object), 2).astype(float)
    mass = np.zeros(keys.size)
    # the sorted rows run a tuple at a time, each over all its heights
    np.add.at(mass, np.repeat(key_of[pos_of], len(density.heights)), mass_of_row)
    return keys, mass


def _fmt(value: float) -> str:
    return f"{value:.4f}".rstrip("0").rstrip(".")


def emit_diffraction_svg(
    density: DiffractionDensity, sink: Union[str, IO[bytes], None] = None
) -> bytes:
    """Stem plot of aggregate weight mass per fractional frequency."""
    keys, mass = _stem_masses(density)
    width, height, margin = 480, 240, 20
    top = mass.max() if mass.size else 1.0
    xs = margin + keys * (width - 2 * margin)
    hs = (height - 2 * margin) * (mass / top)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
    ]
    base = _fmt(height - margin)
    for x, h in zip(xs.tolist(), hs.tolist()):
        x = _fmt(x)
        parts.append(
            f'<line x1="{x}" y1="{base}" x2="{x}" '
            f'y2="{_fmt(height - margin - h)}" stroke="black" stroke-width="1.5"/>'
        )
    return write_svg(parts, sink)
