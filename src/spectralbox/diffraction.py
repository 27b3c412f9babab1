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
from typing import IO, Mapping, Optional, Sequence, Union

import numpy as np

from .model import SpectralBoxError
from .reporting import write_svg

__all__ = [
    "CoefficientTailError",
    "TrigComponent",
    "QuasiPeriodicModel",
    "GaussianTestFunction",
    "density_coeffs",
    "DiffractionDensity",
    "build_density",
    "eval_direct",
    "eval_diffraction",
    "lattice_sum",
    "emit_diffraction_svg",
]


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
        if self.period <= 0:
            raise ValueError("period must be positive")
        table = {int(k): complex(v) for k, v in dict(self.coeffs).items()}
        for k, v in table.items():
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

    def rational_ratio_warnings(
        self, max_denominator: int = 50, tol: float = 1e-9
    ) -> list[str]:
        warnings = []
        ps = self.periods
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                ratio = ps[i] / ps[j]
                frac = Fraction(ratio).limit_denominator(max_denominator)
                if frac.denominator <= max_denominator and abs(
                    ratio - float(frac)
                ) < tol:
                    warnings.append(
                        f"period ratio {ps[i]}/{ps[j]} is within {tol} of "
                        f"{frac.numerator}/{frac.denominator}; the "
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

    def space_radius(self, eps: float = 1e-14) -> float:
        """Half-width beyond which the value drops below eps."""
        return max(self.widths) * math.sqrt(math.log(1.0 / eps) / math.pi)

    def freq_radius(self, eps: float = 1e-14) -> float:
        s = min(self.widths)
        return math.sqrt(math.log(1.0 / eps) / math.pi) / s


def _component_coeffs(
    comp: TrigComponent, n: int, k_radius: int, oversample: int, tail_tol: float
) -> dict[int, complex]:
    """Harmonic analysis of x -> exp(i*2*pi*xi(x)*n) over one period.

    Returns (1/period) * integral of the signal against exp(+i*2*pi*k*x/
    period): the k-sign convention under which the point-mass pairing
    formula reproduces the direct sum.  The sampled signal has unit
    modulus, so total coefficient mass is exactly one and the in-window
    deficit is the tail guard.
    """
    x = np.arange(oversample) * comp.period / oversample
    g = np.exp(2j * np.pi * comp.value(x) * n)
    # ifft gives (1/M) sum g_i exp(+i 2 pi k i / M): the +k convention
    c_all = np.fft.ifft(g)
    ks = np.arange(-k_radius, k_radius + 1)
    coeffs = {int(k): complex(c_all[int(k) % oversample]) for k in ks}
    in_mass = float(sum(abs(v) ** 2 for v in coeffs.values()))
    if 1.0 - in_mass > tail_tol:
        raise CoefficientTailError(
            f"coefficient tail mass {1.0 - in_mass:.3e} above {tail_tol:.1e} "
            f"for height {n}; enlarge the harmonic window"
        )
    return coeffs


def density_coeffs(
    model: QuasiPeriodicModel,
    n: int,
    k_radius: int,
    oversample: int = 4096,
    tail_tol: float = 1e-4,
) -> dict[tuple[int, ...], complex]:
    """Weights c(k, n) over the harmonic window, products over components."""
    per_component = [
        _component_coeffs(comp, n, k_radius, oversample, tail_tol)
        for comp in model.components
    ]
    ks = range(-k_radius, k_radius + 1)
    out: dict[tuple[int, ...], complex] = {}
    def build(prefix: tuple[int, ...], acc: complex) -> None:
        j = len(prefix)
        if j == len(per_component):
            out[prefix] = acc
            return
        for k in ks:
            build(prefix + (k,), acc * per_component[j][k])
    build((), 1.0 + 0.0j)
    return out


@dataclass(frozen=True)
class DiffractionDensity:
    """Point-mass weights keyed by (harmonic tuple, integer height)."""

    weights: Mapping[tuple[tuple[int, ...], int], complex]
    periods: tuple[float, ...]

    def frequency(self, k: tuple[int, ...]) -> float:
        return float(sum(ki / wi for ki, wi in zip(k, self.periods)))


def build_density(
    model: QuasiPeriodicModel,
    n_values: Sequence[int],
    k_radius: int,
    oversample: int = 4096,
    tail_tol: float = 1e-4,
) -> DiffractionDensity:
    weights: dict[tuple[tuple[int, ...], int], complex] = {}
    for n in n_values:
        for k, c in density_coeffs(
            model, int(n), k_radius, oversample, tail_tol
        ).items():
            weights[(k, int(n))] = c
    return DiffractionDensity(weights, model.periods)


def eval_direct(
    model: QuasiPeriodicModel,
    test_fn: GaussianTestFunction,
    m_window: int,
    n_window: Optional[int] = None,
) -> complex:
    """Direct pairing: sum of the test transform over (m, beta(m)+n)."""
    if n_window is None:
        n_window = int(
            math.ceil(test_fn.freq_radius() + model.amplitude_bound() + 1)
        )
    ms = np.arange(-m_window, m_window + 1)
    ns = np.arange(-n_window, n_window + 1)
    betas = model.beta(ms.astype(float))
    lx = np.repeat(ms, ns.size)
    ly = (betas[:, None] + ns[None, :]).ravel()
    return complex(np.sum(test_fn.transform(lx, ly)))


def eval_diffraction(
    density: DiffractionDensity,
    test_fn: GaussianTestFunction,
    m_window: Optional[int] = None,
) -> complex:
    """Point-mass pairing: sum of c(k,n) * test(freq(k) + m, n).

    Without an explicit m_window, each point-mass comb is summed over the
    integers that land inside the test function's effective support.
    """
    cx = test_fn.center[0]
    r = test_fn.space_radius()
    acc = 0.0 + 0.0j
    for (k, n), c in density.weights.items():
        theta = density.frequency(k)
        if m_window is None:
            lo = math.floor(cx - theta - r)
            hi = math.ceil(cx - theta + r)
            ms = np.arange(lo, hi + 1)
        else:
            ms = np.arange(-m_window, m_window + 1)
        acc += c * np.sum(test_fn.value(theta + ms, float(n)))
    return complex(acc)


def lattice_sum(test_fn: GaussianTestFunction, window: int) -> complex:
    """Plain integer-lattice sum of the test function values."""
    ms = np.arange(-window, window + 1)
    x, y = np.meshgrid(ms, ms, indexing="ij")
    return complex(np.sum(test_fn.value(x.astype(float), y.astype(float))))


def _fmt(value: float) -> str:
    return f"{value:.4f}".rstrip("0").rstrip(".")


def emit_diffraction_svg(
    density: DiffractionDensity, sink: Union[str, IO[bytes], None] = None
) -> bytes:
    """Stem plot of aggregate weight mass per fractional frequency."""
    mass: dict[float, float] = {}
    for (k, n), c in sorted(density.weights.items()):
        pos = density.frequency(k) % 1.0
        key = round(pos, 9)
        mass[key] = mass.get(key, 0.0) + abs(c) ** 2
    width, height, margin = 480, 240, 20
    top = max(mass.values()) if mass else 1.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
    ]
    for pos in sorted(mass):
        x = margin + pos * (width - 2 * margin)
        h = (height - 2 * margin) * (mass[pos] / top)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(height - margin)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(height - margin - h)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    return write_svg(parts, sink)
