"""Geometry of the complex projective plane with an integrally normalized form.

Points are arrays of coordinate lifts, homogeneous coordinate triples along
the last axis; tangent vectors are derivatives of lifts.  The two-form is
scaled so that a projective line has symplectic area exactly 1, which fixes
the coordinate expression

    omega_p(u, v) = -(1/pi) * Im <u, v>,    <a, b> = sum_i a_i conj(b_i)

for unit-norm ``p`` and horizontal ``u``, ``v``.  The sign is pinned by the
line-area test in the suite, not by an external convention.

The form is exact on coordinate space minus the origin, with primitive

    alpha_z(u) = -(FS_SCALE / 2) * Im <u, z> / |z|^2,

so the area of a disc lifted into that space is the integral of ``alpha``
around its lifted boundary loop.  :func:`loop_symplectic_area` integrates it
with the trapezoid rule and a spectral derivative, doubling the node count
until two levels agree; it is the one area primitive of the package, and
every period, disc area and reduced-sphere area goes through it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergent, ZeroVector

# Single global constant multiplying Im<u, v>; its magnitude makes a line
# have unit area and its sign makes complex curves positively oriented.
FS_SCALE = -1.0 / math.pi


def hermdot(a, b):
    """Hermitian product sum_i a_i * conj(b_i) along the last axis."""
    return np.sum(np.asarray(a) * np.conj(np.asarray(b)), axis=-1)


def _unit_rows(z):
    """Unit rows along the last axis by a positive rescaling only, so a smooth
    family of lifts stays smooth; ZeroVector if a row is all below 1e-300."""
    z = np.asarray(z, dtype=complex)
    scale = np.max(np.abs(z), axis=-1, keepdims=True)
    if np.any(scale < 1e-300):
        raise ZeroVector("all homogeneous components below 1e-300 in magnitude")
    w = z / scale
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def canonical_gauge(z) -> np.ndarray:
    """Unit representative rephased so its first non-negligible coordinate is
    real and positive; used for serialization only, never for calculus."""
    z = _unit_rows(z)
    idx = int(np.argmax(np.abs(z) > 1e-9))
    phase = z[idx] / abs(z[idx])
    return z / phase


def moment_map(z) -> np.ndarray:
    """Squared moduli (|z0|^2, |z1|^2) of the unit representatives of raw
    lifts with trailing axis 3; the result has trailing axis 2."""
    z = _unit_rows(z)
    return np.stack([np.abs(z[..., 0]) ** 2, np.abs(z[..., 1]) ** 2], axis=-1)


# ---------------------------------------------------------------------------
# the boundary rule
# ---------------------------------------------------------------------------


class AreaEstimate(NamedTuple):
    value: float
    error: float
    nodes: int  # finest node count per axis (per loop for the boundary rule)


# The boundary rule starts at LOOP_NODES nodes, stops doubling once two levels
# agree to LOOP_AGREEMENT and never goes past the cap; at the cap it accepts a
# disagreement up to LOOP_FALLBACK.
LOOP_NODES = 32
LOOP_AGREEMENT = 1e-12
LOOP_MAX_NODES = 2 ** 18
LOOP_FALLBACK = 1e-6


def _loop_area_once(loop: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    z = _unit_rows(loop(np.arange(n) / n))
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # the unpaired Nyquist mode has no real derivative
    dz = np.fft.ifft((2j * math.pi * k)[:, None] * np.fft.fft(z, axis=0), axis=0)
    return -0.5 * FS_SCALE * float(np.mean(np.imag(hermdot(dz, z))))


def loop_symplectic_area(loop: Callable[[np.ndarray], np.ndarray],
                         nodes: int = LOOP_NODES) -> AreaEstimate:
    """Integral of the primitive of the form around a closed lifted loop.

    ``loop(t)`` maps an array of t in [0, 1) to lifts along the last axis and
    must be smooth and 1-periodic in coordinate space, not only projectively.
    By Stokes the result is the area of any disc whose lift in coordinate
    space minus the origin has this loop as its boundary; a different lift of
    the same projective loop changes it by a whole number.

    The trapezoid rule on equispaced samples, with the derivative taken
    spectrally, converges exponentially on smooth periodic loops.  The node
    count starts at ``nodes`` (at least 4, else ValueError) and doubles until
    two levels agree to LOOP_AGREEMENT.  At LOOP_MAX_NODES the value is
    returned if the levels agree to LOOP_FALLBACK, with that error; otherwise
    NonConvergent is raised.
    """
    if nodes < 4:
        raise ValueError("the boundary rule needs at least 4 start nodes")
    n = nodes
    prev = _loop_area_once(loop, n)
    while True:
        n *= 2
        value = _loop_area_once(loop, n)
        err = abs(value - prev)
        if err <= LOOP_AGREEMENT or (n >= LOOP_MAX_NODES and err <= LOOP_FALLBACK):
            return AreaEstimate(value, err, n)
        if n >= LOOP_MAX_NODES:
            raise NonConvergent(
                f"boundary rule at n = {n} nodes: levels disagree by {err:.3e}"
                f" > {LOOP_FALLBACK:.1e}"
            )
        prev = value


def chordal_distance(z, w) -> np.ndarray:
    """Projective (Fubini-Study chordal) distance between unit-norm rows."""
    ip = np.abs(hermdot(z, w)) ** 2
    return np.sqrt(np.maximum(0.0, 1.0 - ip))


def phase_aligned_residual(z, w) -> np.ndarray:
    """Norm of the gauge-optimal difference of unit lifts (vectorized).

    Rotates w's phase onto z before subtracting, so near-coincident points
    are resolved far below the sqrt-of-ulp floor of the chordal formula.
    """
    z = _unit_rows(z)
    w = _unit_rows(w)
    pairing = hermdot(w, z)
    mag = np.abs(pairing)
    phase = np.where(mag > 0, pairing / np.where(mag > 0, mag, 1.0), 1.0 + 0j)
    return np.linalg.norm(z - w * np.conj(phase)[..., None], axis=-1)
