"""Geometry of the complex projective plane with an integrally normalized form.

Points are arrays of coordinate lifts, homogeneous coordinate triples along
the last axis; tangent vectors are derivatives of lifts.  The two-form is
scaled so that a projective line has symplectic area exactly 1, which fixes
the coordinate expression

    omega_p(u, v) = -(1/pi) * Im <u, v>,    <a, b> = sum_i a_i conj(b_i)

for unit-norm ``p`` and horizontal ``u``, ``v``.  The sign, which makes
complex curves positively oriented, is pinned by the line-area test in the
suite, not by an external convention.

The form is exact on coordinate space minus the origin, with primitive
alpha_z(u) = (1 / 2 pi) Im <u, z> / |z|^2, so the area of a disc lifted into
that space is the integral of ``alpha`` around its lifted boundary loop.  On
a loop in action-angle form, coordinate k being e^{2 pi i m_k t} times a
function on one line through 0, alpha is the action mean
sum_k m_k |z_k|^2 / |z|^2 dt.  That makes every area the package reports a
closed form (toric fibers and their deformations, conic discs, the reduced
spheres of the rotation), except the Chekanov section period, which Stokes
reduces to a closed-form real integrand.  One row-batched driver,
:func:`doubled_trapezoid`, runs the midpoint-doubling trapezoid rule on
many such integrands at once, one numpy pass per doubling level over the
rows still running, and owns the stopping rule, the node cap and the
rounding floor of each reported error.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergent, ZeroVector
from .lattice import rounding_floor


def hermdot(a, b):
    """Hermitian product sum_i a_i * conj(b_i) along the last axis."""
    return np.sum(np.asarray(a) * np.conj(np.asarray(b)), axis=-1)


def _unit_rows(z):
    """Unit rows along the last axis by a positive rescaling only, so a smooth
    family of lifts stays smooth; ZeroVector if a row is all below 1e-300 or
    has a component that is not finite (an overflowed lift)."""
    z = np.asarray(z, dtype=complex)
    scale = np.max(np.abs(z), axis=-1, keepdims=True)
    # the largest scale is NaN or inf exactly when some row is not finite
    if not scale.max(initial=0.0) < np.inf:
        raise ZeroVector("no usable magnitude: a homogeneous component is not finite")
    if scale.min(initial=np.inf) < 1e-300:
        raise ZeroVector("all homogeneous components below 1e-300 in magnitude")
    w = z / scale
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def moment_map(z) -> np.ndarray:
    """Squared moduli (|z0|^2, |z1|^2) of the unit representatives of raw
    lifts with trailing axis 3; the result has trailing axis 2."""
    z = _unit_rows(z)
    return np.stack([np.abs(z[..., 0]) ** 2, np.abs(z[..., 1]) ** 2], axis=-1)


# ---------------------------------------------------------------------------
# the doubling driver
# ---------------------------------------------------------------------------


class AreaEstimate(NamedTuple):
    value: float
    error: float
    nodes: int  # finest node count of the doubling rule


# A doubling rule stops once two levels agree to LOOP_AGREEMENT and never
# doubles past LOOP_MAX_NODES; at its last level it accepts a disagreement up
# to LOOP_FALLBACK.  Rules start at LOOP_NODES nodes unless told otherwise.
LOOP_NODES = 32
LOOP_AGREEMENT = 1e-12
LOOP_MAX_NODES = 2 ** 18
LOOP_FALLBACK = 1e-6


def _mod_unit(x: float) -> float:
    """``x`` reduced mod 1 to [0, 1): a period's value."""
    return x - math.floor(x)


# Rows of a level are evaluated in blocks of at most this many integrand
# values (one row at least), which bounds the temporaries of a level.
_BLOCK_ELEMENTS = 2 ** 17


def doubled_trapezoid(f: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
                      weights, nodes: int) -> list[AreaEstimate | NonConvergent]:
    """Trapezoid rules of 1-periodic integrands on [0, 1), one per row,
    each doubling its node count from ``nodes`` until two levels agree.

    ``f(tau)`` returns a function of an array of row indices whose value is
    the (rows, len(tau)) array of the integrands at the nodes ``tau``; the
    value of row i at a level of n nodes is weights[i] (its sum over the
    nodes k / n) / n.  Each doubling evaluates only the n new midpoints,
    and a row leaves as soon as it stops: once two successive values agree
    to LOOP_AGREEMENT, or at the cap level if they agree to LOOP_FALLBACK.
    The cap level is the last doubling within LOOP_MAX_NODES, the largest
    ``nodes`` * 2^k <= LOOP_MAX_NODES (k >= 1), so a power-of-two start
    stops at LOOP_MAX_NODES itself.  Its error is their disagreement plus
    :func:`rounding_floor` at the node count, so it is never 0.  A row
    still running at the cap level gets a NonConvergent instead.
    """
    weights = np.asarray(weights, dtype=float)
    results: list[AreaEstimate | NonConvergent] = [None] * len(weights)
    live = np.arange(len(weights))
    n = nodes
    acc = _row_sums(f, np.arange(n) / n, live)
    prev = weights * acc / n
    while live.size:
        acc = acc + _row_sums(f, (np.arange(n) + 0.5) / n, live)
        n *= 2
        value = weights[live] * acc / n
        gap = np.abs(value - prev)
        capped = 2 * n > LOOP_MAX_NODES  # the next doubling would pass the cap
        agreed = (gap <= LOOP_AGREEMENT) | (capped & (gap <= LOOP_FALLBACK))
        done = agreed | capped
        for k in np.flatnonzero(done):
            v, g = float(value[k]), float(gap[k])
            results[live[k]] = (
                AreaEstimate(v, g + rounding_floor(n, v), n) if agreed[k] else
                NonConvergent(f"trapezoid rule at n = {n} nodes: levels disagree"
                              f" by {g:.3e} > {LOOP_FALLBACK:.1e}"))
        live, acc, prev = live[~done], acc[~done], value[~done]
    return results


def _row_sums(f, tau: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sums over ``tau`` of the integrands of ``rows``, _BLOCK_ELEMENTS at a time."""
    at = f(tau)
    step = max(1, _BLOCK_ELEMENTS // len(tau))
    return np.concatenate([np.sum(at(rows[i:i + step]), axis=1)
                           for i in range(0, rows.size, step)])

