"""High-precision references for the Chekanov section periods.

The s = 0 section loop of the torus over the pencil-parameter circle
eps(t) = a e^{2 pi i t} - mu is rebuilt in mpmath from the conic
parametrisation (z0, z1, z2) = (1, eps x, sqrt(x)), where x = rho^2 is the
positive root of |eps|^2 (2 - l) x^2 + (1 - l) x - l = 0 at the area level
l = 1 + delta (the closed form behind ``level_radius``).  The primitive of
the form, -(FS_SCALE / 2) Im<z', z>/|z|^2, is integrated at 30 digits with
tanh-sinh quadrature; the numpy loop is not called.
"""

import math

import pytest
from mpmath import mp

from lagrtori.chekanov import ChekanovParams, torus_periods_chekanov
from lagrtori.geometry import FS_SCALE


def _section_period_reference(a: float, mu: float, delta: float):
    with mp.workdps(30):
        scale = -1 / mp.pi
        assert FS_SCALE == float(scale)  # a projective line has area 1
        a, mu, ell = mp.mpf(a), mp.mpf(mu), 1 + mp.mpf(delta)
        b, c = 1 - ell, 2 - ell

        def primitive(t):
            w = mp.expjpi(2 * t)
            eps, deps = a * w - mu, 2j * mp.pi * a * w
            e2 = abs(eps) ** 2
            de2 = 2 * mp.re(deps * mp.conj(eps))
            x = (mp.sqrt(b * b + 4 * ell * c * e2) - b) / (2 * e2 * c)
            dx = -c * x * x / (2 * e2 * c * x + b) * de2
            z = (1, eps * x, mp.sqrt(x))
            dz = (0, deps * x + eps * dx, dx / (2 * mp.sqrt(x)))
            pairing = sum(u * mp.conj(v) for u, v in zip(dz, z))
            return mp.im(pairing) / sum(abs(v) ** 2 for v in z)

        value, error = mp.quad(primitive, mp.linspace(0, 1, 9), error=True)
        assert error < mp.mpf(10) ** -20
        area = -scale / 2 * value
        return float(area - mp.floor(area))


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
def test_section_period_matches_mpmath(a):
    periods = torus_periods_chekanov(ChekanovParams(a, 1.0, 0.2))
    want = _section_period_reference(a, 1.0, 0.2)
    gap = abs(periods.p_section - want)
    assert min(gap, 1.0 - gap) <= periods.section_error + 1e-13
