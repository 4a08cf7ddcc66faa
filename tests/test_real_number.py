"""One rule for every real-valued model input.

Every real-valued argument of a model type or library entry point, from a
frequency to a Bessel argument, states its domain through ``errors.real``:
nan, +inf, -inf, and the first value outside the site's bound (0.0 for a
positive value, the largest negative float for a non-negative one) raise
PhysicsDomainError whose message starts with the argument's name.
"""

import math
import re

import numpy as np
import pytest

from accelrad import (PARALLEL, AtomParams, Cavity, FreeSpace,
                      GeneralPeriodicMotion, Mirror, PhysicsDomainError,
                      RotationMotion, ShoMotion, Sideband, bessel_j,
                      bessel_j_orders, fig2_surface, fig3_surface,
                      one_period_amplitude, rational_period_integral,
                      verify_selection_rule)
from accelrad.errors import real

_SAMPLES = tuple(1e-9 * math.sin(2 * math.pi * j / 16) for j in range(16))
_MOTION = ShoMotion(amplitude=0.1, Omega=2.0)

# site -> (argument name, bound, call with the argument set to v)
SITES = {
    "AtomParams-omega0": (
        "omega0", "> 0", lambda v: AtomParams(omega0=v, g=1.0)),
    "AtomParams-g": ("g", "> 0", lambda v: AtomParams(omega0=1.0, g=v)),
    "AtomParams-alpha": (
        "alpha", "> 0", lambda v: AtomParams(omega0=1.0, alpha=v)),
    "ShoMotion-amplitude": (
        "amplitude", ">= 0", lambda v: ShoMotion(amplitude=v, Omega=1.0)),
    "ShoMotion-Omega": (
        "Omega", "> 0", lambda v: ShoMotion(amplitude=1.0, Omega=v)),
    "ShoMotion-delta": (
        "delta", None,
        lambda v: ShoMotion(amplitude=1.0, Omega=1.0, orientation=PARALLEL,
                            delta=v)),
    "RotationMotion-radius": (
        "radius", ">= 0", lambda v: RotationMotion(radius=v, Omega=1.0)),
    "RotationMotion-Omega": (
        "Omega", "> 0", lambda v: RotationMotion(radius=1.0, Omega=v)),
    "RotationMotion-delta": (
        "delta", None,
        lambda v: RotationMotion(radius=1.0, Omega=1.0, delta=v)),
    "GeneralPeriodicMotion-Omega": (
        "Omega", "> 0",
        lambda v: GeneralPeriodicMotion(Omega=v, samples=_SAMPLES)),
    "GeneralPeriodicMotion-samples": (
        "samples", None,
        lambda v: GeneralPeriodicMotion(Omega=1.0,
                                        samples=_SAMPLES[:5] + (v,)
                                        + _SAMPLES[6:])),
    "Mirror-z0": ("z0", "> 0", lambda v: Mirror(z0=v)),
    "Cavity-length": ("length", "> 0", lambda v: Cavity(length=v, z0=0.5)),
    "Sideband-rate": ("rate", ">= 0", lambda v: Sideband(1, 1.0, v)),
    "Sideband-omega": (
        "photon frequency", "> 0", lambda v: Sideband(1, v, 1.0)),
    "one_period_amplitude-omega": (
        "omega", "> 0",
        lambda v: one_period_amplitude(_MOTION, FreeSpace(), v, 1.0)),
    "one_period_amplitude-omega0": (
        "omega0", "> 0",
        lambda v: one_period_amplitude(_MOTION, FreeSpace(), 1.0, v)),
    "bessel_j": ("argument", None, lambda v: bessel_j(1, v)),
    "bessel_j_orders": ("argument", None, lambda v: bessel_j_orders(3, v)),
    "rational_period_integral": (
        "x", None, lambda v: rational_period_integral(v, 2, 1)),
    "verify_selection_rule": (
        "x", None, lambda v: verify_selection_rule(1, 2, v)),
    "fig2_surface-a_tilde": (
        "a_tilde", ">= 0", lambda v: fig2_surface([v, 1.0], 3)),
    "fig2_surface-g": (
        "g", "> 0", lambda v: fig2_surface([1.0], 3, g=v, Omega=1.0)),
    "fig2_surface-Omega": (
        "Omega", "> 0", lambda v: fig2_surface([1.0], 3, g=1.0, Omega=v)),
    "fig3_surface-amplitude": (
        "amplitude", ">= 0", lambda v: fig3_surface([v, 1e-9], [0.5])),
    "fig3_surface-alpha": (
        "alpha", ">= 0", lambda v: fig3_surface([1e-9], [v, 0.5])),
    "fig3_surface-Omega": (
        "Omega", "> 0", lambda v: fig3_surface([1e-9], [0.5], Omega=v)),
}

# bound -> the first value outside it
OUTSIDE = {"> 0": 0.0, ">= 0": -math.ulp(0.0)}
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "np-nan": np.float64("nan")}
CASES = [pytest.param(site, bad, id=f"{site}-{label}")
         for site, (_, bound, _) in SITES.items()
         for label, bad in (NON_FINITE | (
             {} if bound is None else {"outside": OUTSIDE[bound]})).items()]


@pytest.mark.parametrize("site,bad", CASES)
def test_refuses_a_value_that_is_not_finite_or_outside_its_bound(site, bad):
    name, _, call = SITES[site]
    with pytest.raises(PhysicsDomainError, match=rf"^{re.escape(name)} must "
                                                 rf"be .*, got "):
        call(bad)


@pytest.mark.parametrize("site", SITES)
def test_the_edge_of_the_bound_passes_the_rule(site):
    # The edge may still be refused for another reason (a zero rate prefactor
    # overflows a cell, say), but never by the rule under test.
    name, bound, call = SITES[site]
    edge = {None: 1.0, "> 0": math.ulp(0.0), ">= 0": 0.0}[bound]
    try:
        call(edge)
    except PhysicsDomainError as exc:
        assert not str(exc).startswith(f"{name} must be ")


def test_returns_the_value_itself_and_states_each_bound():
    for value in (0.0, 2.5, np.float64(2.5), 3):
        assert real("v", value, ">= 0") is value
    assert real("v", -1.0) == -1.0
    cases = {(math.nan, None): "v must be finite, got nan",
             (math.inf, "> 0"): "v must be positive, got inf",
             (0.0, "> 0"): "v must be positive, got 0.0",
             (-0.5, ">= 0"): "v must be finite and >= 0, got -0.5"}
    for (value, bound), message in cases.items():
        with pytest.raises(PhysicsDomainError,
                           match=rf"^{re.escape(message)}$"):
            real("v", value, bound)
