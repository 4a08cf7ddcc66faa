"""One whole-number rule for every order, index and count argument.

Every library entry point that takes a Bessel order, an ``n_max``, a
selection-rule ``p`` or ``q`` or a draw count states it through
``errors.whole_number``: a value that is not a whole number at or above
the site's low end raises ValueError naming the argument, and a whole float
gives the result of the int.
"""

import math

import numpy as np
import pytest

from accelrad import (AtomParams, FreeSpace, ShoMotion, SweepResult,
                      allowed_sidebands, bessel_j, bessel_j_orders,
                      equivalence_cases, fig2_surface,
                      general_trajectory_spectrum, rate_surface,
                      rational_period_integral, verify_selection_rule)
from accelrad.constants import SPEED_OF_LIGHT as C
from accelrad.errors import whole_number

_ATOM = AtomParams(omega0=1.0, g=0.37)
_MOTION = ShoMotion(amplitude=0.3 * C / 2.0, Omega=2.0)

# site -> (argument name, low end, call with the argument set to v)
SITES = {
    "bessel_j": ("order", 0, lambda v: bessel_j(v, 1.0)),
    "bessel_j_orders": ("n_max", 0, lambda v: bessel_j_orders(v, 1.0)),
    "rational_period_integral-p": (
        "p", 1, lambda v: rational_period_integral(1.0, v, 1)),
    "rational_period_integral-q": (
        "q", 1, lambda v: rational_period_integral(1.0, 2, v)),
    "verify_selection_rule-p": (
        "p", 1, lambda v: verify_selection_rule(v, 1, 1.0)),
    "verify_selection_rule-q": (
        "q", 1, lambda v: verify_selection_rule(2, v, 1.0)),
    "general_trajectory_spectrum": (
        "n_max", 1,
        lambda v: general_trajectory_spectrum(_ATOM, _MOTION, FreeSpace(), v)),
    "equivalence_cases": (
        "count", 1, lambda v: equivalence_cases(seed=0, count=v)),
    "allowed_sidebands": (
        "n_max", 1,
        lambda v: allowed_sidebands(_ATOM, _MOTION, FreeSpace(), v)),
    "fig2_surface": ("n_max", 1, lambda v: fig2_surface([0.5, 1.0], v)),
    "rate_surface": (
        "n_max", 1,
        lambda v: rate_surface(_ATOM, _MOTION, FreeSpace(),
                               [0.1 * C / 2.0, 0.3 * C / 2.0], v)),
}

# None stands for the site's low end minus one.  A numpy infinity must be
# refused without a RuntimeWarning, which pytest turns into an error.
BAD = {"2.5": 2.5, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
       "np-inf": np.float64("inf"), "np-nan": np.float64("nan"),
       "low-1": None}


def comparable(result):
    """A form of a site's result that == compares field by field."""
    if isinstance(result, SweepResult):
        return (result.axis1_name, result.axis1_values, result.axis2_name,
                result.axis2_values, result.values.tolist(), result.metadata,
                result.fixed)
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, (list, tuple)):
        return [comparable(item) for item in result]
    if isinstance(result, FreeSpace):  # holds no state, defines no ==
        return FreeSpace
    return result


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("site", SITES)
def test_refuses_a_value_that_is_not_a_whole_number_at_or_above_low(site,
                                                                    bad):
    name, low, call = SITES[site]
    value = low - 1 if bad is None else bad
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer >= {low}, got "):
        call(value)


@pytest.mark.parametrize("site", SITES)
def test_a_whole_float_gives_the_result_of_the_int(site):
    _, _, call = SITES[site]
    assert comparable(call(2.0)) == comparable(call(2))


def test_returns_an_int_and_keeps_the_low_end():
    for value in (3, 3.0, np.int64(3), np.float64(3.0), 10**400):
        got = whole_number("k", value, 1)
        assert type(got) is int and got == value
    assert whole_number("k", 0, 0) == 0
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 0$"):
        whole_number("k", 0, 1)
