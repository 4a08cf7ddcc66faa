"""Parameter sweeps: figure-data surfaces and their metadata.

Cells are written into pre-sized arrays addressed by grid index, so results
are deterministic regardless of evaluation order.  The custom surface takes
each sideband's amplitude-free factor (the geometry's ``line``) once and
pays one Bessel factor per cell.  Each surface takes its Bessel values from
one array call (``bessel_j_orders`` over fig2's axis, ``bessel_j_cells``
for fig3's J_1 and a custom surface's cells after row 0), equal bit for bit
to the scalar calls it replaces; squares stay Python's ``**``.
"""

import math
from dataclasses import dataclass, field, replace

from . import __version__ as _version
from ._lazy import np
from .constants import SPEED_OF_LIGHT as C
from .errors import PhysicsDomainError, real, whole_number
from .rates import AtomParams, Cavity, ShoMotion, check_clearance
from .specfun import bessel_j, bessel_j_cells, bessel_j_orders

#: Validity bound on the dimensionless amplitude for the small-amplitude
#: closed form (J_1(x)^2 ~ x^2/4).
SMALL_AMPLITUDE_MAX = 0.1


@dataclass(frozen=True)
class SweepResult:
    """Rate matrix over two named, strictly monotone axes plus the
    held-fixed parameters; values[i, j] pairs axis1[i] with axis2[j].

    ``values`` holds finite non-negative floats.  Each ``aux`` entry is an
    array of the grid's shape, either bool or finite float, so no serialized
    number is ever NaN or infinite.
    """

    axis1_name: str
    axis1_values: tuple
    axis2_name: str
    axis2_values: tuple
    values: "np.ndarray"
    metadata: dict
    fixed: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        for axis in ("axis1", "axis2"):
            name = getattr(self, f"{axis}_name")
            values = tuple(float(v) for v in getattr(self, f"{axis}_values"))
            if len(values) == 0:
                raise PhysicsDomainError(f"axis {name!r} is empty")
            if not all(map(math.isfinite, values)):
                raise PhysicsDomainError(f"axis {name!r} must be finite")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise PhysicsDomainError(
                    f"axis {name!r} must be strictly increasing")
            object.__setattr__(self, f"{axis}_values", values)
        expected = (len(self.axis1_values), len(self.axis2_values))
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {expected}")
        if (not np.issubdtype(self.values.dtype, np.floating)
                or not np.all(np.isfinite(self.values))
                or np.any(self.values < 0)):
            raise PhysicsDomainError(
                "values must be finite non-negative floats")
        for key, value in self.aux.items():
            if not isinstance(value, np.ndarray) or value.shape != expected:
                raise ValueError(f"aux {key!r} must be an array of the grid "
                                 f"shape {expected}")
            if value.dtype != bool and not (
                    np.issubdtype(value.dtype, np.floating)
                    and np.all(np.isfinite(value))):
                raise PhysicsDomainError(
                    f"aux {key!r} must be bool, or float and finite")


def _squares(values) -> list:
    """Each element squared as a Python float, by libm's pow; an array's
    ``** 2`` is ``x * x``, which rounds differently in the last bit."""
    return [v ** 2 for v in values.ravel().tolist()]


def fig2_surface(a_tilde_values, n_max: int, *, g: float | None = None,
                 Omega: float | None = None) -> SweepResult:
    """Free-space rate surface over dimensionless amplitude and sideband
    index n = 1..n_max.

    Default normalization omits the 2 pi g^2 / Omega prefactor, so cells are
    J_n(a_tilde)^2; pass ``g`` and ``Omega`` for absolute rates in Hz.  Over
    a_tilde in [0, 30] the maximum sits at n = 1, a_tilde ~ 1.84.
    """
    a_tilde_values = tuple(float(real("a_tilde", a, ">= 0"))
                           for a in a_tilde_values)
    n_max = whole_number("n_max", n_max, 1)
    if (g is None) != (Omega is None):
        raise ValueError("pass both g and Omega for absolute rates, or neither")
    fixed = {} if g is None else {"g": real("g", g, "> 0"),
                                  "Omega": real("Omega", Omega, "> 0")}

    columns = bessel_j_orders(n_max, a_tilde_values)[:, 1:]
    values = np.array(_squares(columns)).reshape(columns.shape)
    normalization = "prefactor-omitted"
    if g is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # see SweepResult
            values *= 2.0 * math.pi * g**2 / Omega
        normalization = "hz"
    metadata = {"surface": "fig2", "normalization": normalization,
                "version": _version}
    return SweepResult("A_tilde", a_tilde_values, "n", range(1, n_max + 1),
                       values, metadata, fixed=fixed)


def fig3_surface(amplitude_values, alpha_values, *,
                 Omega: float = 2.0 * math.pi * 1e10) -> SweepResult:
    """Small-amplitude cQED rate surface over oscillation amplitude and alpha.

    Cells hold the n = 1 small-amplitude rate at omega0 = Omega/2,

        rate = pi (A alpha)^2 Omega^3 / (32 c^2)   [Hz],

    with the exact Bessel-formula rate alongside in ``aux['exact_rate_hz']``
    and a per-cell validity flag in ``aux['approx_valid']`` (the cell's
    dimensionless amplitude must stay below SMALL_AMPLITUDE_MAX = 0.1;
    violating cells are flagged, not fatal).
    """
    amplitude_values = tuple(float(real("amplitude", a, ">= 0"))
                             for a in amplitude_values)
    alpha_values = tuple(float(real("alpha", a, ">= 0")) for a in alpha_values)
    real("Omega", Omega, "> 0")

    amps = np.asarray(amplitude_values)
    alphas = np.asarray(alpha_values)
    # An overflow is left to SweepResult's check.  Exact rate for
    # comparison: omega0 = Omega/2, g = alpha*omega0, a_tilde = Omega*A/(2c).
    with np.errstate(over="ignore", invalid="ignore"):
        values = (math.pi * np.outer(amps, alphas)**2 * Omega**3
                  / (32.0 * C**2))
        a_tilde = 0.5 * Omega * amps / C
        j1_sq = np.array(_squares(bessel_j_cells(1, a_tilde)))
        g_sq = (alphas * 0.5 * Omega) ** 2
        exact = 2.0 * math.pi / Omega * np.outer(j1_sq, g_sq)
    approx_valid = np.broadcast_to((a_tilde < SMALL_AMPLITUDE_MAX)[:, None],
                                   values.shape).copy()
    metadata = {"surface": "fig3", "normalization": "hz",
                "version": _version}
    return SweepResult("amplitude_m", amplitude_values, "alpha", alpha_values,
                       values, metadata,
                       fixed={"Omega": Omega, "omega0": 0.5 * Omega},
                       aux={"exact_rate_hz": exact,
                            "approx_valid": approx_valid})


def _open_lines(atom, motion, geom, n_max: int, taken: list):
    """Each open line's ``(n, weight, k_motion)`` from ``geom.line``, in n
    order, each also appended to ``taken``.  Lazy: the caller's cell of a
    line (Bessel argument, rate) is checked after the line's boundary phase
    and before its photon frequency and the next line, the order in which
    allowed_sidebands raises them."""
    for n in range(1, n_max + 1):
        if (line := geom.line(atom, motion, n)) is not None:
            weight, k_motion, omega = line[:3]
            yield n, weight, k_motion
            real("photon frequency", omega, "> 0")
            taken.append((n, weight, k_motion))


def rate_surface(atom: AtomParams, motion: ShoMotion, geom,
                 amplitude_values, n_max: int) -> SweepResult:
    """Custom sweep: closed-form rate over oscillation amplitude and
    n = 1..n_max.  Each line's amplitude-free factor is taken once, on the
    first row, so a cell costs one Bessel factor; it equals the line's
    ``allowed_sidebands`` rate at that amplitude bit for bit, and the sweep
    raises the errors the row-by-row loop raised, in its order.  Row 0
    takes its cells one ``bessel_j`` call each; the rows after it, once
    each row's amplitude and clearance are checked, take theirs from one
    ``bessel_j_cells`` call, and a row's refusal is raised after the cells
    of the rows above it.

    Cells with no open sideband (n*Omega <= omega0) are zero.  Each
    amplitude row must clear the boundary.  The one place that refuses a
    pair it cannot sweep: a cavity, or any motion but SHO.
    """
    if isinstance(geom, Cavity) or not isinstance(motion, ShoMotion):
        raise PhysicsDomainError(
            "custom sweeps support free-space and mirror geometries with "
            "SHO motion")
    n_max = whole_number("n_max", n_max, 1)
    amplitude_values = tuple(amplitude_values)
    values = np.zeros((len(amplitude_values), n_max))
    rows = []   # each checked row's amplitude, as a float
    lines = []  # (n, weight, k_motion) of each open line, from row 0
    try:
        for a in amplitude_values:
            amplitude = float(real("amplitude", a, ">= 0"))
            check_clearance(replace(motion, amplitude=amplitude), geom)
            if not rows:
                for n, weight, k_motion in _open_lines(atom, motion, geom,
                                                       n_max, lines):
                    values[0, n - 1] = real("rate", weight * bessel_j(
                        n, k_motion * amplitude)**2, ">= 0")
            rows.append(amplitude)
    except ValueError as exc:  # waits for the cells of the rows above
        refused = exc
    else:
        refused = None
    if len(rows) > 1 and lines:
        orders, weights, k_motion = zip(*lines)
        cells = bessel_j_cells(orders, np.multiply.outer(rows[1:], k_motion))
        rates = [w * j2 for w, j2 in zip(weights * (len(rows) - 1),
                                         _squares(cells))]
        checked = np.array(rates)
        valid = np.isfinite(checked) & (checked >= 0)
        if not valid.all():
            real("rate", rates[np.argmin(valid)], ">= 0")  # raises
        values[1:len(rows), np.array(orders) - 1] = checked.reshape(
            cells.shape)
    if refused is not None:
        raise refused
    metadata = {"surface": "custom", "normalization": "hz",
                "version": _version}
    return SweepResult("amplitude_m", rows, "n",
                       range(1, n_max + 1), values, metadata,
                       fixed={"omega0": atom.omega0, "g": atom.g,
                              "Omega": motion.Omega})
