"""Hazard specifications with continuous and atomic parts.

A clock's next-jump distribution between system jumps is described by a
:class:`HazardSpec`: a named continuous hazard family plus a finite list of
atoms (point masses in the intensity).  Durations are measured from the
clock's enabling time.  Survival combines both parts,

    S(t) = exp(-H(t)) * prod_{offset <= t} (1 - mass),

where H is the integrated continuous hazard.  The time process is the
consumed hazard over an interval,

    time_process(t1, t2) = H(t2) - H(t1) + sum_{t1 < offset <= t2} -ln(1 - mass),

so that S(t2) = S(t1) * exp(-time_process(t1, t2)) identically.  The
per-clock samplers in :mod:`clocksim.samplers` (first-reaction,
next-reaction, next-to-fire) are built from ``invert_conditional`` and
``time_process``, a fresh uniform variate u entering as the required
log-survival ln(1 - u): a clock enabled at te draws, inline in the
sampler's loop, the absolute time
``te + invert_conditional(spec, now - te, log1p(-u))``.  The shift needs no
clamp: the kernel and the samplers both reject an anchor outside
-inf < te <= now.  The direct sampler inverts the summed cumulative hazards
of all enabled clocks itself.

A spec whose continuous part is :class:`Exponential` and that has no atoms
takes an exponential path in ``invert_conditional`` and ``time_process``:
the general path's own arithmetic, inline, with the rate read once at
construction, so its results are the same to the bit.  Its final
``max(t, shift)`` is a comparison that keeps t on a tie, as ``max`` does,
so a signed zero comes out as the general path's.  scipy is imported only
by the first :class:`Gamma` evaluation.

Log-survivals are plain non-positive floats (-inf means survival exhausted);
putative times use ``math.inf`` as the distinguished "never" value, ordered
after every finite time.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

INF = math.inf

# scipy.special, imported by the first Gamma evaluation: no other family needs scipy
_special = None


def _load_special():
    global _special
    from scipy import special as _special

    return _special

# Relative time tolerance and iteration cap for numerical hazard inversion.
_INVERT_RTOL = 1e-12
_INVERT_MAXITER = 200


def _check_parameter(name, value, zero_ok=False, error=ValueError):
    """`value` as a float; `error` unless it is a real number (never a bool),
    finite, and > 0 (>= 0 if `zero_ok`).  The one statement of the rule."""
    if not ((type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and value < INF and (value > 0.0 or zero_ok and value == 0.0)):
        raise error(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Atom:
    """A point mass in the intensity: survival drops by (1 - mass) at offset."""

    offset: float
    mass: float

    def __post_init__(self):
        if not _check_parameter("atom mass", self.mass) <= 1.0:
            raise ValueError(f"atom mass must be in (0, 1], got {self.mass!r}")
        _check_parameter("atom offset", self.offset)


class ContinuousHazard:
    """Base of the continuous hazard families, the one type a HazardSpec's
    continuous part must have.  A family whose survival reaches zero at a
    finite duration overrides `support_end`."""

    def support_end(self):
        """Duration at which the survival hits zero (inf if never)."""
        return INF


def _hazard_at_zero(shape, unit_shape_hazard):
    """The duration-0 hazard of a family whose hazard behaves as d ** (shape - 1) near 0."""
    if shape > 1.0:
        return 0.0
    if shape == 1.0:
        return unit_shape_hazard
    return INF


@dataclass(frozen=True)
class Exponential(ContinuousHazard):
    """Constant hazard."""

    rate: float

    def __post_init__(self):
        _check_parameter("rate", self.rate, zero_ok=True)

    def hazard(self, d):
        return self.rate

    def cumulative(self, d):
        return self.rate * d

    def inverse_cumulative(self, x):
        if self.rate == 0.0:
            return INF
        if x <= 0.0:
            return 0.0
        return x / self.rate


@dataclass(frozen=True)
class Weibull(ContinuousHazard):
    """Weibull hazard; cumulative hazard (d / scale) ** shape.

    A power past the float range is INF, so an extreme shape saturates
    instead of raising OverflowError.
    """

    shape: float
    scale: float

    def __post_init__(self):
        _check_parameter("shape", self.shape)
        _check_parameter("scale", self.scale)

    def hazard(self, d):
        k = self.shape
        if d <= 0.0:
            return _hazard_at_zero(k, 1.0 / self.scale)
        try:
            return (k / self.scale) * (d / self.scale) ** (k - 1.0)
        except OverflowError:
            return INF

    def cumulative(self, d):
        if d <= 0.0:
            return 0.0
        try:
            return (d / self.scale) ** self.shape
        except OverflowError:
            return INF

    def inverse_cumulative(self, x):
        if x <= 0.0:
            return 0.0
        try:
            return self.scale * x ** (1.0 / self.shape)
        except OverflowError:
            return INF


@dataclass(frozen=True)
class Gamma(ContinuousHazard):
    """Gamma-distributed interarrival; hazard pdf(d) / sf(d).

    The cumulative hazard has no closed-form inverse, so inversion is
    numerical (bracketed bisection refined by safeguarded Newton).
    """

    shape: float
    rate: float

    def __post_init__(self):
        _check_parameter("shape", self.shape)
        _check_parameter("rate", self.rate)

    def hazard(self, d):
        if d <= 0.0:
            return _hazard_at_zero(self.shape, self.rate)
        special = _special or _load_special()
        x = self.rate * d
        sf = float(special.gammaincc(self.shape, x))
        if sf <= 0.0:
            return INF
        logpdf = (
            self.shape * math.log(self.rate)
            + (self.shape - 1.0) * math.log(d)
            - x
            - special.gammaln(self.shape)
        )
        return math.exp(logpdf) / sf

    def cumulative(self, d):
        if d <= 0.0:
            return 0.0
        sf = (_special or _load_special()).gammaincc(self.shape, self.rate * d)
        if sf <= 0.0:
            return INF
        return -math.log(sf)

    def inverse_cumulative(self, x):
        if x <= 0.0:
            return 0.0
        return _invert_monotone(self.cumulative, self.hazard, x, self.shape / self.rate)


@dataclass(frozen=True)
class UniformInterval(ContinuousHazard):
    """Jump uniformly distributed on [a, b].

    The hazard 1 / (b - d) diverges at b; inversion works on the survival
    directly and never evaluates the hazard there.  Jumps always land
    strictly before b.
    """

    a: float
    b: float

    def __post_init__(self):
        if not _check_parameter("a", self.a, zero_ok=True) < _check_parameter("b", self.b):
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    def hazard(self, d):
        if d < self.a:
            return 0.0
        if d >= self.b:
            return INF
        return 1.0 / (self.b - d)

    def cumulative(self, d):
        if d <= self.a:
            return 0.0
        if d >= self.b:
            return INF
        return -math.log((self.b - d) / (self.b - self.a))

    def inverse_cumulative(self, x):
        # survival (b - d)/(b - a) = exp(-x); x = 0 resolves to a, where
        # the hazard begins
        return self.b - (self.b - self.a) * math.exp(-max(x, 0.0))

    def support_end(self):
        return self.b


@dataclass(frozen=True)
class PiecewiseConstant(ContinuousHazard):
    """Piecewise-constant hazard; rates[i] applies on [breakpoints[i], breakpoints[i+1]).

    The last rate extends to infinity.  breakpoints[0] must be 0.
    """

    breakpoints: tuple
    rates: tuple

    def __post_init__(self):
        bp = tuple(_check_parameter("breakpoints", b, zero_ok=True) for b in self.breakpoints)
        rs = tuple(_check_parameter("rates", r, zero_ok=True) for r in self.rates)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "rates", rs)
        if len(bp) != len(rs) or not bp:
            raise ValueError("breakpoints and rates must have equal nonzero length")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        cum = [0.0]
        for i in range(len(bp) - 1):
            cum.append(cum[-1] + rs[i] * (bp[i + 1] - bp[i]))
        object.__setattr__(self, "_cum", tuple(cum))

    def hazard(self, d):
        if d < 0.0:
            return 0.0
        return self.rates[bisect_right(self.breakpoints, d) - 1]

    def cumulative(self, d):
        if d <= 0.0:
            return 0.0
        i = bisect_right(self.breakpoints, d) - 1
        rate = self.rates[i]
        # a zero-rate piece adds nothing, even at d = inf (where 0 * inf is NaN)
        return self._cum[i] + rate * (d - self.breakpoints[i]) if rate else self._cum[i]

    def inverse_cumulative(self, x):
        x = max(x, 0.0)
        # the last of equal _cum values: a target on a zero-rate plateau's
        # level resumes where the hazard does
        i = bisect_right(self._cum, x) - 1
        rate = self.rates[i]
        if rate <= 0.0:
            return INF
        return self.breakpoints[i] + (x - self._cum[i]) / rate


#: The continuous hazard families by the name model strings spell them with
#: (see :func:`clocksim.models.parse_hazard`); the only list of them.
FAMILIES = {
    "exponential": Exponential,
    "weibull": Weibull,
    "gamma": Gamma,
    "uniform": UniformInterval,
    "piecewise": PiecewiseConstant,
}


def _invert_monotone(cumulative, hazard, x, scale_guess):
    """Smallest d with cumulative(d) >= x, for strictly increasing cumulative.

    Bracketed bisection refined by safeguarded Newton, terminating at
    relative time tolerance 1e-12 or 200 iterations.
    """
    lo = 0.0
    hi = max(scale_guess, 1e-300)
    f_hi = cumulative(hi) - x  # kept beside hi: no point is evaluated twice
    it = 0
    while f_hi < 0.0:
        lo = hi
        hi *= 2.0
        it += 1
        if it > 1100 or hi == INF:
            return INF
        f_hi = cumulative(hi) - x
    for _ in range(_INVERT_MAXITER):
        if hi - lo <= _INVERT_RTOL * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        f = cumulative(mid) - x
        if f >= 0.0:
            hi, f_hi = mid, f
        else:
            lo = mid
        # Newton step from the current upper end, kept inside the bracket.
        h = hazard(hi)
        if h > 0.0 and math.isfinite(h):
            cand = hi - f_hi / h
            if lo < cand < hi:
                f = cumulative(cand) - x
                if f >= 0.0:
                    hi, f_hi = cand, f
                else:
                    lo = cand
    return hi


@dataclass(frozen=True)
class HazardSpec:
    """A clock's full intensity between system jumps.

    continuous: one of the hazard families above, or None for atoms-only.
    atoms: atoms at strictly increasing offsets; an atom of mass 1 is a
    certain jump and must be last (survival is zero afterward).
    """

    continuous: object = None
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if self.continuous is not None and not isinstance(self.continuous, ContinuousHazard):
            raise ValueError(f"unknown continuous family {self.continuous!r}")
        offs = [a.offset for a in self.atoms]
        if any(o2 <= o1 for o1, o2 in zip(offs, offs[1:])):
            raise ValueError("atom offsets must be strictly increasing")
        if any(a.mass == 1.0 for a in self.atoms[:-1]):
            raise ValueError("an atom of mass 1 must be the last atom")
        # the rate of a plain exponential clock, else None: the exponential path's key
        plain = type(self.continuous) is Exponential and not self.atoms
        object.__setattr__(self, "_exp_rate", self.continuous.rate if plain else None)

    # -- continuous part helpers (zero hazard when continuous is None) --

    def cumulative_hazard(self, d):
        """Integrated continuous hazard over [0, d] (atoms excluded)."""
        return 0.0 if self.continuous is None else self.continuous.cumulative(d)

    _cum = cumulative_hazard

    def _cum_inv(self, x):
        if self.continuous is None:
            return INF
        return self.continuous.inverse_cumulative(x)

    def continuous_hazard(self, d):
        """Continuous hazard rate at duration d since enabling."""
        return 0.0 if self.continuous is None else self.continuous.hazard(d)

    def support_end(self):
        """Duration at which the continuous survival hits zero (inf if never)."""
        return INF if self.continuous is None else self.continuous.support_end()


def survival(spec: HazardSpec, t: float) -> float:
    """P[jump later than t], right-continuous in t (atoms at t included)."""
    if not t >= 0.0:  # NaN fails too
        raise ValueError("duration must be >= 0")
    s = math.exp(-spec._cum(t))
    for a in spec.atoms:
        if a.offset > t:
            break
        s *= 1.0 - a.mass
    return s


def time_process(spec: HazardSpec, t1: float, t2: float) -> float:
    """Consumed hazard over (t1, t2]; equals -ln(S(t2)/S(t1)).

    +inf when an atom of mass 1 lies in the interval or the continuous
    survival is exhausted by t2.
    """
    if not 0.0 <= t1 <= t2:
        raise ValueError(f"need 0 <= t1 <= t2, got ({t1}, {t2})")
    rate = spec._exp_rate
    if rate is not None:
        h2 = rate * t2
        return INF if h2 == INF else h2 - rate * t1
    h2 = spec._cum(t2)
    if h2 == INF:
        return INF
    total = h2 - spec._cum(t1)
    for a in spec.atoms:
        if a.offset > t2:
            break
        if a.offset > t1:
            if a.mass == 1.0:
                return INF
            total -= math.log1p(-a.mass)
    return total


def invert_conditional(spec: HazardSpec, shift: float, required_log_survival: float) -> float:
    """Smallest duration t' >= shift consuming -required_log_survival hazard.

    Conditional inversion: given survival to `shift`, find when the
    remaining log-survival budget runs out.  Returns inf when the spec's
    remaining hazard mass never reaches the requirement.  Zero-hazard
    plateaus at an exact-tie target resolve to where the hazard resumes.
    """
    if not shift >= 0.0:  # NaN fails too
        raise ValueError("shift must be >= 0")
    if not required_log_survival <= 0.0:
        raise ValueError("required log-survival must be <= 0")
    need = -required_log_survival
    rate = spec._exp_rate
    if rate is not None:
        base = rate * shift
        if base == INF:
            return shift
        if rate == 0.0:
            return INF
        x = base + need
        t = 0.0 if x <= 0.0 else x / rate
        return shift if shift > t else t
    base = spec._cum(shift)
    if base == INF:
        return shift
    atoms_acc = 0.0
    for a in spec.atoms:
        if a.offset <= shift:
            continue
        cont_at_atom = spec._cum(a.offset) - base
        if cont_at_atom + atoms_acc > need:
            t = max(spec._cum_inv(base + (need - atoms_acc)), shift)
            return min(t, a.offset)
        if a.mass == 1.0:
            return a.offset
        atoms_acc -= math.log1p(-a.mass)
        if cont_at_atom + atoms_acc >= need:
            return a.offset
    return max(spec._cum_inv(base + (need - atoms_acc)), shift)

