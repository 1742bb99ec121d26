import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv

from clocksim import verify
from clocksim.hazards import (
    INF,
    Atom,
    Exponential,
    Gamma,
    HazardSpec,
    PiecewiseConstant,
    UniformInterval,
    Weibull,
    invert_conditional,
    survival,
    time_process,
)
from clocksim.models import parse_hazard

from conftest import survival_quadrature

LN2 = math.log(2.0)


def first_draw(spec, u):
    """Putative duration of a clock's first draw from the uniform variate u."""
    return invert_conditional(spec, 0.0, math.log1p(-u))


MATRIX = [
    HazardSpec(Exponential(1.0)),
    HazardSpec(Exponential(LN2), (Atom(1.0, 0.5),)),
    HazardSpec(Weibull(2.0, 1.0)),
    HazardSpec(Weibull(0.7, 2.0)),
    HazardSpec(Gamma(2.0, 3.0)),
    HazardSpec(Gamma(0.5, 1.0)),
    HazardSpec(UniformInterval(0.5, 2.0)),
    HazardSpec(PiecewiseConstant((0.0, 1.0, 2.0), (0.5, 0.0, 2.0))),
    HazardSpec(None, (Atom(1.0, 0.25), Atom(2.0, 0.5))),
    HazardSpec(Weibull(1.5, 1.0), (Atom(0.5, 0.2), Atom(1.5, 1.0))),
]


def _ids(specs):
    return [f"spec{i}" for i in range(len(specs))]


def _grid_for(spec):
    """Evaluation times clear of the continuous support end."""
    end = spec.support_end()
    hi = min(4.0, end * 0.999) if end < INF else 4.0
    n = 100
    return [hi * (k + 1) / n for k in range(n)]


# -- frozen examples ---------------------------------------------------------

def test_survival_examples():
    assert survival(HazardSpec(Exponential(1.0)), LN2) == pytest.approx(0.5, rel=1e-12)
    assert survival(HazardSpec(None, (Atom(2.0, 0.3),)), 3.0) == pytest.approx(0.7, rel=1e-15)
    mixed = HazardSpec(Exponential(LN2), (Atom(1.0, 0.5),))
    assert survival(mixed, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert survival(HazardSpec(Weibull(2.0, 1.0)), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_time_process_examples():
    assert time_process(HazardSpec(Exponential(1.0)), 1.0, 3.0) == pytest.approx(2.0, rel=1e-12)
    atom = HazardSpec(None, (Atom(2.0, 0.5),))
    assert time_process(atom, 1.0, 3.0) == pytest.approx(LN2, rel=1e-12)
    assert time_process(HazardSpec(Weibull(2.0, 1.0)), 0.0, 2.0) == pytest.approx(4.0, rel=1e-12)
    certain = HazardSpec(None, (Atom(0.5, 1.0),))
    assert time_process(certain, 0.0, 1.0) == INF


def test_sample_first_examples():
    assert first_draw(HazardSpec(Exponential(2.0)), 1.0 - math.exp(-1.0)) == pytest.approx(0.5, rel=1e-12)
    certain = HazardSpec(None, (Atom(5.0, 1.0),))
    for u in (0.0, 0.3, 0.999):
        assert first_draw(certain, u) == 5.0
    mixed = HazardSpec(Exponential(LN2), (Atom(1.0, 0.5),))
    # target survival 0.3: continuous part reaches 0.5 at t=1, atom drops to 0.25
    assert first_draw(mixed, 0.7) == 1.0


def test_invert_conditional_examples():
    assert invert_conditional(HazardSpec(Exponential(2.0)), 1.0, -1.0) == pytest.approx(1.5, rel=1e-12)
    zero = HazardSpec(PiecewiseConstant((0.0,), (0.0,)))
    assert invert_conditional(zero, 0.0, -0.5) == INF
    assert invert_conditional(HazardSpec(Weibull(2.0, 1.0)), 0.0, -4.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("value, expected", [
    # unit shape: the duration-0 hazard is the family's rate
    (lambda: Weibull(1.0, 2.0).hazard(0.0), 0.5),
    (lambda: Gamma(1.0, 3.0).hazard(0.0), 3.0),
    # (d / scale) ** shape overflows
    (lambda: Weibull(50.0, 1e-6).hazard(1e6), INF),
    (lambda: Weibull(50.0, 1e-6).cumulative(1e6), INF),
    (lambda: Gamma(2.0, 1.0).inverse_cumulative(0.0), 0.0),
    (lambda: UniformInterval(0.0, 1.0).hazard(1.0), INF),
    # past the support end the whole mass is consumed: the draw is the shift itself
    (lambda: invert_conditional(HazardSpec(UniformInterval(0.0, 1.0)), 1.5, -1.0), 1.5),
    (lambda: invert_conditional(HazardSpec(UniformInterval(0.0, 1.0), (Atom(2.0, 0.5),)), 1.5, -1.0), 1.5),
], ids=["weibull-h0", "gamma-h0", "weibull-h-overflow", "weibull-H-overflow", "gamma-Hinv0",
        "uniform-h-at-b", "uniform-past-b", "uniform-atom-past-b"])
def test_family_values_at_the_ends_of_their_support(value, expected):
    assert value() == expected


# -- oracles and invariants --------------------------------------------------

@pytest.mark.parametrize("spec", MATRIX, ids=_ids(MATRIX))
def test_survival_matches_quadrature(spec):
    for t in _grid_for(spec)[::7]:
        expect = survival_quadrature(spec, t)
        assert survival(spec, t) == pytest.approx(expect, rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("spec", MATRIX, ids=_ids(MATRIX))
def test_survival_nonincreasing_and_starts_at_one(spec):
    assert survival(spec, 0.0) == 1.0
    prev = 1.0
    for t in _grid_for(spec):
        s = survival(spec, t)
        assert s <= prev + 1e-15
        prev = s


def test_distributions_suite_checks_every_matrix_spec():
    # `verify.distributions` holds the survival = exp(-time_process) and the
    # inversion round-trip checks; every spec here must be one of its rows
    rows = verify.distributions()
    assert all(ok for _, _, ok in rows), rows
    checked = [parse_hazard(label.split()[1]) for label, _, _ in rows]
    assert [spec for spec in MATRIX if spec not in checked] == []


@pytest.mark.parametrize("spec", [m for m in MATRIX if m.atoms], ids=lambda s: "atoms")
def test_atom_drop_exact(spec):
    for a in spec.atoms:
        # left limit S(offset-): the continuous part at the offset, atoms strictly before it
        before = math.exp(-spec.cumulative_hazard(a.offset))
        for earlier in spec.atoms:
            if earlier.offset < a.offset:
                before *= 1.0 - earlier.mass
        after = survival(spec, a.offset)
        assert after == before * (1.0 - a.mass)


@pytest.mark.parametrize("spec", MATRIX, ids=_ids(MATRIX))
def test_sample_first_sweep_reproduces_distribution(spec):
    n = 10_000
    draws = [first_draw(spec, (i + 0.5) / n) for i in range(n)]
    assert all(b >= a for a, b in zip(draws, draws[1:]))
    finite = [d for d in draws if d < INF]
    if not finite:
        return
    # empirical CDF at every draw and midpoints vs 1 - survival
    checkpoints = sorted(set(finite))
    import bisect

    for t in checkpoints:
        ecdf = bisect.bisect_right(draws, t) / n
        assert abs(ecdf - (1.0 - survival(spec, t))) <= 2e-4


@pytest.mark.parametrize("spec", MATRIX, ids=_ids(MATRIX))
def test_time_process_additivity(spec):
    grid = _grid_for(spec)
    pts = [grid[3], grid[31], grid[77]]
    a, b, c = sorted(pts)
    whole = time_process(spec, a, c)
    parts = time_process(spec, a, b) + time_process(spec, b, c)
    if whole == INF or parts == INF:
        assert whole == parts
    else:
        assert whole == pytest.approx(parts, rel=1e-10, abs=1e-12)


@given(
    rate=st.floats(0.01, 50.0),
    a=st.floats(0.0, 10.0),
    delta1=st.floats(0.0, 10.0),
    delta2=st.floats(0.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_additivity_property_exponential_with_atom(rate, a, delta1, delta2):
    spec = HazardSpec(Exponential(rate), (Atom(5.0, 0.5),))
    b = a + delta1
    c = b + delta2
    whole = time_process(spec, a, c)
    parts = time_process(spec, a, b) + time_process(spec, b, c)
    assert whole == pytest.approx(parts, rel=1e-10, abs=1e-10)


# -- the exponential path -----------------------------------------------------

def _bits(x):
    return struct.pack("<d", x)


def _check_exponential_path(rate, shift, dt, log_survival):
    """The exponential path equals the family-method general path bit for bit."""
    c = Exponential(rate)
    spec = HazardSpec(c)
    need = -log_survival
    base = c.cumulative(shift)
    expect = shift if base == INF else max(c.inverse_cumulative(base + need), shift)
    assert _bits(invert_conditional(spec, shift, log_survival)) == _bits(expect)
    t2 = shift + dt
    h2 = c.cumulative(t2)
    expect = INF if h2 == INF else h2 - c.cumulative(shift)
    assert _bits(time_process(spec, shift, t2)) == _bits(expect)


CORNER_RATES = [0.0, 5e-324, 1e300]
CORNER_SHIFTS = [0.0, 1e10]  # 1e300 * 1e10 overflows to inf
CORNER_LOG_SURVIVALS = [0.0, -0.0, -1.0]


@pytest.mark.parametrize("rate", CORNER_RATES)
@pytest.mark.parametrize("shift", CORNER_SHIFTS)
@pytest.mark.parametrize("log_survival", CORNER_LOG_SURVIVALS)
def test_exponential_path_corners_match_the_general_path(rate, shift, log_survival):
    for dt in (0.0, 1.0, 1e10):
        _check_exponential_path(rate, shift, dt, log_survival)


@given(
    rate=st.sampled_from(CORNER_RATES) | st.floats(0.0, 1e300),
    shift=st.sampled_from(CORNER_SHIFTS) | st.floats(0.0, 1e12),
    dt=st.floats(0.0, 1e12),
    log_survival=st.sampled_from(CORNER_LOG_SURVIVALS) | st.floats(max_value=0.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_exponential_path_matches_the_general_path(rate, shift, dt, log_survival):
    _check_exponential_path(rate, shift, dt, log_survival)


# Ties between the drawn duration and the shift, where the path must keep
# the general path's choice between two equal values: an exact tie, a need
# absorbed by rounding into a large shift, and a signed-zero shift.
EXPONENTIAL_TIES = [
    (1.0, 1.0, 0.0),
    (1.0, 1.0, -0.0),
    (1.0, 1e17, -1.0),
    (1.0, -0.0, 0.0),
    (1.0, -0.0, -0.0),
    (2.0, 0.5, -0.0),
]


@pytest.mark.parametrize("rate, shift, log_survival", EXPONENTIAL_TIES)
def test_exponential_path_ties_match_the_general_path(rate, shift, log_survival):
    for dt in (0.0, 1.0, 1e10):
        _check_exponential_path(rate, shift, dt, log_survival)


def test_only_plain_exponential_specs_take_the_exponential_path():
    assert HazardSpec(Exponential(2.0))._exp_rate == 2.0
    assert HazardSpec(Exponential(2.0), (Atom(1.0, 0.5),))._exp_rate is None
    assert HazardSpec(Weibull(1.0, 0.5))._exp_rate is None
    assert HazardSpec()._exp_rate is None


def test_gamma_inversion_against_closed_form():
    # independent oracle: H(t) = -ln Q(shape, rate t)  =>  t = Q^{-1}(shape, e^{-x}) / rate
    for shape, rate in [(2.0, 3.0), (0.5, 1.0), (4.5, 0.7)]:
        fam = Gamma(shape, rate)
        for x in [0.01, 0.5, 1.0, 3.0, 8.0]:
            expect = gammainccinv(shape, math.exp(-x)) / rate
            assert fam.inverse_cumulative(x) == pytest.approx(expect, rel=1e-9)
            # a plain float, not numpy's: the direct sampler's tree takes it as a weight
            assert type(fam.hazard(expect)) is float


def test_flat_segment_inversion_returns_resuming_edge():
    spec = HazardSpec(PiecewiseConstant((0.0, 1.0, 2.0), (1.0, 0.0, 2.0)))
    # cumulative hazard reaches 1.0 at t=1, flat on [1, 2), resumes at 2
    assert invert_conditional(spec, 0.0, -1.0) == pytest.approx(2.0, rel=1e-12)
    assert invert_conditional(spec, 0.0, -0.999) == pytest.approx(0.999, rel=1e-12)
    assert invert_conditional(spec, 0.0, -1.001) == pytest.approx(2.0005, rel=1e-12)


def _scan_inverse(pc, x):
    """PiecewiseConstant.inverse_cumulative as a linear scan over the pieces: the reference."""
    x = max(x, 0.0)
    bp, rs, cum = pc.breakpoints, pc.rates, pc._cum
    for i in range(len(bp)):
        if rs[i] <= 0.0:
            continue
        end = cum[i + 1] if i + 1 < len(bp) else INF
        if x < end or (i + 1 == len(bp)):
            start = cum[i]
            if x < start:
                return bp[i]
            return bp[i] + (x - start) / rs[i]
    return INF


_RATES = st.sampled_from([0.0, 5e-324, 1e-320, 1.0]) | st.floats(0.0, 1e300)


@given(
    gaps=st.lists(st.floats(1e-300, 1e6), min_size=0, max_size=5),
    rates=st.lists(_RATES, min_size=6, max_size=6),
    extra=st.floats(allow_nan=True, allow_infinity=True),
)
@settings(max_examples=300, deadline=None)
def test_piecewise_inverse_matches_a_scan_over_the_pieces(gaps, rates, extra):
    bp = [0.0]
    for gap in gaps:
        if bp[-1] + gap > bp[-1]:
            bp.append(bp[-1] + gap)
    pc = PiecewiseConstant(tuple(bp), tuple(rates[: len(bp)]))
    targets = [math.nan, -1.0, -0.0, 0.0, INF, extra]
    for c in pc._cum:
        targets += [c, math.nextafter(c, INF)]
    for x in targets:
        assert _bits(pc.inverse_cumulative(x)) == _bits(_scan_inverse(pc, x)), x


@pytest.mark.parametrize("shape, rate, x", [(2.0, 3.0, 1.0), (0.5, 1.0, 0.01), (0.3, 0.1, 8.0), (30.0, 50.0, 3.0)])
def test_gamma_inversion_evaluates_cumulative_once_per_point(shape, rate, x, monkeypatch):
    fam = Gamma(shape, rate)
    expect = fam.inverse_cumulative(x)
    points = []
    real = Gamma.cumulative

    def recording(self, d):
        points.append(d)
        return real(self, d)

    monkeypatch.setattr(Gamma, "cumulative", recording)
    assert _bits(fam.inverse_cumulative(x)) == _bits(expect)
    assert points and len(points) == len(set(points))


def test_mass_one_atom_is_certain():
    spec = HazardSpec(Exponential(0.1), (Atom(2.0, 1.0),))
    assert survival(spec, 2.0) == 0.0
    assert invert_conditional(spec, 0.0, -50.0) == 2.0
    assert invert_conditional(spec, 1.0, -50.0) == 2.0
    assert first_draw(spec, 0.9999) <= 2.0


def test_insufficient_mass_gives_infinity():
    spec = HazardSpec(None, (Atom(2.0, 0.3),))
    assert first_draw(spec, 0.5) == INF  # target survival 0.5 lies below the plateau 0.7
    assert first_draw(spec, 0.2) == 2.0


def test_uniform_interval_never_evaluates_hazard_at_b():
    spec = HazardSpec(UniformInterval(0.5, 2.0))
    assert first_draw(spec, 0.999999999) < 2.0
    assert survival(spec, 2.0) == 0.0
    assert invert_conditional(spec, 0.0, -0.5) == pytest.approx(
        2.0 - 1.5 * math.exp(-0.5), rel=1e-12
    )


def test_conditional_consumes_from_shift():
    spec = HazardSpec(Weibull(2.0, 1.0))
    # consumed from shift 1: (t^2 - 1) = 3  =>  t = 2
    assert invert_conditional(spec, 1.0, -3.0) == pytest.approx(2.0, rel=1e-12)


def test_atoms_before_shift_are_history():
    spec = HazardSpec(Exponential(1.0), (Atom(0.5, 0.9),))
    # shift past the atom: only continuous hazard remains
    assert invert_conditional(spec, 1.0, -1.0) == pytest.approx(2.0, rel=1e-12)


def test_invert_conditional_rejects_a_negative_or_nan_shift():
    # the exponential path and the general path
    for spec in (HazardSpec(Exponential(1.0)), HazardSpec(Weibull(2.0, 1.0))):
        for shift in (-1.0, -5e-324, math.nan):
            with pytest.raises(ValueError, match="shift must be >= 0"):
                invert_conditional(spec, shift, -1.0)


def test_survival_rejects_a_nan_duration():
    with pytest.raises(ValueError, match="duration must be >= 0"):
        survival(HazardSpec(Exponential(1.0)), math.nan)


def test_invert_conditional_rejects_a_nan_log_survival():
    # the exponential path and the general path
    for spec in (HazardSpec(Exponential(1.0)), HazardSpec(Weibull(2.0, 1.0))):
        with pytest.raises(ValueError, match="required log-survival must be <= 0"):
            invert_conditional(spec, 0.0, math.nan)


def test_validation_errors():
    with pytest.raises(ValueError):
        Atom(1.0, 0.0)
    with pytest.raises(ValueError):
        Atom(1.0, 1.5)
    with pytest.raises(ValueError):
        Atom(-1.0, 0.5)
    # an atom at the enabling instant would be an immediate event
    with pytest.raises(ValueError, match="atom offset must be finite and > 0"):
        Atom(0.0, 0.5)
    with pytest.raises(ValueError):
        HazardSpec(None, (Atom(2.0, 0.5), Atom(1.0, 0.5)))
    with pytest.raises(ValueError):
        HazardSpec(None, (Atom(1.0, 1.0), Atom(2.0, 0.5)))
    with pytest.raises(ValueError):
        Weibull(0.0, 1.0)
    with pytest.raises(ValueError, match="rate must be finite and >= 0"):
        Exponential(-1.0)
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        Weibull(1.0, 0.0)
    with pytest.raises(ValueError, match="shape must be finite and > 0"):
        Gamma(0.0, 1.0)
    with pytest.raises(ValueError, match="rate must be finite and > 0"):
        Gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        UniformInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        PiecewiseConstant((1.0, 2.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="breakpoints and rates must have equal nonzero length"):
        PiecewiseConstant((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        PiecewiseConstant((0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="rates must be finite and >= 0"):
        PiecewiseConstant((0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ValueError, match="unknown continuous family"):
        HazardSpec("weibull:2,1")
    with pytest.raises(ValueError, match="duration must be >= 0"):
        survival(HazardSpec(Exponential(1.0)), -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            PiecewiseConstant((0.0, bad), (1.0, 2.0))
    with pytest.raises(ValueError):
        invert_conditional(HazardSpec(Exponential(1.0)), 0.0, 0.5)
    with pytest.raises(ValueError):
        invert_conditional(HazardSpec(Exponential(1.0)), -1.0, -1.0)
    with pytest.raises(ValueError):
        time_process(HazardSpec(Exponential(1.0)), 2.0, 1.0)
