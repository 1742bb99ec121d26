"""Built-in parameterized models.

Each builder returns an immutable Model whose clocks exercise a hazard
feature: SIR (fully expanded per-pair clocks, general recovery hazards),
rabbits eating (past-anchored enabling times, Weibull scales from state),
birth-death (rate modifications at every step), the atomic showcase (a
continuous/atomic race), a token ring (constant-size dependency
neighborhoods, for scaling runs), and two renewal processes.

Hazard families are nameable as strings: ``family:p1,p2`` with optional
atoms appended as ``@offset,mass;offset,mass`` -- e.g. ``weibull:2,1``,
``exponential:0.693@1,0.5``, ``none@5,1`` (atoms only),
``piecewise:0,1,2|0.5,0,2`` (breakpoints|rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import graph as depgraph
from .clocks import DISABLED, ClockSpec, Enabled, JumpMark, SystemState
from .errors import ModelError
from .hazards import (
    Atom,
    Exponential,
    Gamma,
    HazardSpec,
    PiecewiseConstant,
    UniformInterval,
    Weibull,
)


@dataclass(frozen=True)
class Model:
    """Immutable clocks over an initial state.

    `graph` and `by_id` are computed once per instance and freed with it;
    ``dataclasses.replace`` returns a new instance with fresh tables.
    """

    name: str
    clocks: tuple
    initial_state: SystemState
    params: Mapping[str, object] = field(default_factory=dict)

    @cached_property
    def graph(self) -> depgraph.DependencyGraph:
        return depgraph.build(self.clocks)

    @cached_property
    def by_id(self) -> dict:
        return {c.id: c for c in self.clocks}

    def clock(self, cid):
        if cid not in self.by_id:
            raise ModelError(f"no clock {cid}")
        return self.by_id[cid]


# -- hazard spec strings --------------------------------------------------

def parse_hazard(text) -> HazardSpec:
    """Parse ``family:params[@atoms]`` into a HazardSpec (idempotent)."""
    if isinstance(text, HazardSpec):
        return text
    if not isinstance(text, str):
        raise ModelError(f"expected a hazard string or HazardSpec, got {text!r}")
    body, _, atom_text = text.partition("@")
    atoms = []
    if atom_text:
        for chunk in atom_text.split(";"):
            off, _, mass = chunk.partition(",")
            try:
                atoms.append(Atom(float(off), float(mass)))
            except ValueError as exc:
                raise ModelError(f"bad atom {chunk!r} in {text!r}: {exc}") from exc
    family, _, arg_text = body.partition(":")
    family = family.strip().lower()
    try:
        if family == "none":
            return HazardSpec(None, tuple(atoms))
        args = [float(a) for a in arg_text.split(",")] if family != "piecewise" else None
        if family == "exponential":
            return HazardSpec(Exponential(*args), tuple(atoms))
        if family == "weibull":
            return HazardSpec(Weibull(*args), tuple(atoms))
        if family == "gamma":
            return HazardSpec(Gamma(*args), tuple(atoms))
        if family == "uniform":
            return HazardSpec(UniformInterval(*args), tuple(atoms))
        if family == "piecewise":
            bp_text, _, rate_text = arg_text.partition("|")
            bp = tuple(float(b) for b in bp_text.split(","))
            rs = tuple(float(r) for r in rate_text.split(","))
            return HazardSpec(PiecewiseConstant(bp, rs), tuple(atoms))
    except (TypeError, ValueError) as exc:
        raise ModelError(f"bad hazard spec {text!r}: {exc}") from exc
    raise ModelError(
        f"unknown hazard family {family!r}; valid: exponential, weibull, gamma, "
        "uniform, piecewise, none"
    )


def unparse_hazard(spec: HazardSpec) -> str:
    cont = spec.continuous
    if cont is None:
        body = "none"
    elif isinstance(cont, Exponential):
        body = f"exponential:{cont.rate!r}"
    elif isinstance(cont, Weibull):
        body = f"weibull:{cont.shape!r},{cont.scale!r}"
    elif isinstance(cont, Gamma):
        body = f"gamma:{cont.shape!r},{cont.rate!r}"
    elif isinstance(cont, UniformInterval):
        body = f"uniform:{cont.a!r},{cont.b!r}"
    elif isinstance(cont, PiecewiseConstant):
        body = (
            "piecewise:"
            + ",".join(repr(b) for b in cont.breakpoints)
            + "|"
            + ",".join(repr(r) for r in cont.rates)
        )
    else:
        raise ModelError(f"cannot name family {cont!r}")
    if spec.atoms:
        body += "@" + ";".join(f"{a.offset!r},{a.mass!r}" for a in spec.atoms)
    return body


def _as_int(params, key, default=None, minimum=None):
    value = params.get(key, default)
    if value is None:
        raise ModelError(f"missing required parameter {key!r}")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ModelError(f"parameter {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ModelError(f"parameter {key!r} must be >= {minimum}, got {value}")
    return value


def _as_float(params, key, default=None, positive=False):
    value = params.get(key, default)
    if value is None:
        raise ModelError(f"missing required parameter {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"parameter {key!r} must be a number, got {value!r}")
    if positive and value <= 0.0:
        raise ModelError(f"parameter {key!r} must be > 0, got {value}")
    return value


# -- SIR -------------------------------------------------------------------

def build_sir(n, infect="exponential:1", recover="exponential:1", initial_infected=1) -> Model:
    """Fully expanded SIR: one clock per (infectious, susceptible) pair plus
    one recovery clock per individual.  A recovery clock's enabling time is
    the moment its individual was infected."""
    if n < 1:
        raise ModelError(f"need n >= 1, got {n}")
    if not 0 <= initial_infected <= n:
        raise ModelError(f"need 0 <= initial_infected <= n, got {initial_infected}")
    infect_spec = parse_hazard(infect)
    recover_spec = parse_hazard(recover)
    infect_on = Enabled(infect_spec)
    recover_on = Enabled(recover_spec)
    clocks = []
    cid = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ii, sj = f"I_{i}", f"S_{j}"

            def rule(view, now, ii=ii, sj=sj, out=infect_on):
                if view.count(ii) == 1 and view.count(sj) == 1:
                    return out
                return DISABLED

            clocks.append(
                ClockSpec(
                    id=cid,
                    enabling=rule,
                    mark=JumpMark({sj: -1, f"I_{j}": +1}),
                    reads=frozenset({ii, sj}),
                    name=f"infect_{i}_{j}",
                )
            )
            cid += 1
    for i in range(n):
        ii = f"I_{i}"

        def rule(view, now, ii=ii, out=recover_on):
            return out if view.count(ii) == 1 else DISABLED

        clocks.append(
            ClockSpec(
                id=cid,
                enabling=rule,
                mark=JumpMark({ii: -1, f"R_{i}": +1}),
                reads=frozenset({ii}),
                name=f"recover_{i}",
            )
        )
        cid += 1
    initial = {f"I_{i}": 1 for i in range(initial_infected)}
    initial.update({f"S_{i}": 1 for i in range(initial_infected, n)})
    params = {
        "n": n,
        "initial_infected": initial_infected,
        "infect": unparse_hazard(infect_spec),
        "recover": unparse_hazard(recover_spec),
    }
    return Model("sir", tuple(clocks), SystemState(initial), params)


# -- rabbits eating ---------------------------------------------------------

def build_rabbits(m, food_rate, portions, shape=2.0, scale_rule=None, initial_food=0) -> Model:
    """Poisson food production racing rabbit meals.

    Each rabbit has one eating clock per portion size d_k, enabled while
    d_k <= available food, with a Weibull hazard anchored at the rabbit's
    last meal and scaled by scale_rule(last meal size) (default: the size
    itself, 1.0 before the first meal).
    """
    if m < 1:
        raise ModelError(f"need m >= 1 rabbits, got {m}")
    if food_rate <= 0.0:
        raise ModelError(f"need food_rate > 0, got {food_rate}")
    portions = tuple(int(d) for d in portions)
    if not portions or any(d < 1 for d in portions):
        raise ModelError(f"portions must be positive integers, got {portions}")
    if scale_rule is None:
        scale_rule = lambda last: float(last) if last > 0 else 1.0

    clocks = [
        ClockSpec(
            id=0,
            enabling=lambda view, now, r=food_rate: Enabled(HazardSpec(Exponential(r))),
            mark=JumpMark({"food": +1}),
            reads=frozenset(),
            name="food",
        )
    ]
    cid = 1
    for r in range(m):
        meal_keys = tuple(f"meal_{r}_{k}" for k in range(len(portions)))
        for k, dk in enumerate(portions):

            def rule(view, now, dk=dk, meal_keys=meal_keys, portions=portions,
                     shape=shape, rule_fn=scale_rule):
                if view.count("food") < dk:
                    return DISABLED
                last_t = 0.0
                last_size = 0
                for k2, key in enumerate(meal_keys):
                    if view.count(key) > 0:
                        t2 = view.changed_at(key)
                        if t2 >= last_t:
                            last_t = t2
                            last_size = portions[k2]
                return Enabled(
                    HazardSpec(Weibull(shape, rule_fn(last_size))), enabling_time=last_t
                )

            clocks.append(
                ClockSpec(
                    id=cid,
                    enabling=rule,
                    mark=JumpMark({"food": -dk, meal_keys[k]: +1}),
                    reads=frozenset({"food", *meal_keys}),
                    name=f"eat_{r}_{k}",
                )
            )
            cid += 1
    initial = {"food": initial_food} if initial_food else {}
    params = {
        "m": m,
        "food_rate": food_rate,
        "portions": list(portions),
        "shape": shape,
        "initial_food": initial_food,
    }
    return Model("rabbits", tuple(clocks), SystemState(initial), params)


# -- atomic showcase ---------------------------------------------------------

def build_atomic_showcase() -> Model:
    """Single-shot race: A exponential (rate ln 2) vs B, one atom of mass 0.5
    at absolute time 1.  Each jump disables the other clock.
    P(B fires) = S_A(1-) * 0.5 = 0.25."""
    on_a = Enabled(HazardSpec(Exponential(math.log(2.0))))
    on_b = Enabled(HazardSpec(None, (Atom(1.0, 0.5),)))
    clocks = (
        ClockSpec(
            id=0,
            enabling=lambda view, now, out=on_a: out if view.count("armed") == 1 else DISABLED,
            mark=JumpMark({"armed": -1, "a_count": +1}),
            reads=frozenset({"armed"}),
            name="A",
        ),
        ClockSpec(
            id=1,
            enabling=lambda view, now, out=on_b: out if view.count("armed") == 1 else DISABLED,
            mark=JumpMark({"armed": -1, "b_count": +1}),
            reads=frozenset({"armed"}),
            name="B",
        ),
    )
    return Model("atomic-showcase", clocks, SystemState({"armed": 1}), {})


# -- birth-death -------------------------------------------------------------

def build_birth_death(birth, death, x0, capacity) -> Model:
    """Constant-rate birth up to a capacity, per-individual exponential death.

    The death clock's rate is death * x, so its hazard is modified at every
    jump while x stays positive."""
    if capacity < 1 or not 0 <= x0 <= capacity:
        raise ModelError(f"need 1 <= capacity and 0 <= x0 <= capacity, got x0={x0}, capacity={capacity}")
    if birth < 0.0 or death < 0.0:
        raise ModelError("rates must be >= 0")

    def birth_rule(view, now, b=birth, cap=capacity):
        return Enabled(HazardSpec(Exponential(b))) if view.count("x") < cap else DISABLED

    def death_rule(view, now, d=death):
        x = view.count("x")
        return Enabled(HazardSpec(Exponential(d * x))) if x >= 1 else DISABLED

    clocks = (
        ClockSpec(id=0, enabling=birth_rule, mark=JumpMark({"x": +1}),
                  reads=frozenset({"x"}), name="birth"),
        ClockSpec(id=1, enabling=death_rule, mark=JumpMark({"x": -1}),
                  reads=frozenset({"x"}), name="death"),
    )
    params = {"birth": birth, "death": death, "x0": x0, "capacity": capacity}
    return Model("birth-death", clocks, SystemState({"x": x0}), params)


# -- token ring ---------------------------------------------------------------

def build_ring(m, rate=1.0, tokens=1) -> Model:
    """m sites in a ring; clock i moves a token from site i to site i+1 at
    rate proportional to the tokens at i.  Dependency neighborhoods have
    constant size, so per-event cost is dominated by the sampler's data
    structures."""
    if m < 2:
        raise ModelError(f"need m >= 2 sites, got {m}")
    if rate <= 0.0 or tokens < 1:
        raise ModelError("need rate > 0 and tokens >= 1")
    clocks = []
    for i in range(m):
        xi = f"x_{i}"

        def rule(view, now, xi=xi, r=rate):
            c = view.count(xi)
            return Enabled(HazardSpec(Exponential(r * c))) if c >= 1 else DISABLED

        clocks.append(
            ClockSpec(
                id=i,
                enabling=rule,
                mark=JumpMark({xi: -1, f"x_{(i + 1) % m}": +1}),
                reads=frozenset({xi}),
                name=f"hop_{i}",
            )
        )
    initial = {f"x_{i}": tokens for i in range(m)}
    params = {"m": m, "rate": rate, "tokens": tokens}
    return Model("ring", tuple(clocks), SystemState(initial), params)


# -- renewal processes ---------------------------------------------------------

def build_poisson(rate=1.0) -> Model:
    if rate <= 0.0:
        raise ModelError(f"need rate > 0, got {rate}")
    outcome = Enabled(HazardSpec(Exponential(rate)))
    clocks = (
        ClockSpec(
            id=0,
            enabling=lambda view, now, out=outcome: out,
            mark=JumpMark({"n": +1}),
            reads=frozenset(),
            name="tick",
        ),
    )
    return Model("poisson", clocks, SystemState({}), {"rate": rate})


def build_renewal(interarrival="weibull:2,1") -> Model:
    """Renewal process: the clock re-anchors at each of its own jumps."""
    spec = parse_hazard(interarrival)
    outcome = Enabled(spec)
    clocks = (
        ClockSpec(
            id=0,
            enabling=lambda view, now, out=outcome: out,
            mark=JumpMark({"n": +1}),
            reads=frozenset(),
            name="renew",
        ),
    )
    return Model("renewal", clocks, SystemState({}), {"interarrival": unparse_hazard(spec)})


# -- registry -------------------------------------------------------------------

def _build_sir_cfg(params):
    return build_sir(
        n=_as_int(params, "n", minimum=1),
        infect=params.get("infect", "exponential:1"),
        recover=params.get("recover", "exponential:1"),
        initial_infected=_as_int(params, "initial_infected", default=1, minimum=0),
    )


def _build_rabbits_cfg(params):
    portions = params.get("portions", [1])
    if isinstance(portions, str):
        portions = [int(p) for p in portions.split(";")]
    return build_rabbits(
        m=_as_int(params, "m", minimum=1),
        food_rate=_as_float(params, "food_rate", positive=True),
        portions=portions,
        shape=_as_float(params, "shape", default=2.0, positive=True),
        initial_food=_as_int(params, "initial_food", default=0, minimum=0),
    )


def _build_birth_death_cfg(params):
    return build_birth_death(
        birth=_as_float(params, "birth", default=1.0),
        death=_as_float(params, "death", default=1.0),
        x0=_as_int(params, "x0", default=1, minimum=0),
        capacity=_as_int(params, "capacity", default=100, minimum=1),
    )


def _build_ring_cfg(params):
    return build_ring(
        m=_as_int(params, "m", minimum=2),
        rate=_as_float(params, "rate", default=1.0, positive=True),
        tokens=_as_int(params, "tokens", default=1, minimum=1),
    )


MODEL_BUILDERS = {
    "sir": _build_sir_cfg,
    "rabbits": _build_rabbits_cfg,
    "atomic-showcase": lambda params: build_atomic_showcase(),
    "birth-death": _build_birth_death_cfg,
    "ring": _build_ring_cfg,
    "poisson": lambda params: build_poisson(_as_float(params, "rate", default=1.0, positive=True)),
    "renewal": lambda params: build_renewal(params.get("interarrival", "weibull:2,1")),
}


def build(name, params=None) -> Model:
    """Build a named model from a parameter mapping (CLI/config entry point)."""
    if name not in MODEL_BUILDERS:
        raise ModelError(f"unknown model {name!r}; valid: {', '.join(sorted(MODEL_BUILDERS))}")
    return MODEL_BUILDERS[name](dict(params or {}))
