"""Built-in parameterized models.

Each builder returns an immutable Model whose clocks exercise a hazard
feature: SIR (fully expanded per-pair clocks, general recovery hazards),
rabbits eating (past-anchored enabling times, Weibull scales from state),
birth-death (rate modifications at every step), the atomic showcase (a
continuous/atomic race), a token ring (constant-size dependency
neighborhoods, for scaling runs), and two renewal processes.

A builder's signature is its model's parameter table.  ``build(name,
params)`` binds a mapping to it, so an unknown or missing parameter is a
ModelError, and each builder checks every argument once: integers must be
integral (``3``, ``3.0`` and ``"3"`` pass, ``3.7`` does not) and numbers
finite.  The normalised values go into ``Model.params``.

The builders with one clock per site or pair (ring, SIR, rabbits) make each
substate key string once and share it across reads, marks and the initial
state, and bind one rule function per build to a clock's keys as a method,
``types.MethodType(rule, keys)``: a bound method holds the rule and its keys
in one object, where ``functools.partial`` also allocates an argument tuple
and a keywords dict.  A rule that needs several keys takes them as one tuple.

Hazard families (``hazards.FAMILIES``) are nameable as strings:
``family:p1,p2`` with the family's fields in declaration order and optional
atoms appended as ``@offset,mass;offset,mass`` -- e.g. ``weibull:2,1``,
``exponential:0.693@1,0.5``, ``none@5,1`` (atoms only),
``piecewise:0,1,2|0.5,0,2`` (tuple fields separated by ``|``:
breakpoints|rates).
"""

from __future__ import annotations

import functools
import inspect
import math
import types
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping

from . import graph as depgraph
from .clocks import DISABLED, ClockSpec, Enabled, JumpMark, SystemState, _check_integer, _collector_paused
from .errors import ModelError
from .hazards import FAMILIES, Atom, Exponential, HazardSpec, Weibull, _check_parameter


@dataclass(frozen=True)
class Model:
    """Immutable clocks over an initial state.

    `graph` (substate -> ascending tuple of reader ids) and `by_id` (the one
    check that ids are unique) are computed once per instance and freed with
    it; ``dataclasses.replace`` returns a new instance with fresh tables.
    """

    name: str
    clocks: tuple
    initial_state: SystemState
    params: Mapping[str, object] = field(default_factory=dict)

    @cached_property
    def graph(self) -> dict:
        return depgraph.build(self.clocks)

    @cached_property
    def by_id(self) -> dict:
        by_id = {}
        for c in self.clocks:
            if c.id in by_id:
                raise ModelError(f"duplicate clock id {c.id}")
            by_id[c.id] = c
        return by_id


# -- hazard spec strings --------------------------------------------------

def parse_hazard(text) -> HazardSpec:
    """Parse ``family:params[@atoms]`` into a HazardSpec (idempotent)."""
    if isinstance(text, HazardSpec):
        return text
    if not isinstance(text, str):
        raise ModelError(f"expected a hazard string or HazardSpec, got {text!r}")
    body, _, atom_text = text.partition("@")
    family, _, arg_text = body.partition(":")
    family = family.strip().lower()
    if family != "none" and family not in FAMILIES:
        raise ModelError(f"unknown hazard family {family!r}; valid: {', '.join([*FAMILIES, 'none'])}")
    try:
        atoms = []
        if atom_text:
            for chunk in atom_text.split(";"):
                off, _, mass = chunk.partition(",")
                atoms.append(Atom(float(off), float(mass)))
        if family == "none":
            return HazardSpec(None, atoms)
        # fields in declaration order; tuple fields (piecewise) are |-separated
        groups = [tuple(float(a) for a in g.split(",")) for g in arg_text.split("|")]
        args = groups[0] if len(groups) == 1 else groups
        return HazardSpec(FAMILIES[family](*args), atoms)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"bad hazard spec {text!r}: {exc}") from exc


def unparse_hazard(spec: HazardSpec) -> str:
    """The ``family:params[@atoms]`` string parse_hazard reads back."""
    cont = spec.continuous
    if cont is None:
        body = "none"
    else:
        family = next(name for name, cls in FAMILIES.items() if isinstance(cont, cls))
        values = [getattr(cont, f.name) for f in fields(cont)]
        groups = values if isinstance(values[0], tuple) else [values]
        body = f"{family}:" + "|".join(",".join(repr(v) for v in g) for g in groups)
    if spec.atoms:
        body += "@" + ";".join(f"{a.offset!r},{a.mass!r}" for a in spec.atoms)
    return body


# -- parameter checks ----------------------------------------------------------

def _int(key, value, minimum):
    """An integer parameter >= `minimum`.  Command-line text may spell one as
    ``"3"`` or ``3.0`` (``--param n=3.0`` arrives as a float), so those are
    converted first; then the integer rule applies, rejecting 3.7 and True."""
    if isinstance(value, str) or isinstance(value, float) and value.is_integer():
        try:
            value = int(value)
        except ValueError:
            pass  # the integer rule names the text
    return _check_integer(f"parameter {key!r}", value, minimum)


# -- SIR -------------------------------------------------------------------

def build_sir(n, infect="exponential:1", recover="exponential:1", initial_infected=1) -> Model:
    """Fully expanded SIR: one clock per (infectious, susceptible) pair plus
    one recovery clock per individual.  A recovery clock's enabling time is
    the moment its individual was infected."""
    n = _int("n", n, 1)
    initial_infected = _int("initial_infected", initial_infected, 0)
    if initial_infected > n:
        raise ModelError(f"need initial_infected <= n, got {initial_infected} > {n}")
    infect_spec = parse_hazard(infect)
    recover_spec = parse_hazard(recover)
    infect_on = Enabled(infect_spec)
    recover_on = Enabled(recover_spec)
    inf = [f"I_{i}" for i in range(n)]
    sus = [f"S_{i}" for i in range(n)]
    # infecting j moves j from S to I whoever the infector is: one mark per j
    infected = [JumpMark({sus[j]: -1, inf[j]: +1}) for j in range(n)]

    def infect_rule(keys, view, now):
        ii, sj = keys
        if view.count(ii) == 1 and view.count(sj) == 1:
            return infect_on
        return DISABLED

    def recover_rule(ii, view, now):
        return recover_on if view.count(ii) == 1 else DISABLED

    clocks = []
    cid = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            clocks.append(
                ClockSpec(
                    id=cid,
                    enabling=types.MethodType(infect_rule, (inf[i], sus[j])),
                    mark=infected[j],
                    reads=frozenset({inf[i], sus[j]}),
                    name=f"infect_{i}_{j}",
                )
            )
            cid += 1
    for i in range(n):
        clocks.append(
            ClockSpec(
                id=cid,
                enabling=types.MethodType(recover_rule, inf[i]),
                mark=JumpMark({inf[i]: -1, f"R_{i}": +1}),
                reads=frozenset({inf[i]}),
                name=f"recover_{i}",
            )
        )
        cid += 1
    initial = dict.fromkeys(inf[:initial_infected], 1)
    initial.update(dict.fromkeys(sus[initial_infected:], 1))
    params = {
        "n": n,
        "initial_infected": initial_infected,
        "infect": unparse_hazard(infect_spec),
        "recover": unparse_hazard(recover_spec),
    }
    return Model("sir", tuple(clocks), SystemState(initial), params)


# -- rabbits eating ---------------------------------------------------------

def build_rabbits(m, food_rate, portions=(1,), shape=2.0, initial_food=0) -> Model:
    """Poisson food production racing rabbit meals.

    Each rabbit has one eating clock per portion size d_k, enabled while
    d_k <= available food, with a Weibull hazard anchored at the rabbit's
    last meal and scaled by the last meal's size (1.0 before the first
    meal).  portions is a sequence of sizes or a string such as ``"1;2"``.

    A rabbit's eating clocks share a one-entry memo of the last Enabled
    their rule returned, and return it again while the rabbit's meal
    history is unchanged: the kernel then recognises the unchanged outcome
    by its spec's identity and its anchor, and a rabbit builds one outcome
    per meal (plus its first), not one per evaluation.
    """
    m = _int("m", m, 1)
    food_rate = _check_parameter("parameter 'food_rate'", food_rate, error=ModelError)
    shape = _check_parameter("parameter 'shape'", shape, error=ModelError)
    initial_food = _int("initial_food", initial_food, 0)
    if isinstance(portions, str):
        portions = portions.split(";")
    elif not isinstance(portions, (list, tuple)):
        portions = (portions,)
    portions = tuple(_int("portions", d, 1) for d in portions)
    if not portions:
        raise ModelError("parameter 'portions' must name at least one size")

    food_on = Enabled(HazardSpec(Exponential(food_rate)))
    # one Weibull spec per scale, made on first use: the scale is the last
    # meal's size (1 before the first meal), so at most len(portions) + 1
    weibull = functools.cache(lambda size: HazardSpec(Weibull(shape, float(size))))
    clocks = [
        ClockSpec(
            id=0,
            enabling=lambda view, now, out=food_on: out,
            mark=JumpMark({"food": +1}),
            reads=frozenset(),
            name="food",
        )
    ]

    def eat_rule(keys, view, now):
        dk, meals, memo = keys
        if view.count("food") < dk:
            return DISABLED
        last_t = 0.0
        last_size = 1
        for key, size in meals:
            if view.count(key) > 0:
                t2 = view.changed_at(key)
                if t2 >= last_t:
                    last_t = t2
                    last_size = size
        out = memo[0]
        if out is None or out.enabling_time != last_t or out.spec is not weibull(last_size):
            out = memo[0] = Enabled(weibull(last_size), enabling_time=last_t)
        return out

    cid = 1
    for r in range(m):
        # one reads set and one outcome memo per rabbit, shared by its eating clocks
        meal_keys = [f"meal_{r}_{k}" for k in range(len(portions))]
        reads = frozenset({"food", *meal_keys})
        meals = tuple(zip(meal_keys, portions))
        memo = [None]
        for k, dk in enumerate(portions):
            clocks.append(
                ClockSpec(
                    id=cid,
                    enabling=types.MethodType(eat_rule, (dk, meals, memo)),
                    mark=JumpMark({"food": -dk, meal_keys[k]: +1}),
                    reads=reads,
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
    specs = {"A": HazardSpec(Exponential(math.log(2.0))), "B": HazardSpec(None, (Atom(1.0, 0.5),))}
    clocks = tuple(
        ClockSpec(
            id=i,
            enabling=lambda view, now, out=Enabled(spec): out if view.count("armed") == 1 else DISABLED,
            mark=JumpMark({"armed": -1, f"{name.lower()}_count": +1}),
            reads=frozenset({"armed"}),
            name=name,
        )
        for i, (name, spec) in enumerate(specs.items())
    )
    return Model("atomic-showcase", clocks, SystemState({"armed": 1}), {})


# -- birth-death -------------------------------------------------------------

def build_birth_death(birth=1.0, death=1.0, x0=1, capacity=100) -> Model:
    """Constant-rate birth up to a capacity, per-individual exponential death.

    The death clock's rate is death * x, so its hazard is modified at every
    jump while x stays positive."""
    birth = _check_parameter("parameter 'birth'", birth, zero_ok=True, error=ModelError)
    death = _check_parameter("parameter 'death'", death, zero_ok=True, error=ModelError)
    x0 = _int("x0", x0, 0)
    capacity = _int("capacity", capacity, 1)
    if x0 > capacity:
        raise ModelError(f"need x0 <= capacity, got x0={x0}, capacity={capacity}")

    birth_on = Enabled(HazardSpec(Exponential(birth)))
    # one outcome per population reached, made on first use: x <= capacity
    death_on = functools.cache(lambda x: Enabled(HazardSpec(Exponential(death * x))))

    def birth_rule(view, now, out=birth_on, cap=capacity):
        return out if view.count("x") < cap else DISABLED

    def death_rule(view, now, out=death_on):
        x = view.count("x")
        return out(x) if x >= 1 else DISABLED

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
    m = _int("m", m, 2)
    rate = _check_parameter("parameter 'rate'", rate, error=ModelError)
    tokens = _int("tokens", tokens, 1)
    # one outcome per count reached, made on first use: a site holds at
    # most the m * tokens tokens in the ring
    hop_on = functools.cache(lambda c: Enabled(HazardSpec(Exponential(rate * c))))

    def hop_rule(xi, view, now):
        c = view.count(xi)
        return hop_on(c) if c >= 1 else DISABLED

    sites = [f"x_{i}" for i in range(m)]
    clocks = [
        ClockSpec(
            id=i,
            enabling=types.MethodType(hop_rule, sites[i]),
            mark=JumpMark({sites[i]: -1, sites[(i + 1) % m]: +1}),
            reads=frozenset({sites[i]}),
            name=f"hop_{i}",
        )
        for i in range(m)
    ]
    initial = dict.fromkeys(sites, tokens)
    params = {"m": m, "rate": rate, "tokens": tokens}
    return Model("ring", tuple(clocks), SystemState(initial), params)


# -- renewal processes ---------------------------------------------------------

def _single_clock(model_name, spec, clock_name, params) -> Model:
    """One always-enabled clock counting its firings in "n"."""
    outcome = Enabled(spec)
    clock = ClockSpec(id=0, enabling=lambda view, now, out=outcome: out, mark=JumpMark({"n": +1}),
                      reads=frozenset(), name=clock_name)
    return Model(model_name, (clock,), SystemState({}), params)


def build_poisson(rate=1.0) -> Model:
    """Always-enabled exponential clock."""
    rate = _check_parameter("parameter 'rate'", rate, error=ModelError)
    return _single_clock("poisson", HazardSpec(Exponential(rate)), "tick", {"rate": rate})


def build_renewal(interarrival="weibull:2,1") -> Model:
    """Renewal process: the clock re-anchors at each of its own jumps."""
    spec = parse_hazard(interarrival)
    return _single_clock("renewal", spec, "renew", {"interarrival": unparse_hazard(spec)})


# -- registry -------------------------------------------------------------------

#: Each builder's signature is its model's parameter table: names, required
#: parameters and defaults are declared there and nowhere else.
MODEL_BUILDERS = {
    "sir": build_sir,
    "rabbits": build_rabbits,
    "atomic-showcase": build_atomic_showcase,
    "birth-death": build_birth_death,
    "ring": build_ring,
    "poisson": build_poisson,
    "renewal": build_renewal,
}
_SIGNATURES = {name: inspect.signature(fn) for name, fn in MODEL_BUILDERS.items()}


def build(name, params=None) -> Model:
    """Build a named model from a parameter mapping (CLI/config entry point).

    params binds to the builder's signature; an unknown, missing or
    malformed parameter raises ModelError naming the model.

    The builder runs inside `clocks._collector_paused` (see there for
    why).  Enabling rules are not called here; `Engine` evaluates them
    first, inside its own pause.
    """
    if name not in MODEL_BUILDERS:
        raise ModelError(f"unknown model {name!r}; valid: {', '.join(sorted(MODEL_BUILDERS))}")
    signature = _SIGNATURES[name]
    try:
        bound = signature.bind(**(params or {}))
    except TypeError as exc:
        valid = ", ".join(signature.parameters) or "none"
        raise ModelError(f"model {name!r}: {exc}; parameters: {valid}") from None
    try:
        with _collector_paused():
            # every builder parameter is positional-or-keyword
            return MODEL_BUILDERS[name](**bound.arguments)
    except ModelError as exc:
        raise ModelError(f"model {name!r}: {exc}") from exc
