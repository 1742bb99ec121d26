"""clocksim: exact simulation of competing clock processes.

Clock processes are counting processes with per-clock hazards that may mix
a continuous curve with atomic point masses.  The package provides the
hazard layer, four interchangeable exact samplers plus hierarchical
composition, the trajectory kernel, built-in models, statistical oracles,
and a CLI (``clocksim run|verify|summarize``).
"""

from .clocks import (
    DISABLED,
    UNCHANGED,
    ClockSpec,
    Enabled,
    JumpMark,
    StateView,
    SystemState,
    evaluate_enabling,
)
from .errors import (
    ClocksimError,
    ConfigError,
    DuplicateAtoms,
    ModelError,
    NegativeSubstate,
    NonExponentialClock,
    Stalled,
    StateSpaceTooLarge,
    UnknownClock,
)
from .hazards import (
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
from .kernel import (
    EndTime,
    EventCount,
    EventRecord,
    StalledOnly,
    Trajectory,
    run_ensemble,
    run_trajectory,
)
from .models import Model, build, parse_hazard
from .samplers import SAMPLER_NAMES, SamplerEvent, make_sampler

__version__ = "0.1.0"
