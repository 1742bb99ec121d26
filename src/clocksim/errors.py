"""Exception types raised by the simulation kernel and its components."""


class ClocksimError(Exception):
    """Base class for all clocksim errors."""


class ModelError(ClocksimError):
    """A model specification is invalid (bad ids, bad parameters, ...)."""


class ConfigError(ClocksimError):
    """A run configuration failed to parse or validate."""


class NegativeSubstate(ClocksimError):
    """An enabled clock fired into a state with a negative count.

    This is a model specification bug: the enabling rule permitted a jump
    whose mark drives a substate below zero.
    """

    def __init__(self, key, count):
        # args are the constructor's, so pickle rebuilds the same error
        super().__init__(key, count)
        self.key = key
        self.count = count

    def __str__(self):
        return f"substate {self.key!r} would become {self.count}"


class Stalled(ClocksimError):
    """No enabled clock can ever fire; the trajectory has ended."""


class UnknownClock(ClocksimError):
    """An enabling delta, or a sampler's proposal, named a clock at odds with the enabled set.

    The delta listed the clock twice, newly enabled it while it was already
    enabled, or fired, disabled or modified it while it was not; or the
    sampler proposed a clock that the engine has disabled.
    """

    def __init__(self, clock):
        super().__init__(clock)
        self.clock = clock

    def __str__(self):
        return f"clock {self.clock} does not match the enabled set"


class DuplicateAtoms(ClocksimError):
    """Two enabled clocks share an absolute atomic jump time.

    The competing-clocks construction requires that no two clocks can jump
    at the same instant, so this is a model specification violation.
    """


class StateSpaceTooLarge(ClocksimError):
    """Brute-force state enumeration exceeded its size budget."""


class NonExponentialClock(ClocksimError):
    """The CTMC oracle was given a clock that is not purely exponential."""
