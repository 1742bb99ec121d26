"""The three input rules -- a finite real number, an integer, an anchor at
or before now -- each stated by one helper that every site calls: the sites
agree on what passes, and each keeps its own error type."""

from pathlib import Path

import numpy as np
import pytest

from clocksim.cli import RunSpec
from clocksim.errors import ModelError
from clocksim.hazards import Atom, Exponential, PiecewiseConstant, UniformInterval, Weibull
from clocksim.kernel import EndTime, EventCount
from clocksim.models import build
from clocksim.structs import PrefixSumTree

ROOT = Path(__file__).resolve().parent.parent

NOT_NUMBERS = {
    "EndTime(True)": (lambda: EndTime(True), ModelError),
    "EndTime('3')": (lambda: EndTime("3"), ModelError),
    "Exponential(True)": (lambda: Exponential(True), ValueError),
    "Weibull(True, 1)": (lambda: Weibull(True, 1), ValueError),
    "Atom(True, 0.5)": (lambda: Atom(True, 0.5), ValueError),
    "Atom(1, True)": (lambda: Atom(1, True), ValueError),
    "UniformInterval(0, True)": (lambda: UniformInterval(0, True), ValueError),
    "PiecewiseConstant((0,), (True,))": (lambda: PiecewiseConstant((0,), (True,)), ValueError),
    "tree.set(0, True)": (lambda: PrefixSumTree().set(0, True), ValueError),
    "tree.set(True, 1.0)": (lambda: PrefixSumTree().set(True, 1.0), IndexError),
    # text is not a number either; only an integer parameter converts it (see models._int)
    "poisson rate='2'": (lambda: build("poisson", {"rate": "2"}), ModelError),
}


@pytest.mark.parametrize("make, error", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_bools_and_text_are_not_numbers(make, error):
    with pytest.raises(error):
        make()


def test_integer_rule_returns_a_plain_int():
    n = EventCount(np.int64(3)).n
    assert n == 3 and type(n) is int


def test_run_settings_take_what_the_integer_rule_takes():
    assert RunSpec(model="poisson", max_events=2, seed=np.int64(3)).validate().name == "poisson"


@pytest.mark.parametrize("message", [
    "is not finite, or is in the future",
    "must be finite and",
    "must be an integer",
    "must be a string",
    "must be a mapping",
])
def test_each_rule_message_is_written_once(message):
    # a second copy of a rule is a second place for it to drift
    sites = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src" / "clocksim").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for _ in range(line.count(message))
    ]
    assert len(sites) == 1, sites
