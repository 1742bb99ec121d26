"""Byte-identity guard: every built-in model under every sampler.

Each model's `model_hash` (name, recorded params, initial state) is pinned
too, so a change to how parameters are bound or normalised shows here.
Each trajectory digest is the sha256 of the trajectory's `seq\\ttime\\tclock` lines
(times at 17 significant digits, as `write_trajectory` prints them) at
seed 1, stream 0, stopped after 200 events or when the run stalls.  The
parameters make Weibull and gamma hazards, atoms, past-anchored enabling
times and per-jump rate modifications all occur.

Re-record (only for a deliberate change of a sampler's variate contract or
of a model's recorded params):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from clocksim.kernel import EventCount, model_hash, run_trajectory
from clocksim.models import build

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")

MODELS = {
    "sir": {"n": 4, "recover": "weibull:2,1@1.5,0.5", "infect": "exponential:2"},
    "rabbits": {"m": 3, "food_rate": 2.0, "portions": "1;2"},
    "atomic-showcase": {},
    "birth-death": {"birth": 1.0, "death": 0.5, "x0": 3, "capacity": 10},
    "ring": {"m": 8, "tokens": 2},
    "poisson": {"rate": 1.0},
    "renewal": {"interarrival": "gamma:2,3@0.5,0.3"},
}
SAMPLERS = (
    "first-reaction",
    "next-reaction",
    "next-to-fire",
    "direct",
    "hierarchical:direct=0;next-reaction=rest",
)
CASES = [f"{m}/{s}" for m in MODELS for s in SAMPLERS]
HASHES = [f"model_hash:{m}" for m in MODELS]


def digest(case):
    name, sampler = case.split("/", 1)
    traj = run_trajectory(build(name, MODELS[name]), sampler, 1, EventCount(200))
    lines = "".join(f"{ev.seq}\t{ev.time:.17g}\t{ev.clock}\n" for ev in traj.events)
    return hashlib.sha256(lines.encode()).hexdigest()


def golden(key):
    if key.startswith("model_hash:"):
        name = key.partition(":")[2]
        return model_hash(build(name, MODELS[name]))
    return digest(key)


@pytest.mark.parametrize("case", CASES)
def test_trajectory_digest_unchanged(case):
    assert digest(case) == json.loads(DIGESTS.read_text())[case]


@pytest.mark.parametrize("key", HASHES)
def test_model_hash_unchanged(key):
    assert golden(key) == json.loads(DIGESTS.read_text())[key]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({key: golden(key) for key in CASES + HASHES}, indent=1) + "\n")
