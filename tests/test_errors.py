import pickle

import pytest

from clocksim import errors

ERROR_TYPES = sorted(
    (v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, errors.ClocksimError)),
    key=lambda cls: cls.__name__,
)
# constructor arguments for the errors that take more than a message
ARGS = {errors.NegativeSubstate: ("S_1", -1), errors.UnknownClock: (3,)}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    """`clocksim run --workers N` returns a worker's error by pickle."""
    err = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_error_messages():
    assert str(errors.NegativeSubstate("S_1", -1)) == "substate 'S_1' would become -1"
    assert str(errors.UnknownClock(3)) == "clock 3 does not match the enabled set"
