"""``fast_init`` builds the same records ``@dataclass(frozen=True)`` does.

Each hot message is compared with a plain frozen dataclass declared here
with the same name and fields: the constructors must accept and refuse
the same calls, and everything a record is used for — field
introspection, ``repr`` (it feeds the fuzz digest CRC), equality, hashing,
``replace``, pickling, immutability — must come out the same.  The effect
records a recording port keeps are plain frozen dataclasses; they stay in
the table so the records sans-IO tests compare keep their shape.
"""

import inspect
import pickle
from dataclasses import (MISSING, FrozenInstanceError, dataclass, field,
                         fields, replace)
from typing import Any, Hashable, Optional, Tuple

import pytest

from repro.core import effects, messages
from repro.core.records import fast_init


@dataclass(frozen=True)
class TokenMsg:
    clock: int
    round_no: int
    served: Tuple[Tuple[int, int], ...] = ()
    membership: Optional[Tuple[int, Tuple[int, ...]]] = None
    epoch: int = 0
    suspects: Tuple[int, ...] = ()


@dataclass(frozen=True)
class LoanMsg:
    clock: int
    round_no: int
    lender: int
    requester: int
    req_seq: int
    served: Tuple[Tuple[int, int], ...] = ()
    trail: Tuple[int, ...] = ()
    epoch: int = 0


@dataclass(frozen=True)
class LoanReturnMsg:
    clock: int
    round_no: int
    served: Tuple[Tuple[int, int], ...] = ()
    epoch: int = 0


@dataclass(frozen=True)
class GimmeMsg:
    requester: int
    req_seq: int
    span: int
    visit_stamp: int
    trail: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Send:
    dst: int
    msg: Any


@dataclass(frozen=True)
class SetTimer:
    key: Hashable
    delay: float


@dataclass(frozen=True)
class Deliver:
    kind: str
    payload: Tuple = ()


#: (record under test, its plain copy, one value for every field)
CASES = [
    (messages.TokenMsg, TokenMsg,
     dict(clock=7, round_no=2, served=((1, 3), (4, 5)),
          membership=(1, (0, 1, 2)), epoch=1, suspects=(3,))),
    (messages.LoanMsg, LoanMsg,
     dict(clock=7, round_no=2, lender=0, requester=3, req_seq=4,
          served=((3, 4),), trail=(1, 2), epoch=5)),
    (messages.LoanReturnMsg, LoanReturnMsg,
     dict(clock=7, round_no=2, served=((9, 1),), epoch=1)),
    (messages.GimmeMsg, GimmeMsg,
     dict(requester=3, req_seq=4, span=50, visit_stamp=12, trail=(3, 53))),
    (effects.Send, Send, dict(dst=4, msg=messages.TokenMsg(1, 0))),
    (effects.SetTimer, SetTimer, dict(key=("retry", 3), delay=2.5)),
    (effects.Deliver, Deliver, dict(kind="granted", payload=(3, 4))),
]
IDS = [real.__name__ for real, _, _ in CASES]


def required(cls, values):
    return {f.name: values[f.name] for f in fields(cls)
            if f.default is MISSING}


@pytest.mark.parametrize("real, plain, values", CASES, ids=IDS)
class TestSameRecord:
    def test_fields_names_order_and_defaults(self, real, plain, values):
        assert [(f.name, f.default) for f in fields(real)] == \
            [(f.name, f.default) for f in fields(plain)]
        assert [(p.name, p.default, p.kind)
                for p in inspect.signature(real).parameters.values()] == \
            [(p.name, p.default, p.kind)
             for p in inspect.signature(plain).parameters.values()]

    def test_positional_and_keyword_construction(self, real, plain, values):
        positional = [values[f.name] for f in fields(real)]
        assert real(*positional) == real(**values)
        assert repr(real(*positional)) == repr(plain(*positional))
        least = required(real, values)
        assert repr(real(**least)) == repr(plain(**least))
        assert vars(real(**least)) == vars(plain(**least))

    def test_repr_eq_and_hash(self, real, plain, values):
        record, copy = real(**values), plain(**values)
        assert repr(record) == repr(copy)
        assert record == real(**values)
        assert hash(record) == hash(real(**values)) == hash(copy)
        least = required(real, values)
        assert (real(**least) == record) == (plain(**least) == copy)

    def test_replace_and_pickle(self, real, plain, values):
        record = real(**values)
        first = fields(real)[0].name
        changed = replace(record, **{first: values[first] * 2})
        assert type(changed) is real
        assert repr(changed) == repr(replace(plain(**values),
                                             **{first: values[first] * 2}))
        again = pickle.loads(pickle.dumps(record))
        assert again == record and repr(again) == repr(record)

    def test_bad_calls_raise_the_same_type_error(self, real, plain, values):
        positional = tuple(values[f.name] for f in fields(real))
        first = fields(real)[0].name
        missing = {k: v for k, v in required(real, values).items()
                   if k != first}
        calls = [
            ((), missing),                        # a required field left out
            ((), dict(values, bogus=1)),          # an unknown keyword
            (positional + (None,), {}),           # one positional too many
            ((values[first],), values),           # a field given twice
        ]
        for args, kwargs in calls:
            with pytest.raises(TypeError) as ours:
                real(*args, **kwargs)
            with pytest.raises(TypeError) as theirs:
                plain(*args, **kwargs)
            assert str(ours.value) == str(theirs.value)

    def test_assignment_raises_frozen_instance_error(self, real, plain, values):
        record = real(**values)
        name = fields(real)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, values[name])
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        with pytest.raises(FrozenInstanceError):
            record.unknown = 1
        assert getattr(record, name) == values[name]


class TestRefused:
    def test_not_a_frozen_dataclass(self):
        @dataclass
        class Mutable:
            x: int

        with pytest.raises(TypeError, match="not a frozen dataclass"):
            fast_init(Mutable)

    def test_post_init(self):
        @dataclass(frozen=True)
        class Checked:
            x: int

            def __post_init__(self):
                pass

        with pytest.raises(TypeError, match="__post_init__"):
            fast_init(Checked)

    def test_default_factory(self):
        @dataclass(frozen=True)
        class Factory:
            x: list = field(default_factory=list)

        with pytest.raises(TypeError, match="not a plain field"):
            fast_init(Factory)
