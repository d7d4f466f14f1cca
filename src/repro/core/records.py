"""A faster constructor for the frozen records on the simulator's hot path.

``@dataclass(frozen=True)`` generates an ``__init__`` that stores each field
through ``object.__setattr__``, one call per field, to get past the
``__setattr__`` that makes the instance read-only.  Every simulated message
and effect is built that way, so the calls add up.  :func:`fast_init`
replaces that one method with an equivalent that writes the instance
``__dict__`` directly — the same parameters in the same order with the same
defaults.  Everything else the dataclass generated (``fields``, ``replace``,
``__eq__``, ``__hash__``, ``__repr__``, the ``FrozenInstanceError`` on
assignment, pickling) is left as it was.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Dict, List, TypeVar

__all__ = ["fast_init"]

T = TypeVar("T", bound=type)


def fast_init(cls: T) -> T:
    """Give the frozen dataclass ``cls`` an ``__init__`` that fills its
    ``__dict__`` directly.  Only plain fields are supported: a default
    factory, an ``init=False`` field or a ``__post_init__`` would need the
    generated method, so they are refused rather than skipped."""
    if not (is_dataclass(cls) and cls.__dataclass_params__.frozen):
        raise TypeError(f"{cls.__name__} is not a frozen dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__")
    namespace: Dict[str, Any] = {}
    params: List[str] = []
    body = ["    d = self.__dict__"]
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name} is not a plain field")
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    d[{f.name!r}] = {f.name}")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
