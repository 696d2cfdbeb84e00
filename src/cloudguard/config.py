"""Read config dataclasses from JSON documents.

A config class's fields are its schema: ``read_config`` builds an instance
from a JSON object, and ``dataclasses.asdict`` writes one back.
"""

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError


def read_config(cls, doc, **given):
    """Build the config dataclass ``cls`` from the JSON object ``doc``.

    Every key must name a field that ``given`` does not set; a missing field
    keeps its default. Values convert as ``read_value`` describes. ``given``
    sets fields from Python values as they are. Any failure, the class's
    own checks included, is a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be an object, got {doc!r}")
    hints = _field_types(cls)
    for key in doc:
        if key not in hints or key in given:
            raise ConfigError(f"{cls.__name__} has no settable field {key!r}")
    values = {key: read_value(hints[key], value, f"{cls.__name__}.{key}")
              for key, value in doc.items()}
    try:
        return cls(**values, **given)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{cls.__name__}: {exc}") from exc


# a config class's annotations, resolved once per class
_field_types = functools.cache(typing.get_type_hints)


def read_value(tp, value, name: str):
    """Convert the JSON value ``value`` of ``name`` to the type ``tp``.

    Numbers and numeric strings convert to ``int`` or ``float``; an int
    refuses a fraction and a float must be finite. Objects become config
    dataclasses, lists become tuples (converting each item for
    ``tuple[X, ...]``), and ``X | None`` takes null. Anything else must
    already have the type.
    """
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return read_config(tp, value)
    if tp is tuple or typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if not args:
            return tuple(value)
        return tuple(read_value(args[0], item, f"{name}[{i}]")
                     for i, item in enumerate(value))
    if tp in (int, float):
        number = _number(tp, value)
        if number is not None:
            return number
    elif isinstance(value, tp):
        return value
    raise ConfigError(f"{name} must be {tp.__name__}, got {value!r}")


def _number(tp, value):
    """``value`` as an int or a finite float, or None if it is not one."""
    if isinstance(value, bool):
        return None
    if tp is int and isinstance(value, float):
        return int(value) if value.is_integer() else None
    try:
        number = tp(value)
    except (TypeError, ValueError):
        return None
    return number if tp is int or math.isfinite(number) else None


def check_seed(seed: int, owner: str) -> None:
    """ConfigError unless ``seed`` lies in [0, 2**64): every seed keys a
    numpy generator, and the Philox substreams take it as one uint64 word."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{owner} seed must be in [0, 2**64), got {seed}")
