"""Plain records: ``__slots__`` classes with a hand-written ``__init__``.

``_fields`` are the constructor's arguments, in order: they, and only
they, are compared, hashed, shown and copied.  Other slots are derived,
and :meth:`Record.replace` copies through the constructor, so a copy is
checked and derives them again; a derived slot is no copy argument.
A scalar argument that is a config key is kept as the float
:func:`finite` makes, a vector argument as the float 3-tuple
:func:`float3` makes.  A record refuses a value it cannot take with a
:class:`ConfigError`, the refusal a config file's value gets.
"""

import math
from numbers import Real


class ConfigError(ValueError):
    """The one refusal of a bad config: a file that does not parse, or a
    value a run cannot take, from a file or given to a record built in
    code, which a record names by its config key first.  The command
    line raises it for an unusable output path too; it exits 2."""


def finite(key, value):
    """``value`` as a float; a :class:`ConfigError` naming the config key
    ``key`` unless it is a finite number: a ``numbers.Real`` that is no
    bool, the number ``ExperimentConfig`` takes (a string, a numpy bool
    or a ``Decimal`` is none)."""
    try:
        number = (float(value) if isinstance(value, Real)
                  and not isinstance(value, bool) else math.nan)
    except OverflowError:  # an int beyond the largest float
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number")
    return number


def float3(key, value):
    """``value`` as a float 3-tuple; a :class:`ConfigError` naming the
    config key ``key`` unless it is three finite numbers, each as
    :func:`finite` takes it (a string is none)."""
    try:
        vec = tuple([finite(key, x) for x in value])
    except (TypeError, ConfigError):
        vec = ()
    if len(vec) != 3:
        raise ConfigError(f"{key} must be three finite numbers")
    return vec


class Record:
    """Mutable and unhashable."""

    __slots__ = _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return type(self).__qualname__ + "(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields)

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())),
                             **changes})


class Frozen(Record):
    """Read-only and hashable; ``__init__`` fills it with ``_set``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
