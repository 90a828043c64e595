"""Plain records: ``__slots__`` classes with a hand-written ``__init__``.

``_fields`` are the constructor's arguments, in order: they, and only
they, are compared, hashed, shown and copied.  Other slots are derived,
and :meth:`Record.replace` copies through the constructor, so a copy is
checked and derives them again; a derived slot is no copy argument.
A vector argument is kept as the float 3-tuple :func:`float3` makes.
"""

import math


def float3(key, value):
    """``value`` as a float 3-tuple; a ``ValueError`` naming the config
    key ``key`` unless it is three finite numbers (a string is none)."""
    try:
        vec = () if isinstance(value, str) else tuple(map(float, value))
    except (TypeError, ValueError):
        vec = ()
    if len(vec) != 3 or not all(map(math.isfinite, vec)):
        raise ValueError(f"{key} must be three finite numbers")
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
