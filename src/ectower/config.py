"""Desk-scale caps, and Record, the immutable base of the package's value types.

Everything in the package is exact; the caps only bound search spaces.
"""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class's __slots__, in order.

    Every value type of the package is one, fields and their elements too.
    The constructor takes the fields by position or by keyword, and a field
    given neither way from the class's _defaults.  A record that checks its
    input has its own __init__ ending in Record.__init__; hot constructors
    and derived fields store with object.__setattr__.  Assignment and
    deletion raise AttributeError.  A record equals only a record of its own
    class with equal fields _compared (all by default; Q has none), and
    hashes as they do; field elements and rationals, equal to plain ints
    too, keep their own.  copy and pickle rebuild an equal record from its
    fields alone, never from a __dict__ (what a field keeps, per_field).
    """

    __slots__ = ()
    _defaults = {}
    _compared = None

    def __init_subclass__(cls):
        # the compared fields as one value: a tuple, the one field, or the class if none
        cls._key = attrgetter(*(cls._compared or cls.__slots__ or ("__class__",)))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(names)))
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __getstate__(self):
        # (None, {field: value}), the state of a __slots__ object, leaving out any __dict__
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


class Caps(Record):
    # field_size: largest finite field size p**k that may be constructed or enumerated
    # integral_model: largest |coefficient| of a curve over Q after clearing denominators
    # chain_level: largest chain level i for which (Z/i!)^2g quotients are materialized
    __slots__ = ("field_size", "integral_model", "chain_level")
    _defaults = {"field_size": 10_000_000, "integral_model": 10**40, "chain_level": 20}


DEFAULT_CAPS = Caps()
