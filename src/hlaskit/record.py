"""Frozen record classes without per-class code generation.

``dataclasses`` compiles an ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and frozen ``__setattr__``/``__delattr__`` for each class with
``exec``, which made building the package's records most of the time and
memory that importing it took.  ``record`` reads a class's fields once and
installs the shared methods below instead.

A record is frozen: assigning or deleting an attribute raises
``dataclasses.FrozenInstanceError``, and ``__post_init__`` (run by
``__init__`` when the class defines one) sets derived attributes with
``object.__setattr__``.  A field that ``__init__`` does not take
(``field(init=False)``) is derived: ``repr``, ``==`` and ``replace`` leave
it out.  A record compares and hashes by its fields, in order, unless
declared ``@record(eq=False)``, when it equals only itself.
"""

from dataclasses import FrozenInstanceError

_MISSING = object()
_setfield = object.__setattr__


class Field:
    """A field of a record: its ``name``, its ``default`` (``_MISSING`` for
    none), the ``default_factory`` called for each record instead, and
    whether ``__init__`` takes it (``init``)."""

    __slots__ = ("name", "default", "default_factory", "init")

    def __init__(self, default=_MISSING, default_factory=None, init=True):
        self.default, self.default_factory = default, default_factory
        self.init = init


def field(*, default_factory=None, init: bool = True) -> Field:
    return Field(default_factory=default_factory, init=init)


def fields(record) -> tuple[Field, ...]:
    """The fields of a record class or record, in declaration order."""
    return record.__record_fields__


def replace(record, /, **changes):
    """A new record of ``record``'s class with the fields that ``changes``
    names replaced; its ``__init__`` checks it as any other."""
    return type(record)(*[changes.pop(name) if name in changes
                          else getattr(record, name)
                          for name in record.__record_init__], **changes)


def _bind(record, args: tuple, kwargs: dict) -> list:
    """The values of the fields that ``__init__`` takes, in order, from its
    arguments and the fields' defaults."""
    cls, names = type(record), record.__record_init__
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                        f"arguments but {len(args)} were given")
    values = list(args)
    for spec in record.__record_specs__[len(args):]:
        if spec.name in kwargs:
            values.append(kwargs.pop(spec.name))
        elif spec.default_factory is not None:
            values.append(spec.default_factory())
        elif spec.default is not _MISSING:
            values.append(spec.default)
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument "
                            f"{spec.name!r}")
    if kwargs:
        name = next(iter(kwargs))
        raise TypeError(f"{cls.__qualname__}() got " + (
            "multiple values for" if name in names else
            "an unexpected keyword") + f" argument {name!r}")
    return values


def _init(self, *args, **kwargs) -> None:
    names = self.__record_init__
    if kwargs or len(args) != len(names):
        args = _bind(self, args, kwargs)
    # one attribute at a time, as a dataclass does: setting ``__dict__``
    # whole would make the instance keep a dict, which is read slower
    for name, value in zip(names, args):
        _setfield(self, name, value)
    if self.__record_post__:
        self.__post_init__()


def _repr(self) -> str:
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{name}={getattr(self, name)!r}"
        for name in self.__record_init__) + ")"


def _key(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__record_init__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _key(self) == _key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_key(self))


def _setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq: bool = True):
    """Make ``cls`` a frozen record of the fields that it annotates, with
    a default where it assigns one (a plain value or a ``field``)."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    specs = []
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            delattr(cls, name)      # a plain default stays on the class
        else:
            value = Field(value)
        value.name = name
        specs.append(value)
    cls.__record_fields__ = tuple(specs)
    cls.__record_specs__ = tuple(spec for spec in specs if spec.init)
    cls.__record_init__ = tuple(spec.name for spec in cls.__record_specs__)
    cls.__record_post__ = hasattr(cls, "__post_init__")
    cls.__init__, cls.__repr__ = _init, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    if eq:
        cls.__eq__, cls.__hash__ = _eq, _hash
    return cls
