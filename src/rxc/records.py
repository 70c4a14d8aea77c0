"""Record classes: the part of ``dataclasses`` that rxc uses.

``record`` gives a class with annotated fields an ``__init__`` that
takes the fields in order, with the class-level values as defaults, and
then calls ``__post_init__`` if the class has one; ``==`` over the
fields between instances of the same class, and ``hash`` over them when
frozen; a ``repr`` naming the fields; and, when frozen, attributes that
cannot be set or deleted.  The methods are generated as source, as
``dataclasses`` generates them, so they cost the same to call.

rxc does not import ``dataclasses`` itself: that module imports
``inspect``, ``ast``, ``dis`` and ``tokenize``, which add about 1 MB of
resident memory and 12 ms of start-up to every process that imports rxc
(CPython 3.11 on one core of an x86-64 container).
"""

from __future__ import annotations


def _frozen_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def record(cls=None, *, frozen: bool = True, eq: bool = True, repr: bool = True,
           hidden: tuple[str, ...] = ()):
    """Make ``cls`` a record over its own annotated fields.

    A slotted record declares its ``__slots__`` itself.  ``hidden``
    fields are left out of the ``repr``.
    """

    def wrap(cls):
        names = list(cls.__dict__.get("__annotations__", {}))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        env = {"_set": object.__setattr__,
               **{f"_default_{n}": v for n, v in defaults.items()}}
        params = "".join(f", {n}=_default_{n}" if n in defaults else f", {n}" for n in names)
        body = [f"    _set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        source = [f"def __init__(self{params}):", *(body or ["    pass"])]
        fields = "".join(f"self.{n}, " for n in names)
        if eq:
            other = fields.replace("self.", "other.")
            source += ["def __eq__(self, other):",
                       "    if other.__class__ is not self.__class__:",
                       "        return NotImplemented",
                       f"    return ({fields}) == ({other})"]
            if frozen:
                source += ["def __hash__(self):", f"    return hash(({fields}))"]
        if repr:
            shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names if n not in hidden)
            source += ["def __repr__(self):",
                       f"    return f'{{self.__class__.__qualname__}}({shown})'"]
        exec("\n".join(source), env)
        for name in ("__init__", "__eq__", "__hash__", "__repr__"):
            if name in env:
                method = env[name]
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)
        if eq and not frozen:
            cls.__hash__ = None
        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        return cls

    return wrap if cls is None else wrap(cls)
