"""Exception types shared across the package, and its record base.

The CLI maps the exceptions onto stable exit codes, so the distinctions
matter: bad arguments, exceeded capacity caps, parity-domain rejections,
isolated functions, and internal invariant violations are all different
failure modes with different meanings to a caller.

``_Record``, the base of the records, lives here: this module loads
nothing, and it is the one module both ``graphs`` and ``winding`` import.
"""


class _Record:
    """Read-only; equal, hashed, shown and pickled by ``_fields``, which
    a subclass also lists in its ``__slots__`` and sets once with
    :meth:`_set`.  Unpickling calls ``__init__``, which validates."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CapacityError(Exception):
    """An operation would exceed its configured size cap.

    Exponential-graph constructions grow as ``k ** |V|``; every such
    operation takes a cap and fails loudly instead of thrashing.
    """

    def __init__(self, message: str, required: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class ParityDomainError(ValueError):
    """The assignment has an odd number of fixed points.

    Vertex coloring is only defined on the even-parity class; callers that
    feed an odd-parity assignment get this instead of a bogus color.
    """


class IsolatedFunctionError(ValueError):
    """The assignment is an isolated vertex of the exponential graph.

    For odd-cycle targets this is a legitimate classification outcome
    (some cycle vertex has no compatible color), not a crash.
    """


class NoEvenCycleError(LookupError):
    """No odd cycle with an even number of fixed points was found.

    Cannot happen for a non-isolated assignment on a host with chromatic
    number at least 4; it does happen on bipartite hosts (no odd cycles at
    all) or when the length bound is too small.
    """


class InvariantViolationError(RuntimeError):
    """An internal mathematical invariant failed.

    Raised from branches that correctness arguments make unreachable, e.g.
    the little-path value landing exactly on half the label. Seeing this
    means the arithmetic is corrupted, not that the input was bad.
    """
