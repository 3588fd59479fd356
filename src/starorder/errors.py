"""Exception types shared across the package."""


class RingSpecError(ValueError):
    """Malformed ring description: bad parameters, bad shape, unknown kind."""


class OrderCapError(RingSpecError):
    """Realizing a description would exceed the configured order cap."""


class TableValidationError(ValueError):
    """Operation tables violate a ring or involution axiom.

    ``violations`` is a list of ``(axiom, witness)`` pairs, one per broken
    axiom, each carrying the lexicographically first witness tuple.
    """

    def __init__(self, violations):
        self.violations = [(str(a), tuple(w)) for a, w in violations]
        detail = "; ".join(f"{a} at {w}" for a, w in self.violations)
        super().__init__(f"invalid *-ring tables: {detail}")


class ForeignElementError(ValueError):
    """An element id is out of range for the ring it was used with."""


class PreconditionError(ValueError):
    """An operation was invoked on a carrier that fails its hypothesis."""


class VerificationError(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""
