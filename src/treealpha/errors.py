"""Shared exception types.

Every refusal in this package is explicit: operations never fall back to an
approximation when an exhaustive cap is exceeded, and oracle callables that
break their contract are reported with the offending instance attached.
"""

from __future__ import annotations


class TreealphaError(Exception):
    """Base class for all package errors."""


class CapExceededError(TreealphaError):
    """An exhaustive computation was refused because it exceeds its cap.

    ``what`` is the cap's key in ``caps.DEFAULT_CAPS``, and ``source`` says
    where the cap came from: ``"argument"`` when the call passed its
    ``cap_override``, ``"default"`` otherwise. Only ``caps.enforce`` raises it.
    """

    def __init__(self, what: str, size: int, cap: int, source: str):
        super().__init__(f"{what}: size {size} exceeds cap {cap} ({source})")
        self.what = what
        self.size = size
        self.cap = cap
        self.source = source


class FormatError(TreealphaError):
    """Malformed graph text (graph6 or edge list) or decomposition JSON."""


class PreconditionError(TreealphaError):
    """A documented operation precondition does not hold."""


class OracleContractError(TreealphaError):
    """A pluggable oracle returned something that fails its contract.

    Carries the offending instance so the caller can replay it.
    """

    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


class InvariantViolationError(TreealphaError):
    """A runtime assertion derived from a proved bound failed.

    This either means an oracle silently broke its contract, the input graph
    is outside the hypothesis class, or there is an implementation bug; the
    attached trace distinguishes the cases.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
