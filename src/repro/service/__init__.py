"""Planner-as-a-service: cached, coalesced access to the optimizer.

The service layer consolidates every planning entry point — SQL sessions,
``explain``, what-if sweeps, the experiment harness — behind one
:class:`PlannerService` backed by a fingerprint-keyed :class:`PlanCache`
and a :class:`SingleFlight` admission gate.
"""

from ..core.fingerprint import (CATALOG_VERSION, Fingerprint,
                                batch_fingerprint, request_fingerprint)
from .cache import PlanCache
from .planner import PlannerService
from .singleflight import SingleFlight

__all__ = [
    "CATALOG_VERSION",
    "Fingerprint",
    "PlanCache",
    "PlannerService",
    "SingleFlight",
    "batch_fingerprint",
    "request_fingerprint",
]
