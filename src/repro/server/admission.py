"""Cost-based admission control for the HTTP server.

The planner's cost model (:mod:`repro.xpath.cost`) prices a request *before*
any evaluator runs: the service's :meth:`~repro.service.QueryService.estimate_cost`
plans each query against one representative document and scales by corpus
size.  This module turns that estimate into an admission decision, so an
over-budget request fails fast with a structured hint instead of timing out
mid-sweep:

* **per-request budget** (``cost_budget``) -- a single request whose estimate
  exceeds the budget is rejected with **429** and a ``details`` dict carrying
  ``estimated_cost`` and ``cost_budget``;
* **per-client quota** (``client_cost_quota`` over ``quota_window_seconds``) --
  a token bucket per client id (the ``X-Client-Id`` header, ``anonymous``
  otherwise); exhaustion is **429** with ``retry_after_seconds``;
* **inflight ceiling** (``max_inflight_cost``) -- the summed estimate of
  requests currently being served; exceeding it is **503** (the request is
  fine, the server is busy).  A request is always admitted when nothing is
  inflight, so one expensive query cannot be starved forever.

All three knobs are optional and independent; an :class:`AdmissionController`
with none set admits everything (``enabled`` is false and the server skips
the pre-flight estimate entirely).

:meth:`admit` returns a *release* callable the request handler must invoke
when the sweep finishes (idempotent, exception-safe under ``finally``), which
retires the inflight cost.  Quota tokens are **not** refunded on completion:
the quota prices work the client asked for, not work still running.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import get_registry
from repro.server.protocol import ApiError

__all__ = ["AdmissionController"]


class _ClientBucket:
    """Token-bucket state for one client id (cost units, not requests)."""

    __slots__ = ("tokens", "updated")

    def __init__(self, tokens: float, updated: float):
        self.tokens = tokens
        self.updated = updated


class AdmissionController:
    """Admit or reject requests by estimated evaluation cost (node-visits).

    Thread-safe; one instance guards one server.  ``clock`` is injectable for
    tests (must be monotonic, in seconds).
    """

    def __init__(
        self,
        cost_budget: float | None = None,
        client_cost_quota: float | None = None,
        quota_window_seconds: float = 60.0,
        max_inflight_cost: float | None = None,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        registry=None,
    ):
        if quota_window_seconds <= 0:
            raise ValueError("quota_window_seconds must be positive")
        self._cost_budget = float(cost_budget) if cost_budget is not None else None
        self._client_quota = float(client_cost_quota) if client_cost_quota is not None else None
        self._quota_window = float(quota_window_seconds)
        self._max_inflight = float(max_inflight_cost) if max_inflight_cost is not None else None
        self._max_clients = int(max_clients)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, _ClientBucket] = {}
        self._inflight_cost = 0.0
        self._inflight_requests = 0
        if registry is None:
            registry = get_registry()
        self._admitted = registry.counter(
            "admission_admitted_total", "Requests admitted by the cost-based admission controller."
        )
        self._rejected = registry.counter(
            "admission_rejected_total",
            "Requests rejected by the admission controller, by reason.",
            labels=("reason",),
        )
        registry.gauge_callback(
            "admission_inflight_cost",
            "Summed estimated cost of requests currently being served.",
            lambda: self.inflight_cost,
        )

    # -- state -------------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any limit is configured (a disabled controller admits everything)."""
        return (
            self._cost_budget is not None
            or self._client_quota is not None
            or self._max_inflight is not None
        )

    @property
    def inflight_cost(self) -> float:
        """Summed estimate of the requests currently holding an admission."""
        with self._lock:
            return self._inflight_cost

    def describe(self, cost: float | None = None) -> dict:
        """The configured limits and live state, for the estimate endpoint.

        With ``cost`` given, also reports ``would_admit`` -- whether a request
        of that estimated cost would pass the per-request budget right now
        (quota and inflight state are racy by nature and not previewed).
        """
        with self._lock:
            info: dict = {
                "enabled": self.enabled,
                "cost_budget": self._cost_budget,
                "client_cost_quota": self._client_quota,
                "quota_window_seconds": self._quota_window if self._client_quota is not None else None,
                "max_inflight_cost": self._max_inflight,
                "inflight_cost": round(self._inflight_cost, 3),
                "inflight_requests": self._inflight_requests,
            }
        if cost is not None:
            info["would_admit"] = self._cost_budget is None or cost <= self._cost_budget
        return info

    # -- admission ---------------------------------------------------------------------

    def admit(self, client_id: str, estimated_cost: float) -> Callable[[], None]:
        """Admit a request of ``estimated_cost`` node-visits, or raise.

        Returns an idempotent release callable; the handler must call it when
        the request finishes (success or failure) to retire the inflight
        cost.  Raises :class:`ApiError` 429 (over budget / quota exhausted)
        or 503 (inflight ceiling) with a ``details`` cost hint.
        """
        cost = max(0.0, float(estimated_cost))
        if self._cost_budget is not None and cost > self._cost_budget:
            self._rejected.labels(reason="over_budget").inc()
            raise ApiError(
                429,
                f"estimated cost {cost:.0f} exceeds the per-request budget "
                f"{self._cost_budget:.0f} (node-visits); narrow the query or "
                f"restrict doc_ids",
                error_type="over_budget",
                details={"estimated_cost": round(cost, 3), "cost_budget": self._cost_budget},
            )
        with self._lock:
            if self._client_quota is not None:
                self._charge_quota(client_id, cost)
            if (
                self._max_inflight is not None
                and self._inflight_requests > 0
                and self._inflight_cost + cost > self._max_inflight
            ):
                self._rejected.labels(reason="overloaded").inc()
                raise ApiError(
                    503,
                    f"server is at its inflight cost ceiling "
                    f"({self._inflight_cost:.0f} of {self._max_inflight:.0f} "
                    f"node-visits in flight); retry shortly",
                    error_type="overloaded",
                    details={
                        "estimated_cost": round(cost, 3),
                        "inflight_cost": round(self._inflight_cost, 3),
                        "max_inflight_cost": self._max_inflight,
                    },
                )
            self._inflight_cost += cost
            self._inflight_requests += 1
        self._admitted.inc()
        released = threading.Event()

        def release() -> None:
            if released.is_set():
                return
            released.set()
            with self._lock:
                self._inflight_cost = max(0.0, self._inflight_cost - cost)
                self._inflight_requests = max(0, self._inflight_requests - 1)

        return release

    def _charge_quota(self, client_id: str, cost: float) -> None:
        """Debit ``cost`` from the client's token bucket (caller holds the lock)."""
        now = self._clock()
        bucket = self._buckets.get(client_id)
        if bucket is None:
            if len(self._buckets) >= self._max_clients:
                # Bounded table: evict the stalest bucket.  An evicted client
                # returns with a full quota, which errs on admission.
                stalest = min(self._buckets, key=lambda cid: self._buckets[cid].updated)
                del self._buckets[stalest]
            bucket = _ClientBucket(tokens=self._client_quota, updated=now)
            self._buckets[client_id] = bucket
        else:
            refill = (now - bucket.updated) * (self._client_quota / self._quota_window)
            bucket.tokens = min(self._client_quota, bucket.tokens + refill)
            bucket.updated = now
        if cost > bucket.tokens:
            deficit = cost - bucket.tokens
            rate = self._client_quota / self._quota_window
            retry_after = min(self._quota_window, deficit / rate)
            self._rejected.labels(reason="quota_exhausted").inc()
            raise ApiError(
                429,
                f"client {client_id!r} exhausted its cost quota "
                f"({self._client_quota:.0f} node-visits per "
                f"{self._quota_window:.0f}s); retry in {retry_after:.1f}s",
                error_type="quota_exhausted",
                details={
                    "estimated_cost": round(cost, 3),
                    "client_cost_quota": self._client_quota,
                    "quota_window_seconds": self._quota_window,
                    "remaining_quota": round(bucket.tokens, 3),
                    "retry_after_seconds": round(retry_after, 3),
                },
            )
        bucket.tokens -= cost
