"""Process-wide engine and planner counters aggregated across queries.

Per-query numbers live in :class:`repro.xpath.runtime.EvaluationStatistics`;
this module accumulates them into thread-safe, monotonically increasing
totals that ``/metrics`` renders as the ``repro_engine_*`` and
``repro_planner_*`` Prometheus families.  Counters are folded in *once per
finished query* (at the end of ``XPathEngine._execute``) or *once per built
plan* rather than incremented inside the succinct-structure hot loops, so
instrumentation cost stays off the rank/select fast paths.

``kernel_batch_calls_total`` counts ``*_many`` kernel *invocations* (one
``tagged_desc_many`` over 10k nodes is one call), so it is not comparable
element-for-element with the per-node totals next to it.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counters",
    "ENGINE_COUNTERS",
    "PLANNER_COUNTERS",
    "record_query",
    "record_plan",
]


class Counters:
    """Thread-safe monotonic totals over a fixed tuple of named fields.

    ``fields`` maps each field name, in render order, to its metric help text.
    """

    __slots__ = ("_lock", "_help", "_values")

    def __init__(self, fields: dict[str, str]):
        self._lock = threading.Lock()
        self._help = dict(fields)
        self._values: dict[str, float] = dict.fromkeys(fields, 0)

    def snapshot(self) -> dict[str, float]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return dict(self._values)

    def delta_since(self, before: dict[str, float]) -> dict[str, float]:
        """What accumulated since ``before`` (an earlier :meth:`snapshot`).

        This is the wire format of the cross-process counter fix: a pool
        worker snapshots around its shard batch and ships the delta home,
        where the parent folds it via :meth:`merge` -- so ``/metrics`` counts
        process-executor queries exactly like inline ones.
        """
        now = self.snapshot()
        return {name: value - before.get(name, 0) for name, value in now.items()}

    def merge(self, delta: dict[str, float]) -> None:
        """Add ``delta`` (field name -> amount) to the totals; unknown names are ignored."""
        with self._lock:
            values = self._values
            for name, amount in delta.items():
                if name in values:
                    values[name] += amount

    def reset(self) -> None:
        """Zero every counter (tests only; Prometheus counters must not reset in production)."""
        with self._lock:
            for name in self._values:
                self._values[name] = 0

    def register(self, prefix: str, registry) -> None:
        """Expose every field on ``registry`` as a ``<prefix>_<field>`` callback counter.

        Idempotent; values are read from the live counters at render time, so
        the families track the process totals without a second accounting path.
        """
        for name, help_text in self._help.items():
            registry.counter_callback(
                f"{prefix}_{name}", help_text, lambda field=name: self.snapshot()[field]
            )

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()!r})"


#: Totals over every query the process evaluated (``repro_engine_*``).
ENGINE_COUNTERS = Counters(
    {
        "queries_total": "Queries evaluated by the engine.",
        "queries_top_down_total": "Queries evaluated with the top-down strategy.",
        "queries_bottom_up_total": "Queries evaluated with the bottom-up strategy.",
        "visited_nodes_total": "Tree nodes visited during evaluation.",
        "marked_nodes_total": "Nodes marked by the tree automaton.",
        "result_nodes_total": "Nodes returned as query results.",
        "jumps_total": "Tagged-descendant jumps taken instead of child walks.",
        "text_queries_total": "Text-predicate evaluations.",
        "fm_index_queries_total": "Queries that touched the FM-index.",
        "rank_calls_total": "Scalar rank operations issued by the engine.",
        "select_calls_total": "Scalar select operations issued by the engine.",
        "kernel_batch_calls_total": "Vectorized batch-kernel invocations.",
    }
)

#: Totals over every plan the process built (``repro_planner_*``).  Plans are
#: counted at *build* time (cache misses), not per execution -- the
#: per-execution strategy mix already lives on :data:`ENGINE_COUNTERS`.
#: ``estimated_cost_total`` is a float (node-visit units, see
#: :mod:`repro.xpath.cost`); the rest are ints.
PLANNER_COUNTERS = Counters(
    {
        "plans_total": "Query plans built (plan-cache misses).",
        "plans_bottom_up_total": "Plans that chose the bottom-up (text-seeded) strategy.",
        "plans_top_down_total": "Plans that chose the top-down automaton strategy.",
        "plans_naive_text_total": "Plans forced onto the naive text store (mixed content).",
        "wildcard_candidate_fallbacks_total": "Wildcard last steps costed via the element-count bound.",
        "estimated_cost_total": "Sum of estimated plan costs (node-visit units).",
    }
)


def record_query(stats) -> None:
    """Fold one finished query's :class:`EvaluationStatistics` into :data:`ENGINE_COUNTERS`."""
    strategy = "bottom_up" if stats.strategy == "bottom-up" else "top_down"
    ENGINE_COUNTERS.merge(
        {
            "queries_total": 1,
            f"queries_{strategy}_total": 1,
            "visited_nodes_total": stats.visited_nodes,
            "marked_nodes_total": stats.marked_nodes,
            "result_nodes_total": stats.result_nodes,
            "jumps_total": stats.jumps,
            "text_queries_total": stats.text_queries,
            "fm_index_queries_total": 1 if stats.used_fm_index else 0,
            "rank_calls_total": stats.rank_calls,
            "select_calls_total": stats.select_calls,
            "kernel_batch_calls_total": stats.kernel_batch_calls,
        }
    )


def record_plan(plan) -> None:
    """Fold one freshly built :class:`~repro.xpath.planner.QueryPlan` into :data:`PLANNER_COUNTERS`."""
    strategy = "bottom_up" if plan.strategy == "bottom-up" else "top_down"
    PLANNER_COUNTERS.merge(
        {
            "plans_total": 1,
            f"plans_{strategy}_total": 1,
            "plans_naive_text_total": 1 if plan.uses_naive_text else 0,
            "estimated_cost_total": float(plan.estimated_cost or 0.0),
        }
    )

