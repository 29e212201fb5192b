"""The network boundary: a dependency-free asyncio HTTP/1.1 JSON server.

:class:`ReproServer` exposes a :class:`~repro.service.QueryService` (and its
:class:`~repro.store.document_store.DocumentStore`) over eight routes --
query/batch, document ingest/inspect/delete, stats, health and Prometheus
metrics.  ``python -m repro.server`` (or the ``repro-serve`` console script)
serves a store directory from the command line; :mod:`repro.client` is the
matching stdlib client.

The exports resolve lazily: :mod:`repro.server.protocol` -- the engine-free
protocol layer the cluster coordinator shares -- lives in this package, and
importing it must not load the engine behind :class:`ReproServer`.
"""

__all__ = ["ReproServer", "ApiError", "AdmissionController"]

_LAZY_EXPORTS = {
    "ReproServer": "repro.server.http",
    "ApiError": "repro.server.protocol",
    "AdmissionController": "repro.server.admission",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
