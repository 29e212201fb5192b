"""SXSI reproduction: fast in-memory XPath search using compressed indexes.

The package reproduces the system of Arroyuelo et al., *Fast in-memory XPath
search using compressed indexes* (ICDE 2010 / SP&E 2015): a self-indexed XML
representation (FM-index for the texts, balanced parentheses plus a tag
sequence for the tree) queried through XPath *Core+* compiled to alternating
marking tree automata.

Quickstart
----------

>>> from repro import Document
>>> doc = Document.from_string("<a><b>hello</b><b>world</b></a>")
>>> doc.count("//b")
2
"""

__all__ = [
    "Document",
    "DocumentStore",
    "ReproServer",
    "ReproClient",
    "CoordinatorServer",
    "CoordinatorClient",
    "DocumentFailure",
    "QueryService",
    "PlanCache",
    "ServiceResult",
    "ShardTiming",
    "PreparedQuery",
    "prepare_query",
    "IndexOptions",
    "EvaluationOptions",
    "QueryResult",
    "ReproError",
    "UnsupportedQueryError",
    "StorageError",
    "CorruptedFileError",
    "VersionMismatchError",
    "DocumentNotFoundError",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "configure_logging",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "parse_prometheus_text",
    "WorkloadAnalytics",
    "get_workload",
    "set_workload",
    "__version__",
]

__version__ = "1.6.0"

#: Every export resolves on first use, so ``import repro`` -- which any
#: ``import repro.<subpackage>`` runs first -- loads nothing: the engine-free
#: processes (the cluster coordinator) never import numpy or the XPath engine,
#: and the HTTP server and client (asyncio, http.client, url parsing) only
#: load when actually referenced.
_LAZY_EXPORTS = {
    "Document": "repro.core.document",
    "DocumentStore": "repro.store.document_store",
    "DocumentFailure": "repro.store.document_store",
    "QueryService": "repro.service",
    "PlanCache": "repro.service",
    "ServiceResult": "repro.service",
    "ShardTiming": "repro.service",
    "PreparedQuery": "repro.xpath.plan",
    "prepare_query": "repro.xpath.plan",
    "IndexOptions": "repro.core.options",
    "EvaluationOptions": "repro.core.options",
    "QueryResult": "repro.xpath.engine",
    "ReproError": "repro.core.errors",
    "UnsupportedQueryError": "repro.core.errors",
    "StorageError": "repro.core.errors",
    "CorruptedFileError": "repro.core.errors",
    "VersionMismatchError": "repro.core.errors",
    "DocumentNotFoundError": "repro.core.errors",
    "ReproServer": "repro.server",
    "ReproClient": "repro.client",
    "CoordinatorServer": "repro.coordinator",
    "CoordinatorClient": "repro.client",
    "Tracer": "repro.obs",
    "get_tracer": "repro.obs",
    "set_tracer": "repro.obs",
    "configure_logging": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "get_registry": "repro.obs",
    "set_registry": "repro.obs",
    "parse_prometheus_text": "repro.obs",
    "WorkloadAnalytics": "repro.obs",
    "get_workload": "repro.obs",
    "set_workload": "repro.obs",
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
