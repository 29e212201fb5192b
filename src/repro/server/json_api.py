"""The node's half of the JSON wire schema, shared with :mod:`repro.client`.

One module owns both directions of every payload that needs the engine's
types -- options parsing, result serialisation, the domain-exception table --
so the server and the stdlib client cannot drift apart (the engine-free half,
:class:`~repro.server.protocol.ApiError` and the error envelope itself, is
:mod:`repro.server.protocol`):

* domain errors travel in the envelope under their class name and the name
  maps back to the exception class on the client
  (:func:`exception_from_payload` inverts
  :func:`~repro.server.protocol.error_payload`);
* :class:`~repro.service.ServiceResult` travels as a plain dict
  (:func:`service_result_to_json` / :func:`service_result_from_json`);
* request options are validated against the dataclass fields of
  :class:`~repro.core.options.IndexOptions` /
  :class:`~repro.core.options.EvaluationOptions`, so an unknown or mistyped
  knob is a 400, not a silent default.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.core.errors import (
    CorruptedFileError,
    DocumentNotFoundError,
    ReproError,
    StorageError,
    UnsupportedQueryError,
    VersionMismatchError,
)
from repro.server.protocol import ApiError
from repro.service.query_service import ServiceResult, ShardTiming
from repro.store.document_store import DocumentFailure
from repro.xpath.parser import XPathSyntaxError

__all__ = [
    "status_of_exception",
    "exception_from_payload",
    "parse_index_options",
    "parse_evaluation_options",
    "service_result_to_json",
    "service_result_from_json",
]


#: Most-specific first; ``DocumentNotFoundError`` must precede its base
#: ``StorageError``, which must precede ``ReproError``.
_STATUS_TABLE: tuple[tuple[type[Exception], int], ...] = (
    (XPathSyntaxError, 400),
    (UnsupportedQueryError, 400),
    (DocumentNotFoundError, 404),
    (VersionMismatchError, 500),
    (CorruptedFileError, 500),
    (StorageError, 500),
    (ReproError, 500),
)

#: Wire type name -> exception class, for the client's reverse mapping.
_EXCEPTION_BY_NAME: dict[str, type[Exception]] = {
    cls.__name__: cls for cls, _ in _STATUS_TABLE
}


def status_of_exception(exc: Exception) -> int:
    """HTTP status for a domain exception (500 for anything unrecognised)."""
    if isinstance(exc, ApiError):
        return exc.status
    for cls, status in _STATUS_TABLE:
        if isinstance(exc, cls):
            return status
    return 500


def exception_from_payload(status: int, payload: Any, request_id: str | None = None) -> Exception:
    """Rebuild the typed exception a response body describes.

    Domain types come back as themselves (``XPathSyntaxError`` raised on the
    server is ``XPathSyntaxError`` on the client); anything else -- including a
    non-JSON body from a proxy -- degrades to :class:`ApiError` with the
    status attached.  The request id (from the envelope or the caller) is
    appended to the message so a client-side traceback names the server-side
    trace to look up.
    """
    error = payload.get("error") if isinstance(payload, Mapping) else None
    if not isinstance(error, Mapping):
        exc: Exception = ApiError(status, f"HTTP {status}: {str(payload)[:200]}")
    else:
        name = str(error.get("type", ""))
        message = str(error.get("message", f"HTTP {status}"))
        request_id = str(error.get("request_id") or request_id or "") or None
        if request_id:
            message = f"{message} [request_id={request_id}]"
        details = error.get("details")
        details = dict(details) if isinstance(details, Mapping) else None
        cls = _EXCEPTION_BY_NAME.get(name)
        if cls is not None:
            exc = cls(message)
        else:
            exc = ApiError(status, message, error_type=name or None, details=details)
    if request_id and not isinstance(error, Mapping):
        exc = ApiError(status, f"{exc} [request_id={request_id}]")
    return exc


# -- options ---------------------------------------------------------------------------


def _options_from_json(cls, data: Any, label: str):
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise ApiError(400, f"{label} must be a JSON object, not {type(data).__name__}")
    valid = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ApiError(
            400, f"unknown {label} field(s) {', '.join(unknown)}; valid: {', '.join(sorted(valid))}"
        )
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid {label}: {exc}") from exc


def parse_index_options(data: Any):
    """``IndexOptions`` from a request body (``None`` passes through)."""
    from repro.core.options import IndexOptions

    return _options_from_json(IndexOptions, data, "index options")


def parse_evaluation_options(data: Any):
    """``EvaluationOptions`` from a request body (``None`` passes through)."""
    from repro.core.options import EvaluationOptions

    return _options_from_json(EvaluationOptions, data, "evaluation options")


# -- results ---------------------------------------------------------------------------


def service_result_to_json(result: ServiceResult) -> dict:
    """A :class:`ServiceResult` as the JSON dict the query endpoints return."""
    payload = {
        "query": result.query,
        "total": result.total,
        "counts": dict(result.counts),
        "nodes": None if result.nodes is None else {k: list(v) for k, v in result.nodes.items()},
        "failures": [
            {"doc_id": f.doc_id, "error": f.error, "message": f.message} for f in result.failures
        ],
        "shard_timings": [
            {
                "shard": t.shard,
                "num_documents": t.num_documents,
                "seconds": t.seconds,
                "load_seconds": t.load_seconds,
                "eval_seconds": t.eval_seconds,
            }
            for t in result.shard_timings
        ],
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.explain is not None:
        payload["explain"] = result.explain
    return payload


def service_result_from_json(data: Mapping) -> ServiceResult:
    """Rebuild the typed :class:`ServiceResult` on the client side.

    Tolerates payloads from servers predating the load/eval shard-timing
    split (the fields default to zero) and ignores unknown extras, so client
    and server can be upgraded independently.
    """
    nodes = data.get("nodes")
    return ServiceResult(
        query=str(data["query"]),
        counts={str(k): int(v) for k, v in data.get("counts", {}).items()},
        total=int(data.get("total", 0)),
        nodes=None if nodes is None else {str(k): [int(n) for n in v] for k, v in nodes.items()},
        failures=[
            DocumentFailure(doc_id=str(f["doc_id"]), error=str(f["error"]), message=str(f["message"]))
            for f in data.get("failures", [])
        ],
        shard_timings=[
            ShardTiming(
                shard=int(t["shard"]),
                num_documents=int(t["num_documents"]),
                seconds=float(t["seconds"]),
                load_seconds=float(t.get("load_seconds", 0.0)),
                eval_seconds=float(t.get("eval_seconds", 0.0)),
            )
            for t in data.get("shard_timings", [])
        ],
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        explain=data.get("explain"),
    )
