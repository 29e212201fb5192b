"""Tracing installed from outside the program, for the traced benchmark run.

Nothing under ``src/`` is edited: :func:`install` replaces methods on the
program's classes with timing wrappers, in this process only.  Two kinds:

* **Spans** at the coarse layer boundaries (client call, request handler,
  ``NodeClient.request``, ``QueryService.run_many``, ``DocumentStore.get``,
  ``Document.load/save/from_string``, ``XPathEngine.prepare/plan/count/...``).
  A span is ``[id, parent, rid, peer, layer, name, start_ns, end_ns, prim]``;
  ``rid`` is the ``X-Request-Id`` shared by every span of one request and
  ``peer`` the TCP port the span talks to or listens on, which is how spans of
  different processes are joined afterwards (:func:`link_processes`).
* **Aggregates** for the primitive layers (``bits``, ``sequence``, ``tree``,
  ``text``).  One query makes ~10^5 such calls, so they are not spans: each
  call adds ``[calls, self_ns, entry_ns]`` to the ``prim`` table of the
  innermost open span of its thread.  ``self_ns`` excludes nested primitive
  calls (per-thread stack); ``entry_ns`` is the inclusive time of calls that
  entered the layer from another one, i.e. the time the layer was busy.

Timestamps are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which all
processes of one machine share, so spans of the bench process, the nodes and
the coordinator lie on one timeline.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter_ns

PRIMITIVE_LAYERS = ("bits", "sequence", "tree", "text")

#: Positions of a span's fields.
ID, PARENT, RID, PEER, LAYER, NAME, START, END, PRIM = range(9)

#: Primitive layers: every public plain method of these classes is aggregated.
_PRIMITIVE_CLASSES = {
    "bits": [
        ("repro.bits.bitvector", "BitVector"),
        ("repro.bits.sparse", "SparseBitVector"),
        ("repro.bits.intarray", "PackedIntArray"),
    ],
    "sequence": [
        ("repro.sequence.wavelet_tree", "WaveletTree"),
        ("repro.sequence.runlength", "RunLengthSequence"),
    ],
    "tree": [
        ("repro.tree.balanced_parens", "BalancedParentheses"),
        ("repro.tree.tag_sequence", "TagSequence"),
        ("repro.tree.succinct_tree", "SuccinctTree"),
        ("repro.tree.tag_tables", "TagPositionTables"),
    ],
    "text": [
        ("repro.text.fm_index", "FMIndex"),
        ("repro.text.text_collection", "TextCollection"),
        ("repro.text.naive_text", "NaiveTextCollection"),
    ],
}
#: Methods that only serialise, describe or size a structure are not query work.
_SKIPPED_METHODS = {"write", "to_bytes", "size_in_bits", "to_numpy", "to_list", "close"}
_TRACED_DUNDERS = {"__getitem__"}

def _port(args):
    return args[0].port


#: The client generates the request id inside the call; its span takes the
#: server's echo afterwards.
_CLIENT_SPAN = {"rid_close": lambda args: args[0].last_request_id, "peer_of": _port}

#: Coarse boundaries: (module, class, methods, layer, span options).  ``build``
#: is parsing plus index construction, which only the write workloads pay per
#: operation.
_SPAN_METHODS = [
    (
        "repro.client.client",
        "ReproClient",
        ("run", "run_many", "put_document", "delete_document"),
        "client",
        _CLIENT_SPAN,
    ),
    ("repro.coordinator.backend", "NodeClient", ("request",), "coordinator", {"peer_of": _port}),
    ("repro.service.query_service", "QueryService", ("run_many",), "service", {}),
    ("repro.store.document_store", "DocumentStore", ("get", "add_xml", "remove"), "store", {}),
    ("repro.core.document", "Document", ("load", "save"), "storage", {}),
    ("repro.core.document", "Document", ("from_string",), "build", {}),
    (
        "repro.xpath.engine",
        "XPathEngine",
        ("prepare", "plan", "count", "evaluate", "materialize"),
        "xpath",
        {},
    ),
]
#: Module-level functions imported by name elsewhere: (module, function, layer, importers).
_SPAN_FUNCTIONS = [
    ("repro.coordinator.merge", "merge_results", "coordinator", ("repro.coordinator.http",)),
    ("repro.coordinator.merge", "merge_batches", "coordinator", ("repro.coordinator.http",)),
]


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = [[0, ""]]  # frames [child_ns, layer]; the root frame stays
        self.prim = {}  # primitive table of the innermost open span of this thread


_state = _ThreadState()
_current = contextvars.ContextVar("layer_trace_current", default=(None, None))  # (span id, rid)
_ids = itertools.count(1)
_spans: list[list] = []  # list.append is atomic under the GIL
_missing: list[str] = []
_installed = False


# -- wrappers -------------------------------------------------------------------------------


def _aggregate(func, key: str, layer: str):
    """Wrap a primitive method: count it into the innermost span's table."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        state = _state
        stack = state.stack
        frame = [0, layer]
        stack.append(frame)
        started = _now()
        try:
            return func(*args, **kwargs)
        finally:
            duration = _now() - started
            stack.pop()
            parent = stack[-1]
            parent[0] += duration
            record = state.prim.get(key)
            if record is None:
                record = state.prim[key] = [0, 0, 0]
            record[0] += 1
            record[1] += duration - frame[0]
            if parent[1] != layer:
                record[2] += duration

    return wrapper


def _open_span(layer: str, name: str, rid, peer) -> tuple:
    parent_id, parent_rid = _current.get()
    span = [next(_ids), parent_id, rid or parent_rid, peer, layer, name, 0, 0, None]
    token = _current.set((span[ID], span[RID]))
    span[START] = _now()
    return span, token


def _close_span(span: list, token, prim: dict | None) -> None:
    span[END] = _now()
    span[PRIM] = prim or None
    _current.reset(token)
    _spans.append(span)


def _span(func, layer: str, name: str, rid_close=None, peer_of=None):
    """Wrap a coarse boundary (plain or coroutine function) in a span.

    Coroutine spans interleave on the event-loop thread, so they never touch
    the per-thread primitive stack; no primitive runs directly under them.
    """
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            span, token = _open_span(layer, name, None, peer_of(args) if peer_of else None)
            try:
                return await func(*args, **kwargs)
            finally:
                _close_span(span, token, None)

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        state = _state
        outer_prim = state.prim
        state.prim = prim = {}
        state.stack.append([0, layer])
        span, token = _open_span(layer, name, None, peer_of(args) if peer_of else None)
        try:
            return func(*args, **kwargs)
        finally:
            if rid_close is not None:
                span[RID] = rid_close(args) or span[RID]
            _close_span(span, token, prim)
            state.stack.pop()
            state.prim = outer_prim

    return wrapper


def _owner(cls, name: str):
    """The class in ``cls``'s MRO that defines ``name`` (``None`` if absent)."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    return None


def _load(module: str, attribute: str):
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError):
        _missing.append(f"{module}.{attribute}")
        return None


def _patch_method(cls, method: str, make) -> None:
    owner = _owner(cls, method)
    if owner is None:
        _missing.append(f"{cls.__name__}.{method}")
        return
    raw = owner.__dict__[method]
    if getattr(raw, "__layer_traced__", False):  # two classes share this owner
        return
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = make(raw.__func__)
        wrapped.__layer_traced__ = True
        wrapped = type(raw)(wrapped)
    else:
        wrapped = make(raw)
        wrapped.__layer_traced__ = True
    setattr(owner, method, wrapped)


def _submit_with_context(submit):
    """Pool threads do not inherit contextvars; carry the open span across."""

    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return submit(self, context.run, fn, *args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every traced boundary of the program, once per process."""
    global _installed
    if _installed:
        return
    _installed = True

    for layer, classes in _PRIMITIVE_CLASSES.items():
        for module, class_name in classes:
            cls = _load(module, class_name)
            if cls is None:
                continue
            for name, raw in list(cls.__dict__.items()):
                public = not name.startswith("_") or name in _TRACED_DUNDERS
                if not public or name in _SKIPPED_METHODS or not inspect.isfunction(raw):
                    continue
                if inspect.isgeneratorfunction(raw):
                    continue
                key = f"{layer}.{class_name}.{name}"
                _patch_method(cls, name, lambda f, key=key, layer=layer: _aggregate(f, key, layer))

    for module, class_name, methods, layer, options in _SPAN_METHODS:
        cls = _load(module, class_name)
        if cls is None:
            continue
        for method in methods:
            name = f"{class_name}.{method}"
            _patch_method(
                cls, method, lambda f, layer=layer, name=name, options=options: _span(f, layer, name, **options)
            )

    # The request handler boundary of both HTTP servers is the dispatcher of
    # their shared base class; it is private, but it is the one place where a
    # request (and its id) exists before routing.
    for module, class_name in (
        ("repro.server.http", "ReproServer"),
        ("repro.coordinator.http", "CoordinatorServer"),
    ):
        cls = _load(module, class_name)
        if cls is not None:
            _patch_method(cls, "_dispatch", _dispatch_span)

    for module, function, layer, importers in _SPAN_FUNCTIONS:
        raw = _load(module, function)
        if raw is None:
            continue
        wrapped = _span(raw, layer, function)
        for holder in (module, *importers):
            target = importlib.import_module(holder)
            if getattr(target, function, None) is raw:
                setattr(target, function, wrapped)

    ThreadPoolExecutor.submit = _submit_with_context(ThreadPoolExecutor.submit)


def _route_of(path: str) -> str:
    """The request path without its query string and document id."""
    parts = path.split("?", 1)[0].split("/")
    if len(parts) > 3 and parts[2] == "documents":
        del parts[3]
    return "/".join(parts)


def _dispatch_span(func):
    """Span around ``AsyncHttpServer._dispatch``; layer from the concrete server class."""

    @functools.wraps(func)
    async def wrapper(self, request, *args, **kwargs):
        coordinator = type(self).__name__ == "CoordinatorServer"
        span, token = _open_span(
            "coordinator" if coordinator else "server",
            f"{request.method} {_route_of(request.path)}",
            getattr(request, "request_id", None),
            self.port,
        )
        try:
            return await func(self, request, *args, **kwargs)
        finally:
            _close_span(span, token, None)

    return wrapper


# -- collection -----------------------------------------------------------------------------


def mark() -> int:
    """Timestamp on the spans' clock (to window the timed section)."""
    return _now()


def drain() -> list[list]:
    """The spans finished so far in this process; clears the buffer."""
    spans = list(_spans)
    del _spans[: len(spans)]
    return spans


def missing_targets() -> list[str]:
    """Boundaries :func:`install` could not find (a refactor moved them)."""
    return list(_missing)


def dump(path: str | os.PathLike, process: str) -> None:
    """Write this process's spans to ``path`` (read back with :func:`load_dump`)."""
    payload = {"process": process, "pid": os.getpid(), "missing": missing_targets(), "spans": drain()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def load_dump(path: str | os.PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- analysis -------------------------------------------------------------------------------

def link_processes(dumps: list[dict]) -> list[list]:
    """One span list from several processes, cross-process parents filled in.

    Ids are made unique as ``"<process>:<id>"``.  A span without an in-process
    parent hangs under the shortest span of another process that has the same
    request id and peer port and contains it in time.
    """
    spans: list[list] = []
    for payload in dumps:
        prefix = payload["process"]
        for span in payload["spans"]:
            span = list(span)
            span[ID] = f"{prefix}:{span[ID]}"
            if span[PARENT] is not None:
                span[PARENT] = f"{prefix}:{span[PARENT]}"
            spans.append(span)
    by_request: dict[tuple, list[list]] = {}
    for span in spans:
        if span[RID] is not None and span[PEER] is not None:
            by_request.setdefault((span[RID], span[PEER]), []).append(span)
    for span in spans:
        if span[PARENT] is not None or span[RID] is None or span[PEER] is None:
            continue
        process = span[ID].split(":", 1)[0]
        best = None
        for other in by_request[(span[RID], span[PEER])]:
            if other[ID].split(":", 1)[0] == process:
                continue
            if other[START] <= span[START] and span[END] <= other[END]:
                if best is None or other[END] - other[START] < best[END] - best[START]:
                    best = other
        if best is not None:
            span[PARENT] = best[ID]
    return spans


def _own_time(members: list[list], children: dict, lo: int, hi: int) -> dict[object, float]:
    """Split ``[lo, hi]`` among ``members`` (one operation's spans): each instant
    goes to the open spans none of whose children is open, in equal parts.

    With sequential children this is a span's duration minus the interval its
    children cover.  Where children run side by side (shard threads, fan-out
    to nodes) the instant is shared, so the parts still add up to the wall time
    of the operation instead of to the thread time.
    """
    own = {span[ID]: 0.0 for span in members}
    edges = sorted({min(max(t, lo), hi) for span in members for t in (span[START], span[END])})
    for begin, end in zip(edges, edges[1:]):
        open_ids = {span[ID] for span in members if span[START] <= begin and end <= span[END]}
        innermost = [
            span_id
            for span_id in open_ids
            if not any(child[ID] in open_ids for child in children.get(span_id, ()))
        ]
        for span_id in innermost:
            own[span_id] += (end - begin) / len(innermost)
    return own


class TraceSummary:
    """Self times per layer over the operations of one timed window.

    The parentless spans of ``root_layer`` stand for one operation each (the
    caller's view).  The wall time of an operation is split among the spans
    below it (:func:`_own_time`); inside a span, the primitive self times
    recorded under it go to their layers and the rest is the span's own layer.
    """

    def __init__(self, spans: list[list], root_layer: str, window: tuple[int, int]):
        children: dict[object, list[list]] = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(span)
        self.roots = [
            s
            for s in spans
            if s[LAYER] == root_layer
            and s[PARENT] is None
            and window[0] <= s[START]
            and s[END] <= window[1]
        ]
        self.ops = len(self.roots)
        self.wall_ns = sum(s[END] - s[START] for s in self.roots)
        self.self_ns: dict[str, float] = {}  # layer -> self time
        self.entry_ns: dict[str, float] = {}  # primitive layer -> busy (entered) time
        self.calls: dict[str, int] = {}  # layer -> spans or primitive calls
        self.by_name: dict[tuple[str, str], list] = {}  # (layer, name) -> [calls, self_ns]
        self.spans: list[list] = []  # every span under a root, roots included
        self.negative_self = 0

        for root in self.roots:
            members = []
            pending = [root]
            while pending:
                span = pending.pop()
                members.append(span)
                pending.extend(children.get(span[ID], ()))
            self.spans.extend(members)
            own_time = _own_time(members, children, root[START], root[END])
            for span in members:
                own = own_time[span[ID]]
                # Primitive times were measured on the span's own thread clock;
                # where the span shared its time with siblings they shrink alike.
                measured = (span[END] - span[START]) - sum(
                    min(k[END], span[END]) - max(k[START], span[START]) for k in children.get(span[ID], ())
                )
                scale = min(1.0, own / measured) if measured > 0 else 0.0
                for key, (calls, self_ns, entry_ns) in (span[PRIM] or {}).items():
                    layer, name = key.split(".", 1)
                    own -= self_ns * scale
                    self._add(layer, name, calls, self_ns * scale)
                    self.entry_ns[layer] = self.entry_ns.get(layer, 0.0) + entry_ns * scale
                if own < -1e3:  # more than rounding: primitives outlasted their span
                    self.negative_self += 1
                self._add(span[LAYER], span[NAME], 1, max(own, 0.0))

    def _add(self, layer: str, name: str, calls: int, self_ns: float) -> None:
        self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns
        self.calls[layer] = self.calls.get(layer, 0) + calls
        record = self.by_name.setdefault((layer, name), [0, 0])
        record[0] += calls
        record[1] += self_ns

    def named(self, layer: str, prefix: str | tuple[str, ...]) -> tuple[int, int]:
        """``(calls, self_ns)`` over the rows of ``layer`` whose name starts with ``prefix``."""
        calls = self_ns = 0
        for (row_layer, name), (row_calls, row_self) in self.by_name.items():
            if row_layer == layer and name.startswith(prefix):
                calls += row_calls
                self_ns += row_self
        return calls, self_ns

    def accounted_share(self) -> float:
        """Share of the operations' wall time the layer self times add up to."""
        return sum(self.self_ns.values()) / self.wall_ns if self.wall_ns else 0.0

    def ranked_rows(self) -> list[dict]:
        """Layers by self time, largest first."""
        rows = []
        for layer, self_ns in sorted(self.self_ns.items(), key=lambda item: -item[1]):
            rows.append(
                {
                    "layer": layer,
                    "calls_per_op": self.calls[layer] / self.ops if self.ops else 0.0,
                    "self_ms_per_op": self_ns / 1e6 / self.ops if self.ops else 0.0,
                    "self_share": self_ns / self.wall_ns if self.wall_ns else 0.0,
                }
            )
        return rows
