"""Sharded on-disk collection of saved documents with an LRU serving cache.

The SXSI indexes are built once and then only queried; this module adds the
*serve many* layer on top of :meth:`repro.Document.save` /
:meth:`repro.Document.load`:

* a store root holding ``num_shards`` shard subdirectories, with each document
  placed by a stable hash of its identifier (``shard-017/orders.sxsi``);
* lazy loading -- a document's index file is only read when a query touches
  it, and at most ``cache_size`` documents are resident at a time (LRU);
* batch query APIs (:meth:`count_all`, :meth:`query`, :meth:`serialize`,
  :meth:`scatter_gather`) that iterate shard by shard, so a corpus far larger
  than RAM is served with bounded memory.

The resident cache is thread-safe: the parallel scatter-gather workers of
:class:`~repro.service.QueryService` call :meth:`get` concurrently (each
worker owns distinct shards, so no index file is read twice in one sweep).
Batch APIs accept either query strings or reusable
:class:`~repro.xpath.plan.PreparedQuery` plans, and per-document failures can
be collected as structured :class:`DocumentFailure` results instead of
aborting a whole batch.

The layout is described by a ``store.json`` manifest so a store can be
reopened by a different process (or machine) later.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.document import Document
from repro.core.errors import DocumentNotFoundError, ReproError, StorageError
from repro.core.options import EvaluationOptions, IndexOptions
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.resources import document_residency, mincore_available
from repro.obs.tracing import get_tracer
from repro.xpath.plan import PreparedQuery

__all__ = ["DocumentStore", "DocumentFailure", "register_store_metrics"]

_MANIFEST = "store.json"
_SUFFIX = ".sxsi"
_MANIFEST_FORMAT = 1
_DOC_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


@dataclass(frozen=True)
class DocumentFailure:
    """A per-document error surfaced by a batch API instead of aborting it.

    Carries enough to triage (which document, which error class, the message)
    without keeping a reference to the traceback or a half-loaded document.
    """

    doc_id: str
    error: str
    message: str

    @classmethod
    def from_exception(cls, doc_id: str, exc: Exception) -> "DocumentFailure":
        return cls(doc_id=doc_id, error=type(exc).__name__, message=str(exc))

    def __str__(self) -> str:
        return f"{self.doc_id}: {self.error}: {self.message}"


class DocumentStore:
    """A directory of saved :class:`~repro.Document` indexes, served lazily.

    Parameters
    ----------
    root:
        Store directory.  Created (with its manifest) if it does not exist;
        when it does, the manifest's shard count wins over ``num_shards``.
    num_shards:
        Number of shard subdirectories documents are hashed into.
    cache_size:
        Maximum number of loaded documents kept resident (LRU eviction).
    mapped:
        Passed to :meth:`Document.load`.  Mapped residents (the default) hold
        page-cache views instead of heap copies, so N stores (or N worker
        processes) over the same files share physical memory; ``False``
        loads heap copies.
    verify:
        Checksum mode for mapped loads (``"eager"``, ``"lazy"``, ``"off"``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        num_shards: int = 16,
        cache_size: int = 8,
        mapped: bool = True,
        verify: str | None = None,
    ):
        if num_shards < 1:
            raise StorageError("a store needs at least one shard")
        if cache_size < 1:
            raise StorageError("the resident cache must hold at least one document")
        self._root = Path(root)
        self._mapped = bool(mapped)
        self._verify = verify
        self._cache: OrderedDict[str, Document] = OrderedDict()
        #: (mtime_ns, size) of each resident document's file at load time;
        #: cache hits revalidate against the live stat so an overwrite -- by
        #: this store, another handle, or another process -- is picked up.
        self._meta: dict[str, tuple[int, int]] = {}
        self._cache_size = int(cache_size)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Cache hits whose stat revalidation found the file overwritten, so
        #: the stale resident was dropped and the document remapped from disk.
        self.remaps = 0

        # Process-wide totals on the shared registry (label-less on purpose:
        # store roots are unbounded label values); per-store counts stay on
        # the plain attributes above.
        registry = get_registry()
        self._m_hits = registry.counter(
            "store_cache_hits_total", "Resident-cache hits across every store in the process."
        )
        self._m_misses = registry.counter(
            "store_cache_misses_total", "Resident-cache misses (document loaded from disk)."
        )
        self._m_evictions = registry.counter(
            "store_cache_evictions_total", "Documents evicted from a resident cache (LRU)."
        )
        self._m_remaps = registry.counter(
            "store_cache_remaps_total",
            "Stale residents remapped after stat revalidation saw an overwrite.",
        )

        manifest_path = self._root / _MANIFEST
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                self._num_shards = int(manifest["num_shards"])
            except (ValueError, KeyError, TypeError) as exc:
                raise StorageError(f"unreadable store manifest at {manifest_path}: {exc}") from exc
        else:
            self._num_shards = int(num_shards)
            self._root.mkdir(parents=True, exist_ok=True)
            manifest_path.write_text(
                json.dumps({"format": _MANIFEST_FORMAT, "num_shards": self._num_shards}, indent=2) + "\n",
                encoding="utf-8",
            )

    # -- layout ------------------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    @property
    def num_shards(self) -> int:
        """Number of shard subdirectories."""
        return self._num_shards

    @property
    def cache_size(self) -> int:
        """Maximum number of resident documents."""
        return self._cache_size

    @property
    def mapped(self) -> bool:
        """Whether documents are loaded memory-mapped (else as heap copies)."""
        return self._mapped

    @property
    def verify(self) -> str | None:
        """The checksum mode mapped documents are loaded with (None = default)."""
        return self._verify

    def shard_of(self, doc_id: str) -> int:
        """Stable shard index of ``doc_id`` (same across processes and machines)."""
        digest = hashlib.sha1(doc_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self._num_shards

    def _path_of(self, doc_id: str) -> Path:
        if not _DOC_ID_RE.match(doc_id):
            raise StorageError(
                f"invalid document identifier {doc_id!r}: use letters, digits, '.', '_' or '-'"
            )
        return self._root / f"shard-{self.shard_of(doc_id):03d}" / f"{doc_id}{_SUFFIX}"

    # -- membership --------------------------------------------------------------------

    def doc_ids(self) -> list[str]:
        """All stored document identifiers, sorted."""
        ids = []
        for shard_dir in self._root.glob("shard-*"):
            for path in shard_dir.glob(f"*{_SUFFIX}"):
                ids.append(path.name[: -len(_SUFFIX)])
        return sorted(ids)

    def shard_contents(self, doc_ids: Iterable[str] | None = None) -> dict[int, list[str]]:
        """Document identifiers grouped by shard index (only non-empty shards)."""
        ids = self.doc_ids() if doc_ids is None else list(doc_ids)
        shards: dict[int, list[str]] = {}
        for doc_id in ids:
            shards.setdefault(self.shard_of(doc_id), []).append(doc_id)
        return shards

    def iter_shards(self, doc_ids: Iterable[str] | None = None) -> list[tuple[int, list[str]]]:
        """``(shard_index, [doc_id, ...])`` pairs covering ``doc_ids``, sorted.

        This is the unit of work for parallel scatter-gather: each shard's
        documents are served by one worker, so the per-shard LRU locality of
        the sequential sweep is preserved and no two workers load the same
        index file.
        """
        grouped = self.shard_contents(doc_ids)
        return [(shard, sorted(members)) for shard, members in sorted(grouped.items())]

    def __len__(self) -> int:
        return len(self.doc_ids())

    def __contains__(self, doc_id: str) -> bool:
        try:
            return self._path_of(doc_id).exists()
        except StorageError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self.doc_ids())

    # -- writing -----------------------------------------------------------------------

    def add(self, doc_id: str, document: Document, overwrite: bool = False) -> Path:
        """Save ``document`` under ``doc_id`` and make it resident; returns its path."""
        path = self._path_of(doc_id)
        if path.exists() and not overwrite:
            raise StorageError(f"document {doc_id!r} already exists (pass overwrite=True to replace)")
        path.parent.mkdir(parents=True, exist_ok=True)
        document.save(path)
        with self._lock:
            self._remember(doc_id, document, self._stat_of(path))
        return path

    def add_xml(
        self,
        doc_id: str,
        xml: str | bytes,
        options: IndexOptions | None = None,
        overwrite: bool = False,
    ) -> Path:
        """Build an index from raw XML and store it (build once, serve many)."""
        return self.add(doc_id, Document.from_string(xml, options), overwrite=overwrite)

    def remove(self, doc_id: str) -> None:
        """Delete a stored document (and drop it from the cache)."""
        path = self._path_of(doc_id)
        if not path.exists():
            raise DocumentNotFoundError(f"no document stored under {doc_id!r}")
        path.unlink()
        with self._lock:
            self._cache.pop(doc_id, None)
            self._meta.pop(doc_id, None)

    # -- reading / cache ---------------------------------------------------------------

    @staticmethod
    def _stat_of(path: Path) -> tuple[int, int] | None:
        try:
            stat = path.stat()
        except OSError:
            return None
        return stat.st_mtime_ns, stat.st_size

    def _remember(self, doc_id: str, document: Document, meta: tuple[int, int] | None) -> None:
        # Callers hold self._lock.
        self._cache[doc_id] = document
        self._cache.move_to_end(doc_id)
        if meta is not None:
            self._meta[doc_id] = meta
        while len(self._cache) > self._cache_size:
            # Dropping the cache reference is enough to release a mapped
            # document deterministically: the engine holds only a weak back
            # reference and the file descriptor was closed at map time, so the
            # last strong reference (ours, or an in-flight query's, whichever
            # dies later) unmaps via plain refcounting.  No explicit close --
            # a query still running against the evicted document must keep
            # working.
            evicted, _ = self._cache.popitem(last=False)
            self._meta.pop(evicted, None)
            self.evictions += 1
            self._m_evictions.inc()

    def get(self, doc_id: str) -> Document:
        """Return the document, loading it from disk if it is not resident.

        Thread-safe: cache bookkeeping is done under a lock, while the disk
        read itself runs outside it so shards load in parallel.  If two
        threads race on the *same* identifier, the first loaded instance wins.
        A hit revalidates the resident document against the file's current
        (mtime, size), so an overwrite through another handle (or another
        process's worker view) is served fresh instead of stale.
        """
        path = self._path_of(doc_id)
        meta = self._stat_of(path)
        with self._lock:
            cached = self._cache.get(doc_id)
            if cached is not None:
                if meta is not None and self._meta.get(doc_id) == meta:
                    self.hits += 1
                    self._m_hits.inc()
                    self._cache.move_to_end(doc_id)
                    return cached
                self._cache.pop(doc_id, None)
                self._meta.pop(doc_id, None)
                self.remaps += 1
                self._m_remaps.inc()
        if meta is None:
            raise DocumentNotFoundError(f"no document stored under {doc_id!r}")
        with get_tracer().span("store.load", doc_id=doc_id) as span:
            document = Document.load(path, mapped=self._mapped, verify=self._verify)
            span.set_attribute("bytes", meta[1])
        with self._lock:
            raced = self._cache.get(doc_id)
            if raced is not None and self._meta.get(doc_id) == meta:
                self.hits += 1
                self._m_hits.inc()
                self._cache.move_to_end(doc_id)
                return raced
            self.misses += 1
            self._m_misses.inc()
            self._remember(doc_id, document, meta)
        return document

    def resident_ids(self) -> list[str]:
        """Identifiers currently held in the LRU cache, oldest first."""
        with self._lock:
            return list(self._cache)

    def close(self) -> None:
        """Drop the resident cache and release every mapped document eagerly.

        For orderly shutdown (the server calls this); the store remains usable
        -- the next :meth:`get` simply reloads.
        """
        with self._lock:
            documents = list(self._cache.values())
            self._cache.clear()
            self._meta.clear()
        for document in documents:
            document.close()

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/eviction counters and current residency."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "remaps": self.remaps,
                "resident": len(self._cache),
                "capacity": self._cache_size,
            }

    def mapped_residency(self) -> dict:
        """Page-cache residency of every resident mapped document, aggregated.

        Asks ``mincore`` per live mapping (see
        :func:`repro.obs.resources.mapped_residency`), so the answer reflects
        what the kernel holds *right now*.  ``per_document`` keys are document
        identifiers; aggregate byte totals cover only measurable mappings.
        On platforms without ``mincore`` the aggregate is empty with
        ``available`` false.
        """
        with self._lock:
            residents = list(self._cache.items())
        per_document: dict[str, dict] = {}
        mapped_bytes = 0
        resident_bytes = 0
        for doc_id, document in residents:
            info = document_residency(document)
            if info is None:
                continue
            per_document[doc_id] = info
            mapped_bytes += info["mapped_bytes"]
            resident_bytes += info["resident_bytes"]
        return {
            "available": mincore_available(),
            "documents": len(per_document),
            "mapped_bytes": mapped_bytes,
            "resident_bytes": resident_bytes,
            "resident_ratio": resident_bytes / mapped_bytes if mapped_bytes else 0.0,
            "per_document": per_document,
        }

    # -- queries -----------------------------------------------------------------------

    def count(self, doc_id: str, xpath: str | PreparedQuery, options: EvaluationOptions | None = None) -> int:
        """``count(xpath)`` over one stored document."""
        return self.get(doc_id).count(xpath, options)

    def query(
        self, doc_id: str, xpath: str | PreparedQuery, options: EvaluationOptions | None = None
    ) -> list[int]:
        """Node handles selected by ``xpath`` over one stored document."""
        return self.get(doc_id).query(xpath, options)

    def serialize(
        self, doc_id: str, xpath: str | PreparedQuery, options: EvaluationOptions | None = None
    ) -> list[str]:
        """XML serialisations selected by ``xpath`` over one stored document."""
        return self.get(doc_id).serialize(xpath, options)

    def _iter_shard_order(self, doc_ids: Iterable[str] | None = None) -> list[str]:
        """Document identifiers ordered shard by shard (maximises cache locality)."""
        return [doc_id for _, members in self.iter_shards(doc_ids) for doc_id in members]

    def scatter_gather(
        self,
        fn: Callable[[str, Document], object],
        doc_ids: Iterable[str] | None = None,
        combine: Callable[[dict[str, object]], object] | None = None,
        on_error: str = "raise",
    ):
        """Apply ``fn(doc_id, document)`` to every document, shard by shard.

        Documents are visited in shard order so that, even with a cache far
        smaller than the corpus, each index file is loaded exactly once per
        sweep.  Returns ``{doc_id: result}``, or ``combine(results)`` when a
        combiner is given.

        ``on_error`` controls what a failing document does to the batch:
        ``"raise"`` (default) propagates the first error; ``"collect"`` keeps
        going and stores a :class:`DocumentFailure` under that identifier, so
        one corrupt shard file or concurrently removed document no longer
        voids every other answer (the combiner then sees the failures too).
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', not {on_error!r}")
        results: dict[str, object] = {}
        for doc_id in self._iter_shard_order(doc_ids):
            try:
                results[doc_id] = fn(doc_id, self.get(doc_id))
            except (ReproError, OSError) as exc:
                if on_error == "raise":
                    raise
                results[doc_id] = DocumentFailure.from_exception(doc_id, exc)
        return combine(results) if combine is not None else results

    def count_all(
        self,
        xpath: str | PreparedQuery,
        options: EvaluationOptions | None = None,
        on_error: str = "raise",
    ) -> dict[str, int]:
        """``count(xpath)`` over every stored document, as ``{doc_id: count}``."""
        return self.scatter_gather(lambda _, doc: doc.count(xpath, options), on_error=on_error)

    def total_count(self, xpath: str | PreparedQuery, options: EvaluationOptions | None = None) -> int:
        """Sum of ``count(xpath)`` over the whole corpus."""
        return self.scatter_gather(
            lambda _, doc: doc.count(xpath, options), combine=lambda r: sum(r.values())
        )

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> dict:
        """Store-level statistics: corpus size, shard spread, on-disk bytes."""
        shards = self.shard_contents()
        disk_bytes = 0
        for shard_dir in self._root.glob("shard-*"):
            for path in shard_dir.glob(f"*{_SUFFIX}"):
                disk_bytes += path.stat().st_size
        with self._lock:
            residents = list(self._cache.values())
        mapped_docs = [doc for doc in residents if doc.is_mapped]
        residency = self.mapped_residency()
        residency.pop("per_document", None)
        return {
            "num_documents": sum(len(ids) for ids in shards.values()),
            "num_shards": self._num_shards,
            "occupied_shards": len(shards),
            "disk_bytes": disk_bytes,
            "cache": self.cache_info(),
            "storage": {
                "mode": "mapped" if self._mapped else "heap",
                "resident_mapped_documents": len(mapped_docs),
                "resident_mapped_bytes": sum(doc.mapped_bytes for doc in mapped_docs),
                "residency": residency,
            },
        }


def register_store_metrics(store: DocumentStore, registry: MetricsRegistry | None = None) -> None:
    """Bind the store-wide residency gauges to ``store`` (callback families).

    Values are computed at scrape time from :meth:`DocumentStore.mapped_residency`.
    Callback families rebind, so the most recently bound store wins -- the
    server binds its serving store at startup.  On platforms without
    ``mincore`` the gauges skip their samples instead of lying.
    """
    registry = registry if registry is not None else get_registry()

    def _reader(key: str):
        def read() -> float | None:
            if not mincore_available():
                return None
            return float(store.mapped_residency()[key])

        return read

    registry.gauge_callback(
        "store_mapped_bytes",
        "Bytes mapped by the bound store's resident mapped documents.",
        _reader("mapped_bytes"),
    )
    registry.gauge_callback(
        "store_mapped_resident_bytes",
        "Mapped bytes of the bound store currently resident in the page cache.",
        _reader("resident_bytes"),
    )
    registry.gauge_callback(
        "store_mapped_documents",
        "Resident documents of the bound store with a live mapping.",
        _reader("documents"),
    )
