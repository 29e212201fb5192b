"""Index persistence: a versioned binary codec for every succinct structure.

The structures themselves carry ``write(fp)``/``read(fp)`` and
``to_bytes()``/``from_bytes()`` methods (mixed in from
:class:`~repro.storage.codec.Serializable`); this package provides the shared
chunk framing, the integrity checks and the error types.  The user-facing
entry points are :meth:`repro.Document.save` / :meth:`repro.Document.load`
and the sharded :class:`~repro.store.document_store.DocumentStore`.
"""

from repro.storage.codec import (
    ARRAY_ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    SUPPORTED_VERSIONS,
    ChunkReader,
    ChunkWriter,
    MappedFile,
    MappedSource,
    Serializable,
    peek_kind,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "ARRAY_ALIGNMENT",
    "ChunkWriter",
    "ChunkReader",
    "MappedFile",
    "MappedSource",
    "Serializable",
    "peek_kind",
]
