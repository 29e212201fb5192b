"""Naive plain-text backend.

Section 3.4 and Section 6.3 of the paper: next to the FM-index, SXSI keeps an
optional plain copy of the texts.  It serves three purposes that we reproduce:

* a *baseline* for the raw-speed comparison of Tables II/III (searching the
  plain buffer versus the FM-index, with the famous cut-off point),
* fast extraction of text content during serialisation,
* the fallback required by XPath string-value semantics over *mixed content*,
  where the searched string may span several text nodes (queries M10/M11).

The class exposes the same query surface as
:class:`~repro.text.text_collection.TextCollection` so the planner can switch
between the two transparently.

Storage is two flat arrays -- an ``int64`` offset table and one ``uint8``
blob holding the concatenated texts -- so a v2 mapped load is two zero-copy
views.  ``get_text`` slices the blob on demand; scan queries materialise the
``bytes`` list once on first use (the scans are O(total text) anyway).
"""

from __future__ import annotations

from typing import BinaryIO, Iterable, Sequence

import numpy as np

from repro.core.errors import CorruptedFileError
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable

__all__ = ["NaiveTextCollection"]


class NaiveTextCollection(Serializable):
    """Plain (uncompressed, unindexed) text collection with scan-based queries."""

    def __init__(self, texts: Sequence[bytes]):
        texts = [bytes(t) for t in texts]
        self._offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        if texts:
            np.cumsum([len(t) for t in texts], out=self._offsets[1:])
        self._blob = np.frombuffer(b"".join(texts), dtype=np.uint8)
        self._texts: list[bytes] | None = texts

    @classmethod
    def _from_arrays(cls, offsets: np.ndarray, blob: np.ndarray) -> "NaiveTextCollection":
        coll = cls.__new__(cls)
        coll._offsets = offsets
        coll._blob = blob
        coll._texts = None  # sliced lazily; scans materialise on first use
        return coll

    def _materialized(self) -> list[bytes]:
        if self._texts is None:
            blob = self._blob.tobytes()
            self._texts = [
                blob[self._offsets[i] : self._offsets[i + 1]] for i in range(self._offsets.size - 1)
            ]
        return self._texts

    # -- persistence ------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise the texts as the offset table and the concatenated blob
        (two mappable arrays)."""
        writer = ChunkWriter(fp)
        writer.header("NaiveTextCollection")
        writer.array("OFFS", self._offsets)
        writer.array("BLOB", self._blob)

    @classmethod
    def read(cls, fp: BinaryIO) -> "NaiveTextCollection":
        """Read a collection written by :meth:`write`."""
        reader = ChunkReader(fp)
        reader.header("NaiveTextCollection")
        offsets = reader.array("OFFS").astype(np.int64, copy=False)
        blob = reader.array("BLOB").astype(np.uint8, copy=False)
        if offsets.size < 1:
            raise CorruptedFileError("text offset table does not cover the blob")
        if reader.deep_checks:
            # Endpoint and monotonicity checks read the payload, which on a
            # mapped open would fault pages in; checksums cover corruption
            # there.
            if int(offsets[0]) != 0 or int(offsets[-1]) != blob.size:
                raise CorruptedFileError("text offset table does not cover the blob")
            if np.any(np.diff(offsets) < 0):
                raise CorruptedFileError("text offsets are not non-decreasing")
        return cls._from_arrays(offsets, blob)

    # -- basic accessors -------------------------------------------------------

    def __len__(self) -> int:
        return self._offsets.size - 1

    @property
    def num_texts(self) -> int:
        """Number of texts in the collection."""
        return self._offsets.size - 1

    def get_text(self, doc_id: int) -> bytes:
        """Return text ``doc_id``."""
        if self._texts is not None:
            return self._texts[doc_id]
        if not 0 <= doc_id < self.num_texts:
            raise IndexError(f"text {doc_id} out of range for {self.num_texts} texts")
        return self._blob[self._offsets[doc_id] : self._offsets[doc_id + 1]].tobytes()

    def documents(self) -> Iterable[int]:
        """Iterate over all text identifiers."""
        return range(self.num_texts)

    def size_in_bits(self) -> int:
        """Space used by the raw text buffers, in bits."""
        return 8 * (int(self._blob.size) + self.num_texts)

    # -- counting / reporting ---------------------------------------------------

    def global_count(self, pattern: bytes) -> int:
        """Total number of occurrences of ``pattern`` across all texts."""
        if not pattern:
            return int(self._blob.size) + self.num_texts
        return sum(t.count(pattern) for t in self._materialized())

    def _matching_docs(self, predicate) -> np.ndarray:
        return np.array(
            [d for d, t in enumerate(self._materialized()) if predicate(t)], dtype=np.int64
        )

    def contains(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts containing ``pattern`` (sorted)."""
        return self._matching_docs(lambda t: pattern in t)

    def contains_count(self, pattern: bytes) -> int:
        """Number of texts containing ``pattern``."""
        return int(self.contains(pattern).size)

    def contains_exists(self, pattern: bytes) -> bool:
        """Whether any text contains ``pattern``."""
        return any(pattern in t for t in self._materialized())

    def starts_with(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts starting with ``pattern`` (sorted)."""
        return self._matching_docs(lambda t: t.startswith(pattern))

    def ends_with(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts ending with ``pattern`` (sorted)."""
        return self._matching_docs(lambda t: t.endswith(pattern))

    def equals(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts equal to ``pattern`` (sorted)."""
        return self._matching_docs(lambda t: t == pattern)

    def less_than(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts lexicographically smaller than ``pattern``."""
        return self._matching_docs(lambda t: t < pattern)

    def less_equal(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts lexicographically smaller than or equal to ``pattern``."""
        return self._matching_docs(lambda t: t <= pattern)

    def greater_than(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts lexicographically greater than ``pattern``."""
        return self._matching_docs(lambda t: t > pattern)

    def greater_equal(self, pattern: bytes) -> np.ndarray:
        """Identifiers of texts lexicographically greater than or equal to ``pattern``."""
        return self._matching_docs(lambda t: t >= pattern)

    def report_occurrences(self, pattern: bytes) -> list[tuple[int, int]]:
        """All occurrences of ``pattern`` as ``(text identifier, offset)`` pairs."""
        results: list[tuple[int, int]] = []
        if not pattern:
            return results
        for doc, text in enumerate(self._materialized()):
            start = text.find(pattern)
            while start != -1:
                results.append((doc, start))
                start = text.find(pattern, start + 1)
        return results
