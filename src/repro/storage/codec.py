"""Versioned binary codec for the succinct structures.

Every persisted structure is framed the same way:

* a **header** -- the magic ``SXSI``, a little-endian ``uint16`` format
  version, and the *kind* of the payload (the class name, length-prefixed);
* a sequence of **chunks** -- ``[name:4 ascii][length:u64][crc32:u32][payload]``.

There is one container version, 2 (a file of any other version is rejected
by :meth:`ChunkReader.header` with :class:`VersionMismatchError`).  It is the
*zero-copy* layout: array chunk payloads carry an explicit pad so the raw
``numpy`` data starts 64-byte-aligned relative to the start of the file, and
nested structures are written **inline** (their chunks land in the parent's
byte stream, with the child chunk head back-patched to the encoded length),
so every array in the whole structure tree sits at a known aligned absolute
offset.  A reader backed by :class:`MappedFile` then hands each structure a
read-only ``numpy`` view straight into the OS page cache instead of a heap
copy -- loading becomes O(metadata), and N processes serving the same file
share one set of physical pages.

Integrity on the mapped path is tunable (``verify="eager" | "lazy" |
"off"``): small metadata chunks are always verified eagerly (they are a few
bytes and drive control flow), while array payload checksums are either
checked at open (``eager``), recorded and checked on demand through
:meth:`MappedFile.verify_pending` (``lazy``, the default used by
``Document.load``), or skipped (``off``).  Inline child chunks carry a zero
CRC sentinel -- their integrity is exactly the integrity of the nested leaf
chunks.  Non-mapped reads (``mapped=False``, ``from_bytes``) verify every
payload and return every array as a writable copy.

The codec is deliberately dumb: fixed little-endian framing, no compression,
no references.  The structures themselves are already compressed; what
matters here is that loading is a handful of ``numpy`` buffer *views* (or
copies, when not mapped) instead of an index construction.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import zlib
from typing import BinaryIO, Iterable

import json

import numpy as np

from repro.core.errors import CorruptedFileError, StorageError, VersionMismatchError

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
    "record_mapped_load",
    "record_crc_verifications",
]

MAGIC = b"SXSI"
#: The container version :class:`ChunkWriter` writes.
FORMAT_VERSION = 2
#: Container versions this library can read.
SUPPORTED_VERSIONS = (2,)
#: Raw array data starts at a multiple of this many bytes from the file start.
ARRAY_ALIGNMENT = 64

_CHUNK_HEAD = struct.Struct("<QI")  # payload length, crc32
_VERIFY_MODES = ("eager", "lazy", "off")

class ChunkWriter:
    """Sequential writer of the header plus typed chunks.

    ``fp`` must be seekable (child chunk heads are back-patched); both
    ``Document.save`` and ``to_bytes`` provide one.
    """

    def __init__(self, fp: BinaryIO):
        self._fp = fp

    # -- framing ---------------------------------------------------------------

    def header(self, kind: str) -> None:
        """Write the magic, format version and payload kind."""
        encoded = kind.encode("ascii")
        if not 1 <= len(encoded) <= 255:
            raise StorageError(f"kind {kind!r} must be 1..255 ASCII characters")
        self._fp.write(MAGIC + struct.pack("<HB", FORMAT_VERSION, len(encoded)) + encoded)

    @staticmethod
    def _name(name: str) -> bytes:
        encoded = name.encode("ascii")
        if len(encoded) != 4:
            raise StorageError(f"chunk name {name!r} must be exactly 4 ASCII characters")
        return encoded

    def chunk(self, name: str, payload: bytes) -> None:
        """Write one raw chunk."""
        self._fp.write(self._name(name) + _CHUNK_HEAD.pack(len(payload), zlib.crc32(payload)) + payload)

    # -- typed helpers ---------------------------------------------------------

    def int(self, name: str, value: int) -> None:
        """Write a signed 64-bit integer chunk."""
        self.chunk(name, struct.pack("<q", int(value)))

    def json(self, name: str, obj) -> None:
        """Write a JSON-serialisable object chunk."""
        self.chunk(name, json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8"))

    def bytes(self, name: str, data: bytes) -> None:
        """Write an opaque byte-string chunk."""
        self.chunk(name, bytes(data))

    def array(self, name: str, arr: np.ndarray) -> None:
        """Write a ``numpy`` array chunk (dtype + shape + raw buffer).

        The payload carries an explicit pad (``uint16``) sized so the
        raw data begins at a multiple of :data:`ARRAY_ALIGNMENT` bytes from
        the start of the file; a mapped reader can then hand out aligned
        zero-copy views.  The pad is *stored*, so detached reads (a payload
        sliced out of a bigger stream) stay self-describing.
        """
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.str.encode("ascii")
        head = struct.pack("<B", len(dtype)) + dtype + struct.pack("<B", arr.ndim)
        head += struct.pack(f"<{arr.ndim}q", *arr.shape)
        data = memoryview(arr).cast("B") if arr.nbytes else b""
        # Absolute offset the raw data would start at with a zero pad:
        # current position + chunk head + metadata + the pad field itself.
        data_start = self._fp.tell() + 4 + _CHUNK_HEAD.size + len(head) + 2
        pad = (-data_start) % ARRAY_ALIGNMENT
        meta = head + struct.pack("<H", pad) + b"\x00" * pad
        crc = zlib.crc32(data, zlib.crc32(meta))
        self._fp.write(self._name(name) + _CHUNK_HEAD.pack(len(meta) + arr.nbytes, crc))
        self._fp.write(meta)
        if arr.nbytes:
            self._fp.write(data)

    def bytes_list(self, name: str, items: Iterable[bytes]) -> None:
        """Write a list of byte strings as one chunk."""
        items = list(items)
        parts = [struct.pack("<q", len(items))]
        for item in items:
            parts.append(struct.pack("<q", len(item)))
            parts.append(bytes(item))
        self.chunk(name, b"".join(parts))

    def child(self, name: str, obj: "Serializable") -> None:
        """Write a nested structure.

        The child is written **inline** into the same stream (so its array
        chunks stay file-aligned) and the chunk length is back-patched; the
        CRC field is the zero sentinel -- integrity comes from the child's
        own leaf chunks.
        """
        encoded = self._name(name)
        head_pos = self._fp.tell()
        self._fp.write(encoded + _CHUNK_HEAD.pack(0, 0))
        start = self._fp.tell()
        obj.write(self._fp)
        end = self._fp.tell()
        self._fp.seek(head_pos)
        self._fp.write(encoded + _CHUNK_HEAD.pack(end - start, 0))
        self._fp.seek(end)


class MappedFile:
    """A read-only memory mapping of one serialised structure file.

    The file descriptor is closed as soon as the mapping exists, so a mapped
    document never retains an fd -- LRU churn over thousands of documents
    cannot exhaust the fd limit.  The mapping itself is released when the
    last ``numpy`` view into it dies (or eagerly via :meth:`close`).

    ``verify`` controls array payload checksums: ``"eager"`` checks them all
    during the load, ``"lazy"`` records them for :meth:`verify_pending`,
    ``"off"`` skips them.  Metadata chunks are always verified.
    """

    __slots__ = (
        "path",
        "verify",
        "buffer",
        "size",
        "views",
        "pending",
        "verified",
        "_mmap",
        "_parse_fp",
        "_closed",
    )

    def __init__(self, path: str | os.PathLike, verify: str = "lazy"):
        if verify not in _VERIFY_MODES:
            raise StorageError(f"verify must be one of {_VERIFY_MODES}, not {verify!r}")
        self.path = os.fspath(path)
        self.verify = verify
        # The open file is the *parse channel*: chunk headers, metadata and
        # checksums are read through buffered file I/O rather than through the
        # mapping, so walking the container faults no mapped pages (Linux
        # fault-around would otherwise make every header touch resident
        # 64 KiB of file).  It is closed by :meth:`end_parse` as soon as the
        # load finishes; only the mapping's own internal fd remains.
        self._parse_fp: BinaryIO | None = open(self.path, "rb", buffering=65536)
        try:
            self._mmap: mmap.mmap | None = mmap.mmap(
                self._parse_fp.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError as exc:
            self._parse_fp.close()
            self._parse_fp = None
            raise CorruptedFileError(f"cannot map {self.path}: {exc}") from exc
        self.buffer: memoryview = memoryview(self._mmap)
        self.size = len(self.buffer)
        #: ``(offset, nbytes)`` of every array view handed out (alignment and
        #: accounting surface for stats and tests).
        self.views: list[tuple[int, int]] = []
        #: Deferred array checksums: ``(chunk name, offset, length, crc)``.
        self.pending: list[tuple[str, int, int, int]] = []
        #: Array payloads CRC-checked eagerly during this load; folded into
        #: the ``storage_crc_verifications_total`` family by
        #: :func:`record_mapped_load` once the load completes.
        self.verified = 0
        self._closed = False

    @classmethod
    def from_buffer(cls, data: bytes | memoryview, verify: str = "lazy") -> "MappedFile":
        """Wrap an in-memory buffer with the mapped-read machinery (for tests)."""
        if verify not in _VERIFY_MODES:
            raise StorageError(f"verify must be one of {_VERIFY_MODES}, not {verify!r}")
        mf = cls.__new__(cls)
        mf.path = "<buffer>"
        mf.verify = verify
        mf._mmap = None
        mf._parse_fp = None
        mf.buffer = memoryview(data) if not isinstance(data, memoryview) else data
        mf.size = len(mf.buffer)
        mf.views = []
        mf.pending = []
        mf.verified = 0
        mf._closed = False
        return mf

    def source(self) -> "MappedSource":
        """A fresh read cursor over the mapping, positioned at offset 0."""
        return MappedSource(self)

    def pread(self, n: int, offset: int) -> bytes:
        """Read ``n`` bytes at ``offset`` without faulting mapped pages.

        Goes through the buffered parse channel (plain page-cache I/O) while
        it is open; falls back to a buffer slice afterwards or for in-memory
        buffers.
        """
        if self._parse_fp is not None:
            self._parse_fp.seek(offset)
            return self._parse_fp.read(n)
        return bytes(self.buffer[offset : offset + n])

    def end_parse(self) -> None:
        """Close the parse channel.  Called once the structure tree is decoded.

        After this the only descriptor left is the ``mmap`` module's internal
        dup, which lives and dies with the mapping itself -- so fd usage is
        one per *live* mapping, and LRU churn over many documents cannot
        exhaust the fd table.
        """
        if self._parse_fp is not None:
            self._parse_fp.close()
            self._parse_fp = None

    @property
    def mapped_bytes(self) -> int:
        """Total bytes of the file covered by zero-copy array views."""
        return sum(nbytes for _, nbytes in self.views)

    @property
    def closed(self) -> bool:
        return self._closed

    def verify_pending(self) -> int:
        """Check every deferred array checksum; returns how many were checked.

        Raises :class:`CorruptedFileError` on the first mismatch.  The list is
        cleared on success, so calling twice does the work once.
        """
        for name, offset, length, crc in self.pending:
            if zlib.crc32(self.buffer[offset : offset + length]) != crc:
                raise CorruptedFileError(f"checksum mismatch in mapped chunk {name!r} of {self.path}")
        checked = len(self.pending)
        self.pending = []
        record_crc_verifications("lazy", checked)
        return checked

    def close(self) -> None:
        """Release the mapping.  Safe while views are still alive.

        numpy views pin the underlying buffer; if any remain, the munmap is
        deferred to their collection (the fd is long gone either way).
        """
        self._closed = True
        self.pending = []
        self.end_parse()
        try:
            self.buffer.release()
        except BufferError:
            pass
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                pass


# -- storage metrics ---------------------------------------------------------------------
#
# The storage layer reports into the process-wide registry without importing
# the server.  All folds happen at *load completion* (or at verify_pending),
# never inside the chunk/array read paths, so instrumentation stays off the
# decode fast path.  Imports are deferred so the codec has no import-time
# dependency on the observability package.


def record_crc_verifications(mode: str, count: int) -> None:
    """Fold ``count`` array-payload checksum checks into the shared registry."""
    if count <= 0:
        return
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "storage_crc_verifications_total",
        "Array payload checksum verifications on the mapped path, by mode.",
        labels=("mode",),
    ).labels(mode=mode).inc(count)


def record_mapped_load(mapped_file: "MappedFile") -> None:
    """Fold one completed mapped load (``Document.load`` calls this once).

    Counts the load, the bytes mapped, and any eager checksum checks the load
    performed; the eager tally is then zeroed so a second call cannot
    double-count.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter(
        "storage_mapped_loads_total", "Documents loaded through the zero-copy mapped path."
    ).inc()
    registry.counter("storage_mapped_bytes_total", "File bytes memory-mapped by mapped loads.").inc(
        mapped_file.size
    )
    if mapped_file.verified:
        record_crc_verifications("eager", mapped_file.verified)
        mapped_file.verified = 0


class MappedSource:
    """A file-like cursor over a :class:`MappedFile`, handing out zero-copy views.

    Implements just enough of the ``BinaryIO`` read surface (``read``,
    ``tell``, ``seek``) for :class:`ChunkReader`; array payloads bypass
    ``read`` entirely through :meth:`view`.
    """

    __slots__ = ("file", "_pos")

    def __init__(self, file: MappedFile, pos: int = 0):
        self.file = file
        self._pos = int(pos)

    @property
    def verify(self) -> str:
        return self.file.verify

    def read(self, n: int = -1) -> bytes:
        if n < 0:
            n = self.file.size - self._pos
        data = self.file.pread(n, self._pos)
        self._pos += len(data)
        return data

    def tell(self) -> int:
        return self._pos

    def seek(self, pos: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_SET:
            self._pos = int(pos)
        elif whence == os.SEEK_CUR:
            self._pos += int(pos)
        else:
            self._pos = self.file.size + int(pos)
        return self._pos

    def view(self, dtype: np.dtype, count: int, offset: int) -> np.ndarray:
        """A read-only ``numpy`` view of ``count`` items at absolute ``offset``."""
        if count == 0:
            return np.zeros(0, dtype=dtype)
        arr = np.frombuffer(self.file.buffer, dtype=dtype, count=count, offset=offset)
        self.file.views.append((offset, arr.nbytes))
        return arr


class ChunkReader:
    """Sequential reader mirroring :class:`ChunkWriter`, with integrity checks.

    Accepts a plain binary file object (eager copies, every CRC verified) or
    a :class:`MappedSource` (zero-copy array views, checksums per the
    mapping's ``verify`` mode).  :meth:`header` is the one place the
    container version is checked against :data:`SUPPORTED_VERSIONS`.
    """

    def __init__(self, fp: BinaryIO | MappedSource):
        self._fp = fp
        self._source: MappedSource | None = fp if isinstance(fp, MappedSource) else None

    @property
    def mapped(self) -> bool:
        """Whether this reader hands out zero-copy views."""
        return self._source is not None

    @property
    def deep_checks(self) -> bool:
        """Whether O(n) semantic validations should run after decoding.

        True on eager (non-mapped) reads -- the data was copied anyway, so
        linear scans are nearly free relative to the load.  False on mapped
        reads, where they would defeat the O(metadata) open; corruption there
        is covered by the checksums (per the ``verify`` mode) instead.
        """
        return self._source is None

    def _read_exact(self, n: int) -> bytes:
        data = self._fp.read(n)
        if len(data) != n:
            raise CorruptedFileError(f"truncated file: expected {n} bytes, got {len(data)}")
        return data

    # -- framing ----------------------------------------------------------------

    def header(self, expected_kind: str | tuple[str, ...] | None = None) -> str:
        """Read and validate the header; return the payload kind."""
        magic = self._read_exact(len(MAGIC))
        if magic != MAGIC:
            raise CorruptedFileError(f"bad magic {magic!r}: not an SXSI index file")
        version, kind_len = struct.unpack("<HB", self._read_exact(3))
        if version not in SUPPORTED_VERSIONS:
            raise VersionMismatchError(
                f"file uses codec version {version}, this library reads versions {SUPPORTED_VERSIONS}"
            )
        kind = self._read_exact(kind_len).decode("ascii")
        if expected_kind is not None:
            allowed = (expected_kind,) if isinstance(expected_kind, str) else tuple(expected_kind)
            if kind not in allowed:
                raise CorruptedFileError(f"expected a {' or '.join(allowed)} payload, found {kind!r}")
        return kind

    def _chunk_head(self, expected_name: str) -> tuple[int, int]:
        name = self._read_exact(4).decode("ascii", errors="replace")
        length, crc = _CHUNK_HEAD.unpack(self._read_exact(_CHUNK_HEAD.size))
        if name != expected_name:
            raise CorruptedFileError(f"expected chunk {expected_name!r}, found {name!r}")
        return length, crc

    def chunk(self, expected_name: str) -> bytes:
        """Read one chunk, verifying its name and checksum.

        Metadata chunks are always verified, mapped or not: they are a few
        bytes and drive control flow, so a flipped bit here must fail fast.
        (A zero CRC over a non-empty payload is the inline-child sentinel
        and never reaches this method through the typed helpers.)
        """
        length, crc = self._chunk_head(expected_name)
        payload = self._read_exact(length)
        if crc and zlib.crc32(payload) != crc:
            raise CorruptedFileError(f"checksum mismatch in chunk {expected_name!r}")
        return payload

    # -- typed helpers -----------------------------------------------------------

    def int(self, name: str) -> int:
        """Read a signed 64-bit integer chunk."""
        payload = self.chunk(name)
        if len(payload) != 8:
            raise CorruptedFileError(f"integer chunk {name!r} has length {len(payload)}")
        return struct.unpack("<q", payload)[0]

    def json(self, name: str):
        """Read a JSON chunk."""
        try:
            return json.loads(self.chunk(name).decode("utf-8"))
        except ValueError as exc:
            raise CorruptedFileError(f"invalid JSON in chunk {name!r}: {exc}") from exc

    def bytes(self, name: str) -> bytes:
        """Read an opaque byte-string chunk."""
        return self.chunk(name)

    @staticmethod
    def _array_meta(payload: bytes | memoryview) -> tuple[np.dtype, tuple, int]:
        """Parse an array payload's metadata; returns (dtype, shape, data offset)."""
        (dtype_len,) = struct.unpack_from("<B", payload, 0)
        dtype = np.dtype(bytes(payload[1 : 1 + dtype_len]).decode("ascii"))
        offset = 1 + dtype_len
        (ndim,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}q", payload, offset)
        offset += 8 * ndim
        (pad,) = struct.unpack_from("<H", payload, offset)
        offset += 2 + pad
        return dtype, shape, offset

    def array(self, name: str) -> np.ndarray:
        """Read a ``numpy`` array chunk.

        Non-mapped reads return a writable copy detached from the payload.
        Mapped reads return a **read-only view**
        into the file mapping; the checksum is handled per the mapping's
        ``verify`` mode.
        """
        if self._source is None:
            payload = self.chunk(name)
            try:
                dtype, shape, offset = self._array_meta(payload)
                arr = np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape)
            except (struct.error, TypeError, ValueError) as exc:
                raise CorruptedFileError(f"malformed array chunk {name!r}: {exc}") from exc
            return arr.copy()  # writable, detached from the payload buffer
        source = self._source
        length, crc = self._chunk_head(name)
        payload_start = source.tell()
        if payload_start + length > source.file.size:
            raise CorruptedFileError(f"truncated file: array chunk {name!r} overruns the mapping")
        # Metadata (dtype, shape, pad) sits at the head of the payload; read it
        # through the parse channel so it faults no mapped pages.
        head = source.file.pread(min(length, 1024), payload_start)
        try:
            dtype, shape, offset = self._array_meta(head)
            count = 1
            for dim in shape:
                count *= int(dim)
            nbytes = count * dtype.itemsize
            if count < 0 or offset + nbytes != length:
                raise ValueError("array data does not fill the chunk payload")
        except (struct.error, TypeError, ValueError) as exc:
            raise CorruptedFileError(f"malformed array chunk {name!r}: {exc}") from exc
        if source.verify == "eager":
            payload = head if length <= len(head) else source.file.pread(length, payload_start)
            if zlib.crc32(payload) != crc:
                raise CorruptedFileError(f"checksum mismatch in chunk {name!r}")
            source.file.verified += 1
        elif source.verify == "lazy":
            source.file.pending.append((name, payload_start, length, crc))
        arr = source.view(dtype, count, payload_start + offset).reshape(shape)
        source.seek(payload_start + length)
        return arr

    def bytes_list(self, name: str) -> list[bytes]:
        """Read a list-of-byte-strings chunk."""
        payload = self.chunk(name)
        try:
            (count,) = struct.unpack_from("<q", payload, 0)
            offset = 8
            items: list[bytes] = []
            for _ in range(count):
                (length,) = struct.unpack_from("<q", payload, offset)
                offset += 8
                if length < 0 or offset + length > len(payload):
                    raise ValueError("item length out of bounds")
                items.append(payload[offset : offset + length])
                offset += length
        except (struct.error, ValueError) as exc:
            raise CorruptedFileError(f"malformed list chunk {name!r}: {exc}") from exc
        return items

    def child(self, name: str, cls):
        """Read a nested structure.

        Children are read **inline** from the same stream (which is what
        keeps mapped array offsets absolute); the bytes consumed must match
        the recorded length exactly.
        """
        length, _crc = self._chunk_head(name)
        start = self._fp.tell()
        obj = cls.read(self._fp)
        consumed = self._fp.tell() - start
        if consumed != length:
            raise CorruptedFileError(
                f"child chunk {name!r} decoded {consumed} bytes, expected {length}"
            )
        return obj


class Serializable:
    """Mixin adding ``to_bytes``/``from_bytes`` on top of ``write(fp)``/``read(fp)``."""

    __slots__ = ()

    def write(self, fp: BinaryIO) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def read(cls, fp: BinaryIO):  # pragma: no cover - overridden
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Serialise the structure to a byte string."""
        buffer = io.BytesIO()
        self.write(buffer)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, mapped: bool = False, verify: str = "eager"):
        """Rebuild a structure from the output of :meth:`to_bytes`.

        With ``mapped=True`` the structure is built over zero-copy read-only
        views of ``data`` (which must outlive the structure -- numpy views
        keep it alive automatically) instead of heap copies; ``verify`` then
        selects the checksum mode exactly like :class:`MappedFile`.
        """
        if not mapped:
            return cls.read(io.BytesIO(data))
        return cls.read(MappedFile.from_buffer(data, verify=verify).source())


def peek_kind(data: bytes) -> str:
    """Return the payload kind of a serialised structure without decoding it."""
    return ChunkReader(io.BytesIO(data)).header()

