"""Mapped storage: load modes, alignment, integrity, fd hygiene."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro import Document, DocumentStore
from repro.core.errors import CorruptedFileError
from repro.storage.codec import ARRAY_ALIGNMENT

QUERIES = [
    "//item",
    "//item/name",
    "//person/name",
    '//item[contains(., "gold")]',
    "//closed_auction//keyword",
]


@pytest.fixture(scope="module")
def saved_path(tmp_path_factory, small_site_document):
    """The small site document saved to disk."""
    path = tmp_path_factory.mktemp("mmap-docs") / "site.sxsi"
    small_site_document.save(path)
    return path


# -- load modes --------------------------------------------------------------------------


def test_heap_and_mapped_reads_agree_with_the_source(saved_path, small_site_document):
    docs = {
        "heap": Document.load(saved_path, mapped=False),
        "mapped": Document.load(saved_path, mapped=True),
    }
    assert not docs["heap"].is_mapped
    assert docs["mapped"].is_mapped
    for query in QUERIES:
        expected = small_site_document.count(query)
        for label, doc in docs.items():
            assert doc.count(query) == expected, f"{label} disagrees on {query!r}"
    docs["mapped"].close()


def test_default_load_is_mapped(saved_path):
    doc = Document.load(saved_path)
    assert doc.is_mapped
    doc.close()


# -- mapped-view invariants --------------------------------------------------------------


def test_every_view_is_64_byte_aligned(saved_path):
    v2 = saved_path
    doc = Document.load(v2, mapped=True)
    views = doc._mapped_file.views
    assert views, "a mapped load must hand out views"
    for offset, nbytes in views:
        assert offset % ARRAY_ALIGNMENT == 0, f"view at {offset} is misaligned"
        assert nbytes >= 0
    assert doc.mapped_bytes == sum(nbytes for _, nbytes in views)
    doc.close()


def test_mapped_arrays_are_read_only(saved_path):
    v2 = saved_path
    doc = Document.load(v2, mapped=True)
    words = doc.tree.parentheses._bv._words
    assert isinstance(words, np.ndarray)
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    doc.close()


def test_mapped_and_heap_results_are_identical(saved_path):
    v2 = saved_path
    mapped = Document.load(v2, mapped=True)
    heap = Document.load(v2, mapped=False)
    for query in QUERIES:
        assert mapped.query(query) == heap.query(query)
        assert mapped.serialize(query) == heap.serialize(query)
    mapped.close()


def test_stats_report_storage_mode(saved_path):
    v2 = saved_path
    mapped = Document.load(v2, mapped=True)
    heap = Document.load(v2, mapped=False)
    ms = mapped.stats()["storage"]
    hs = heap.stats()["storage"]
    assert ms["mode"] == "mapped"
    assert ms["mapped_bytes"] > 0
    assert ms["verify"] == "lazy"
    assert hs["mode"] == "heap"
    assert hs["mapped_bytes"] == 0
    mapped.close()


def test_close_releases_the_mapping(saved_path):
    v2 = saved_path
    doc = Document.load(v2, mapped=True)
    assert doc.is_mapped
    doc.close()
    assert not doc.is_mapped
    doc.close()  # idempotent


def test_teardown_is_refcount_driven(saved_path):
    v2 = saved_path
    doc = Document.load(v2, mapped=True)
    doc.count(QUERIES[0])  # exercise the engine so any cycle would form
    ref = weakref.ref(doc)
    del doc
    gc.collect()
    assert ref() is None, "the engine must not keep the document alive"


# -- integrity ---------------------------------------------------------------------------


@pytest.fixture()
def corrupted_v2(tmp_path, saved_path):
    v2 = saved_path
    target = tmp_path / "corrupt.sxsi"
    shutil.copy(v2, target)
    probe = Document.load(v2, mapped=True, verify="lazy")
    pending = probe._mapped_file.pending
    assert pending, "lazy mode must defer array checksums"
    name, offset, length, _crc = pending[-1]
    probe.close()
    data = bytearray(target.read_bytes())
    data[offset + length - 1] ^= 0xFF
    target.write_bytes(bytes(data))
    return target


def test_lazy_verify_defers_and_then_detects_corruption(corrupted_v2):
    doc = Document.load(corrupted_v2, mapped=True, verify="lazy")
    assert doc.stats()["storage"]["pending_checksums"] > 0
    with pytest.raises(CorruptedFileError, match="checksum"):
        doc.verify_integrity()
    doc.close()


def test_eager_verify_detects_corruption_at_load(corrupted_v2):
    with pytest.raises(CorruptedFileError, match="checksum"):
        Document.load(corrupted_v2, mapped=True, verify="eager")


def test_verify_off_skips_checksums(corrupted_v2):
    doc = Document.load(corrupted_v2, mapped=True, verify="off")
    assert doc.stats()["storage"]["pending_checksums"] == 0
    assert doc.verify_integrity() == 0
    doc.close()


def test_clean_file_verifies(saved_path):
    v2 = saved_path
    doc = Document.load(v2, mapped=True, verify="lazy")
    assert doc.verify_integrity() > 0
    assert doc.verify_integrity() == 0  # second call has nothing left to do
    doc.close()


# -- the document store ------------------------------------------------------------------


def test_store_serves_mapped_documents(tmp_path, small_site_document):
    store = DocumentStore(tmp_path / "store", num_shards=4, cache_size=4, mapped=True)
    store.add("site", small_site_document)
    store.close()  # drop the cached in-memory instance so get() loads from disk
    doc = store.get("site")
    assert doc.is_mapped
    assert doc.count(QUERIES[0]) == small_site_document.count(QUERIES[0])
    storage = store.stats()["storage"]
    assert storage["mode"] == "mapped"
    assert storage["resident_mapped_documents"] == 1
    assert storage["resident_mapped_bytes"] > 0
    store.close()
    assert not doc.is_mapped


def test_store_heap_mode_reports_no_mappings(tmp_path, small_site_document):
    store = DocumentStore(tmp_path / "store", num_shards=4, cache_size=4, mapped=False)
    store.add("site", small_site_document)
    store.close()
    assert not store.get("site").is_mapped
    storage = store.stats()["storage"]
    assert storage["mode"] == "heap"
    assert storage["resident_mapped_documents"] == 0
    store.close()


def test_lru_churn_does_not_leak_fds(tmp_path, small_site_document):
    """Loading far more mapped documents than the fd soft limit must not leak.

    Each *live* mapping costs exactly one descriptor (the ``mmap`` module's
    internal dup); the parse channel is closed as soon as a load finishes and
    eviction drops the mapping's fd with the document.  Steady-state usage is
    therefore O(cache_size), independent of how many documents churn through.
    Exercised against a lowered RLIMIT_NOFILE so a leak of one fd per load
    would blow past the limit inside the loop.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    lowered = min(soft, 256)
    resource.setrlimit(resource.RLIMIT_NOFILE, (lowered, hard))
    try:
        store = DocumentStore(tmp_path / "store", num_shards=4, cache_size=4, mapped=True)
        store.add("seed", small_site_document)
        seed_path = store.root / f"shard-{store.shard_of('seed'):03d}" / "seed.sxsi"
        n_docs = lowered // 4 + 8
        for i in range(n_docs):
            doc_id = f"doc-{i:04d}"
            target = store.root / f"shard-{store.shard_of(doc_id):03d}" / f"{doc_id}.sxsi"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(seed_path, target)
        before = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        for i in range(n_docs):
            doc = store.get(f"doc-{i:04d}")
            assert doc.is_mapped
        del doc
        if before is not None:
            after = len(os.listdir("/proc/self/fd"))
            assert after <= before + store.cache_size + 2, f"fd count grew from {before} to {after}"
        assert len(store.resident_ids()) <= 4
        store.close()
        if before is not None:
            assert len(os.listdir("/proc/self/fd")) <= before + 2, "close() must drop every mapping fd"
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


# -- overwrite under a live mapping -------------------------------------------------------

_OVERWRITE_SCRIPT = """
import pathlib, sys
from repro import Document, DocumentStore

root = pathlib.Path(sys.argv[1])
store = DocumentStore(root, num_shards=1, cache_size=2)
path = store.add("doc", Document.from_string("<r>" + "<a>x</a>" * 2000 + "</r>"))
store.close()  # drop the built in-memory resident so get() maps the file
old = store.get("doc")
assert old.is_mapped
Document.from_string("<r><a>y</a></r>").save(path)  # a much smaller file at the same path
query = '//a[contains(., "x")]'  # reaches the text index, far past the new file's end
assert old.count(query) == 2000, "the old handle must keep reading the old inode"
assert store.get("doc").count(query) == 0, "stat revalidation must re-map the new file"
assert store.get("doc").count("//a") == 1
assert not list(root.rglob("*.tmp")), "save left a temporary file behind"
"""


def test_save_over_a_mapped_document_keeps_old_readers_alive(tmp_path):
    """Runs in a subprocess: truncating the live path kills the reader with SIGBUS."""
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _OVERWRITE_SCRIPT, str(tmp_path / "store")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr}"


def test_failed_save_leaves_the_old_file_and_no_temporary(tmp_path, small_site_document, monkeypatch):
    path = tmp_path / "doc.sxsi"
    small_site_document.save(path)
    before = path.read_bytes()

    def torn_write(self, fp):
        fp.write(b"half a file")
        raise OSError("disk full")

    monkeypatch.setattr(Document, "write", torn_write)
    with pytest.raises(OSError, match="disk full"):
        small_site_document.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.sxsi"]


# -- fuzz oracle integration -------------------------------------------------------------


def test_oracle_runs_mapped_and_heap_saveload_legs():
    from repro.fuzz.oracle import DocumentOracle

    oracle = DocumentOracle(
        "<site><regions><europe><item><name>Pen</name></item></europe></regions></site>",
        layers=("saveload",),
    )
    assert oracle.reloaded.is_mapped
    assert not oracle.reloaded_heap.is_mapped
    legs = {(layer, label) for layer, label, _ in oracle._layer_outcomes("//item")}
    assert ("saveload", "mapped") in legs
    assert ("saveload", "heap") in legs
