"""Tests for the persistent sharded NPN class store.

Covers the ISSUE-3 acceptance surface: full round-trip fidelity
(build -> close -> reopen -> query equals in-memory classification on
the complete n<=3 space plus the regression corpus), corrupted-shard
detection (truncation and bit flips must raise, never mis-answer),
concurrent-reader safety across atomic flushes, engine warm starts,
and store-backed library binding parity with the linear-scan baseline.
"""

import errno
import json
import threading
from pathlib import Path

import pytest

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core.canonical import canonical_form
from repro.engine import (
    ClassificationEngine,
    classify_batch,
    coarse_prekey,
    probe_known,
    store_lookup,
)
from repro.store import ClassStore, StoreCorruptionError, StoreError, StoreRecord
from repro.store import shard as shard_mod
from repro.store.records import encode_prekey
from repro.store.shard import load_shard, write_shard
from repro.testing import corpus as corpus_mod

CORPUS_DIR = Path(__file__).parent / "corpus"


def small_space():
    """Every function on n <= 3 variables plus the regression corpus."""
    funcs = []
    for n in range(4):
        funcs.extend(TruthTable(n, bits) for bits in range(1 << (1 << n)))
    for witness in corpus_mod.load_corpus(CORPUS_DIR):
        funcs.append(witness.f)
        funcs.append(witness.g)
    return funcs


def add_function(store, f, meta=None):
    canon, t = canonical_form(f)
    return store.add_class(
        f.n, canon.bits, f.bits, (t.perm, t.input_neg, t.output_neg), meta=meta
    )


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------

class TestRecords:
    def test_line_round_trip(self):
        record = StoreRecord(
            n=2,
            canon_bits=0x8,
            rep_bits=0xE,
            witness=((1, 0), 0b10, True),
            prekey=encode_prekey(coarse_prekey(TruthTable(2, 0x8))),
            meta={"source": "test"},
        )
        back = StoreRecord.from_line(record.to_line())
        assert back == record
        assert back.transform == NpnTransform((1, 0), 0b10, True)

    def test_checksum_rejects_tampering(self):
        record = StoreRecord(
            n=1, canon_bits=1, rep_bits=2, witness=((0,), 1, False), prekey="[1]"
        )
        line = record.to_line()
        tampered = line.replace('"r":"2"', '"r":"3"')
        assert tampered != line
        with pytest.raises(StoreCorruptionError, match="checksum"):
            StoreRecord.from_line(tampered)

    def test_witness_verification(self):
        f = TruthTable(3, 0xE8)
        canon, t = canonical_form(f)
        good = StoreRecord(
            n=3,
            canon_bits=canon.bits,
            rep_bits=f.bits,
            witness=(t.perm, t.input_neg, t.output_neg),
            prekey="x",
        )
        assert good.verify_witness()
        bad = StoreRecord(
            n=3, canon_bits=canon.bits ^ 1, rep_bits=f.bits,
            witness=(t.perm, t.input_neg, t.output_neg), prekey="x",
        )
        assert not bad.verify_witness()


# ----------------------------------------------------------------------
# Store round trip
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_full_small_space_round_trip(self, tmp_path):
        """build -> close -> reopen -> query == in-memory classification."""
        funcs = small_space()
        baseline = classify_batch(funcs)

        store = ClassStore(tmp_path / "s", num_shards=16)
        engine = ClassificationEngine(store=store)
        built = engine.classify(funcs)
        assert built.members == baseline.members
        store.close()

        reopened = ClassStore(tmp_path / "s", create=False)
        warm_engine = ClassificationEngine(store=reopened)
        warm = warm_engine.classify(
            [TruthTable(f.n, f.bits) for f in funcs]
        )
        assert warm.members == baseline.members
        assert warm.stats.store_seeded > 0
        assert warm.stats.store_hits > 0
        assert warm.stats.store_new_classes == 0
        # Every non-quarantined class must be resolvable per-function too.
        for key in baseline.members:
            if key.quarantined:
                continue
            hit = store_lookup(reopened, TruthTable(key.n, key.key))
            assert hit is not None
            canon_bits, t = hit
            assert canon_bits == key.key
            assert t.apply(TruthTable(key.n, key.key)).bits == canon_bits

    def test_warm_start_skips_canonicalization(self, tmp_path):
        import random

        rng = random.Random(5)
        pool = [TruthTable.random(4, rng) for _ in range(8)]
        batch = [
            NpnTransform.random(4, rng).apply(rng.choice(pool)) for _ in range(80)
        ]
        with ClassStore(tmp_path / "s") as store:
            cold = ClassificationEngine(store=store).classify(batch)
            assert cold.stats.canonicalizations > 0
        warm_store = ClassStore(tmp_path / "s", create=False)
        warm = ClassificationEngine(store=warm_store).classify(
            [TruthTable(f.n, f.bits) for f in batch]
        )
        assert warm.members == cold.members
        assert warm.stats.canonicalizations == 0
        assert warm.stats.store_hits == warm.stats.distinct_functions

    def test_add_is_idempotent_and_supersede_wins(self, tmp_path):
        store = ClassStore(tmp_path / "s", num_shards=4)
        f = TruthTable(2, 0b1000)
        g = TruthTable(2, 0b0110)
        assert add_function(store, f, meta={"v": 1})
        assert add_function(store, g)
        store.flush()
        assert not add_function(store, f, meta={"v": 1})  # identical fact
        assert store.dirty_count() == 0
        assert add_function(store, f, meta={"v": 2})  # supersedes
        store.flush()
        canon_bits = canonical_form(f)[0].bits
        assert store.get(2, canon_bits).meta == {"v": 2}
        # The flush wrote the shard's latest records only: one line per
        # class, sorted by (n, canon_bits).
        for seg in segments_of(tmp_path / "s"):
            keys = [record.key for record in segment_records(seg)]
            assert keys == sorted(set(keys))
        assert segment_lines(tmp_path / "s") == 2
        reopened = ClassStore(tmp_path / "s", create=False)
        assert reopened.get(2, canon_bits).meta == {"v": 2}

    def test_rejects_bad_witness(self, tmp_path):
        store = ClassStore(tmp_path / "s")
        with pytest.raises(StoreError, match="witness"):
            store.add_class(2, 0b1000, 0b1110, ((0, 1), 0, False))

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(StoreError, match="not a class store"):
            ClassStore(tmp_path / "absent", create=False)

    def test_stats_from_indexes(self, tmp_path):
        # Stats come from the segments themselves; no index file exists.
        store = ClassStore(tmp_path / "s", num_shards=4)
        for bits in range(1, 16):
            add_function(store, TruthTable(2, bits))
        store.flush()
        st = ClassStore(tmp_path / "s", create=False).stats()
        assert "records" not in st
        assert st["classes"] == segment_lines(tmp_path / "s") > 0
        assert st["classes_by_n"] == {"2": st["classes"]}
        assert st["shards_present"] == len(segments_of(tmp_path / "s"))
        assert st["bytes"] == sum(
            seg.stat().st_size for seg in segments_of(tmp_path / "s")
        )
        assert not list((tmp_path / "s" / "shards").glob("*.idx.json"))


# ----------------------------------------------------------------------
# Corruption detection
# ----------------------------------------------------------------------

def populated_store(tmp_path, count=30):
    import random

    rng = random.Random(3)
    store = ClassStore(tmp_path / "s", num_shards=2)
    for _ in range(count):
        add_function(store, TruthTable.random(3, rng))
    store.flush()
    return tmp_path / "s"


def segments_of(store_path):
    return sorted((store_path / "shards").glob("shard-*.jsonl"))


def segment_records(seg):
    """A segment's record lines, parsed, without the footer."""
    lines = seg.read_text().splitlines()[:-1]
    return [StoreRecord.from_line(line) for line in lines]


def segment_lines(store_path):
    """Record lines across every segment of a store."""
    return sum(len(segment_records(seg)) for seg in segments_of(store_path))


class TestCorruption:
    def test_truncated_segment_raises(self, tmp_path):
        path = populated_store(tmp_path)
        seg = segments_of(path)[0]
        seg.write_bytes(seg.read_bytes()[:-10])  # tear the tail
        with pytest.raises(StoreCorruptionError):
            ClassStore(path, create=False).verify()

    def test_line_boundary_truncation_raises(self, tmp_path):
        """Dropping whole trailing lines removes the footer line too."""
        path = populated_store(tmp_path)
        seg = max(segments_of(path), key=lambda p: len(p.read_bytes()))
        lines = seg.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 2
        seg.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(StoreCorruptionError, match="footer|truncated"):
            ClassStore(path, create=False).verify()

    def test_bit_flip_raises(self, tmp_path):
        path = populated_store(tmp_path)
        seg = segments_of(path)[0]
        data = bytearray(seg.read_bytes())
        # Flip a bit inside a hex digit of the first record's payload.
        pos = data.index(b'"c":"') + 5
        data[pos] ^= 0x01
        seg.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="checksum|CRC|unparseable"):
            ClassStore(path, create=False).verify()

    def test_corrupt_shard_never_answers_queries(self, tmp_path):
        path = populated_store(tmp_path)
        for seg in segments_of(path):
            seg.write_bytes(seg.read_bytes()[:-4])
        store = ClassStore(path, create=False)
        with pytest.raises(StoreCorruptionError):
            list(store.records())

    def test_stale_index_from_concurrent_flush_is_tolerated(self, tmp_path):
        """A store in the earlier format still loads and verifies.

        Its segments could carry superseded lines, and each shard had a
        ``.idx.json`` stats file beside it; loads keep the last line of a
        class, nothing reads the index files, and the next flush writes
        the shard back one line per class.
        """
        path = tmp_path / "s"
        store = ClassStore(path, num_shards=1)
        f, g = TruthTable(3, 0xE8), TruthTable(3, 0x96)
        add_function(store, f, meta={"v": 1})
        add_function(store, g)
        store.flush()
        shard_id = 0
        records = list(store.records())
        canon_f = canonical_form(f)[0].bits
        old = next(r for r in records if r.canon_bits == canon_f)
        new = StoreRecord(
            n=old.n, canon_bits=old.canon_bits, rep_bits=old.rep_bits,
            witness=old.witness, prekey=old.prekey, meta={"v": 2},
        )
        shard_dir = path / "shards"
        write_shard(shard_dir, shard_id, records + [new])  # superseded line
        (shard_dir / f"shard-{shard_id:04x}.idx.json").write_text(
            '{"version": 1, "count": 1, "classes": 1, "bytes": 7, "by_n": {}}\n'
        )
        (shard_dir / "shard-7fff.idx.json").write_text("{not json")

        reopened = ClassStore(path, create=False)
        assert reopened.verify() == 3  # every line, superseded one included
        assert reopened.get(3, canon_f).meta == {"v": 2}
        assert reopened.stats()["classes"] == 2
        assert {r.key for r in reopened.records()} == {r.key for r in records}

        add_function(reopened, TruthTable(3, 0x80))
        reopened.flush()
        assert segment_lines(path) == 3
        keys = [r.key for r in segment_records(segments_of(path)[0])]
        assert keys == sorted(set(keys))
        again = ClassStore(path, create=False)
        assert again.verify() == 3
        assert again.get(3, canon_f).meta == {"v": 2}


class TestSegmentWrites:
    def test_failed_fsync_leaves_no_staged_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s"
        store = ClassStore(path, num_shards=1)
        add_function(store, TruthTable(3, 0xE8))
        store.flush()
        before = segments_of(path)[0].read_bytes()
        add_function(store, TruthTable(3, 0x96))

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(shard_mod.os, "fsync", no_space)
            with pytest.raises(OSError) as info:
                store.flush()
        assert info.value.errno == errno.ENOSPC
        shard_dir = path / "shards"
        assert not [p.name for p in shard_dir.iterdir() if ".tmp-" in p.name]
        assert segments_of(path)[0].read_bytes() == before
        assert ClassStore(path, create=False).verify() == 1

        assert store.flush() == 1  # the dirty shard is retried
        assert ClassStore(path, create=False).verify() == 2

    def test_empty_segment_loads(self, tmp_path):
        write_shard(tmp_path, 3, [])
        assert load_shard(tmp_path, 3) == []

    def test_nonempty_segment_bytes_unchanged(self, tmp_path):
        path = populated_store(tmp_path)
        records = list(ClassStore(path, create=False).records())[:5]
        write_shard(tmp_path, 0, records)
        body = ("\n".join(r.to_line() for r in records) + "\n").encode("utf-8")
        footer = {"footer": shard_mod.FOOTER_VERSION, "count": 5, "crc": shard_mod._crc_hex(body)}
        want = body + (json.dumps(footer, sort_keys=True) + "\n").encode("utf-8")
        assert (tmp_path / shard_mod.segment_name(0)).read_bytes() == want
        assert load_shard(tmp_path, 0) == records


# ----------------------------------------------------------------------
# Concurrent readers
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_readers_see_complete_snapshots_during_writes(self, tmp_path):
        import random

        rng = random.Random(9)
        path = tmp_path / "s"
        writer_store = ClassStore(path, num_shards=4)
        seed_funcs = [TruthTable.random(3, rng) for _ in range(10)]
        for f in seed_funcs:
            add_function(writer_store, f)
        writer_store.flush()
        initial_keys = {r.key for r in ClassStore(path, create=False).records()}

        errors = []
        observed = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    snapshot = ClassStore(path, create=False)
                    keys = {r.key for r in snapshot.records()}
                    for record in snapshot.records():
                        assert record.verify_witness()
                    observed.append(keys)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(25):
                add_function(writer_store, TruthTable.random(3, rng))
                writer_store.flush()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors
        final_keys = {r.key for r in ClassStore(path, create=False).records()}
        assert observed
        for keys in observed:
            # Snapshot isolation: every view is between the initial and
            # final states, never a torn in-between of one flush.
            assert initial_keys <= keys <= final_keys

    def test_same_instance_reads_during_writes(self, tmp_path):
        import random

        rng = random.Random(12)
        store = ClassStore(tmp_path / "s", num_shards=4)
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for record in store.records():
                        assert record.n == 3
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(40):
                add_function(store, TruthTable.random(3, rng))
            store.flush()
        finally:
            stop.set()
            thread.join()
        assert not errors, errors


# ----------------------------------------------------------------------
# Warm single-function lookups
# ----------------------------------------------------------------------

class TestStoreLookup:
    def test_lookup_returns_valid_witness(self, tmp_path):
        import random

        rng = random.Random(21)
        store = ClassStore(tmp_path / "s")
        base = [TruthTable.random(4, rng) for _ in range(6)]
        for f in base:
            add_function(store, f)
        store.flush()
        for f in base:
            for _ in range(4):
                g = NpnTransform.random(4, rng).apply(f)
                hit = store_lookup(store, g)
                if hit is None:  # probe bailout is allowed, wrongness is not
                    continue
                canon_bits, t = hit
                assert t.apply(g).bits == canon_bits
                assert canon_bits == canonical_form(g)[0].bits

    def test_lookup_miss_on_unknown_class(self, tmp_path):
        store = ClassStore(tmp_path / "s")
        add_function(store, TruthTable(2, 0b0110))
        store.flush()
        assert store_lookup(store, TruthTable(2, 0b1000)) is None

    def test_probe_known_empty(self):
        assert probe_known(TruthTable(2, 0b0110), []) is None
