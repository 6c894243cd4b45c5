"""Workload ``classify_mix``: a seeded stream of 5-input tables through
one ``ClassificationEngine``.

The stream comes from ``testing.workloads.make_traffic_mix``: 80% hot
(a pool of 64 classes, half of the draws disguised by a random npn
transform), 20% cold (uniform random tables).  Each pass classifies the
whole stream in calls of ``CHUNK`` tables through a fresh engine, so
every pass does the same work: the hot share exercises the cache and
membership probes, the cold share forces canonicalization.
"""

from __future__ import annotations

import random
from typing import List, Optional

from common import Outcome, Pass, Reference, clock
from probes import install_engine as install

from repro.engine import ClassificationEngine
from repro.testing.workloads import make_pool, make_traffic_mix

SETUPS = 5
STREAM = 8192
CHUNK = 1024


class Stream:
    """The generated tables, and their reference classes."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = make_pool(rng)
        mix = make_traffic_mix(STREAM, rng, pool=self.pool)
        self.tiers = [tier for tier, _ in mix]
        self.tables = [table for _, table in mix]
        self.canon = Reference()


build = Stream


def run_pass(stream: Stream, spans, outcome: Outcome, first: Optional[Pass]) -> Pass:
    done = Pass(0.0, 0, [])
    engine = ClassificationEngine()
    keys = []
    for start in range(0, len(stream.tables), CHUNK):
        chunk = stream.tables[start : start + CHUNK]
        t0 = clock()
        result = engine.classify(chunk)
        elapsed = clock() - t0
        done.seconds += elapsed
        done.latencies.append(elapsed)
        done.items += len(chunk)
        by_pos = {}
        for key, idxs in result.members.items():
            for i in idxs:
                by_pos[i] = key
        keys.extend(by_pos.get(i) for i in range(len(chunk)))
    done.rows["classes"] = {"count": len(set(keys))}
    _check_classes(stream, keys, outcome)
    return done


def _check_classes(stream: Stream, keys, outcome: Outcome) -> None:
    """Every class equals the reference, and every hot table's class is
    a pool member's."""
    pool_classes = {stream.canon(f) for f in stream.pool}
    for i, (tier, f, key) in enumerate(zip(stream.tiers, stream.tables, keys)):
        want = stream.canon(f)
        ok = key is not None and not key.quarantined and key.key == want
        if tier == "hot":
            ok = ok and want in pool_classes
        outcome.check(ok, f"table {i} (0x{f.bits:x}): class {key}, reference 0x{want:x}")


def check(stream: Stream, done: Pass, first: Optional[Pass], outcome: Outcome) -> None:
    """Checked inside :func:`run_pass`, against the reference classes."""


def per_layer(first: Pass) -> dict:
    return {}


def row_lines(first: Pass, traced: Optional[Pass]) -> List[str]:
    return [
        f"stream {STREAM} tables in calls of {CHUNK}: "
        f"{first.rows['classes']['count']} classes per pass"
    ]
