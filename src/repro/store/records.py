"""Record format of the persistent NPN class store.

One :class:`StoreRecord` is one durable fact: *this npn class exists*,
witnessed by a representative function and the transform that
canonicalizes it.  Records serialize to single JSON lines so shards can
be diffed and inspected with standard tools; every line carries a CRC
of its own payload, so a bit flip is pinned to the record it hit, not
only to its shard.

Field map (short keys keep segments compact)::

    {
      "v": 1,                     # record schema version
      "n": 3,                     # variable count
      "c": "68",                  # canonical table bits, hex
      "r": "86",                  # representative table bits, hex
      "w": [[2, 0, 1], 1, 0],     # witness (perm, input_neg, output_neg)
      "pk": "[3,3,3,[[1,2],[1,2],[1,2]]]",  # coarse pre-key of the class
      "m": {"source": "engine"},  # free-form metadata
      "ck": "9f3ab214"            # CRC-32 of the line minus this field
    }

The witness satisfies ``witness.apply(representative) == canonical`` —
:meth:`StoreRecord.verify_witness` re-checks that identity, which makes
full-store verification a pure-python sweep with no canonicalization.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable

from repro.store.errors import StoreCorruptionError

RECORD_VERSION = 1

WitnessTuple = Tuple[Tuple[int, ...], int, bool]


def encode_prekey(prekey: Tuple) -> str:
    """Deterministic string form of a coarse pre-key (shard routing key)."""
    return json.dumps(prekey, separators=(",", ":"))


def _payload_crc(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


@dataclass(frozen=True)
class StoreRecord:
    """One persisted npn class."""

    n: int
    canon_bits: int
    rep_bits: int
    witness: WitnessTuple
    prekey: str
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[int, int]:
        """The class identity the store dedupes on."""
        return (self.n, self.canon_bits)

    @property
    def transform(self) -> NpnTransform:
        perm, neg, out = self.witness
        return NpnTransform(tuple(perm), neg, bool(out))

    def verify_witness(self) -> bool:
        """``witness.apply(representative) == canonical`` — checked from
        the record alone, no canonicalization needed."""
        rep = TruthTable(self.n, self.rep_bits)
        return self.transform.apply(rep).bits == self.canon_bits

    # -- serialization --------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        perm, neg, out = self.witness
        return {
            "v": RECORD_VERSION,
            "n": self.n,
            "c": format(self.canon_bits, "x"),
            "r": format(self.rep_bits, "x"),
            "w": [list(perm), neg, int(bool(out))],
            "pk": self.prekey,
            "m": dict(self.meta),
        }

    def to_line(self) -> str:
        payload = self._payload()
        payload["ck"] = _payload_crc(payload)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str, where: str = "<record>") -> "StoreRecord":
        """Parse and integrity-check one segment line.

        ``where`` names the shard/line in raised errors.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(f"{where}: unparseable record: {exc}") from exc
        if not isinstance(payload, dict):
            raise StoreCorruptionError(f"{where}: record is not a JSON object")
        ck = payload.pop("ck", None)
        if ck is None:
            raise StoreCorruptionError(f"{where}: record has no checksum")
        expect = _payload_crc(payload)
        if ck != expect:
            raise StoreCorruptionError(
                f"{where}: record checksum mismatch (stored {ck}, computed {expect})"
            )
        if payload.get("v") != RECORD_VERSION:
            raise StoreCorruptionError(
                f"{where}: unsupported record version {payload.get('v')!r}"
            )
        try:
            perm, neg, out = payload["w"]
            return cls(
                n=payload["n"],
                canon_bits=int(payload["c"], 16),
                rep_bits=int(payload["r"], 16),
                witness=(tuple(perm), neg, bool(out)),
                prekey=payload["pk"],
                meta=payload["m"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptionError(f"{where}: malformed record fields: {exc}") from exc

    def same_fact(self, other: "StoreRecord") -> bool:
        """True when storing ``other`` over ``self`` would change nothing
        (so repeated builds leave every shard clean)."""
        return (
            self.key == other.key
            and self.rep_bits == other.rep_bits
            and self.witness == other.witness
            and dict(self.meta) == dict(other.meta)
        )
