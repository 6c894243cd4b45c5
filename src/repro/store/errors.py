"""Errors of the persistent class store."""

from __future__ import annotations


class StoreError(Exception):
    """Base class for persistent-store failures (missing store, bad
    manifest, record/library mismatches)."""


class StoreCorruptionError(StoreError):
    """A shard failed integrity verification.

    Raised — never silently worked around — when a segment is truncated,
    its footer disagrees with its bytes, or a record checksum does not
    match its payload.  The message always names the offending file (and
    line, when one record is at fault) so the operator can decide
    between restoring a backup and re-deriving the shard; returning
    wrong matches from a corrupt shard is the one failure mode the store
    must never have.
    """
