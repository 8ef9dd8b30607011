"""The unified :class:`SnapshotStore` persistence surface.

Before this package, three layers each had an ad-hoc way of moving a
:class:`~repro.core.columnar.ColumnarSnapshot` around: serve artifacts
inlined it as JSON, the refresher invalidated it through engine
internals, and the process pool copied it into shared memory.  A
``SnapshotStore`` is the one surface they all consume now:

* :meth:`SnapshotStore.persist` — write the current snapshot out.
* :meth:`SnapshotStore.load` — open what was persisted (``None`` when
  nothing is there), zero-copy where the backend supports it.
* :meth:`SnapshotStore.invalidate` — mark one parameter's columns (or
  the whole snapshot) stale so the next load re-encodes just those.
* :meth:`SnapshotStore.exists` — whether a persisted snapshot is
  available at all.

Three implementations ship: in-memory (:mod:`repro.store.memory`, the
default — nothing leaves the process), JSON file
(:mod:`repro.store.jsonfile`, human-inspectable), and the binary mmap
store (:mod:`repro.store.mmapfile`) whose :meth:`load` maps the file
read-only and hands out zero-copy array views — service cold start
becomes an ``open`` + ``mmap`` instead of a full re-encode, and pool
workers re-map the same file instead of receiving copies.

Backends are selected per engine through ``AuricConfig.store`` /
``--store`` and constructed with :func:`repro.store.open_store`.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from typing import Dict, Optional, Set

from repro.obs import metrics as obs_metrics

#: Backend names accepted by ``open_store`` / ``AuricConfig.store``.
STORE_KINDS = ("memory", "file", "mmap")


class SnapshotStoreError(Exception):
    """A snapshot store could not persist, open or invalidate."""


class SnapshotStore(ABC):
    """One open/load/persist/invalidate surface for columnar snapshots."""

    kind: str = "abstract"

    @abstractmethod
    def persist(self, snapshot) -> Dict:
        """Write ``snapshot`` out; returns a summary dict (kind, sizes)."""

    @abstractmethod
    def load(self):
        """The persisted snapshot minus any stale parameters, or ``None``.

        Backends that support it return arrays as zero-copy views over
        the persisted bytes; callers must treat them as immutable.
        """

    @abstractmethod
    def invalidate(self, parameter: Optional[str] = None) -> None:
        """Mark one parameter (or, with ``None``, everything) stale.

        A stale parameter is dropped from subsequent :meth:`load`
        results, so the consumer re-encodes exactly those columns.
        """

    @abstractmethod
    def exists(self) -> bool:
        """Whether a persisted snapshot is available."""

    def describe(self) -> Dict:
        """Cheap metadata for logs and artifact summaries."""
        return {"kind": self.kind}


# -- shared instrumentation ----------------------------------------------


def record_persist(kind: str, seconds: float, nbytes: int) -> None:
    obs_metrics.counter(
        "repro_store_persist_total", "Snapshot-store persist operations"
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_persist_seconds_total",
        "Wall-clock seconds spent persisting snapshots",
    ).inc(float(seconds))
    obs_metrics.counter(
        "repro_store_persist_bytes_total",
        "Bytes written by snapshot-store persists",
    ).inc(float(nbytes))


def record_open(kind: str, seconds: float, nbytes: int) -> None:
    obs_metrics.counter(
        "repro_store_open_total", "Snapshot-store load/open operations"
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_open_seconds_total",
        "Wall-clock seconds spent opening persisted snapshots",
    ).inc(float(seconds))
    obs_metrics.counter(
        "repro_store_open_bytes_total",
        "Bytes made available by snapshot-store opens",
    ).inc(float(nbytes))


def record_invalidate(kind: str) -> None:
    obs_metrics.counter(
        "repro_store_invalidations_total",
        "Snapshot-store invalidations (parameter or full)",
    ).inc(1.0)


# -- durable replace -------------------------------------------------------
#
# Every persisted file (artifact JSON, store files) is written to a temp
# sibling and renamed over the target.  The rename alone makes the
# replace atomic; it is only *durable* once the temp file's bytes reach
# the disk before the rename, and the directory entry after it.


def sync_file(handle) -> None:
    """Flush ``handle`` and fsync its bytes to disk."""
    handle.flush()
    os.fsync(handle.fileno())


def replace_durably(tmp: str, path: str) -> None:
    """Rename a synced ``tmp`` over ``path`` and fsync the directory so
    the rename itself survives a crash."""
    os.replace(tmp, path)
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems refusing directory fsync
        pass
    finally:
        os.close(fd)


# -- stale-parameter sidecar (file-backed stores) --------------------------
#
# Invalidating one parameter must not rewrite a multi-megabyte store
# file: the file stays as persisted and a tiny ``<path>.stale`` sidecar
# lists the parameters to drop on load.  ``persist`` clears it.


def stale_path(path: str) -> str:
    return f"{path}.stale"


def read_stale(path: str) -> Set[str]:
    """The persisted stale-parameter set (empty when no sidecar)."""
    try:
        with open(stale_path(path), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return set()
    except (OSError, ValueError) as exc:
        raise SnapshotStoreError(
            f"unreadable stale sidecar {stale_path(path)}: {exc}"
        ) from exc
    return set(payload.get("parameters", ()))


def mark_stale(path: str, parameter: str) -> None:
    stale = read_stale(path)
    stale.add(parameter)
    with open(stale_path(path), "w", encoding="utf-8") as fh:
        json.dump({"parameters": sorted(stale)}, fh)


def clear_stale(path: str) -> None:
    try:
        os.remove(stale_path(path))
    except FileNotFoundError:
        pass


def remove_file(path: str) -> None:
    """Best-effort removal (full invalidation of file-backed stores)."""
    for target in (path, stale_path(path)):
        try:
            os.remove(target)
        except FileNotFoundError:
            pass
