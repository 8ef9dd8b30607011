"""JSON-file :class:`SnapshotStore`.

The snapshot's existing ``to_dict``/``from_dict`` round-trip written to
one human-inspectable file with an atomic replace.  Loads materialize
plain arrays (no mmap) — use :mod:`repro.store.mmapfile` when cold-start
time matters; this backend exists for debuggability and as the portable
interchange format.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.core.columnar import ColumnarSnapshot
from repro.store.base import (
    SnapshotStore,
    clear_stale,
    mark_stale,
    read_stale,
    record_invalidate,
    record_open,
    record_persist,
    remove_file,
    replace_durably,
    sync_file,
)


class FileSnapshotStore(SnapshotStore):
    kind = "file"

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def persist(self, snapshot: ColumnarSnapshot) -> Dict:
        started = time.perf_counter()
        data = json.dumps(snapshot.to_dict(), indent=2, sort_keys=True)
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            sync_file(fh)
        replace_durably(tmp, self.path)
        clear_stale(self.path)
        nbytes = len(data.encode("utf-8"))
        record_persist(self.kind, time.perf_counter() - started, nbytes)
        return {
            "kind": self.kind,
            "path": self.path,
            "carriers": len(snapshot.carrier_ids),
            "parameters": sorted(snapshot.parameters),
            "bytes": nbytes,
        }

    def load(self) -> Optional[ColumnarSnapshot]:
        if not self.exists():
            return None
        started = time.perf_counter()
        stale = read_stale(self.path)
        with open(self.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        snapshot = ColumnarSnapshot.from_dict(payload)
        for name in stale:
            snapshot.parameters.pop(name, None)
        record_open(
            self.kind,
            time.perf_counter() - started,
            os.path.getsize(self.path),
        )
        return snapshot

    def invalidate(self, parameter: Optional[str] = None) -> None:
        if parameter is None:
            remove_file(self.path)
        elif self.exists():
            mark_stale(self.path, parameter)
        record_invalidate(self.kind)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def describe(self) -> Dict:
        info: Dict = {"kind": self.kind, "path": self.path}
        if self.exists():
            info["bytes"] = os.path.getsize(self.path)
        return info
