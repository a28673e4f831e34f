"""Content-addressed artifact store: the service's single source of truth.

Every result the toolchain produces — compiled-pipeline summaries,
simulation ``EvalResult`` dicts, DSE sweeps, fault reports, RTL co-sim
verdicts, chrome traces — lands here as one JSON file addressed by the
sha256 of everything that determines it (kernel source, full config,
cost-model version; see :mod:`repro.service.contracts`).  Entries are
immutable: a key is never *invalidated*, it simply stops being addressed
when any input changes.

Layout is ``<root>/<key[:2]>/<key>.json``; design-point evaluations
(:func:`repro.dse.evaluate.result_key`) and service artifacts share one
directory and one locking discipline.

Four layers sit above the files:

* a **warm in-process LRU** (``lru_entries`` decoded dicts) so repeated
  fetches of hot artifacts never touch the filesystem;
* **locked atomic writes** — the journal file is staged under an
  ``os.O_EXCL`` temp name and published with :func:`os.replace`, so
  concurrent pool workers, service worker threads, and interrupted
  sweeps can never interleave or expose partial JSON;
* **read-side integrity** — every ``put`` also writes a
  ``<key>.json.sha256`` sidecar; ``get`` re-hashes the payload against
  it, and a mismatch (bit rot, an outside writer, chaos injection)
  quarantines the bad file under ``<root>/quarantine/`` and reads as a
  miss, so the job simply re-executes.  ``get(key, strict=True)``
  raises the typed :class:`ArtifactCorrupt` instead.  Sidecar-less
  files (legacy stores, hand-dropped artifacts) are accepted as-is;
* **stats** (warm/cold hits, misses, writes, conflicts, corruptions)
  that the service's ``/v1/stats`` endpoint and the load benchmark
  report.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import CgpaError

#: Default number of decoded artifacts kept in the in-process LRU.
DEFAULT_LRU_ENTRIES = 512


class ArtifactCorrupt(CgpaError):
    """A stored artifact failed its content-hash check (or won't parse).

    Only raised from ``get(key, strict=True)``; the default read path
    quarantines the file and reports a miss instead.
    """

    def __init__(self, message: str, key: str | None = None,
                 quarantined: str | None = None):
        super().__init__(message)
        self.key = key
        self.quarantined = quarantined


def content_key(payload: dict) -> str:
    """sha256 hex digest of a canonical-JSON payload.

    The payload must contain *everything* that determines the artifact
    (source text, full config, schema/cost-model versions); two payloads
    serialise identically iff they are the same request.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class StoreStats:
    """Counters for one store instance (process-local, monotonic)."""

    warm_hits: int = 0  # served from the in-process LRU
    cold_hits: int = 0  # served from disk (then promoted to the LRU)
    misses: int = 0
    writes: int = 0
    write_conflicts: int = 0  # O_EXCL lost to a concurrent writer
    corrupt: int = 0  # failed integrity check; quarantined + counted a miss

    @property
    def hits(self) -> int:
        return self.warm_hits + self.cold_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "warm_hits": self.warm_hits,
            "cold_hits": self.cold_hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_conflicts": self.write_conflicts,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


class ArtifactStore:
    """Sharded directory of ``<key[:2]>/<key>.json`` artifacts + warm LRU.

    Thread-safe: the LRU and stats are guarded by one lock, and disk
    writes are atomic (staged + renamed), so any number of worker threads
    or processes may share one root.  Cross-process readers only ever see
    absent or complete files.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        lru_entries: int = DEFAULT_LRU_ENTRIES,
    ) -> None:
        self.root = pathlib.Path(root)
        self.lru_entries = max(0, lru_entries)
        self.stats = StoreStats()
        self._lru: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def path(self, key: str) -> pathlib.Path:
        """Where ``key``'s artifact lives (whether or not it exists yet)."""
        return self.root / key[:2] / f"{key}.json"

    def integrity_path(self, key: str) -> pathlib.Path:
        """The artifact's content-hash sidecar (``<key>.json.sha256``)."""
        return self.root / key[:2] / f"{key}.json.sha256"

    # -- reads -------------------------------------------------------------

    def get(self, key: str, strict: bool = False) -> dict | None:
        """The stored artifact, or None on miss/torn write/corruption.

        A payload that fails its sidecar hash check or won't parse is
        quarantined under ``<root>/quarantine/`` and counted as a miss,
        so callers re-execute and re-``put`` cleanly.  With
        ``strict=True`` corruption raises :class:`ArtifactCorrupt`
        instead of reading as a miss (misses still return None).
        """
        with self._lock:
            cached = self._lru.get(key)
            if cached is not None:
                self._lru.move_to_end(key)
                self.stats.warm_hits += 1
                return cached
        try:
            raw = self.path(key).read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        reason = None
        artifact = None
        try:
            expected = self.integrity_path(key).read_text().strip()
        except OSError:
            expected = None  # legacy artifact without a sidecar
        if expected is not None:
            actual = hashlib.sha256(raw).hexdigest()
            if actual != expected:
                reason = f"sha256 mismatch ({actual[:12]} != {expected[:12]})"
        if reason is None:
            try:
                artifact = json.loads(raw.decode())
            except UnicodeDecodeError as exc:
                reason = f"undecodable bytes ({exc})"
            except json.JSONDecodeError as exc:
                reason = f"undecodable JSON ({exc})"
        if reason is not None:
            quarantined = self._quarantine(key)
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            if strict:
                raise ArtifactCorrupt(
                    f"artifact {key[:12]}… failed integrity check: {reason}"
                    + (f"; quarantined to {quarantined}" if quarantined else ""),
                    key=key, quarantined=quarantined,
                )
            return None
        with self._lock:
            self.stats.cold_hits += 1
            self._remember(key, artifact)
        return artifact

    def _quarantine(self, key: str) -> str | None:
        """Move a corrupt artifact (+ sidecar) out of the addressable tree.

        Quarantined files keep a ``.corrupt`` suffix so they never match
        the ``*/*.json`` key glob; returns the new path (or None if a
        concurrent reader already moved it).
        """
        quarantine_dir = self.root / "quarantine"
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = quarantine_dir / f"{key}.json.corrupt"
        try:
            os.replace(self.path(key), destination)
        except OSError:
            return None
        sidecar = self.integrity_path(key)
        try:
            os.replace(sidecar, quarantine_dir / f"{key}.json.sha256.corrupt")
        except OSError:
            pass
        return str(destination)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._lru:
                return True
        return self.path(key).is_file()

    # -- writes ------------------------------------------------------------

    def put(self, key: str, artifact: dict) -> pathlib.Path:
        """Persist ``artifact`` under ``key``; returns its path.

        The write is staged to a ``.{key}.json.tmp`` sibling opened with
        ``O_CREAT | O_EXCL`` — the lock file — and published with the
        atomic :func:`os.replace`.  Losing the O_EXCL race means another
        writer is persisting the *same content* (keys are content
        addresses), so the loser retries under a unique temp name rather
        than waiting; either rename landing is correct and complete.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(artifact, sort_keys=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            with self._lock:
                self.stats.write_conflicts += 1
            if path.is_file():
                # The concurrent writer already published; nothing to do.
                with self._lock:
                    self._remember(key, artifact)
                return path
            # Concurrent writer mid-flight (or a stale lock from a killed
            # process): stage under a writer-unique name instead.  Both
            # renames are atomic and carry identical bytes.
            tmp = path.with_name(
                f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            with os.fdopen(fd, "w") as fp:
                fp.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._write_sidecar(key, payload)
        with self._lock:
            self.stats.writes += 1
            self._remember(key, artifact)
        return path

    def _write_sidecar(self, key: str, payload: str) -> None:
        """Publish the payload's sha256 next to the artifact (atomic).

        Written *after* the artifact rename: a crash in between leaves a
        sidecar-less file, which reads as a legacy (unchecked) artifact
        rather than a false corruption.
        """
        sidecar = self.integrity_path(key)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        tmp = sidecar.with_name(
            f".{sidecar.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(digest + "\n")
            os.replace(tmp, sidecar)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- introspection -----------------------------------------------------

    def keys(self) -> list[str]:
        """Every persisted key (sorted; ignores in-flight temp files)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def lru_keys(self) -> list[str]:
        """Keys currently warm in memory, oldest first (for tests/stats)."""
        with self._lock:
            return list(self._lru)

    def drop_memory(self) -> None:
        """Forget the warm layer (disk entries survive; next gets are cold)."""
        with self._lock:
            self._lru.clear()

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, artifact: dict) -> None:
        """Insert into the LRU, evicting the least recently used (locked)."""
        if self.lru_entries == 0:
            return
        self._lru[key] = artifact
        self._lru.move_to_end(key)
        while len(self._lru) > self.lru_entries:
            self._lru.popitem(last=False)
