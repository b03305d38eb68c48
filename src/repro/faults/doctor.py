"""``repro doctor``: scan and repair a cache/queue tree after crashes.

The chaos harness proves sweeps *converge* through kills, stalls and
torn writes — but convergence leaves debris: orphaned ``.tmp.<pid>``
files, zombie claims whose owners are dead, checksum-framed files that
fail verification.  None of it is load-bearing (readers treat corrupt
durable files as misses), but debris accumulates, hides real problems
and costs recomputation.  The doctor names every finding and — with
``--repair`` — fixes each one the safe way:

======================  ================================================
finding kind            repair
======================  ================================================
``orphan-tmp``          remove (writer pid dead, or older than grace)
``zombie-claim``        rename back into ``todo/`` (requeue); drop the
                        claim instead when a todo twin already exists
``corrupt-cache-entry`` quarantine — the next sweep recomputes the cell
``corrupt-manifest``    quarantine, then rebuild ``sweep.json`` from
                        the intact per-cell cache entries (they carry
                        their spec payloads — the manifest is a
                        convenience layer, never the source of truth)
``corrupt-todo``        quarantine + drop the digest's seen markers so
                        a peer can re-enqueue the cell
``corrupt-done``        quarantine + drop the digest's seen markers
``dangling-seen``       remove the marker (its enqueue died between
                        marker creation and the todo write)
======================  ================================================

Repairs never delete result data: anything corrupt moves into
``<root>/quarantine/`` for post-mortems, and queue repairs only ever
*re-enable* computation (requeue, re-enqueue), relying on the
backend's exactly-once machinery to keep cells from double-computing.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import durable

#: Where repaired-away corrupt files are preserved, under the scanned
#: root.  The scanner never descends into it.
QUARANTINE_DIR_NAME = "quarantine"

#: Default age (seconds) past which a claim with no heartbeat is a
#: zombie — matches the queue backend's armed requeue threshold.
DEFAULT_LEASE_SECONDS = 300.0

#: Default grace (seconds) before a live-pid temporary counts as an
#: orphan — matches :data:`repro.durable.DEFAULT_TMP_MAX_AGE_SECONDS`.
DEFAULT_GRACE_SECONDS = durable.DEFAULT_TMP_MAX_AGE_SECONDS

#: ``<digest>.v<N>.json`` — a per-cell sweep cache entry.
_CACHE_ENTRY_RE = re.compile(r"^[0-9a-f]+\.v\d+\.json$")

#: ``sweep.json`` — the manifest filename (mirrors the runner without
#: importing it at module top; see the import note in ``__init__``).
_MANIFEST_NAME = "sweep.json"

#: The four subdirectories that make a directory a queue work dir.
_QUEUE_KINDS = ("todo", "claimed", "done", "seen")


@dataclass
class DoctorFinding:
    """One diagnosed problem, and what was (or would be) done."""

    kind: str
    path: str
    detail: str
    repair: str
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "repair": self.repair,
            "repaired": self.repaired,
        }


@dataclass
class DoctorReport:
    """Everything one doctor pass found (and possibly fixed)."""

    root: str
    repair: bool
    findings: "List[DoctorFinding]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(
        self, kind: str, path: str, detail: str, repair: str
    ) -> DoctorFinding:
        finding = DoctorFinding(
            kind=kind, path=path, detail=detail, repair=repair
        )
        self.findings.append(finding)
        return finding

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "clean": self.clean,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _quarantine(root: str, path: str) -> str:
    """Move *path* under ``<root>/quarantine/``, never clobbering."""
    directory = os.path.join(root, QUARANTINE_DIR_NAME)
    os.makedirs(directory, exist_ok=True)
    base = os.path.basename(path)
    target = os.path.join(directory, base)
    counter = 0
    while os.path.exists(target):
        counter += 1
        target = os.path.join(directory, f"{base}.{counter}")
    # A move of an existing (corrupt) file, not a durable publish —
    # os.rename, the same primitive as queue claim transitions.
    os.rename(path, target)
    return target


def _readable(path: str) -> "Optional[str]":
    """The verified payload of a durable file, or None if corrupt.

    Missing files also read as None — callers check existence first
    when the distinction matters.
    """
    try:
        payload = durable.read_durable(path)
    except (OSError, durable.TornWriteError):
        return None
    try:
        json.loads(payload)
    except ValueError:
        return None
    return payload


class Doctor:
    """One scan-and-maybe-repair pass over a cache/queue tree."""

    def __init__(
        self,
        root: str,
        *,
        repair: bool = False,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        # NaN fails every comparison, so a NaN lease would make each
        # live claim look stale and --repair requeue it.
        if not (math.isfinite(grace_seconds) and grace_seconds > 0):
            raise ValueError(
                f"grace_seconds must be finite and > 0,"
                f" got {grace_seconds!r}"
            )
        if not (math.isfinite(lease_seconds) and lease_seconds > 0):
            raise ValueError(
                f"lease_seconds must be finite and > 0,"
                f" got {lease_seconds!r}"
            )
        self.root = str(root)
        self.repair = repair
        self.grace_seconds = grace_seconds
        self.lease_seconds = lease_seconds
        self.report = DoctorReport(root=self.root, repair=repair)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self) -> DoctorReport:
        if not os.path.isdir(self.root):
            raise FileNotFoundError(
                f"doctor: no such directory: {self.root!r}"
            )
        for directory, subdirs, files in os.walk(self.root):
            subdirs[:] = sorted(
                name
                for name in subdirs
                if name != QUARANTINE_DIR_NAME
            )
            self._check_orphan_tmps(directory)
            if all(
                kind in subdirs for kind in _QUEUE_KINDS
            ):
                self._check_queue(directory)
                # The queue subdirs hold queue records, not cache
                # files; _check_queue owns them entirely.
                subdirs[:] = [
                    name
                    for name in subdirs
                    if name not in _QUEUE_KINDS
                ]
                continue
            self._check_cache_files(directory, sorted(files))
        return self.report

    # ------------------------------------------------------------------
    # orphaned temporaries
    # ------------------------------------------------------------------
    def _check_orphan_tmps(self, directory: str) -> None:
        orphans = durable.sweep_orphan_tmps(
            directory,
            max_age_seconds=self.grace_seconds,
            remove=False,
        )
        for path in orphans:
            name = os.path.basename(path)
            pid = durable.tmp_owner_pid(name)
            dead = (
                pid is not None
                and durable.tmp_writer_is_local(name)
                and not durable.pid_alive(pid)
            )
            finding = self.report.add(
                "orphan-tmp",
                path,
                (
                    f"writer pid {pid} is dead"
                    if dead
                    else f"older than {self.grace_seconds:g}s grace"
                ),
                "remove",
            )
            if self.repair:
                try:
                    os.remove(path)
                    finding.repaired = True
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # cache entries and manifests
    # ------------------------------------------------------------------
    def _check_cache_files(
        self, directory: str, files: "List[str]"
    ) -> None:
        manifest_corrupt = False
        for name in files:
            if durable.is_tmp_name(name):
                continue  # handled by the orphan pass
            path = os.path.join(directory, name)
            if _CACHE_ENTRY_RE.match(name):
                if _readable(path) is None:
                    finding = self.report.add(
                        "corrupt-cache-entry",
                        path,
                        "checksum frame or JSON failed verification",
                        "quarantine (the next sweep recomputes it)",
                    )
                    if self.repair:
                        _quarantine(self.root, path)
                        finding.repaired = True
            elif name == _MANIFEST_NAME:
                if not self._manifest_ok(path):
                    manifest_corrupt = True
                    finding = self.report.add(
                        "corrupt-manifest",
                        path,
                        "checksum frame or schema failed verification",
                        "quarantine + rebuild from intact cache entries",
                    )
                    if self.repair:
                        _quarantine(self.root, path)
                        finding.repaired = True
        if manifest_corrupt and self.repair:
            self._rebuild_manifest(directory)

    @staticmethod
    def _manifest_ok(path: str) -> bool:
        payload = _readable(path)
        if payload is None:
            return False
        data = json.loads(payload)
        return isinstance(data, dict) and isinstance(
            data.get("cells"), dict
        )

    def _rebuild_manifest(self, directory: str) -> None:
        """Regrow ``sweep.json`` from the cells that survived.

        Cache entries carry their full spec payloads, so the rebuilt
        manifest records every intact cell as ``done`` — enough for
        ``--resume`` to serve them as hits and recompute only what was
        actually lost.  Imported here, not at module top: the runner
        imports the backends, which import :mod:`repro.faults`.
        """
        from repro.scenarios.runner import SweepManifest
        from repro.scenarios.serialize import spec_from_dict, spec_hash

        manifest = SweepManifest(directory)
        for name in sorted(os.listdir(directory)):
            if not _CACHE_ENTRY_RE.match(name):
                continue
            payload = _readable(os.path.join(directory, name))
            if payload is None:
                continue
            data = json.loads(payload)
            spec_payload = (
                data.get("spec") if isinstance(data, dict) else None
            )
            if not isinstance(spec_payload, dict):
                continue
            try:
                spec = spec_from_dict(spec_payload)
                digest = spec_hash(spec)
            except Exception:  # noqa: BLE001 — foreign cache file
                continue
            manifest.record([spec], [digest])
            manifest.mark(digest, "done")
        if manifest.cells:
            manifest.save()

    # ------------------------------------------------------------------
    # queue work dirs
    # ------------------------------------------------------------------
    def _check_queue(self, work_dir: str) -> None:
        # The walk does not descend into the queue kind subdirs (they
        # hold queue records, not cache files), so sweep their orphan
        # temporaries here.
        for kind in _QUEUE_KINDS:
            self._check_orphan_tmps(os.path.join(work_dir, kind))
        self._check_zombie_claims(work_dir)
        self._check_queue_records(work_dir, "todo", "corrupt-todo")
        self._check_queue_records(work_dir, "done", "corrupt-done")
        self._check_dangling_seen(work_dir)

    @staticmethod
    def _queue_entries(work_dir: str, kind: str) -> "List[str]":
        try:
            entries = os.listdir(os.path.join(work_dir, kind))
        except OSError:
            return []
        return sorted(
            name
            for name in entries
            if not durable.is_tmp_name(name)
            and not name.startswith(".")
        )

    def _check_zombie_claims(self, work_dir: str) -> None:
        claimed_dir = os.path.join(work_dir, "claimed")
        now = durable.fs_now(claimed_dir)
        for name in self._queue_entries(work_dir, "claimed"):
            if not name.endswith(".json"):
                continue
            path = os.path.join(claimed_dir, name)
            try:
                age = now - os.stat(path).st_mtime
            except OSError:
                continue
            if age <= self.lease_seconds:
                continue
            todo = os.path.join(work_dir, "todo", name)
            requeue = not os.path.exists(todo)
            finding = self.report.add(
                "zombie-claim",
                path,
                f"no lease heartbeat for {age:.0f}s"
                f" (> {self.lease_seconds:g}s)",
                (
                    "requeue (rename back into todo/)"
                    if requeue
                    else "remove (a todo twin already exists)"
                ),
            )
            if not self.repair:
                continue
            try:
                if requeue:
                    os.rename(path, todo)
                else:
                    os.remove(path)
                finding.repaired = True
            except OSError:
                pass

    def _check_queue_records(
        self, work_dir: str, kind: str, finding_kind: str
    ) -> None:
        directory = os.path.join(work_dir, kind)
        for name in self._queue_entries(work_dir, kind):
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            if _readable(path) is not None:
                continue
            digest = name[: -len(".json")]
            finding = self.report.add(
                finding_kind,
                path,
                "checksum frame or JSON failed verification",
                "quarantine + drop seen markers so peers re-enqueue",
            )
            if not self.repair:
                continue
            _quarantine(self.root, path)
            self._drop_seen_markers(work_dir, digest)
            finding.repaired = True

    def _drop_seen_markers(self, work_dir: str, digest: str) -> None:
        for name in self._queue_entries(work_dir, "seen"):
            stem, _, generation = name.rpartition(".")
            if stem == digest and generation.isdigit():
                try:
                    os.remove(os.path.join(work_dir, "seen", name))
                except OSError:
                    pass

    def _done_generation(self, work_dir: str, digest: str) -> int:
        """The generation of a digest's done record (-1 if none)."""
        payload = _readable(
            os.path.join(work_dir, "done", f"{digest}.json")
        )
        if payload is None:
            return -1
        data = json.loads(payload)
        if not isinstance(data, dict):
            return -1
        try:
            return int(data.get("generation", 0))
        except (TypeError, ValueError):
            return 0

    def _check_dangling_seen(self, work_dir: str) -> None:
        done_generations: "Dict[str, int]" = {}
        for name in self._queue_entries(work_dir, "seen"):
            digest, _, generation_text = name.rpartition(".")
            if not digest or not generation_text.isdigit():
                continue
            generation = int(generation_text)
            record_name = f"{digest}.json"
            if os.path.exists(
                os.path.join(work_dir, "todo", record_name)
            ) or os.path.exists(
                os.path.join(work_dir, "claimed", record_name)
            ):
                continue  # the enqueue completed; the cell is in flight
            if digest not in done_generations:
                done_generations[digest] = self._done_generation(
                    work_dir, digest
                )
            if done_generations[digest] >= generation:
                continue  # the marker's generation ran to completion
            path = os.path.join(work_dir, "seen", name)
            finding = self.report.add(
                "dangling-seen",
                path,
                f"marker generation {generation} has no todo, claim"
                " or done record — its enqueue died mid-flight",
                "remove (a peer will re-enqueue the cell)",
            )
            if self.repair:
                try:
                    os.remove(path)
                    finding.repaired = True
                except OSError:
                    pass


def run_doctor(
    root: str,
    *,
    repair: bool = False,
    grace_seconds: float = DEFAULT_GRACE_SECONDS,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> DoctorReport:
    """Scan *root* (a cache dir, queue work dir, or a tree holding
    both) and return the findings; with ``repair=True``, fix them."""
    return Doctor(
        root,
        repair=repair,
        grace_seconds=grace_seconds,
        lease_seconds=lease_seconds,
    ).run()
