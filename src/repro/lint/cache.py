"""Content-hash-keyed incremental analysis cache.

Stored under ``<root>/.repro-cache/lint/cache.json`` (the same
gitignored cache root the execution harness uses).  Two tables:

* ``files`` — per-file findings (post-pragma, pre-baseline), keyed by
  ``display_path : sha256(content) : config_fingerprint``.  A file
  whose bytes and configuration are unchanged is served without being
  re-parsed or re-analysed.
* ``project`` — findings of the whole-tree rules (REP002, REP007,
  REP008, interprocedural REP003), keyed by a *tree key* hashing every
  file's ``(path, content-hash)`` pair plus the configuration.  Any
  single changed file invalidates it, because interprocedural facts
  can change from one edited helper.

The configuration fingerprint covers the selected rules, allow globs,
the PAPER.md reference inventory, the docs text, and a schema version
bumped whenever rule semantics change — a cache can therefore never
serve findings computed under different rules.

Writes are atomic (temp file + ``os.replace``); a corrupt or
version-skewed cache file is discarded wholesale, never trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.lint.findings import Finding

__all__ = ["LintCache", "SCHEMA_VERSION"]

#: Bump on any change to rule semantics, finding shape, or key layout.
SCHEMA_VERSION = 1

_MAX_FILE_ENTRIES = 4096
_MAX_PROJECT_ENTRIES = 16


def _decode(findings: object) -> Optional[List[Finding]]:
    if not isinstance(findings, list):
        return None
    out: List[Finding] = []
    for item in findings:
        if not isinstance(item, dict):
            return None
        try:
            out.append(
                Finding(
                    rule=str(item["rule"]),
                    file=str(item["file"]),
                    line=int(item["line"]),
                    col=int(item["col"]),
                    message=str(item["message"]),
                    symbol=str(item.get("symbol", "")),
                )
            )
        except (KeyError, TypeError, ValueError):
            return None
    return out


class LintCache:
    """Load-mutate-save wrapper over the cache document."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / "cache.json"
        self._files: Dict[str, List[dict]] = {}
        self._project: Dict[str, List[dict]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
            return
        files = doc.get("files")
        project = doc.get("project")
        if isinstance(files, dict):
            self._files = files
        if isinstance(project, dict):
            self._project = project

    # -- per-file table -------------------------------------------------

    def get_file(self, key: str) -> Optional[List[Finding]]:
        raw = self._files.get(key)
        return None if raw is None else _decode(raw)

    def set_file(self, key: str, findings: List[Finding]) -> None:
        self._files[key] = [f.to_dict() for f in findings]
        self._dirty = True

    # -- project table --------------------------------------------------

    def get_project(self, key: str) -> Optional[List[Finding]]:
        raw = self._project.get(key)
        return None if raw is None else _decode(raw)

    def set_project(self, key: str, findings: List[Finding]) -> None:
        self._project[key] = [f.to_dict() for f in findings]
        self._dirty = True

    # -- persistence ----------------------------------------------------

    def save(self) -> None:
        """Atomically persist, pruning oldest-inserted overflow."""
        if not self._dirty:
            return
        if len(self._files) > _MAX_FILE_ENTRIES:
            keep = list(self._files.items())[-_MAX_FILE_ENTRIES:]
            self._files = dict(keep)
        if len(self._project) > _MAX_PROJECT_ENTRIES:
            keep = list(self._project.items())[-_MAX_PROJECT_ENTRIES:]
            self._project = dict(keep)
        doc = {
            "version": SCHEMA_VERSION,
            "files": self._files,
            "project": self._project,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix="cache-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
            os.replace(tmp_name, self.path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
