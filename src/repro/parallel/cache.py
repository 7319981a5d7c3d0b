"""Content-addressed result cache for sweep points.

A sweep point is a pure function of its parameters: the same point
function, parameter set and seed always produce the same value.  That
makes results cacheable by content address — the cache key is a SHA-256
over the canonicalised ``(function, parameters, version-tag)`` triple —
so regenerating a figure is a set of disk reads when nothing relevant
changed.

The **version tag** is a content hash of every module of ``repro``
that a point can import: all of its ``.py`` files except the CLI
(``cli.py``, ``__main__.py``), the profiler (``profiling.py``) and the
linter (``simlint``).  Editing any hashed file — simulation layers,
experiments, ``analysis``, ``obs``, ``parallel`` itself — changes the
tag and invalidates every entry, because a cached value may depend on
any of them (a mac-surface point reads the ``obs`` ledger and computes
fairness in ``analysis``).  A new package is hashed by default.

Entries are small JSON files under ``~/.cache/repro-sweeps`` (overridden
by ``--cache-dir`` / the ``REPRO_SWEEP_CACHE_DIR`` environment
variable), one file per point, written atomically.  Values must be
JSON-serialisable — point functions return plain floats/lists/dicts by
design.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

#: Top-level entries of ``repro`` that no sweep point imports; every
#: other ``.py`` file below the package is hashed into the version tag.
_UNHASHED: tuple[str, ...] = ("cli.py", "__main__.py", "profiling.py", "simlint")

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_version_tag_cache: str | None = None


def default_cache_dir() -> Path:
    """Resolve the cache root: env override, else ``~/.cache/repro-sweeps``."""
    override = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sweeps"


def _tagged_files() -> list[Path]:
    """The source files :func:`code_version_tag` hashes, in hash order."""
    return [
        file
        for file in sorted(_PACKAGE_ROOT.rglob("*.py"))
        if file.relative_to(_PACKAGE_ROOT).parts[0] not in _UNHASHED
    ]


def code_version_tag() -> str:
    """Content hash of every source file a sweep point can import.

    Computed once per process (the sources cannot change under a running
    interpreter in any way that matters to already-imported code).
    """
    global _version_tag_cache
    if _version_tag_cache is None:
        digest = hashlib.sha256()
        for file in _tagged_files():
            digest.update(str(file.relative_to(_PACKAGE_ROOT)).encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
        _version_tag_cache = digest.hexdigest()[:16]
    return _version_tag_cache


def canonical_params(params: Mapping[str, Any]) -> str:
    """Deterministic JSON rendering of a parameter mapping."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def point_key(fn: str, params: Mapping[str, Any], version_tag: str) -> str:
    """Content address of one sweep point.

    Shared by the cache and the supervisor, which runs the points of a
    sweep that share a key once.
    """
    body = json.dumps(
        {"fn": fn, "params": params, "version": version_tag},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


class SweepCache:
    """Content-addressed store of sweep-point results.

    Parameters
    ----------
    root:
        Cache directory; created lazily.  Defaults to
        :func:`default_cache_dir`.
    version_tag:
        Overrides :func:`code_version_tag` — tests use this to check
        invalidation semantics without editing source files.
    """

    def __init__(self, root: str | Path | None = None, version_tag: str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version_tag = (
            version_tag if version_tag is not None else code_version_tag()
        )
        self.hits = 0
        self.misses = 0

    def key(self, fn: str, params: Mapping[str, Any]) -> str:
        """Content address of one point."""
        return point_key(fn, params, self.version_tag)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, fn: str, params: Mapping[str, Any]) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        A corrupt or unreadable entry counts as a miss — the cache never
        takes a sweep down.
        """
        path = self._path(self.key(fn, params))
        try:
            document = json.loads(path.read_text())
            value = document["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, fn: str, params: Mapping[str, Any], value: Any) -> None:
        """Store one result (atomic write; failures are non-fatal)."""
        path = self._path(self.key(fn, params))
        document = {
            "fn": fn,
            "params": dict(params),
            "version": self.version_tag,
            "value": value,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=path.parent, suffix=".tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as temp:
                json.dump(document, temp)
            os.replace(temp_name, path)
        except OSError:  # pragma: no cover - disk full / read-only cache
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.rglob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return removed
