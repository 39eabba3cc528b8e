"""Registry-driven dataset fetching with checksum verification and a
local cache.

The registry is a JSON file mapping dataset name to {"url", optional
"sha256", optional "comment"}. Fetched files land in the cache
directory (env DICOND_CACHE_DIR, default ~/.cache/dicond) keyed by
name; everything else in the package works fully offline from local
files.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import urllib.request
from pathlib import Path

from .errors import DicondError

DEFAULT_REGISTRY = Path(__file__).parent / "data" / "registry.json"
CACHE_ENV = "DICOND_CACHE_DIR"


def cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "dicond"


def load_registry(path=None) -> dict:
    """The registry at path (default: the packaged one); DicondError
    unless every name is a plain file name (not empty, "." or "..", no
    "/" or "\\"), since fetch caches the file under it, and every entry
    has a string url and, if any, a sha256 of 64 hex digits."""
    reg_path = Path(path) if path else DEFAULT_REGISTRY
    with open(reg_path) as fh:
        reg = json.load(fh)
    if not isinstance(reg, dict):
        raise DicondError("registry must be a JSON object of name -> entry")
    for name, entry in reg.items():
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise DicondError(f"registry entry {name!r} needs a name that is not empty, '.' or '..' "
                              "and holds no '/' or '\\'")
        sha = entry.get("sha256", "0" * 64) if isinstance(entry, dict) else None
        if not (isinstance(sha, str) and re.fullmatch(r"[0-9a-fA-F]{64}", sha)
                and isinstance(entry.get("url"), str)):
            raise DicondError(f"registry entry {name!r} needs a string url and, if any, a sha256 of 64 hex digits")
    return reg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fetch(name: str, registry_path=None, force: bool = False) -> Path:
    """Download (or reuse from cache) the named dataset; returns the
    local path. Local and file:// URLs are copied, not downloaded. The
    copy goes to a .part file that replaces the cached file only once
    its checksum holds; on any failure it is deleted."""
    reg = load_registry(registry_path)
    if name not in reg:
        known = ", ".join(sorted(reg)) or "none"
        raise DicondError(f"unknown dataset {name!r}; registry has: {known}")
    entry = reg[name]
    url = entry["url"]
    suffix = ".gz" if url.endswith(".gz") else ""
    dest = cache_dir() / f"{name}{suffix or '.el'}"
    if dest.exists() and not force:
        _verify(dest, entry, name)
        return dest
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_suffix(dest.suffix + ".part")
    try:
        if url.startswith(("http://", "https://", "file://")):
            with urllib.request.urlopen(url) as resp, open(tmp, "wb") as out:
                shutil.copyfileobj(resp, out)
        else:
            shutil.copyfile(url, tmp)
        _verify(tmp, entry, name)
    except BaseException:
        tmp.unlink(missing_ok=True)  # a failed copy or checksum leaves no partial file
        raise
    tmp.replace(dest)
    return dest


def _verify(path: Path, entry: dict, name: str) -> None:
    if "sha256" in entry:
        got, want = _sha256(path), entry["sha256"].lower()
        if got != want:
            raise DicondError(f"checksum mismatch for {name}: {got} != {want}")
