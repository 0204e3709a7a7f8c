"""Content-addressed result cache for the command-line front end.

Entries are keyed by the SHA-256 of the canonical JSON of (operation,
config); the config always embeds the precision context, so results at
different precision never alias.  Corrupt entries are recomputed and
overwritten with a warning.

A store writes a temporary file and renames it into place, so a reader
sees the old entry or the new one, never a part; a store of the bytes an
entry already holds writes nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ENV_VAR = "MAASSJACOBI_CACHE_DIR"


def cache_dir() -> str:
    d = os.environ.get(ENV_VAR)
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "maassjacobi")
    return d


def cache_key(operation: str, config: dict) -> str:
    payload = json.dumps({"operation": operation, "config": config},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def lookup(operation: str, config: dict):
    """Returns the cached result string or None."""
    path = os.path.join(cache_dir(), cache_key(operation, config) + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("operation") != operation:
            raise ValueError("operation mismatch")
        return entry["result"]
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"warning: corrupt cache entry {path} ({exc}); recomputing",
              file=sys.stderr)
        return None


def store(operation: str, config: dict, result: str):
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, cache_key(operation, config) + ".json")
    data = json.dumps({"operation": operation, "config": config, "result": result},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    except OSError:
        pass
    # a temp file of its own per writer process: concurrent stores of one
    # key must not move each other's file away
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
