"""Small file helpers: atomic writes, hashing, versioned JSON Lines."""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_hashed(path) -> tuple[bytes, str]:
    """A file's bytes and their sha256 hex digest, from one read."""
    with open(path, "rb") as f:
        data = f.read()
    return data, hashlib.sha256(data).hexdigest()


def write_jsonl(path, header: dict, rows) -> None:
    """JSON Lines file whose first line is a header record."""
    lines = [json.dumps(header)]
    lines.extend(json.dumps(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Return (header, rows) of a versioned JSON Lines file."""
    with open(path) as f:
        return parse_jsonl(f.read(), path)


def parse_jsonl(text: str, name) -> tuple[dict, list[dict]]:
    """(header, rows) of the text of a versioned JSON Lines file; ``name`` labels errors."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{name}: empty dataset file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or "format" not in header:
        raise ValueError(f"{name}: first line is not a dataset header")
    return header, [json.loads(line) for line in lines[1:]]
