"""File I/O helpers: JSONL traces, atomic writes, CSV emission.

All writers go through :func:`atomic_write_text` so that consumers never
observe a half-written artifact (temp file + rename on the same filesystem).

A trace line is one JSON record: `prompt_id`, `epoch`, `tokens` (a list of
token ids) and `reward`. `Response` holds the tokens as one `array('i')`, 4
bytes per token. The reader rejects, before any run starts, every record
the suffix index could not hold: an empty token list, a token id outside
[0, MAX_TOKEN] and a reward that is not finite. A token that is not a JSON
integer is converted with `int()` ("2", 3.0 and true are read as 2, 3 and
1) or rejected. Every rejection is a :class:`TraceFormatError` naming the
file and the line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

from .history import Response

TRACE_SCHEMA_VERSION = 1


class TraceFormatError(ValueError):
    """A trace line does not match the expected JSONL schema."""


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write `text` to `path` via a temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def response_to_json(resp: Response) -> str:
    return json.dumps(
        {
            "prompt_id": resp.prompt_id,
            "epoch": resp.epoch,
            "tokens": list(resp.tokens),
            "reward": resp.reward,
        },
        separators=(",", ":"),
    )


def parse_response_line(line: str) -> Response:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad JSONL line: {exc}") from exc
    try:
        tokens = obj["tokens"]
        if not tokens:
            raise ValueError("empty token list")
        reward = float(obj["reward"])
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        prompt_id, epoch = str(obj["prompt_id"]), int(obj["epoch"])
        try:
            return Response(prompt_id, epoch, tokens, reward)
        except TypeError:
            # Some token is not a JSON integer.
            return Response(prompt_id, epoch, [int(t) for t in tokens], reward)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"bad trace record: {exc}") from exc


def write_trace(path: str | os.PathLike, responses: Iterable[Response]) -> None:
    """Write responses as JSONL, one record per line, atomically."""
    buf = io.StringIO()
    for resp in responses:
        buf.write(response_to_json(resp))
        buf.write("\n")
    atomic_write_text(path, buf.getvalue())


def read_trace(path: str | os.PathLike) -> list[Response]:
    return list(iter_trace(path))


def iter_trace(path: str | os.PathLike) -> Iterator[Response]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    resp = parse_response_line(line)
                except TraceFormatError as exc:
                    raise TraceFormatError(f"{path} line {lineno}: {exc}") from exc
                yield resp


def write_csv(path: str | os.PathLike, header: list[str], rows: Iterable[Iterable]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    atomic_write_text(path, buf.getvalue())


def write_json(path: str | os.PathLike, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | os.PathLike):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
