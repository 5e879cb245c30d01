"""File I/O helpers: JSONL traces, atomic writes, CSV emission.

All writers go through :func:`atomic_write_text` so that consumers never
observe a half-written artifact (temp file + rename on the same filesystem).

A trace line is one JSON record: `prompt_id`, `epoch`, `tokens` (a JSON
array of token ids) and `reward`. `Response` holds the tokens as one
`array('i')`, 4 bytes per token. The reader rejects, before any run starts,
every record the suffix index could not hold: a `tokens` value that is not
an array, an empty token list, a token id outside [0, MAX_TOKEN] and a reward
that is not finite. A token or epoch that is not a JSON integer is converted
with `int()` when it is a string of an integer, an integral number or a
boolean ("2", 3.0 and true are read as 2, 3 and 1), and rejected otherwise:
3.5 is not truncated. Every rejection is a :class:`TraceFormatError` naming
the file and the line.

:func:`read_trace` reads READ_CHUNK_LINES lines at a time. When every record
of a chunk is plain, as `gen-trace` writes them (see
:func:`_parse_plain_chunk`), one numpy call parses all of the chunk's token
lists straight into C ints. Any chunk it cannot prove plain goes line by line
through :func:`parse_response_line`, which decides every other spelling, so
both ways read a trace alike and fail with the same message and line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import warnings
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .history import MAX_TOKEN, Response

TRACE_SCHEMA_VERSION = 1

# Lines per chunk of read_trace: one numpy call parses a chunk's token
# lists, and only one chunk's text is held at a time. 64 to 256 lines read
# the nospec_wide benchmark trace equally fast; at 128 a read peaks 0.8 MB
# above what it keeps.
READ_CHUNK_LINES = 128
# A token id in [0, MAX_TOKEN] has one digit plus one per power it reaches.
_POWERS_OF_TEN = [10**k for k in range(1, len(str(MAX_TOKEN)))]
# Parses one JSON value at the start of a string: (value, end index).
_decode = json.JSONDecoder().raw_decode


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


def _integral(value, what: str) -> int:
    # "2", 3.0 and true convert to 2, 3 and 1; 3.5 is not truncated.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _record_fields(obj) -> tuple[str, int, float]:
    """`prompt_id`, `epoch` and `reward` of a parsed record, checked."""
    reward = float(obj["reward"])
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward!r}")
    return str(obj["prompt_id"]), _integral(obj["epoch"], "epoch"), reward


def parse_response_line(line: str) -> Response:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"bad JSONL line: {exc}") from exc
    try:
        tokens = obj["tokens"]
        if type(tokens) is not list:
            raise ValueError(f"tokens must be a JSON array, got {type(tokens).__name__}")
        if not tokens:
            raise ValueError("empty token list")
        prompt_id, epoch, reward = _record_fields(obj)
        try:
            return Response(prompt_id, epoch, tokens, reward)
        except TypeError:
            # Some token is not a JSON integer.
            return Response(prompt_id, epoch, [_integral(t, "token") for t in tokens], reward)
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
    """Read a JSONL trace, READ_CHUNK_LINES lines at a time: a chunk that
    :func:`_parse_plain_chunk` cannot prove plain is parsed line by line."""
    responses: list[Response] = []
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while lines := list(islice(fh, READ_CHUNK_LINES)):
            chunk = _parse_plain_chunk(lines)
            if chunk is None:
                chunk = _parse_lines(path, first, lines)
            responses += chunk
            first += len(lines)
    return responses


def _parse_lines(path, first: int, lines: list[str]) -> list[Response]:
    """Each non-blank line through :func:`parse_response_line`; an error names
    the file and the line, `first` being the number of `lines[0]`."""
    responses = []
    for lineno, line in enumerate(lines, first):
        line = line.strip()
        if line:
            try:
                responses.append(parse_response_line(line))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path} line {lineno}: {exc}") from exc
    return responses


def _parse_plain_chunk(lines: list[str]) -> list[Response] | None:
    """The responses of `lines` if every one is a plain record, else None.

    A plain record is a JSON object without a backslash, whose only
    `"tokens"` is its top-level key, and whose token list holds decimal
    integers in [0, MAX_TOKEN] without a sign, a leading zero, a fraction or
    an exponent. One numpy call parses the token lists of all of `lines`,
    making no Python int per token, and json the rest of each line with the
    list replaced by null. Every check here can only send the chunk to the
    line by line parser, so a plain chunk reads exactly as it would there.
    """
    texts, metas = [], []
    for line in lines:
        key = line.find('"tokens":')
        start = line.find("[", key + 9)
        end = line.find("]", start)
        if key < 0 or start < 0 or end < 0 or line[key + 9:start].strip():
            return None
        texts.append(line[start + 1:end])
        metas.append(line[:start] + "null" + line[end + 1:])
    # Without a backslash each key is spelled out: one "tokens" per line
    # rules out a duplicate and, with the null check below, a nested one.
    joined = "".join(metas)
    if "\\" in joined or joined.count('"tokens"') != len(metas):
        return None
    # numpy takes the line break between two lists as whitespace; no line
    # holds one, so it marks where each line's tokens end.
    try:
        text = ",\n".join(texts).encode("ascii")
    except UnicodeEncodeError:
        return None
    del texts
    separators = text.translate(None, b"0123456789")
    # Nothing but digits, commas and JSON whitespace: the first "]" after
    # the "[" closes the list.
    if separators.translate(None, b", \t\n"):
        return None
    counts = [part.count(b",") for part in separators.split(b"\n")]
    counts[-1] += 1
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 returns the values before the text it could
            # not parse, with a DeprecationWarning; the count check sees it.
            warnings.simplefilter("ignore", DeprecationWarning)
            values = np.fromstring(text, dtype=np.int64, sep=",")
    except ValueError:
        return None
    # numpy also takes an empty last field, a leading zero and a value past
    # 2**63 - 1, which it saturates. So every comma must separate two
    # values, every value fit, and every digit be one its value needs.
    if len(values) != sum(counts) or values.max() > MAX_TOKEN:
        return None
    values = values.astype(np.int32)
    needed = len(values) + sum(int(np.count_nonzero(values >= p)) for p in _POWERS_OF_TEN)
    if needed != len(text) - len(separators):
        return None
    column = memoryview(values).cast("B")
    responses = []
    at = 0
    for n, meta in zip(counts, metas):
        try:
            obj, end = _decode(meta)
            if meta[end:].strip() or type(obj) is not dict or obj.get("tokens", 0) is not None:
                return None
            prompt_id, epoch, reward = _record_fields(obj)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
            return None
        tokens = array("i")
        tokens.frombytes(column[at:at + 4 * n])
        # frombytes over-allocates by about 6%; the copy holds 4 B a token.
        responses.append(Response(prompt_id, epoch, tokens[:], reward))
        at += 4 * n
    return responses


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
