"""File I/O helpers: JSONL traces, atomic writes, CSV emission.

All writers go through :func:`atomic_write_text` so that consumers never
observe a half-written artifact (temp file + rename on the same filesystem).

A trace line is one JSON object, a record of one response: a string
`prompt_id`, an integer `epoch`, a finite number `reward`, and `tokens`, an
array of integer token ids in [0, MAX_TOKEN] that may be empty. Other keys
are ignored, and no value is converted: a token or epoch spelled "2", 3.0 or
true is rejected, as are a string reward and a numeric prompt id.
`_record_fields` checks the three scalars and `Response`
(`history._token_column`) the tokens, which it holds as one `array('i')`, 4
bytes per token. A byte that is not UTF-8 is rejected too. Every rejection
is a :class:`TraceFormatError` naming the file and the line, or only the
file when it holds no record at all.

:func:`read_trace` reads READ_CHUNK_LINES lines at a time. When every record
of a chunk is plain, as `gen-trace` writes them (see
:func:`_parse_plain_chunk`), one numpy call parses all of the chunk's token
lists straight into C ints. Any chunk it cannot prove plain goes line by line
through :func:`parse_response_line`, which decides every other spelling, so
both ways read a trace alike and fail with the same message and line.

:func:`write_trace` writes each line as the bytes of
``json.dumps(record, separators=(",", ":"))``, keys in the order above,
without making a Python int per token. A response whose token ids are all
below 2**16 has its ids looked up in one table of ``b"%d,"`` per id (see
:func:`_digit_table`), whose NUL padding is then dropped; `prompt_id` is
escaped by json's own string encoder and `reward` written as json writes
an int or a finite float. A response holding a larger id is written by
json itself. A record the reader would reject is not written at all.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import tempfile
import warnings
from array import array
from itertools import islice
from json.encoder import encode_basestring_ascii
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


def atomic_write_text(path: str | os.PathLike, text: str | bytes) -> None:
    """Write `text`, a str in UTF-8 or bytes as they are, to `path` via a
    temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8") if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache
def _digit_table() -> np.ndarray:
    """``b"%d,"`` for every token id below 2**16, NUL-padded to 6 bytes
    (0.4 MB), built on first use."""
    return np.array([b"%d," % i for i in range(2**16)], dtype="S6")


def response_to_json(resp: Response) -> str:
    """`resp` as one trace line, without its line break: the text of
    ``json.dumps(record, separators=(",", ":"))``. ValueError names what the
    reader would reject in it."""
    return _record_line(resp).decode("ascii")


def _record_line(resp: Response) -> bytes:
    prompt_id, epoch, _ = _record_fields(vars(resp))
    # Read as unsigned, a negative id is past the table too.
    try:
        digits = _digit_table().take(np.frombuffer(resp.tokens, np.uint32))
    except IndexError:  # an id of 2**16 or more, or a negative one
        tokens = resp.tokens.tolist()
        bad = [t for t in tokens if t < 0]
        if bad:
            raise ValueError(f"token ids must be integers in [0, {MAX_TOKEN}], "
                             f"got {bad[0]}") from None
        return json.dumps({"prompt_id": prompt_id, "epoch": epoch, "tokens": tokens,
                           "reward": resp.reward}, separators=(",", ":")).encode("ascii")
    # Every id's digits and comma, the last comma dropped.
    return b'{"prompt_id":%b,"epoch":%d,"tokens":[%b],"reward":%b}' % (
        encode_basestring_ascii(prompt_id).encode("ascii"), epoch,
        digits.tobytes().replace(b"\0", b"")[:-1], repr(resp.reward).encode("ascii"))


def _record_fields(obj) -> tuple[str, int, float]:
    """`prompt_id`, `epoch` and `reward` of a parsed record, checked."""
    prompt_id, epoch, reward = obj["prompt_id"], obj["epoch"], obj["reward"]
    if type(prompt_id) is not str:
        raise ValueError(f"prompt_id must be a string, got {prompt_id!r}")
    if type(epoch) is not int:
        raise ValueError(f"epoch must be an integer, got {epoch!r}")
    if type(reward) not in (int, float) or not math.isfinite(reward):
        raise ValueError(f"reward must be a finite number, got {reward!r}")
    return prompt_id, epoch, float(reward)


def parse_response_line(line: str) -> Response:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"bad JSONL line: {exc}") from exc
    try:
        tokens = obj["tokens"]
        if type(tokens) is not list:
            raise ValueError(f"tokens must be a JSON array, got {type(tokens).__name__}")
        prompt_id, epoch, reward = _record_fields(obj)
        return Response(prompt_id, epoch, tokens, reward)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"bad trace record: {exc}") from exc


def write_trace(path: str | os.PathLike, responses: Iterable[Response]) -> None:
    """Write responses as JSONL, one record per line, atomically. A record
    the reader would reject raises ValueError naming the response's index,
    and nothing is written."""
    lines = []
    for i, resp in enumerate(responses):
        try:
            lines.append(_record_line(resp))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"response {i}: {exc}") from None
    lines.append(b"")
    atomic_write_text(path, b"\n".join(lines))


def read_trace(path: str | os.PathLike) -> list[Response]:
    """Read a JSONL trace of at least one record, READ_CHUNK_LINES lines at a
    time: a chunk that :func:`_parse_plain_chunk` cannot prove plain is parsed
    line by line."""
    responses: list[Response] = []
    # A byte that is not UTF-8 is decoded to a lone surrogate, so that the
    # line holding it can be named (see _check_utf8).
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = 1
        while lines := list(islice(fh, READ_CHUNK_LINES)):
            chunk = _parse_plain_chunk(lines)
            if chunk is None:
                chunk = _parse_lines(path, first, lines)
            responses += chunk
            first += len(lines)
    if not responses:
        raise TraceFormatError(f"{path} holds no trace records")
    return responses


def _parse_lines(path, first: int, lines: list[str]) -> list[Response]:
    """Each non-blank line through :func:`parse_response_line`; an error names
    the file and the line, `first` being the number of `lines[0]`."""
    responses = []
    for lineno, raw in enumerate(lines, first):
        line = raw.strip()
        if line:
            try:
                if not line.isascii():
                    _check_utf8(raw)
                responses.append(parse_response_line(line))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path} line {lineno}: {exc}") from exc
    return responses


def _check_utf8(line: str) -> None:
    """Reject the first byte of `line` that was not UTF-8, which the reader
    decoded to a lone surrogate."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        column = len(line[:exc.start].encode("utf-8")) + 1
        byte = line[exc.start].encode("utf-8", "surrogateescape")[0]
        raise TraceFormatError(f"byte 0x{byte:02x} at column {column} is not UTF-8") from None


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
    if not joined.isascii():
        try:
            joined.encode("utf-8")  # fails on a byte that was not UTF-8
        except UnicodeEncodeError:
            return None
    # An empty list (or one of only blanks) holds no value and is left out,
    # as numpy would read an empty field. numpy takes the line break
    # between two lists as whitespace; no line holds one, so it marks where
    # each line's tokens end.
    filled = [i for i, t in enumerate(texts) if t.strip(" \t")]
    try:
        text = ",\n".join([texts[i] for i in filled]).encode("ascii")
    except UnicodeEncodeError:
        return None
    del texts
    separators = text.translate(None, b"0123456789")
    # Nothing but digits, commas and JSON whitespace: the first "]" after
    # the "[" closes the list.
    if separators.translate(None, b", \t\n"):
        return None
    counts = [0] * len(metas)
    for i, part in zip(filled, separators.split(b"\n")):
        counts[i] = part.count(b",")
    if filled:
        counts[filled[-1]] += 1
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
    top = int(values.max()) if len(values) else 0
    if len(values) != sum(counts) or top > MAX_TOKEN:
        return None
    values = values.astype(np.int32)
    needed = len(values) + sum(int(np.count_nonzero(values >= p))
                               for p in _POWERS_OF_TEN if p <= top)
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
