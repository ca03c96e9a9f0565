"""Read an event log once: a checked cache of its queue beside it.

read_queue(path) is how the command line reads a log.  Beside a log
that is a regular file it keeps a sidecar, the log's path plus
".sqcache", holding an exact copy of the log's bytes and the queue
parsed from them.  A read of a log that holds exactly the cached bytes
loads the queue from the sidecar, with no decode and no parse.  The log
is compared with its copy in blocks, so the check is exact and no
digest is needed.  Any other read parses the whole log, as the command
line always has, and then writes a new sidecar to a temporary file in
the same directory, with no permission the log lacks, and moves it
into place with os.replace, so no reader sees one half-written.

The sidecar holds, in order, every integer little-endian:

    _MAGIC                      the magic line
    version (4), parser (4)     the format, and zlib.crc32 of model.py,
                                so that an edit to the parser retires
                                every sidecar written before it
    n (8)                       then n bytes, the exact copy of the log
    k (8)                       then the k timestamps, 8 bytes each, signed
    labels (8)                  then per label, in the queue's order, its
                                UTF-8 length (4) and text, and its
                                bitmap's length (8) and int.to_bytes
    crc32 (4)                   zlib.crc32 of everything before it

A sidecar never changes an output.  One that is missing, stale,
truncated or corrupt, of another version or parser, holding a label the
parser refuses, readable by someone who cannot read its log, or owned
by neither the log's owner nor the reader is a miss; any failure to
read or write one is passed over.  A log that fails to parse writes no
sidecar, and neither does one with a timestamp outside int64.  A file
at the sidecar path that does not start with the magic line, or that
another user owns, is never replaced.  Reads and writes stream in
blocks: neither the whole sidecar nor a second copy of the log is ever
held.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
import zlib
from array import array
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO

from . import model
from .errors import StreamSeqError
from .model import StreamQueue, _check_label, parse_event_log

_MAGIC = b"streamseq queue cache\n"
_VERSION = 2
_SUFFIX = ".sqcache"
_BLOCK = 1 << 16  # bytes, or characters, streamed at a time
_TIMES = _BLOCK >> 3  # timestamps streamed at a time
_INT64 = 1 << 63


@functools.cache
def _parser() -> int:
    """zlib.crc32 of the parser's module file."""
    return zlib.crc32(Path(model.__file__).read_bytes())


class _Reader:
    """A sidecar's fields, each read only if it fits before the trailer,
    with the crc32 of the bytes read so far."""

    def __init__(self, f: BinaryIO) -> None:
        self.f = f
        self.left = os.fstat(f.fileno()).st_size - 4
        self.crc = 0

    def take(self, n: int) -> bytes:
        data = self.f.read(n) if n <= self.left else b""
        if len(data) != n:
            raise ValueError("the sidecar is cut short")
        self.left -= n
        self.crc = zlib.crc32(data, self.crc)
        return data

    def int(self, width: int) -> int:
        return int.from_bytes(self.take(width), "little")

    def check(self) -> bool:
        """Whether the trailer follows and matches."""
        return not self.left and self.f.read() == self.crc.to_bytes(4, "little")


class _Writer:
    """Writes a sidecar's fields, with the crc32 of the bytes written so far."""

    def __init__(self, f: BinaryIO) -> None:
        self.f = f
        self.crc = 0

    def put(self, data: bytes) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.f.write(data)

    def int(self, value: int, width: int) -> None:
        self.put(value.to_bytes(width, "little"))


def read_queue(path: str) -> StreamQueue:
    """The queue parse_event_log gives for the event log at `path`, read
    through its sidecar as the module says."""
    side = path + _SUFFIX
    with open(path, "rb") as log:
        info = os.fstat(log.fileno())
        mode = stat.S_IMODE(info.st_mode) & 0o666
        cache, ours = (
            _open_sidecar(side, mode, info.st_uid)
            if stat.S_ISREG(info.st_mode)
            else (None, False)
        )
        if cache is not None:
            with cache:
                queue = _load(cache, log)
            if queue is not None:
                return queue
            log.seek(0)
        data = log.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StreamSeqError(f"{path}: not UTF-8 text: {exc}") from None
    n = len(data)
    del data  # the text is the log; strict UTF-8 round-trips
    queue = parse_event_log(text)
    if ours:
        _store(side, mode, text, n, queue)
    return queue


def _open_sidecar(side: str, mode: int, owner: int) -> tuple[BinaryIO | None, bool]:
    """The sidecar open at its start, or None; and whether a new sidecar
    may replace what is at its path: nothing, or a file that starts with
    the magic line.  A file owned by neither `owner`, its log's owner,
    nor this process's user is left alone, as anyone who can write to
    the directory could have put it there.  A sidecar that grants a
    permission beyond `mode`, its log's, is not opened but replaced."""
    try:
        info = os.stat(side)
        if not stat.S_ISREG(info.st_mode) or (
            info.st_uid != owner and info.st_uid != os.geteuid()
        ):
            return None, False
        cache = open(side, "rb")
    except FileNotFoundError:
        return None, True
    except OSError:
        return None, False
    try:
        ours = cache.read(len(_MAGIC)) == _MAGIC
    except OSError:
        ours = False
    if not ours or stat.S_IMODE(info.st_mode) & ~mode:
        cache.close()
        return None, ours
    cache.seek(0)
    return cache, True


def _load(cache: BinaryIO, log: BinaryIO) -> StreamQueue | None:
    """The log's queue when the sidecar is whole, of this format and
    parser, and holds an exact copy of the log; else None."""
    try:
        r = _Reader(cache)
        if r.take(len(_MAGIC)) != _MAGIC or r.int(4) != _VERSION or r.int(4) != _parser():
            return None
        n = r.int(8)
        if n != os.fstat(log.fileno()).st_size:
            return None
        for at in range(0, n, _BLOCK):
            block = r.take(min(_BLOCK, n - at))
            if log.read(len(block)) != block:
                return None
        times = array("q")
        k = r.int(8)
        for at in range(0, k, _TIMES):
            times.frombytes(r.take(min(_TIMES, k - at) << 3))
        if sys.byteorder == "big":
            times.byteswap()
        masks = {}
        for _ in range(r.int(8)):
            label = r.take(r.int(4)).decode("utf-8")
            _check_label(label)  # a ParameterError is a ValueError
            masks[label] = int.from_bytes(r.take(r.int(8)), "little")
        if not r.check():
            return None
    except (OSError, ValueError):
        return None
    return StreamQueue._from_columns(tuple(times), masks=masks)


def _store(side: str, mode: int, text: str, n: int, queue: StreamQueue) -> None:
    """Write the sidecar, with permissions `mode` at most, of the n-byte
    log that decodes to `text` and parses as `queue`."""
    times = queue.times
    if times and not (-_INT64 <= times[0] and times[-1] < _INT64):
        return
    tmp = f"{side}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        parser = _parser()
        f = os.fdopen(os.open(tmp, flags, mode), "wb")
    except OSError:
        return
    try:
        with f:
            w = _Writer(f)
            w.put(_MAGIC)
            w.int(_VERSION, 4)
            w.int(parser, 4)
            w.int(n, 8)
            for at in range(0, len(text), _BLOCK):
                w.put(text[at:at + _BLOCK].encode("utf-8"))
            w.int(len(times), 8)
            for at in range(0, len(times), _TIMES):
                block = array("q", times[at:at + _TIMES])
                if sys.byteorder == "big":
                    block.byteswap()
                w.put(block.tobytes())
            masks = queue._type_masks()
            w.int(len(masks), 8)
            for label, m in masks.items():
                data = label.encode("utf-8")
                w.int(len(data), 4)
                w.put(data)
                row = m.to_bytes((m.bit_length() + 7) >> 3, "little")
                w.int(len(row), 8)
                w.put(row)
            f.write(w.crc.to_bytes(4, "little"))
        os.replace(tmp, side)
    except (OSError, ValueError):
        pass  # the queue is read; the sidecar only saves a later parse
    finally:
        with suppress(OSError):
            os.unlink(tmp)
