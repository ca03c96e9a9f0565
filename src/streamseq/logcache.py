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

    header (62)                 _HEADER, one struct.Struct for reading
                                and writing:
      _MAGIC                    the magic line
      version (4), parser (4)   the format, and zlib.crc32 of model.py,
                                so that an edit to the parser retires
                                every sidecar written before it;
                                model.py holds only the stream model
                                and the log format, so a change to
                                counting alone retires none
      n (8), table (8),         the sizes of the copy, the label table
      k (8), area (8)           and the bitmap area in bytes, and the
                                number of timestamps
    copy (n)                    the exact copy of the log
    label table (table)         per label, in the queue's order, its
                                UTF-8 length (4) and text and its
                                bitmap's length (8)
    timestamps (8 k)            int64, signed
    bitmap area (area)          each label's canonical bitmap row, in
                                the table's order
    crc32 (4)                   zlib.crc32 of every field but the copy

A read unpacks the header and makes one size check: 62 + n + table +
8 k + area + 4 must be the sidecar's size, as n must be the log's.  So
nothing a size claims is allocated before the file is known to hold
it, and a sidecar cut short or grown is a miss.  The copy is compared
with the log byte for byte (_same), so the trailer needs to cover only
the fields around it.  A warm read does I/O and checks only: it reads
each column in one call and holds it once, as a label table, an array
of timestamps and one bytes object whose slices are the queue's bitmap
rows, and it decodes nothing the call does not ask for
(see StreamQueue).

A sidecar never changes an output.  One that is missing, stale,
truncated or corrupt, of another version or parser, holding a label the
parser refuses, readable by someone who cannot read its log, or owned
by neither the log's owner nor the reader is a miss; any failure to
read or write one is passed over.  Only the log's owner writes a
sidecar: one another user wrote would be foreign to the owner, whose
every read would then parse the log.  A log that fails to parse writes
no sidecar, and neither does one with a timestamp outside int64.  A
file at the sidecar path that does not start with the magic line, or
that another user owns, is never replaced.  The copy is read and
written in blocks: neither the whole sidecar nor a second copy of the
log is ever held.
"""

from __future__ import annotations

import functools
import os
import stat
import struct
import sys
import zlib
from array import array
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import BinaryIO

from . import model
from .errors import StreamSeqError
from .model import StreamQueue, _check_label, parse_event_log

_MAGIC = b"streamseq queue cache\n"
_VERSION = 3
# magic, version, parser; then n, table, k and area, as the module says
_HEADER = struct.Struct(f"<{len(_MAGIC)}sII4Q")
_SUFFIX = ".sqcache"
_BLOCK = 1 << 16  # bytes, or characters, streamed at a time
_TIMES = _BLOCK >> 3  # timestamps streamed at a time
_INT64 = 1 << 63


@functools.cache
def _parser() -> int:
    """zlib.crc32 of the parser's module file."""
    return zlib.crc32(Path(model.__file__).read_bytes())


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
    if ours and info.st_uid == os.geteuid():  # only the log's owner writes one
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


def _same(cache: BinaryIO, log: BinaryIO, n: int) -> bool:
    """Whether the cache's next n bytes, which the crc32 leaves out, are
    the log's next n bytes; compared a block at a time."""
    mine, theirs = bytearray(min(_BLOCK, n)), bytearray(min(_BLOCK, n))
    for at in range(n, 0, -_BLOCK):
        if at < len(mine):  # the last block is short
            del mine[at:], theirs[at:]
        if cache.readinto(mine) != len(mine) or log.readinto(theirs) != len(theirs):
            return False
        if mine != theirs:
            return False
    return True


def _load(cache: BinaryIO, log: BinaryIO) -> StreamQueue | None:
    """The log's queue when the sidecar is whole, of this format and
    parser, and holds an exact copy of the log; else None."""
    try:
        head = cache.read(_HEADER.size)
        magic, version, parser, n, table_size, k, area_size = _HEADER.unpack(head)
        rest = table_size + 8 * k + area_size + 4  # the bytes after the copy
        if (
            (magic, version, parser) != (_MAGIC, _VERSION, _parser())
            or n != os.fstat(log.fileno()).st_size
            or _HEADER.size + n + rest != os.fstat(cache.fileno()).st_size
            or not _same(cache, log, n)
        ):
            return None
        table = cache.read(table_size)
        times = array("q", [0]) * k
        got = cache.readinto(times)
        tail = cache.read(area_size + 4)  # the area and the trailer
        # no read gives more than it asks for, so any short one shows here
        if len(table) + got + len(tail) != rest:
            return None
        area = memoryview(tail)[:-4]
        crc = zlib.crc32(area, zlib.crc32(times, zlib.crc32(table, zlib.crc32(head))))
        if crc.to_bytes(4, "little") != tail[-4:]:
            return None
        if sys.byteorder == "big":
            times.byteswap()
        bitmaps = {}
        at = end = 0
        while at < table_size:
            size = int.from_bytes(table[at:at + 4], "little")
            label = table[at + 4:at + 4 + size].decode("utf-8")
            _check_label(label)  # a ParameterError is a ValueError
            at += 4 + size
            length = int.from_bytes(table[at:at + 8], "little")
            at += 8
            bitmaps[label] = area[end:end + length]
            end += length
        if at != table_size or end != area_size:
            return None
    except (OSError, ValueError, struct.error):
        return None
    return StreamQueue._from_columns(times, bitmaps=bitmaps)


def _store(side: str, mode: int, text: str, n: int, queue: StreamQueue) -> None:
    """Write the sidecar, with permissions `mode` at most, of the n-byte
    log that decodes to `text` and parses as `queue`."""
    times = queue.times
    if times and not (-_INT64 <= times[0] and times[-1] < _INT64):
        return
    rows = queue._type_bitmaps()
    table = b"".join(
        len(data).to_bytes(4, "little") + data + len(row).to_bytes(8, "little")
        for data, row in zip(map(str.encode, rows), rows.values())
    )
    tmp = f"{side}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        head = _HEADER.pack(
            _MAGIC, _VERSION, _parser(), n, len(table), len(times),
            sum(map(len, rows.values())),
        )
        f = os.fdopen(os.open(tmp, flags, mode), "wb")
    except OSError:
        return
    stamps = (times[at:at + _TIMES] for at in range(0, len(times), _TIMES))
    parts = chain((table,), (struct.pack(f"<{len(s)}q", *s) for s in stamps), rows.values())
    try:
        with f:
            f.write(head)
            for at in range(0, len(text), _BLOCK):
                f.write(text[at:at + _BLOCK].encode("utf-8"))  # not in the crc32
            crc = zlib.crc32(head)
            for part in parts:
                crc = zlib.crc32(part, crc)
                f.write(part)
            f.write(crc.to_bytes(4, "little"))
        os.replace(tmp, side)
    except (OSError, ValueError):
        pass  # the queue is read; the sidecar only saves a later parse
    finally:
        with suppress(OSError):
            os.unlink(tmp)
