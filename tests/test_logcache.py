import hashlib
import inspect
import os
import pickle
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest

import streamseq
from streamseq import EventLogParseError, StreamSeqError, parse_event_log
from streamseq import generate, logcache, serialize_event_log
from streamseq.logcache import read_queue
from streamseq.model import StreamQueue
from test_acceptance import _trend_config

ROOT = Path(__file__).resolve().parents[1]
LOG = "".join(f"{t},{label}\n" for t, label in [
    (1, "a"), (1, "b"), (2, "a"), (4, "c"), (5, "b"), (5, "a"), (7, "c"), (9, "a"),
])


def sidecar(path):
    return path.with_name(path.name + ".sqcache")


def outcome(read):
    """The queue `read` returns, or the line and message of its parse error."""
    try:
        return read()
    except EventLogParseError as exc:
        return exc.line_no, str(exc)


def same_as_parse(path):
    """read_queue gives what parse_event_log gives for the file's text."""
    got = outcome(lambda: read_queue(str(path)))
    want = outcome(lambda: parse_event_log(path.read_bytes().decode("utf-8")))
    assert got == want
    if not isinstance(want, tuple):
        assert got.times == want.times and list(got._bitmaps) == list(want._bitmaps)
    return got


def forbid_parse(monkeypatch):
    """Make every parse fail, so that only a sidecar can give a queue."""
    def refuse(*args):
        raise AssertionError("the log was parsed")

    monkeypatch.setattr(logcache, "parse_event_log", refuse)


def crc_of(data, n):
    """The crc32 of a sidecar's bytes without their trailer and without
    the n-byte copy of the log, which it does not cover."""
    copy = len(logcache._MAGIC) + 40
    return zlib.crc32(data[:copy] + data[copy + n:-4]).to_bytes(4, "little")


def test_the_sidecar_layout_is_pinned(tmp_path):
    # a change to the layout must come with a new _VERSION, and a new pin
    log = tmp_path / "events.log"
    log.write_text("-7,\xe9\n-7,a\n" + LOG + "10,\xe9\n11,b\n12,a\n", encoding="utf-8")
    read_queue(str(log))
    data = bytearray(sidecar(log).read_bytes())
    copy, n = len(logcache._MAGIC) + 40, log.stat().st_size
    assert data[copy:copy + n] == log.read_bytes()
    assert data[-4:] == crc_of(data, n)
    # the parser's crc32, which any edit to model.py moves, and so the trailer
    at = len(logcache._MAGIC) + 4
    data[at:at + 4] = data[-4:] = bytes(4)
    assert logcache._VERSION == 3
    assert hashlib.sha256(data).hexdigest() == (
        "ed4e25e139b252220d2d68ebdfb9fb14560cdc1356b74113f87328c4d05ecb05"
    )


def test_the_parser_key_covers_no_counting_code():
    # windows and their memos live with the counter, so a change to
    # counting keeps every sidecar: the key is the parser's file alone
    assert streamseq.ViewWindow.__module__ == "streamseq.occurrence"
    for name in ("ViewWindow", "window"):
        assert not hasattr(streamseq.model, name)
    source = inspect.getsourcefile(parse_event_log)
    assert inspect.getsourcefile(StreamQueue) == source
    assert logcache._parser() == zlib.crc32(Path(source).read_bytes())


def test_a_cold_read_writes_a_sidecar_that_a_warm_read_loads(tmp_path, monkeypatch):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    cold = same_as_parse(log)
    assert sidecar(log).read_bytes().startswith(logcache._MAGIC)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.log", "events.log.sqcache"]
    forbid_parse(monkeypatch)
    warm = read_queue(str(log))
    assert len(warm) == len(cold) == 6
    assert warm == cold and hash(warm) == hash(cold)
    assert warm.times == cold.times and type(warm.times) is tuple
    assert list(warm) == list(cold)
    assert list(warm._bitmaps) == list(cold._bitmaps)
    assert pickle.loads(pickle.dumps(read_queue(str(log)))) == cold


@pytest.mark.parametrize("block", [3, 7, 1 << 16])
def test_every_same_length_one_byte_edit_is_a_miss(tmp_path, monkeypatch, block):
    monkeypatch.setattr(logcache, "_BLOCK", block)
    log = tmp_path / "events.log"
    data = LOG.encode()
    for i in range(len(data)):
        for byte in {b"9", b"x", b","} - {data[i:i + 1]}:
            log.write_bytes(data)
            read_queue(str(log))
            log.write_bytes(data[:i] + byte + data[i + 1:])
            same_as_parse(log)


@pytest.fixture
def parsed(monkeypatch):
    """The texts read_queue parses, in order."""
    texts = []

    def spy(text):
        texts.append(text)
        return parse_event_log(text)

    monkeypatch.setattr(logcache, "parse_event_log", spy)
    return texts


@pytest.mark.parametrize("change", ["append", "cut"])
def test_a_grown_or_cut_log_is_parsed_whole(tmp_path, parsed, change):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    read_queue(str(log))
    text = LOG + "3,d\n8,b\n" if change == "append" else LOG[:-4]
    log.write_text(text)
    same_as_parse(log)
    assert parsed == [LOG, text]
    rewritten = sidecar(log).read_bytes()
    sidecar(log).unlink()
    read_queue(str(log))
    assert sidecar(log).read_bytes() == rewritten  # as a cold read writes it


def resealed(data, n):
    """A sidecar's bytes with its crc32 trailer made to match again."""
    return data[:-4] + crc_of(data, n)


@pytest.mark.parametrize("damage", ["truncate", "flip", "version", "parser", "grow"])
def test_a_damaged_sidecar_is_a_miss_and_is_replaced(tmp_path, damage):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    read_queue(str(log))
    good = sidecar(log).read_bytes()
    magic = len(logcache._MAGIC)
    if damage == "truncate":
        cuts = [bytes(good[:n]) for n in range(magic, len(good))]
    elif damage == "flip":
        cuts = [
            good[:i] + bytes([good[i] ^ 1 << bit]) + good[i + 1:]
            for i in range(magic, len(good)) for bit in (0, 7)
        ]
    elif damage in ("version", "parser"):
        at = magic + (damage == "parser") * 4
        field = int.from_bytes(good[at:at + 4], "little") ^ 1
        cuts = [resealed(good[:at] + field.to_bytes(4, "little") + good[at + 4:], len(LOG))]
    else:
        cuts = [good + b"\0"]
    for cut in cuts:
        sidecar(log).write_bytes(cut)
        same_as_parse(log)
        assert sidecar(log).read_bytes() == good


def test_a_resealed_sidecar_whose_sizes_lie_allocates_nothing(tmp_path, parsed):
    # each of n, table, k and area in turn claims 2**40 bytes or timestamps
    # under a matching crc32; a reader that allocated a claimed size before
    # checking it against the file's would need terabytes
    log = tmp_path / "events.log"
    log.write_text(LOG)
    read_queue(str(log))
    good = sidecar(log).read_bytes()
    for field in range(4):
        at = len(logcache._MAGIC) + 8 + 8 * field
        lie = good[:at] + (2**40).to_bytes(8, "little") + good[at + 8:]
        sidecar(log).write_bytes(resealed(lie, len(LOG)))
        tracemalloc.start()
        try:
            same_as_parse(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert len(parsed) == 2 + field  # a miss
        assert sidecar(log).read_bytes() == good


def test_a_sidecar_holding_a_label_the_parser_refuses_is_a_miss(tmp_path):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    read_queue(str(log))
    good = sidecar(log).read_bytes()
    queue = parse_event_log(LOG)
    bitmaps = dict(queue._type_bitmaps())
    bitmaps["c d"] = bitmaps.pop("c")
    forged = StreamQueue._from_columns(queue.times, bitmaps=bitmaps)
    logcache._store(str(sidecar(log)), 0o644, LOG, len(LOG), forged)
    assert sidecar(log).read_bytes() != good
    assert "c d" not in same_as_parse(log).alphabet()
    assert sidecar(log).read_bytes() == good


@pytest.mark.parametrize("log_mode", [0o600, 0o640, 0o644])
def test_a_sidecar_grants_no_permission_its_log_lacks(tmp_path, log_mode):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    log.chmod(log_mode)
    old = os.umask(0o022)
    try:
        read_queue(str(log))
        assert sidecar(log).stat().st_mode & 0o777 == log_mode
        # one written before the log was made private is replaced
        log.chmod(0o600)
        same_as_parse(log)
        assert sidecar(log).stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old)


def owned_by(path, uid, monkeypatch):
    """Make the file at `path` owned by `uid`: chown it when running as
    root, else have os.stat report `uid` as its owner."""
    if os.geteuid() == 0:
        os.chown(path, uid, -1)
        return
    real = os.stat

    def stat(p, *args, **kwargs):
        info = real(p, *args, **kwargs)
        if os.fspath(p) == os.fspath(path):
            info = os.stat_result((*info[:4], uid, *info[5:]))
        return info

    monkeypatch.setattr(os, "stat", stat)


def test_a_sidecar_another_user_owns_is_never_trusted_or_replaced(tmp_path, monkeypatch):
    # another user can plant a well-formed sidecar in a shared directory
    # such as /tmp before the log's first read
    log = tmp_path / "events.log"
    log.write_text(LOG)
    queue = parse_event_log(LOG)
    bitmaps = dict(queue._type_bitmaps())
    every = (1 << len(queue)) - 1  # "a" in every tuple
    bitmaps["a"] = every.to_bytes((len(queue) + 7) >> 3, "little")
    forged = StreamQueue._from_columns(queue.times, bitmaps=bitmaps)
    logcache._store(str(sidecar(log)), 0o644, LOG, len(LOG), forged)
    planted = sidecar(log).read_bytes()
    uid = os.geteuid() + 12345
    owned_by(sidecar(log), uid, monkeypatch)
    for _ in range(2):
        assert same_as_parse(log) == queue
        assert sidecar(log).read_bytes() == planted
        assert os.stat(sidecar(log)).st_uid == uid


def test_a_reader_who_does_not_own_the_log_writes_no_sidecar(tmp_path, monkeypatch):
    # a sidecar another user wrote would be foreign to the log's owner,
    # whose reads would then parse the log every time
    log = tmp_path / "events.log"
    log.write_text(LOG)
    other = os.geteuid() + 12345
    monkeypatch.setattr(os, "geteuid", lambda: other)
    same_as_parse(log)
    assert not sidecar(log).exists()
    monkeypatch.undo()
    read_queue(str(log))  # the owner's read writes one
    written = sidecar(log).read_bytes()
    monkeypatch.setattr(os, "geteuid", lambda: other)
    forbid_parse(monkeypatch)
    assert read_queue(str(log)) == parse_event_log(LOG)  # which the other user loads
    assert sidecar(log).read_bytes() == written


@pytest.mark.parametrize("foreign", [b"", b"not a sidecar\n", b"streamseq queue cach"])
def test_a_foreign_file_at_the_sidecar_path_is_left_untouched(tmp_path, foreign):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    sidecar(log).write_bytes(foreign)
    for _ in range(2):
        same_as_parse(log)
        assert sidecar(log).read_bytes() == foreign


def test_a_directory_at_the_sidecar_path_is_passed_over(tmp_path):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    sidecar(log).mkdir()
    for _ in range(2):
        same_as_parse(log)
    assert sidecar(log).is_dir() and not any(sidecar(log).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.log", "events.log.sqcache"]


def test_a_failed_write_leaves_no_file_behind(tmp_path, monkeypatch):
    log = tmp_path / "events.log"
    log.write_text(LOG)

    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(logcache.os, "replace", refuse)
    same_as_parse(log)
    assert [p.name for p in tmp_path.iterdir()] == ["events.log"]


@pytest.mark.parametrize("text", [
    "1,a\n2,b\n3,",                       # a bad last line
    "1,a\n2,b\nx,c\n",                    # a bad timestamp
    "1,a\n" + f"{1 << 63},b\n",           # a timestamp past int64
    "1,a\n" + f"{-(1 << 63) - 1},b\n",
])
def test_a_log_that_fails_to_parse_or_overflows_int64_writes_no_sidecar(tmp_path, text):
    log = tmp_path / "events.log"
    log.write_text(text)
    for _ in range(2):
        same_as_parse(log)
    assert not sidecar(log).exists()


def test_int64_bounds_are_cached(tmp_path, monkeypatch):
    log = tmp_path / "events.log"
    log.write_text(f"{-(1 << 63)},a\n{(1 << 63) - 1},b\n")
    cold = same_as_parse(log)
    forbid_parse(monkeypatch)
    assert read_queue(str(log)).times == cold.times == (-(1 << 63), (1 << 63) - 1)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "# only a comment\n",
    "1,a\r\n2,b\r3,c\n",
    "1,a\r\n2,b\r\n3;c\r\n4,d\r\n",  # a bad record at line 3
    "1,a\r\r\n2,b\r\n\r3,c\r\r\n",  # "\r\r\n" is a lone "\r", then "\r\n"
    "1,a\r\r\n2,b\r\r\nx,c\r\n",  # a bad record at line 5
])
def test_odd_logs_read_warm_as_they_parse(tmp_path, monkeypatch, text):
    log = tmp_path / "events.log"
    log.write_bytes(text.encode())
    cold = same_as_parse(log)
    # the log as read before the cache, with newlines translated
    assert cold == outcome(lambda: parse_event_log(log.read_text(encoding="utf-8")))
    if isinstance(cold, tuple):  # a parse error, which writes no sidecar
        assert not sidecar(log).exists()
    else:
        forbid_parse(monkeypatch)
    assert outcome(lambda: read_queue(str(log))) == cold


@pytest.fixture(scope="module")
def trend_text():
    """The seed-1 trend log's text: 48,879 tuples, 194 labels."""
    return serialize_event_log(generate(_trend_config(1, 100_000, drift_at=20_000)))


def test_a_cold_read_peak_memory_stays_in_budget(tmp_path, trend_text):
    # the seed-1 trend log: its cold read, parse and sidecar write,
    # peaked at 4.9 MiB traced; a parse that split the whole text into
    # lines at once would take the parse alone past 11 MiB
    log = tmp_path / "events.log"
    log.write_text(trend_text)
    tracemalloc.start()
    try:
        read_queue(str(log))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sidecar(log).exists()
    assert peak <= 8 * 2**20


def test_a_warm_read_peak_memory_stays_in_budget(tmp_path, monkeypatch, trend_text):
    # the seed-1 trend log: a warm read holds its timestamps (0.37 MiB)
    # and its bitmap area (1.13 MiB) once each and peaked at 1.6 MiB
    # traced; one that also copied each row out of the area read 2.7 MiB,
    # and one that built a tuple of the timestamps and an int per bitmap
    # read 3.5 MiB
    log = tmp_path / "events.log"
    log.write_text(trend_text)
    read_queue(str(log))
    forbid_parse(monkeypatch)
    tracemalloc.start()
    try:
        read_queue(str(log))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_a_tail_that_is_not_utf8_fails_as_the_whole_log_does(tmp_path):
    log = tmp_path / "events.log"
    log.write_text(LOG)
    read_queue(str(log))
    with log.open("ab") as f:
        f.write(b"10,\xff\n")
    with pytest.raises(StreamSeqError) as info:
        read_queue(str(log))
    message = str(info.value)
    assert f"in position {len(LOG) + 3}" in message
    sidecar(log).unlink()
    with pytest.raises(StreamSeqError) as info:
        read_queue(str(log))
    assert str(info.value) == message
    assert not sidecar(log).exists()


def test_the_cli_path_never_imports_hashlib(tmp_path):
    script = (
        "import sys\n"
        "from streamseq.cli import main\n"
        "log = sys.argv[1]\n"
        "assert main(['gen', log, '--types', '8', '--events', '400', '--seed', '3']) == 0\n"
        "for out in ('cold.p', 'warm.p'):\n"
        "    assert main(['mine', log, out, '--size', '100', '--min-supp', '0.1',\n"
        "                 '--min-nbd-supp', '0.05', '--span', '3']) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "s.log")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "s.log.sqcache").exists()
    assert (tmp_path / "cold.p").read_bytes() == (tmp_path / "warm.p").read_bytes()
