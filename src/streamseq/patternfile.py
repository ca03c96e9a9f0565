"""Pattern-file text format.

A pattern file is a mined PatternSet at rest: a key=value header that
pins down the mining parameters and window, then one tab-separated line
per sequence.  Entry lines are

    L\tlabel\tlabel...\tcount      frequent sequence
    NBD\tlabel\tlabel...\tcount    border sequence

sorted by section and then by sequence order, so equal pattern sets
serialize to identical bytes.  Thresholds are written as exact
fractions; nothing in the format loses precision on a round trip.
Blank lines and '#' comment lines are tolerated on input and never
produced on output.

The blocks= header lists the window's blocks as comma-separated
"start:end" queue ranges; this module is the only place that text
exists, and a PatternSet holds the ranges as int pairs.  The header is
required, its ranges may not overlap, and window_size= must equal their
total size: the counts are only meaningful against the exact tuples
they were taken over, so a file that disagrees with itself is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PatternFileError, ParameterError, ContractError
from .mining import MiningParams, PatternSet
from .model import EventType, Sequence
from .occurrence import CountParams

FORMAT_VERSION = "1"

_HEADER_ORDER = (
    "format",
    "window_size",
    "min_supp",
    "min_nbd_supp",
    "span",
    "max_len",
    "blocks",
)


def dump_pattern_file(ps: PatternSet) -> str:
    """Serialize a PatternSet; inverse of load_pattern_file."""
    p = ps.params
    head = {
        "format": FORMAT_VERSION,
        "window_size": str(ps.window_size),
        "min_supp": str(p.min_supp),
        "min_nbd_supp": str(p.min_nbd_supp),
        "span": str(p.span),
        "max_len": "none" if p.max_len is None else str(p.max_len),
        "blocks": ",".join(f"{start}:{end}" for start, end in ps.blocks),
    }
    lines = [f"{k}={head[k]}" for k in _HEADER_ORDER]
    for section, family in (("L", ps.frequent), ("NBD", ps.border)):
        for seq in sorted(family):
            fields = [section, *seq.labels, str(family[seq])]
            lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def _parse_block(tok: str) -> tuple[int, int]:
    start, sep, end = tok.partition(":")
    if not (sep and start.isdigit() and end.isdigit()):
        raise ValueError
    return int(start, 10), int(end, 10)


def _parse_header_value(key: str, value: str, line_no: int):
    try:
        if key == "window_size":
            n = int(value, 10)
            if n < 0:
                raise ValueError
            return n
        if key in ("min_supp", "min_nbd_supp"):
            return Fraction(value)
        if key == "span":
            return int(value, 10)
        if key == "max_len":
            return None if value == "none" else int(value, 10)
        if key == "blocks":
            return tuple(_parse_block(tok) for tok in value.split(",")) if value else ()
        if key == "format":
            return value
    except (ValueError, ZeroDivisionError):
        raise PatternFileError(f"line {line_no}: bad value for {key}: {value!r}") from None
    raise PatternFileError(f"line {line_no}: unknown header key {key!r}")


def load_pattern_file(text: str) -> PatternSet:
    """Parse pattern-file text into a validated PatternSet."""
    header: dict = {}
    frequent: dict[Sequence, int] = {}
    border: dict[Sequence, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" in line:
            fields = line.split("\t")
            if len(fields) < 3:
                raise PatternFileError(
                    f"line {line_no}: entry needs tag, labels and count"
                )
            tag, *labels, count_str = fields
            if tag not in ("L", "NBD"):
                raise PatternFileError(f"line {line_no}: unknown section {tag!r}")
            try:
                count = int(count_str, 10)
                if count < 0:
                    raise ValueError
            except ValueError:
                raise PatternFileError(
                    f"line {line_no}: bad count {count_str!r}"
                ) from None
            try:
                seq = Sequence(EventType(l) for l in labels)
            except ParameterError as exc:
                raise PatternFileError(f"line {line_no}: {exc}") from None
            if seq in frequent or seq in border:
                raise PatternFileError(f"line {line_no}: duplicate entry {seq!r}")
            (frequent if tag == "L" else border)[seq] = count
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise PatternFileError(f"line {line_no}: expected key=value, got {raw!r}")
            key = key.strip()
            if key in header:
                raise PatternFileError(f"line {line_no}: duplicate header key {key!r}")
            header[key] = _parse_header_value(key, value.strip(), line_no)

    missing = [k for k in _HEADER_ORDER if k not in header and k != "max_len"]
    if missing:
        raise PatternFileError(f"missing header keys: {missing}")
    if header["format"] != FORMAT_VERSION:
        raise PatternFileError(f"unsupported format {header['format']!r}")
    try:
        params = MiningParams(
            min_supp=header["min_supp"],
            min_nbd_supp=header["min_nbd_supp"],
            count_params=CountParams(span=header["span"]),
            max_len=header.get("max_len"),
        )
    except ParameterError as exc:
        raise PatternFileError(f"bad parameters in header: {exc}") from None
    ps = PatternSet(
        params=params,
        blocks=header["blocks"],
        frequent={s: frequent[s] for s in sorted(frequent)},
        border={s: border[s] for s in sorted(border)},
    )
    if header["window_size"] != ps.window_size:
        raise PatternFileError(
            f"window_size={header['window_size']} but the blocks cover "
            f"{ps.window_size} tuples"
        )
    try:
        ps.validate()
    except ContractError as exc:
        raise PatternFileError(f"inconsistent pattern file: {exc}") from None
    return ps

