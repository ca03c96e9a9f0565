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

_HEADER is the one statement of the header: each key, in file order,
with the reader of its value text and the writer of a PatternSet's
value.  dump_pattern_file writes the table's rows and load_pattern_file
reads them, and the keys a file must hold are the table's, but max_len.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import PatternFileError, ParameterError, ContractError
from .mining import MiningParams, PatternSet
from .model import Sequence, _check_label
from .occurrence import CountParams

FORMAT_VERSION = "1"


def _count(value: str) -> int:
    n = int(value, 10)
    if n < 0:
        raise ValueError
    return n


def _parse_block(tok: str) -> tuple[int, int]:
    start, sep, end = tok.partition(":")
    if not (sep and start.isdigit() and end.isdigit()):
        raise ValueError
    return int(start, 10), int(end, 10)


# key -> (reader of its value text, writer of a PatternSet's value), in
# file order; a reader raises ValueError or ZeroDivisionError on a bad value
_HEADER: dict[str, tuple[Callable[[str], object], Callable[[PatternSet], object]]] = {
    "format": (str, lambda ps: FORMAT_VERSION),
    "window_size": (_count, lambda ps: ps.window_size),
    "min_supp": (Fraction, lambda ps: ps.params.min_supp),
    "min_nbd_supp": (Fraction, lambda ps: ps.params.min_nbd_supp),
    "span": (lambda v: int(v, 10), lambda ps: ps.params.span),
    "max_len": (
        lambda v: None if v == "none" else int(v, 10),
        lambda ps: "none" if ps.params.max_len is None else ps.params.max_len,
    ),
    "blocks": (
        lambda v: tuple(_parse_block(tok) for tok in v.split(",")) if v else (),
        lambda ps: ",".join(f"{start}:{end}" for start, end in ps.blocks),
    ),
}


def dump_pattern_file(ps: PatternSet) -> str:
    """Serialize a PatternSet; inverse of load_pattern_file."""
    lines = [f"{key}={write(ps)}" for key, (_, write) in _HEADER.items()]
    for section, family in (("L", ps.frequent), ("NBD", ps.border)):
        for seq in sorted(family):
            fields = [section, *seq, str(family[seq])]
            lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def load_pattern_file(text: str) -> PatternSet:
    """Parse pattern-file text into a validated PatternSet.

    An entry line is recognised by its tag, L or NBD, and at least
    three tab-separated fields before any test for a blank or comment
    line; such a line is neither, so an entry takes no strip.  Any
    other line with a tab is a malformed entry, and a line without one
    a header line.  Each section keeps its entries in file order, which
    for any file dump_pattern_file wrote is sorted order.
    """
    header: dict = {}
    frequent: dict[Sequence, int] = {}
    border: dict[Sequence, int] = {}
    checked: set[str] = set()  # label texts _check_label passed
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        tag = fields[0]
        if tag in ("L", "NBD") and len(fields) > 2:
            count_str = fields[-1]
            try:
                count = int(count_str, 10)
                if count < 0:
                    raise ValueError
            except ValueError:
                raise PatternFileError(
                    f"line {line_no}: bad count {count_str!r}"
                ) from None
            labels = fields[1:-1]
            if not checked.issuperset(labels):
                for label in labels:
                    if label not in checked:
                        try:
                            _check_label(label)
                        except ParameterError as exc:
                            raise PatternFileError(f"line {line_no}: {exc}") from None
                        checked.add(label)
            seq = Sequence._unchecked(tuple(labels))
            if seq in frequent or seq in border:
                raise PatternFileError(f"line {line_no}: duplicate entry {seq!r}")
            (frequent if tag == "L" else border)[seq] = count
        elif not line.strip() or line.lstrip().startswith("#"):
            continue
        elif len(fields) > 1:
            if len(fields) < 3:
                raise PatternFileError(
                    f"line {line_no}: entry needs tag, labels and count"
                )
            raise PatternFileError(f"line {line_no}: unknown section {tag!r}")
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise PatternFileError(f"line {line_no}: expected key=value, got {line!r}")
            key = key.strip()
            if key in header:
                raise PatternFileError(f"line {line_no}: duplicate header key {key!r}")
            if key not in _HEADER:
                raise PatternFileError(f"line {line_no}: unknown header key {key!r}")
            value = value.strip()
            try:
                header[key] = _HEADER[key][0](value)
            except (ValueError, ZeroDivisionError):
                raise PatternFileError(
                    f"line {line_no}: bad value for {key}: {value!r}"
                ) from None

    missing = [k for k in _HEADER if k not in header and k != "max_len"]
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
        frequent=frequent,
        border=border,
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

