"""streamseq: sequential pattern mining over event streams.

The pieces, in dependency order: the errors every piece raises
(errors), a stream data model of timestamped tuples and its event-log
format (model), a checked cache of each parsed log beside it (logcache),
exact occurrence and support counting over windows, ranges of a queue's
tuples that live with the counter (occurrence), a level-wise miner
producing frequent and border families (mining), an incremental updater
that grows a mined window without re-mining it (incremental), a set
distance for trending pattern change (distance), the update-timing
analysis that recommends how far a window may grow before re-mining pays
off (tradeoff), a reproducible synthetic stream generator (generate),
and the pattern-file format plus a CLI on top (patternfile, cli).  Each
imports only pieces before it.  The brute-force references that tests
check the counter and the miner against are not part of the package;
they live in tests/oracle.py.
"""

from .distance import distance, pattern_keys
from .errors import (
    BoundsError,
    ContractError,
    EventLogParseError,
    IncompatiblePatternSetsError,
    ParameterError,
    PatternFileError,
    StreamSeqError,
    UndefinedSupportError,
)
from .generate import GenConfig, generate
from .incremental import UpdateInput, ius_update, speedup
from .mining import MiningParams, PatternSet, gen_candidates, mine
from .model import (
    Sequence,
    StreamQueue,
    parse_event_log,
    serialize_event_log,
)
from .occurrence import (
    CostCounter,
    CountParams,
    ViewWindow,
    occur,
    occur_partitioned,
    support,
    window,
)
from .patternfile import dump_pattern_file, load_pattern_file
from .tradeoff import (
    Recommendation,
    SweepConfig,
    SweepPoint,
    recommend,
    recommendation_text,
    run_sweep,
    sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "ContractError",
    "CostCounter",
    "CountParams",
    "EventLogParseError",
    "GenConfig",
    "IncompatiblePatternSetsError",
    "MiningParams",
    "ParameterError",
    "PatternFileError",
    "PatternSet",
    "Recommendation",
    "Sequence",
    "StreamQueue",
    "StreamSeqError",
    "SweepConfig",
    "SweepPoint",
    "UndefinedSupportError",
    "UpdateInput",
    "ViewWindow",
    "distance",
    "dump_pattern_file",
    "gen_candidates",
    "generate",
    "ius_update",
    "load_pattern_file",
    "mine",
    "occur",
    "occur_partitioned",
    "parse_event_log",
    "pattern_keys",
    "recommend",
    "recommendation_text",
    "run_sweep",
    "serialize_event_log",
    "speedup",
    "support",
    "sweep_csv",
    "window",
]
