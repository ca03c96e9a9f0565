"""streamseq: sequential pattern mining over event streams.

The pieces, in dependency order: a stream data model of timestamped
tuples viewed through windows (model), exact occurrence and support
counting (occurrence), a level-wise miner producing frequent and border
families (mining), an incremental updater that grows a mined window
without re-mining it (incremental), a set distance for trending pattern
change (distance), the update-timing analysis that recommends how far a
window may grow before re-mining pays off (tradeoff), a reproducible
synthetic stream generator (generate), and text formats plus a CLI on
top (patternfile, cli).  The brute-force references that tests check the
counter and the miner against live in oracle and are not exported.
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
from .generate import GenConfig, SplitMix64, generate, type_labels
from .incremental import UpdateInput, ius_update, speedup
from .mining import MiningParams, PatternSet, as_fraction, gen_candidates, mine
from .model import (
    EventType,
    Sequence,
    StreamQueue,
    StreamTuple,
    ViewWindow,
    parse_event_log,
    serialize_event_log,
    window,
)
from .occurrence import (
    CostCounter,
    CountParams,
    occur,
    occur_partitioned,
    support,
)
from .patternfile import dump_pattern_file, load_pattern_file
from .tradeoff import (
    Recommendation,
    SweepConfig,
    SweepPoint,
    find_intersections,
    min_max_normalize,
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
    "EventType",
    "GenConfig",
    "IncompatiblePatternSetsError",
    "MiningParams",
    "ParameterError",
    "PatternFileError",
    "PatternSet",
    "Recommendation",
    "Sequence",
    "SplitMix64",
    "StreamQueue",
    "StreamSeqError",
    "StreamTuple",
    "SweepConfig",
    "SweepPoint",
    "UndefinedSupportError",
    "UpdateInput",
    "ViewWindow",
    "as_fraction",
    "distance",
    "dump_pattern_file",
    "find_intersections",
    "gen_candidates",
    "generate",
    "ius_update",
    "load_pattern_file",
    "min_max_normalize",
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
    "type_labels",
    "window",
]
