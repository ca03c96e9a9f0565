"""
Counting sequence occurrences in a viewing window
=================================================

A stream is a queue of timestamped tuples; each tuple holds the event
types that fired together.  A sequence occurs at a start position when
its items can be read left to right from distinct tuples inside the
span-wide sub-window beginning there.  Every start position contributes
at most one occurrence, so counts never exceed the number of positions.
"""

from streamseq import (
    CountParams,
    Sequence,
    StreamQueue,
    occur,
    support,
    window,
)


# the running example: a and b strictly alternating over four tuples,
# built from (time, labels) rows; event labels are plain strings
q = StreamQueue((t, {label}) for t, label in enumerate("abab", start=1))
w = window(q, 0, len(q))
print(f"window: {w.start}:{w.end} holding {w.size} tuples")

# at span 2, a start position sees the tuple under it and the next one
span2 = CountParams(span=2)
for spec in ("a", "b", "ab", "ba", "aa"):
    seq = Sequence.of(*spec)
    print(f"  occur({seq}, span=2) = {occur(seq, w, span2)}")

# shrinking the span to 1 removes the cross-tuple starts: <a> now only
# occurs where a tuple itself contains a
span1 = CountParams(span=1)
print("  occur(<a>, span=1) =", occur(Sequence.of("a"), w, span1))

# support divides by window size and stays an exact fraction
print("support(<a,b>, span=2) =", support(Sequence.of("a", "b"), w, span2))

# anti-monotonicity: dropping items never lowers the count, which is
# what licenses level-wise candidate pruning during mining
long = Sequence.of("a", "b", "a")
shorter = [Sequence(long[:i] + long[i + 1 :]) for i in range(len(long))]
for s in shorter:
    assert occur(s, w, span2) >= occur(long, w, span2)
print("every 2-item subsequence of <a,b,a> occurs at least as often; checked")
