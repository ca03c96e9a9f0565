import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import compress, cycle, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    CostCounter,
    CountParams,
    GenConfig,
    ParameterError,
    Sequence,
    UndefinedSupportError,
    generate,
    mine,
    occur,
    occur_partitioned,
    support,
    window,
)
from streamseq import occurrence
from streamseq.mining import MiningParams, gen_candidates
from streamseq.occurrence import _end_planes, _last_item, _split_ends, _walk
from conftest import alternating_ab, queue_of, random_queue
from oracle import (
    brute_force_frequent,
    contains,
    occur_bruteforce,
    shrink_by_one,
    walk_reference,
)

SPAN2 = CountParams(2)


class TestContains:
    def test_in_order(self):
        assert contains(Sequence.of("a", "b"), window(queue_of("a", "b"), 0, 2))

    def test_order_violated(self):
        assert not contains(Sequence.of("a", "b"), window(queue_of("b", "a"), 0, 2))

    def test_items_never_share_a_tuple(self):
        # both items present at one timestamp is not a sequential occurrence
        assert not contains(Sequence.of("a", "b"), window(queue_of("ab"), 0, 1))
        assert contains(Sequence.of("a", "b"), window(queue_of("ab", "b"), 0, 2))

    def test_repeated_items_need_repeated_tuples(self):
        assert not contains(Sequence.of("a", "a"), window(queue_of("a"), 0, 1))
        assert contains(Sequence.of("a", "a"), window(queue_of("a", "a"), 0, 2))


class TestCountParams:
    # a pattern file dumped with such a span would not load back
    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None, 0, -1])
    def test_span_must_be_an_int_of_at_least_one(self, bad):
        with pytest.raises(ParameterError):
            CountParams(bad)


class TestOccur:
    """Counts frozen against the ({a},{b},{a},{b}) reference window."""

    @pytest.mark.parametrize(
        "labels,span,expected",
        [
            (("a", "b"), 2, 2),  # starts 0 and 2; start 1 sees (b,a)
            (("b", "a"), 2, 1),
            (("a",), 2, 3),
            (("b",), 2, 3),
            (("a",), 1, 2),
            (("a", "a"), 2, 0),  # the two a's sit 2 apart
            (("c",), 2, 0),
        ],
    )
    def test_reference_window(self, labels, span, expected):
        w = alternating_ab()
        assert occur(Sequence.of(*labels), w, CountParams(span)) == expected

    def test_span_wider_than_window_counts_zero(self):
        w = window(queue_of("a", "b"), 0, 2)
        assert occur(Sequence.of("a"), w, CountParams(3)) == 0

    def test_span_equal_to_window(self):
        w = window(queue_of("a", "b"), 0, 2)
        assert occur(Sequence.of("a", "b"), w, SPAN2) == 1

    def test_empty_window(self):
        w = window(queue_of("a"), 0, 0)
        assert occur(Sequence.of("a"), w, CountParams(1)) == 0

    def test_fast_counter_equals_bruteforce(self):
        rng = random.Random(4242)
        for _ in range(120):
            q = random_queue(rng, rng.randint(1, 40), ["a", "b", "c", "d"])
            w = window(q, 0, len(q))
            p = CountParams(rng.randint(1, 6))
            labels = [rng.choice("abcd") for _ in range(rng.randint(1, 4))]
            s = Sequence.of(*labels)
            assert occur(s, w, p) == occur_bruteforce(s, w, p), (s, p.span, q)

    def test_fast_counter_on_inner_windows(self):
        # counting must respect window offsets, not just whole queues
        rng = random.Random(77)
        q = random_queue(rng, 50, ["a", "b", "c"])
        for _ in range(60):
            start = rng.randint(0, 49)
            size = rng.randint(0, 50 - start)
            w = window(q, start, size)
            s = Sequence.of(*[rng.choice("abc") for _ in range(rng.randint(1, 3))])
            p = CountParams(rng.randint(1, 4))
            assert occur(s, w, p) == occur_bruteforce(s, w, p)

    def test_anti_monotone_in_subsequences(self):
        rng = random.Random(5)
        for _ in range(80):
            q = random_queue(rng, rng.randint(2, 30), ["a", "b", "c"])
            w = window(q, 0, len(q))
            p = CountParams(rng.randint(1, 5))
            s = Sequence.of(*[rng.choice("abc") for _ in range(rng.randint(2, 4))])
            c = occur(s, w, p)
            for sub in shrink_by_one(s):
                assert occur(sub, w, p) >= c

    def test_never_exceeds_start_position_count(self):
        rng = random.Random(6)
        for _ in range(60):
            q = random_queue(rng, rng.randint(1, 25), ["a", "b"])
            w = window(q, 0, len(q))
            span = rng.randint(1, 6)
            s = Sequence.of(*[rng.choice("ab") for _ in range(rng.randint(1, 3))])
            assert occur(s, w, CountParams(span)) <= max(0, len(w) - span + 1)


# Rows are 4-bit sets over "abcd"; an empty set becomes the filler "z",
# which no drawn sequence uses.  CPython stores ints in 30-bit digits, so
# the pinned offsets put window starts on and beside digit edges, and
# every window is longer than a 64-bit word.
_ROW_LABELS = "abcd"
_DIGIT_EDGES = (0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 89, 90, 91, 127, 128)
_PROPERTY = settings(
    derandomize=True, database=None, max_examples=150, deadline=None
)


def _rows_queue(rows):
    return queue_of(*(
        [lb for i, lb in enumerate(_ROW_LABELS) if r >> i & 1] or ["z"] for r in rows
    ))


@st.composite
def _long_windows(draw):
    offset = draw(st.sampled_from(_DIGIT_EDGES) | st.integers(0, 200))
    size = draw(st.integers(65, 200))
    n = offset + size + draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    return window(_rows_queue(rows), offset, size)


_sequences = st.lists(st.sampled_from(_ROW_LABELS), min_size=1, max_size=4).map(
    lambda labels: Sequence.of(*labels)
)


def _greedy_ends(prefix, win, span):
    """The ends list of prefix's greedy match over win, found tuple by
    tuple: entry d holds the starts whose match ends at offset d, and
    trailing empty entries are dropped."""
    rows = [win.queue[t] for t in range(win.start, win.end)]
    ends = {}
    for i in range(win.size - span + 1):
        at = i - 1
        for item in prefix:
            at = next((t for t in range(at + 1, i + span) if item in rows[t]), None)
            if at is None:
                break
        else:
            ends[at - i] = ends.get(at - i, 0) | 1 << i
    return [ends.get(d, 0) for d in range(max(ends, default=-1) + 1)]


def _planes_of(offsets, span):
    """Plane k of per-start offsets: the starts whose offset has bit k set."""
    return [
        sum(1 << i for i, o in offsets.items() if o >> k & 1)
        for k in range((span - 1).bit_length())
    ]


def _direct_end_planes(ends, span):
    """The complemented end planes, start by start: a start in ends[e]
    is in plane k when bit k of e is clear."""
    top = (1 << (span - 1).bit_length()) - 1
    return _planes_of(
        {i: top ^ e for e, s in enumerate(ends)
         for i in range(s.bit_length()) if s >> i & 1},
        span,
    )


def _masked_end_planes(ends, span):
    """The complemented end planes as the OR of all ends XORed, per
    plane, with the OR of the ends whose offset has bit k set."""
    matched = reduce(or_, ends, 0)
    return [
        reduce(or_, compress(ends, cycle((0,) * h + (1,) * h)), 0) ^ matched
        for h in (1 << k for k in range((span - 1).bit_length()))
    ]


def _direct_last_offsets(win, span, item):
    """The planes of L(i), the last offset d in (0, span) with item in
    tuple i + d, or 0, for every tuple i of win."""
    y = win.mask(item)
    return _planes_of(
        {i: max((d for d in range(1, span) if y >> (i + d) & 1), default=0)
         for i in range(win.size)},
        span,
    )


def _count_checking_path(win, s, params, closed):
    """Check occur(s, win, params) against the oracle, and win's matched
    path after it: the path holds the nodes of its items' last prefixes,
    one per length, and each node's ends equal a fresh greedy match of
    its prefix, and its planes, once built, equal the direct ones; only
    the last node may match nowhere.  When the count closed s's last
    item, which it does when the prefix matches somewhere, note
    (window, span, last item) in `closed`."""
    assert occur(s, win, params) == occur_bruteforce(s, win, params)
    uses_path = len(s) > 1 and params.span <= win.size and win.mask(s[-1])
    if win._path is None:
        assert not uses_path
        return
    span, items, nodes = win._path
    skip = len(items) - len(nodes)  # node j is that of items[:skip + j + 1]
    assert nodes and skip >= 0
    for j, (ends, planes) in enumerate(nodes):
        assert ends == _greedy_ends(items[: skip + j + 1], win, span)
        assert ends or (j == len(nodes) - 1 and planes is None)
        assert planes is None or planes == _direct_end_planes(ends, span)
    if uses_path:
        prefix = s[:-1]
        assert span == params.span
        assert items[: len(prefix)] == prefix[: len(items)]
        if occur_bruteforce(prefix, win, params):
            assert skip < len(prefix) <= len(items)
            assert nodes[len(prefix) - 1 - skip][1] is not None
            closed.add((id(win), span, s[-1]))
        else:
            assert len(items) <= len(prefix) and not nodes[-1][0]


def _check_closed_prefixes(win):
    """Every prefix win notes as closed, under its span and length, keeps
    the OR of a fresh greedy match's ends and that match's direct end
    planes."""
    for (span, n), entries in win._closed.items():
        for prefix, (matched, planes) in entries.items():
            ends = _greedy_ends(prefix, win, span)
            assert len(prefix) == n and ends
            assert matched == reduce(or_, ends) and planes == _direct_end_planes(ends, span)


def _check_last_offsets(win, closed):
    """win._lasts holds exactly the (span, item) pairs it closed a
    candidate with, each as its (span - 1).bit_length() offset planes."""
    assert set(win._lasts) == {(sp, item) for wid, sp, item in closed if wid == id(win)}
    for (span, item), planes in win._lasts.items():
        assert planes == _direct_last_offsets(win, span, item)


class TestOccurProperties:
    @_PROPERTY
    @given(st.integers(1, 300), st.data())
    def test_the_end_planes_are_the_masked_ors(self, span, data):
        """_end_planes, by pairwise reduction, gives the planes the OR
        of all ends XORed with each bit's OR gives, for every ends list
        a match leaves: one offset per start, below the span, with any
        length up to the span and any sets empty."""
        offsets = data.draw(st.lists(st.integers(-1, span - 1), max_size=80), label="offsets")
        n = data.draw(st.integers(max(offsets, default=-1) + 1, span), label="n")
        ends = [sum(1 << i for i, o in enumerate(offsets) if o == e) for e in range(n)]
        assert _end_planes(ends, span)[0] == _masked_end_planes(ends, span)

    @_PROPERTY
    @given(st.sampled_from([1, 2, 4, 8, 16, 32]) | st.integers(1, 40), st.data())
    def test_the_ends_split_back_out_of_their_planes(self, span, data):
        """_split_ends, given the end planes and matched starts
        _end_planes gives, rebuilds the ends list a match leaves: one
        offset per start, below the span, leading offsets empty as a
        deep prefix's are, and the last offset not empty."""
        lead = data.draw(st.integers(0, span - 1), label="lead")
        n = data.draw(st.integers(lead + 1, span), label="n")
        offsets = data.draw(
            st.lists(st.sampled_from([-1, *range(lead, n)]), max_size=80), label="offsets"
        )
        offsets.insert(data.draw(st.integers(0, len(offsets)), label="at"), n - 1)
        ends = [sum(1 << i for i, o in enumerate(offsets) if o == e) for e in range(n)]
        planes, matched = _end_planes(ends, span)
        assert matched == reduce(or_, ends)
        assert _split_ends(matched, planes) == ends

    @_PROPERTY
    @given(st.integers(1, 40), st.integers(0, 60), st.data())
    def test_the_walk_equals_its_reference(self, span, size, data):
        """_walk, which skips the offsets where nothing waits, gives the
        ends the reference walk over every offset gives: after a prefix
        whose ends start past leading empty offsets, as a deep prefix's
        do, with nothing or every legal start pending, and over windows
        narrower than the span, which have no legal start."""
        y = data.draw(st.integers(0, (1 << size) - 1), label="y")
        pending = data.draw(st.sampled_from([0, (1 << max(0, size - span + 1)) - 1]))
        lead = data.draw(st.integers(0, span), label="lead")
        n = data.draw(st.integers(lead, span), label="n")
        # each start's match so far ends at one offset lead + o in [lead, n),
        # or nowhere (o = -1)
        offsets = data.draw(
            st.lists(st.integers(-1, n - lead - 1), max_size=size), label="offsets"
        )
        ends = [0] * lead + [
            sum(1 << i for i, o in enumerate(offsets) if o == e) for e in range(n - lead)
        ]
        assert _walk(pending, ends, y, span) == walk_reference(pending, ends, y, span)

    @_PROPERTY
    @given(
        st.lists(st.booleans(), max_size=50),
        st.integers(1, 40),
        st.data(),
    )
    def test_the_last_item_step_is_the_walk(self, ybits, span, data):
        """_last_item, comparing the end planes of an ends list with the
        item's last-offset planes, finds the starts _walk(0, ends, y,
        span) would: the OR of its hits.  Spans run past the window, and
        several ends lists over one window read one memo entry."""
        w = window(queue_of(*(["a"] if b else ["z"] for b in ybits)), 0, len(ybits))
        y = w.mask("a")
        for _ in range(data.draw(st.integers(1, 4), label="lists")):
            n = data.draw(st.integers(0, span), label="n")
            # each start's prefix match ends at one offset below n, or nowhere
            offsets = data.draw(
                st.lists(st.integers(-1, n - 1), min_size=w.size, max_size=w.size),
                label="offsets",
            )
            ends = [
                sum(1 << i for i, o in enumerate(offsets) if o == e) for e in range(n)
            ]
            planes, _ = _end_planes(ends, span)
            assert planes == _direct_end_planes(ends, span)
            found = _last_item(w, span, "a", planes)
            assert found == reduce(or_, _walk(0, ends, y, span), 0)
        assert list(w._lasts) == [(span, "a")]
        assert w._lasts[span, "a"] == _direct_last_offsets(w, span, "a")

    @_PROPERTY
    @given(_long_windows(), _sequences, st.data())
    def test_equals_bruteforce_on_long_windows(self, w, s, data):
        p = CountParams(data.draw(st.integers(1, w.size + 1), label="span"))
        assert occur(s, w, p) == occur_bruteforce(s, w, p)

    @_PROPERTY
    @given(_long_windows(), st.sampled_from(_ROW_LABELS), st.integers(2, 4), st.data())
    def test_repeated_items(self, w, label, times, data):
        s = Sequence.of(*[label] * times)
        p = CountParams(data.draw(st.integers(1, w.size + 1), label="span"))
        assert occur(s, w, p) == occur_bruteforce(s, w, p)

    @_PROPERTY
    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=150),
        _sequences,
        st.integers(1, 8),
        st.data(),
    )
    def test_partitioned_count_is_the_sum_over_blocks(self, rows, s, span, data):
        n = len(rows)
        q = _rows_queue(rows)
        cuts = data.draw(st.sets(st.integers(0, n), max_size=6), label="cuts")
        edges = sorted({0, n, *cuts})
        blocks = [window(q, lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
        p = CountParams(span)
        c = CostCounter()
        assert occur_partitioned(s, blocks, p, c) == sum(
            occur_bruteforce(s, b, p) for b in blocks
        )
        assert c.scans == len(blocks)
        assert c.window_evaluations == sum(max(0, b.size - span + 1) for b in blocks)

    @_PROPERTY
    @given(
        _long_windows(),
        st.lists(_sequences, min_size=1, max_size=12),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_the_window_memos_never_change_a_count(self, w, seqs, span, span2, data):
        """A window remembers its mask cuts, its matched path, its last
        items' offset planes and every count taken over it.  Whatever
        order counts arrive in, every count equals the oracle's, and a mine
        repeated over one window, or over a pickled copy of a used one,
        equals a mine over a fresh one.  Prefixes that share a head with
        the path and then diverge, that extend it or stop short of it,
        keep every path node equal to a fresh match, and each last item
        keeps exactly its direct offset planes.  A head window of every
        length, which counts through its parent's start sets, equals and
        counts as the plain window of its range, pickled or not, and the
        parent matches each sequence once.  A level's candidates, counted
        in order after the level before, resume from the prefixes that
        level closed."""
        q = w.queue
        other = window(q, 0, len(q))
        p, p2 = CountParams(span), CountParams(span2)
        kinds = st.sampled_from(
            ["again", "span", "other", "dead", "shared", "diverge", "longer", "level"]
        )
        steps = []
        for s in sorted(set(seqs)):
            steps.append((w, p, s))
            extra = data.draw(st.lists(kinds, max_size=3), label="extra")
            for kind in extra:
                if kind == "again":
                    steps.append((w, p, s))
                elif kind == "span":
                    steps.append((w, p2, s))
                elif kind == "other":
                    steps.append((other, p, s))
                elif kind == "dead":
                    # "e" is in no tuple, so this prefix never matches
                    steps.append((w, p, Sequence.of("e", *s)))
                elif kind == "shared":  # the same last item after another prefix
                    head = data.draw(_sequences, label="prefix")
                    steps.append((w, p, Sequence.of(*head, s[-1])))
                elif kind == "diverge":  # a head of s, then other items
                    cut = data.draw(st.integers(0, len(s) - 1), label="cut")
                    tail = data.draw(_sequences, label="tail")
                    steps.append((w, p, Sequence.of(*s[:cut], *tail)))
                elif kind == "longer":  # s itself as the prefix
                    steps.append((w, p, Sequence.of(*s, data.draw(
                        st.sampled_from(_ROW_LABELS), label="last"))))
                else:  # a level of s's length, then the level it joins into
                    labels = data.draw(st.sets(st.sampled_from(_ROW_LABELS), max_size=2))
                    before = sorted({s, *map(Sequence, product(labels, repeat=len(s)))})
                    steps += [(w, p, t) for t in [*before, *gen_candidates(before)]]
        closed = set()
        for win, params, s in steps:
            _count_checking_path(win, s, params, closed)
        _check_last_offsets(w, closed)
        _check_last_offsets(other, closed)
        _check_closed_prefixes(w)
        _check_closed_prefixes(other)

        n = len(q)
        fresh, used = window(q, 0, n), window(q, 0, n)
        occur(seqs[0], used, p)
        assert fresh == used
        copy = pickle.loads(pickle.dumps(w))
        for s in seqs:
            assert occur(s, copy, p) == occur(s, w, p) == occur_bruteforce(s, w, p)

        wide, asked = window(q, w.start, w.size), sorted(set(seqs))
        plain_counts = {}
        for d in range(w.size + 1):
            head, plain = wide._head(d), window(q, w.start, d)
            assert head == plain
            assert [head.mask(lb) for lb in "abcdz"] == [plain.mask(lb) for lb in "abcdz"]
            for s in asked:
                plain_counts[d, s] = occur(s, plain, p)
                assert occur(s, head, p) == plain_counts[d, s]
        assert len(wide._starts) == len(asked)
        wide_copy = pickle.loads(pickle.dumps(wide))
        for d in range(w.size + 1):
            head_copy = wide_copy._head(d)
            assert [occur(s, head_copy, p) for s in asked] == [
                plain_counts[d, s] for s in asked
            ]
        for d in data.draw(st.lists(st.integers(0, w.size), max_size=3), label="heads"):
            head_copy = pickle.loads(pickle.dumps(wide._head(d)))
            assert [occur(s, head_copy, p) for s in asked] == [
                plain_counts[d, s] for s in asked
            ]
        assert len(wide_copy._starts) == len(asked)

        mp = MiningParams(Fraction(1, 10), Fraction(1, 20), p, max_len=3)
        want = mine([window(q, w.start, w.size)], mp)
        mine([w], mp)  # every count of the next two mines is a memo hit
        for win in (w, pickle.loads(pickle.dumps(w))):
            got = mine([win], mp)
            assert (got.frequent, got.border) == (want.frequent, want.border)

    # each example counts every head with the oracle, so fewer of them
    @settings(_PROPERTY, max_examples=50)
    @given(
        _long_windows(),
        st.lists(_sequences, min_size=1, max_size=3),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_a_head_reads_its_alphabet_and_starts_off_its_parent(
        self, w, seqs, span, span2, data
    ):
        """Every head of a window, taken in random order before any count
        and again while counting at two spans, has the alphabet of the
        plain window of its range without cutting a label, and counts as
        the oracle does at both spans."""
        q = w.queue
        wide = window(q, w.start, w.size)
        order = data.draw(st.permutations(range(w.size + 1)), label="order")
        for d in order:
            head = wide._head(d)
            assert head.alphabet() == window(q, w.start, d).alphabet()
            assert not head._cuts
        order = data.draw(st.permutations(order), label="order")
        for d in order:
            head, plain = wide._head(d), window(q, w.start, d)
            for p in (CountParams(span), CountParams(span2)):
                for s in seqs:
                    assert occur(s, head, p) == occur_bruteforce(s, plain, p)
            assert head.alphabet() == plain.alphabet()
            assert not head._cuts

    def test_a_wide_span_keeps_eight_planes_per_last_item(self):
        # at span 256 each last item keeps (256 - 1).bit_length() = 8
        # planes of the window's width, not an int per offset
        q = random_queue(random.Random(256), 700, list("abcdefgh"), max_fill=1)
        w = window(q, 0, len(q))
        mp = MiningParams(Fraction(1, 2), Fraction(1, 4), CountParams(256), max_len=2)
        assert len(mine([w], mp).frequent) > len(w.alphabet())
        assert {item for _, item in w._lasts} == set(w.alphabet())
        assert sum(len(planes) for planes in w._lasts.values()) <= len(w.alphabet()) * 8
        assert all(plane >> w.size == 0 for planes in w._lasts.values() for plane in planes)
        # every single closed a pair, and keeps 8 end planes
        assert list(w._closed) == [(256, 1)]
        assert sorted(w._closed[256, 1]) == [(item,) for item in w.alphabet()]
        assert all(len(planes) == 8 for _, planes in w._closed[256, 1].values())
        span, items, nodes = w._path
        assert span == 256 and len(items) == len(nodes) == 1
        ends, planes = nodes[0]
        assert ends == _greedy_ends(items, w, span) and len(ends) <= span
        assert planes == _direct_end_planes(ends, span)


def test_a_deep_mine_walks_each_prefix_node_once(monkeypatch):
    """The benchmark's deep stream at its smoke size, seed 1, mined at
    span 32 up to length 5: each level resumes from the end planes the
    level before closed, so the mine walks each prefix node of its
    candidates once, not once per level whose prefixes hold it."""
    planted = tuple(
        (Sequence.of(*(f"E{i:03d}" for i in range(k, k + 6))), 25.0) for k in (1, 7, 13, 19)
    )
    q = generate(GenConfig(n_types=194, n_events=8000, seed=1, embedded=planted))
    walk, walks = occurrence._walk, [0]

    def counting_walk(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(occurrence, "_walk", counting_walk)
    mp = MiningParams(Fraction(3, 8), Fraction(1, 8), CountParams(32), max_len=5)
    ps = mine([window(q, 0, 3000)], mp)
    assert max(map(len, ps.frequent)) == 5
    # the candidates of levels 2..5 join the frequent levels below them
    nodes = {
        cand[:j]
        for m in range(1, 5)
        for cand in gen_candidates(s for s in ps.frequent if len(s) == m)
        for j in range(1, len(cand))
    }
    assert walks[0] == len(nodes)


class TestSupport:
    def test_reference_value_is_exact(self):
        got = support(Sequence.of("a", "b"), alternating_ab(), SPAN2)
        assert got == Fraction(1, 2)
        assert isinstance(got, Fraction)

    def test_absent_sequence(self):
        assert support(Sequence.of("c"), alternating_ab(), SPAN2) == 0

    def test_empty_window_is_undefined(self):
        w = window(queue_of("a"), 0, 0)
        with pytest.raises(UndefinedSupportError):
            support(Sequence.of("a"), w, SPAN2)


class TestOccurPartitioned:
    def test_per_block_sum(self):
        q = queue_of("a", "b", "a", "b")
        blocks = [window(q, 0, 2), window(q, 2, 2)]
        assert occur_partitioned(Sequence.of("a", "b"), blocks, SPAN2) == 2

    def test_single_block_is_identity(self):
        w = alternating_ab()
        s = Sequence.of("a", "b")
        assert occur_partitioned(s, [w], SPAN2) == occur(s, w, SPAN2)

    def test_absent_everywhere(self):
        q = queue_of("a", "b", "a", "b")
        blocks = [window(q, 0, 2), window(q, 2, 2)]
        assert occur_partitioned(Sequence.of("z"), blocks, SPAN2) == 0

    def test_boundary_loss_bound(self):
        # splitting loses only occurrences that straddle a cut:
        # 0 <= whole - sum(parts) <= (k-1)(span-1)
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(4, 40)
            q = random_queue(rng, n, ["a", "b", "c"])
            w = window(q, 0, n)
            span = rng.randint(1, 5)
            p = CountParams(span)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
            edges = [0, *cuts, n]
            blocks = [window(q, lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
            s = Sequence.of(*[rng.choice("abc") for _ in range(rng.randint(1, 3))])
            whole = occur(s, w, p)
            parts = occur_partitioned(s, blocks, p)
            assert 0 <= whole - parts <= (len(blocks) - 1) * (span - 1)


class TestCostCounter:
    def test_charge_counts_start_positions(self):
        c = CostCounter()
        c.charge(10, 3)
        assert (c.window_evaluations, c.scans) == (8, 1)
        c.charge(2, 5)  # window narrower than span still costs a scan
        assert (c.window_evaluations, c.scans) == (8, 2)

    def test_occur_charges_before_counting(self):
        c = CostCounter()
        occur(Sequence.of("z"), alternating_ab(), SPAN2, cost=c)
        assert (c.window_evaluations, c.scans) == (3, 1)

    def test_a_repeated_count_charges_every_scan(self):
        # the second count of each reuses the window's memos, and still pays
        w = alternating_ab()
        for labels in (("a",), ("a", "b"), ("a", "b", "a")):
            c = CostCounter()
            s = Sequence.of(*labels)
            assert occur(s, w, SPAN2, c) == occur(s, w, SPAN2, c)
            assert (c.window_evaluations, c.scans) == (6, 2)

    def test_mining_cost_is_reproducible(self):
        rng = random.Random(21)
        q = random_queue(rng, 60, ["a", "b", "c"])
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), SPAN2, max_len=3)
        totals = []
        for _ in range(2):
            c = CostCounter()
            mine([window(q, 0, 60)], params, cost=c)
            totals.append((c.window_evaluations, c.scans))
        assert totals[0] == totals[1]


class TestBruteForceOracle:
    def test_reference_window_classification(self):
        ps = brute_force_frequent(
            [alternating_ab()], SPAN2, Fraction(1, 2), Fraction(1, 5), max_len=3
        )
        assert ps.frequent == {Sequence.of("a"): 3, Sequence.of("b"): 3}
        assert ps.border == {
            Sequence.of("a", "b"): 2,
            Sequence.of("b", "a"): 1,
        }

    def test_reference_window_lower_threshold(self):
        ps = brute_force_frequent(
            [alternating_ab()], SPAN2, Fraction(45, 100), Fraction(1, 5), max_len=3
        )
        assert ps.frequent == {
            Sequence.of("a"): 3,
            Sequence.of("b"): 3,
            Sequence.of("a", "b"): 2,
        }
        assert ps.border == {Sequence.of("b", "a"): 1}

    def test_empty_blocks(self):
        ps = brute_force_frequent([], SPAN2, Fraction(1, 2), Fraction(1, 4), max_len=2)
        assert ps.frequent == {} and ps.border == {}

    def test_guards_refuse_large_instances(self):
        w = alternating_ab()
        with pytest.raises(ParameterError):
            brute_force_frequent([w], SPAN2, Fraction(1, 2), Fraction(1, 4), max_len=6)
        with pytest.raises(ParameterError):
            brute_force_frequent(
                [w], CountParams(9), Fraction(1, 2), Fraction(1, 4), max_len=3
            )
        with pytest.raises(ParameterError):
            brute_force_frequent([w], SPAN2, Fraction(1, 2), Fraction(1, 4), None)
        big = random_queue(random.Random(0), 2001, ["a", "b"])
        with pytest.raises(ParameterError):
            brute_force_frequent(
                [window(big, 0, 2001)], SPAN2, Fraction(1, 2), Fraction(1, 4), 2
            )
        wide = queue_of(*[chr(ord("a") + i) for i in range(13)])
        with pytest.raises(ParameterError):
            brute_force_frequent(
                [window(wide, 0, 13)], SPAN2, Fraction(1, 2), Fraction(1, 4), 2
            )
