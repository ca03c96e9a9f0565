"""The counting hooks that outside tracers rely on.

bench/spans.py times counting by rebinding occur_partitioned wherever a
streamseq module holds it, mining and incremental among them.  These
tests rebind it the same way and check that mine() and ius_update()
route every count through it: one call per counted candidate, and one
per rescan per side.  A refactor that counted around the hook would
leave the traced occurrence figures silently at 0.  The same holds for
the two other hooks it rebinds: PatternSet.stored_count, whose answers
are the traced lookup hits, and mining.gen_candidates, the traced join.
"""

import random
from fractions import Fraction

import pytest

from streamseq import (
    CostCounter,
    CountParams,
    MiningParams,
    PatternSet,
    StreamQueue,
    UpdateInput,
    ius_update,
    mine,
    window,
)
from streamseq import incremental, mining, occurrence
from streamseq.mining import gen_candidates
from conftest import random_queue

PARAMS = MiningParams(Fraction(1, 5), Fraction(1, 10), CountParams(2), max_len=3)


@pytest.fixture
def calls(monkeypatch):
    """The (seq, blocks) of every call the rebound counter sees."""
    seen = []
    real = occurrence.occur_partitioned

    def traced(seq, blocks, params, cost=None):
        seen.append((seq, blocks))
        return real(seq, blocks, params, cost)

    for module in (mining, incremental):
        assert module.occur_partitioned is real
        monkeypatch.setattr(module, "occur_partitioned", traced)
    return seen


def _candidates(singles, result):
    """Every candidate the level-wise search counts, in its order: level 1
    is `singles`, level m the join of the frequent sequences of length m-1."""
    out, level, m = [], sorted(singles), 1
    while level:
        out += level
        frequent = [s for s in level if s in result.frequent]
        m += 1
        level = gen_candidates(frequent) if frequent and m <= PARAMS.max_len else []
    return out


def _queue():
    return random_queue(random.Random(12), 80, ["a", "b", "c", "d"])


def _blocks():
    q = _queue()
    return [window(q, 0, 50), window(q, 50, 30)]


def _blocks_with_a_label_only_in_the_second():
    # "e" is in the second block alone, so the first block's alphabet is
    # not the union of the two
    q = _queue()
    rows = list(zip(q.times, q))
    rows[60:70] = [(t, labels | {"e"}) for t, labels in rows[60:70]]
    q = StreamQueue(rows)
    blocks = [window(q, 0, 50), window(q, 50, 30)]
    assert "e" not in blocks[0].alphabet() and "e" in blocks[1].alphabet()
    return blocks


@pytest.mark.parametrize("make_blocks", [_blocks, _blocks_with_a_label_only_in_the_second])
def test_mine_calls_the_hook_once_per_candidate(calls, make_blocks):
    blocks = make_blocks()
    cost = CostCounter()
    result = mine(blocks, PARAMS, cost)
    singles = {(label,) for b in blocks for label in b.alphabet()}
    expected = _candidates(singles, result)
    assert len(expected) > len(singles)  # the search went past level 1
    assert [seq for seq, _ in calls] == expected
    assert all(list(b) == blocks for _, b in calls)
    # every (candidate, block) scan is charged, memo hit or not
    assert cost.scans == 2 * len(calls)


def _update_input():
    q = _queue()
    old = mine([window(q, 0, 60)], PARAMS)
    delta = mine([window(q, 60, 20)], PARAMS)
    return UpdateInput(old, [window(q, 0, 60)], delta, [window(q, 60, 20)])


def test_ius_update_calls_the_hook_once_per_rescan_per_side(calls):
    inp = _update_input()
    old, delta = inp.old, inp.delta
    calls.clear()
    cost = CostCounter()
    result = ius_update(inp, cost)
    singles = {s for ps in (old, delta) for s in (*ps.frequent, *ps.border)
               if len(s) == 1}
    expected = _candidates(singles, result)
    for ps, blocks in ((old, inp.old_blocks), (delta, inp.delta_blocks)):
        rescans = [s for s in expected if ps.stored_count(s) is None]
        assert rescans  # each side rescans something
        assert [seq for seq, b in calls if b is blocks] == rescans
    assert all(b is inp.old_blocks or b is inp.delta_blocks for _, b in calls)
    assert cost.scans == len(calls)


def test_ius_update_asks_stored_count_once_per_side_per_candidate(monkeypatch):
    inp = _update_input()
    asked = []
    real = PatternSet.stored_count

    def traced(ps, seq):
        answer = real(ps, seq)
        asked.append((ps, seq, answer))
        return answer

    monkeypatch.setattr(PatternSet, "stored_count", traced)
    result = ius_update(inp)
    singles = {s for ps in (inp.old, inp.delta) for s in (*ps.frequent, *ps.border)
               if len(s) == 1}
    expected = _candidates(singles, result)
    assert [(ps, seq) for ps, seq, _ in asked] == [
        (ps, seq) for seq in expected for ps in (inp.old, inp.delta)
    ]
    # each answer is the side's stored count, None where it has none
    answers = [c for _, _, c in asked]
    assert answers == [ps.frequent.get(seq, ps.border.get(seq)) for ps, seq, _ in asked]
    assert any(c is not None for c in answers)  # some counts are reused


def test_the_search_joins_each_level_through_the_module_attribute(monkeypatch):
    joined = []
    real = mining.gen_candidates

    def traced(level):
        joined.append(list(level))
        return real(level)

    monkeypatch.setattr(mining, "gen_candidates", traced)
    blocks, inp = _blocks(), _update_input()
    for run in (lambda: mine(blocks, PARAMS), lambda: ius_update(inp)):
        joined.clear()
        result = run()
        # the frequent level of each length that is joined into a longer one
        levels = [sorted(s for s in result.frequent if len(s) == m)
                  for m in range(1, PARAMS.max_len)]
        assert all(levels)  # the search joined every level up to max_len
        assert joined == levels
