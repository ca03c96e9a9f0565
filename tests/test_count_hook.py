"""The counting hook that outside tracers rely on.

bench/spans.py times counting by rebinding occur_partitioned wherever a
streamseq module holds it, mining and incremental among them.  These
tests rebind it the same way and check that mine() and ius_update()
route every count through it: one call per counted candidate, and one
per rescan per side.  A refactor that counted around the hook would
leave the traced occurrence figures silently at 0.
"""

import random
from fractions import Fraction

import pytest

from streamseq import (
    CostCounter,
    CountParams,
    MiningParams,
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


def test_mine_calls_the_hook_once_per_candidate(calls):
    q = _queue()
    blocks = [window(q, 0, 50), window(q, 50, 30)]
    cost = CostCounter()
    result = mine(blocks, PARAMS, cost)
    singles = {(label,) for b in blocks for label in b.alphabet()}
    expected = _candidates(singles, result)
    assert len(expected) > len(singles)  # the search went past level 1
    assert [seq for seq, _ in calls] == expected
    assert all(list(b) == blocks for _, b in calls)
    # every (candidate, block) scan is charged, memo hit or not
    assert cost.scans == 2 * len(calls)


def test_ius_update_calls_the_hook_once_per_rescan_per_side(calls):
    q = _queue()
    old_blocks, delta_blocks = [window(q, 0, 60)], [window(q, 60, 20)]
    old = mine(old_blocks, PARAMS)
    delta = mine(delta_blocks, PARAMS)
    inp = UpdateInput(q, old, delta)
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
