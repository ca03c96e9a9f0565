"""
Growing a mined window without re-mining it
===========================================

When new tuples arrive, the naive move is to re-mine the whole composed
window.  The incremental updater instead mines only the increment and
merges the two pattern sets, rescanning just the sequences whose count
on the other side is not already stored.  Occurrence counting is
additive across a window partition, so the merged frequent section is
exactly what full re-mining would produce - same sequences, same counts.

Costs here are deterministic counting units (sub-window evaluations),
not wall clock, so the comparison is exactly reproducible.
"""

from streamseq import (
    CostCounter,
    CountParams,
    GenConfig,
    MiningParams,
    Sequence,
    UpdateInput,
    generate,
    ius_update,
    mine,
    speedup,
    window,
)

cfg = GenConfig(
    n_types=12,
    n_events=4500,
    seed=11,
    embedded=(
        (Sequence.of("E001", "E002"), 70.0),
        (Sequence.of("E003", "E004"), 40.0),
        (Sequence.of("E005",), 120.0),
    ),
)
q = generate(cfg)
params = MiningParams("0.05", "0.02", CountParams(span=3), max_len=3)

w0 = window(q, 0, 2500)
dw = window(q, 2500, 500)

# the update path: mine the increment, merge, rescan only what's missing
old = mine([w0], params)
part = mine([dw], params)
ius_cost = CostCounter()
upd = ius_update(UpdateInput(old, [w0], part, [dw]), cost=ius_cost)

# the naive path: one full pass over both blocks
full_cost = CostCounter()
full = mine([w0, dw], params, cost=full_cost)

assert upd.frequent == full.frequent
blocks = ", ".join(f"{start}:{end}" for start, end in upd.blocks)
print(f"composed window: {upd.window_size} tuples in blocks {blocks}")
print(f"frequent sections agree on all {len(full.frequent)} sequences, "
      f"counts included")

print(f"\nfull re-mine : {full_cost.window_evaluations:7d} evaluations "
      f"in {full_cost.scans} scans")
print(f"update       : {ius_cost.window_evaluations:7d} evaluations "
      f"in {ius_cost.scans} scans")
print(f"speedup      : {speedup(full_cost.window_evaluations, ius_cost.window_evaluations):.1f}x")

# the increment's own mining cost is the price of admission either way;
# the update's extra work is only the targeted rescans above
