"""Counting linear extensions and drawing exact uniform samples.

Walks through the core objects: build a poset from cover relations,
count its linear extensions through the downset lattice, read off the
exact position laws, and sample extensions uniformly.
"""

from collections import Counter

from linext import (
    BudgetExceeded,
    Poset,
    antichain,
    build_lattice,
    count_extensions,
    position_distribution,
    sample_extensions,
)

# An N-shaped poset on four elements: a < c, b < c, b < d.
p = Poset.from_covers("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
print("poset:", p.labels, "with", count_extensions(p), "linear extensions")

# The lattice object keeps everything computed in one sweep.
lat = build_lattice(p)
print("ideals in the lattice:", lat.node_count)
for x in p.labels:
    dist = position_distribution(p, x)
    print(f"  f({x}) law {[str(q) for q in dist.probs]}  mean {dist.mean}")

# Exact uniform sampling: every extension appears with probability 1/|E|.
draws = sample_extensions(p, 5000, seed=11)
freq = Counter(draws)
print("distinct orders seen:", len(freq), "of", count_extensions(p))
for order, hits in sorted(freq.items()):
    print("  ", "".join(order), hits)

# Exploding lattices are caught by the node budget rather than by the OOM
# killer.  The budget counts the nodes built: a 12-element antichain splits
# into 12 one-element parts of 2 ideals each, so it costs only 24 nodes.
# Put one element under all twelve and the poset is connected, with
# 2^12 + 1 downsets; cap it below that.
print("antichain of 12:", count_extensions(antichain(12), budget=1000), "extensions")
tips = [f"t{i}" for i in range(12)]
fan = Poset.from_covers(["root"] + tips, [("root", t) for t in tips])
try:
    count_extensions(fan, budget=1000)
except BudgetExceeded as exc:
    print("budget refused the fan:", exc)
