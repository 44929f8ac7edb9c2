"""The speed reference: fixed, stdlib-only work in a process of its own.

``run.py`` starts this script between the timed CLI calls and set-ups, the
same way it starts the CLI, and scales every reported time by how long it
took (see "Speed reference" in README.md).  It shares no code with starpart,
so a change to the program never changes it.  The work resembles a CLI call:
an interpreter start, the CLI's stdlib imports, and breadth-first searches
and exact fractions over a fixed random graph.  It prints one JSON line
whose value ``run.py`` checks.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import json
import random
from fractions import Fraction

N = 3000
rng = random.Random(7)
adj = [[] for _ in range(N)]
for _ in range(3 * N):
    u, v = rng.randrange(N), rng.randrange(N)
    adj[u].append(v)
    adj[v].append(u)
reached = 0
for s in range(6):
    dist = {s: 0}
    queue = [s]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    reached += len(dist)
total = sum(Fraction(len(adj[v]), 1 + v % 17) for v in range(N))
print(json.dumps({"reached": reached, "total": str(total)}))
