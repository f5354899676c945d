"""A fixed reference task that gauges how fast the host runs right now.

``run.py`` runs this script in a fresh process before every ``musearch
run`` call and scales the call times by it (see ``README.md``). It
shares no code with ``musearch`` and does the same kind of work, about
half a second of it on the host the benchmark was tuned on: interpreter
start and numpy import, text parsing in Python, packed bit arithmetic,
and a Python loop over small numpy operations. It prints a checksum,
which ``run.py`` checks.
"""

import numpy as np

rng = np.random.Generator(np.random.PCG64(12345))
ones = rng.random((1000, 1000)) < 0.2
text = ",".join("1.0" if x else "0.0" for x in ones[:300].ravel().tolist())
values = np.array([float(x) for x in text.split(",")])
packed = np.packbits(ones, axis=1)
hits = 0
for i in range(300):
    row = packed[i]
    for j in range(0, 1000, 7):
        hits += int(np.bitwise_and(row, packed[j]).any())
print(hits, int(values.sum()))
