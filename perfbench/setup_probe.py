"""Time the per-process set-up in a fresh interpreter: import hermvar, build
the field tables and the point array for (N, Q).  Prints the seconds.
``run.py`` starts it with the bytecode cache under ``perfbench/out/pycache``
and warms that cache with one untimed probe first, so the import always
loads compiled bytecode, whatever ``src/`` caches other tools left.

    python3 perfbench/setup_probe.py N Q
"""

import sys
import time

n, q = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
import hermvar  # noqa: E402  (the import is part of the set-up)
from hermvar import field, projgeom  # noqa: E402

projgeom.point_array(n, field.make_field(q))
elapsed = time.perf_counter() - t0
print(repr(elapsed))
print(hermvar.__file__)
