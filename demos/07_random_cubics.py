"""Seeded random-cubic sampling against the cubic-split threshold.

Cubics divisible by a linear form are detected exactly (probe-plane
restriction plus candidate lifting) and discarded; the others are evaluated
on the points of the Hermitian variety only.  At q >= 7 any retained
cubic exceeding the threshold would be a counterexample candidate and is
emitted with its full monomial table; at q = 2 the distribution is simply
reported.  Rerunning with the same seed reproduces the histogram bit for
bit.
"""

from hermvar import random_cubic_sample

rep = random_cubic_sample(4, 2, trials=200, seed=7)
print(f"(4,2), 200 trials, seed 7: retained {rep.retained}, "
      f"discarded {len(rep.discarded_divisible)} divisible")
print(f"  threshold {rep.threshold}, max count seen {rep.max_count}")
print(f"  histogram: {dict(sorted(rep.histogram.items()))}")
print(f"  threshold asserted (q >= 7 regime): {rep.threshold_asserted}")

again = random_cubic_sample(4, 2, trials=200, seed=7)
print(f"  rerun identical: {again.histogram == rep.histogram}")

# the q=7 run matching the verification suite takes a few seconds in one
# process (about 2 s on a 2-CPU machine), all 200 cubics evaluated together:
#   random_cubic_sample(4, 7, trials=200, seed=20260811)
# or from the command line:
#   hermvar search --q 7 --n 4 --mode random --trials 200 --seed 20260811
