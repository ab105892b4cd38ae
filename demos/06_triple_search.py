"""Exhaustively search every unordered triple of hyperplanes of P^4(F_4)
for the largest union-intersection with the variety, then read the pencil
stratum at q=3, 4 and 7, where the full triple space is out of reach, from
its three unitary orbits.
"""

from hermvar import exhaustive_triples
from hermvar.search import pencil_triples_scan

rep = exhaustive_triples(4, 2)
print(f"(4,2): {rep.total_triples:,} triples in {rep.wall_time_s:.1f}s")
print(f"  global max {rep.global_max} vs formula max {rep.max_formula_value} "
      f"(reached: {rep.reaches_formula_max})")
print(f"  {rep.argmax_total} maximizing triples, structure {rep.argmax_structure}")
print(f"  histogram tail: {sorted(rep.histogram.items())[-5:]}")
print(f"  {rep.samples_verified} sampled triples verified against enumeration")

for q in (3, 4, 7):
    print()
    scan = pencil_triples_scan(4, q)
    assert sum(scan.tangent_members_by_section.values()) == scan.pencils
    print(f"(4,{q}): census of all {scan.pencils:,} pencils")
    print(f"  best pencil triple {scan.best_count:,} "
          f"(formula max: {scan.best_is_formula_max})")
    print(f"  best structures: {scan.best_structures}")
    print(f"  pencil tangency profiles: {scan.tangent_members_by_section}")
