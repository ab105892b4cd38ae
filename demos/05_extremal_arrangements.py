"""Build the extremal configurations: three hyperplanes through a common
codimension-2 space with non-degenerate section, all tangent in odd
dimension and all non-tangent in even dimension.

Every pencil over a non-degenerate axis has q+1 tangent and q^2-q
non-tangent members, so the builder takes the first such pencil through
the first canonical hyperplane and its first three members of the wanted
kind.  The even case at q=2 is special: that pencil, like every other,
has only q^2-q = 2 non-tangent members, so the configuration cannot exist
there and the builder reports the count instead of relaxing.
"""

from hermvar import (
    InsufficientPencilMembers,
    all_tangent_pencil_value,
    build_extremal,
    intersect_count_arrangement,
    make_field,
    max_cubic_intersection,
    standard_form,
)

for n, q in [(5, 2), (4, 3), (4, 7), (5, 3)]:
    ctx = make_field(q)
    f = standard_form(n, ctx)
    arr = build_extremal(f)
    rep = intersect_count_arrangement(arr, f)
    want = max_cubic_intersection(n, q)
    print(f"(n={n}, q={q}): built count {rep.count:,}  formula {want:,}  "
          f"tangency {set(arr.tangency)}  section {arr.pi_section.label}")
    assert rep.count == want

print()
print("even n also has an all-tangent pencil value, always strictly below:")
for q in (2, 3, 7):
    print(f"  n=4 q={q}: all-tangent {all_tangent_pencil_value(4, q):,} "
          f"< maximum {max_cubic_intersection(4, q):,}")

print()
print("the even case at q=2:")
ctx = make_field(2)
try:
    build_extremal(standard_form(4, ctx))
except InsufficientPencilMembers as e:
    print(f"  (n=4, q=2): {e}")
