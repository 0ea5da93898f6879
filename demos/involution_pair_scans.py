"""
Which involution class pairs only ever generate 2-groups?
=========================================================

Fix c in one class, range d' over a second class, and ask whether every
closure <c, d'> has 2-power order.  For two involutions that is the same
as asking that every product c*d' has 2-power order, which is why the
class-pair sweeps below are cheap.
"""

from bfl import ScanPlan, construct, enumerate_classes
from bfl.verify import (bf_pair_direct, reflections_o3_scan, sl2n3_scan,
                        symmetric_bf_scan)

# S6: three involution classes, six unordered pairs, exactly one survivor --
# the fixed-point-free class against the transpositions
v = symmetric_bf_scan(6)
print(v.display_status, v.scenario, v.counters)
for note in v.notes:
    print("  ", note)

# the same sweep at degree 8 stays exhaustive and finds the same survivor
v = symmetric_bf_scan(8)
print()
print(v.display_status, v.scenario, v.counters)

# a single pair, run directly: witnesses carry the conjugate and the
# closure order whenever something other than a 2-group shows up
G = construct("sym:6")
classes = enumerate_classes(G)
transp = next(c for c in classes if c.label == "2a")
fpf = next(c for c in classes if c.label == "2b")
squares = next(c for c in classes if c.label == "2c")
v = bf_pair_direct(G, fpf, squares, 2, ScanPlan.exhaustive())
print()
print(v.display_status, v.scenario, v.counters)
if v.witnesses:
    print("   sample witness:", v.witnesses[0])

# 3x3 orthogonal groups over GF(q): the two reflection classes pair up
# only over GF(3); over bigger fields a replayable witness appears
print()
for q in (3, 5, 7, 9):
    v = reflections_o3_scan(q)
    print(v.display_status, v.scenario, v.counters)

# in GL4(3) the full d-class is out of reach, so the scan samples 1000
# seeded conjugates; same seed, same verdict, every run
print()
v = sl2n3_scan(ScanPlan.sample(1000, 0xBF))
print(v.display_status, v.scenario, v.counters)
for note in v.notes:
    print("  ", note)
