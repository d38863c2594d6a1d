"""The three workloads, as seeded passes of CLI invocations.

A pass is a list of operations. Each workload keeps the same heavy
invocations in every pass, so that pass lengths stay comparable across
seeds; the seed varies the invocation order, the orbit probes (--seed and
--random-probes) and the normal-form case and cutoff order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from expected import SURFACES, key_of

CUTOFFS = (8, 10, 12, 14)
SMALL_MAPS = ("map.case3.derived", "map.case3.printed", "map.case3.printed.reversed",
              "map.quadric.to.Bminus")
WITNESSES = ("witness.D.gt", "witness.D.lt", "witness.C.gt", "witness.C.lt")
SCANS = (("surface.table.1m", 5), ("surface.table.1p", 3), ("surface.table.3", 3),
         ("surface.table.2.sphere", 4), ("surface.quadric.half", 4))

WORKLOADS = ("tube-maps", "algebra-scan", "catalog-disk")

# Length of one pass in reference seconds, measured when the benchmark was
# defined. A run makes round(seconds / length) passes whatever the speed
# of the host or of tubes, so every run compares the same number of
# samples and the tail latency keeps its percentile.
PASS_SECONDS = {"tube-maps": 3.4, "algebra-scan": 4.3, "catalog-disk": 0.8}


def pass_count(workload: str, seconds: float, least: int) -> int:
    return max(least, round(seconds / PASS_SECONDS[workload]))


@dataclass(frozen=True)
class Op:
    """One `tubes` invocation, or the fixture-tree export when argv is empty."""
    argv: Tuple[str, ...]
    random_probes: int = 0

    @property
    def key(self) -> str:
        return key_of(list(self.argv)) if self.argv else "export"

    @property
    def subcommand(self) -> str:
        return self.key.split()[0]


def _tube_maps(rng: random.Random) -> List[Op]:
    # every pass runs each normal-form case at all four cutoffs, in a seeded
    # order: a seed-drawn subset would change the pass length with the seed
    ops = [("verify-map", "--id", "map.cm.D"), ("verify-map", "--id", "map.cm.C")]
    for case in ("D", "C"):
        ops += [("normal-form", "--case", case, "--cutoff", str(c)) for c in CUTOFFS]
        ops += [("isotropy", "--case", case), ("group", "--case", case)]
    return [Op(a) for a in ops]


def _algebra_scan(rng: random.Random) -> List[Op]:
    ops = []
    for sid in SURFACES:
        ops.append(Op(("symmetry", "--surface", sid)))
        n = rng.randint(0, 3)
        ops.append(Op(("orbits", "--surface", sid, "--random-probes", str(n)),
                      0 if "table.2." in sid else n))
    for case in ("D", "C"):
        ops += [Op(("table", "--case", case)), Op(("nilpotency", "--case", case))]
    ops += [Op(("scan", "--surface", sid, "--dim", str(k))) for sid, k in SCANS]
    return ops


def _catalog_disk(rng: random.Random) -> List[Op]:
    ops = [("classify",), ("lines",)]
    ops += [("witness", "--id", w) for w in WITNESSES]
    ops += [("verify-map", "--id", m) for m in SMALL_MAPS]
    ops.append(("normal-form", "--case", rng.choice("DC"), "--cutoff", "6"))
    return [Op(a) for a in ops]


def build_pass(workload: str, rng: random.Random) -> List[Op]:
    """The operations of one pass, shuffled by the seeded generator; every
    invocation gets --json and a drawn --seed, and a catalog-disk pass ends
    with the export."""
    ops = {"tube-maps": _tube_maps, "algebra-scan": _algebra_scan,
           "catalog-disk": _catalog_disk}[workload](rng)
    rng.shuffle(ops)
    ops = [Op(("--json", "--seed", str(rng.randrange(1 << 30))) + op.argv, op.random_probes)
           for op in ops]
    if workload == "catalog-disk":
        ops.append(Op(()))
    return ops
