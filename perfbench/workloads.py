"""The benchmark's workloads: fixed parameter sets for `diffsets construct`.

Each instance is (family, flags).  The seed only permutes the order in which
a multi-instance workload runs them; the parameters themselves never change,
so every output can be checked against the stored references.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Instance = Tuple[str, Tuple[Tuple[str, int], ...]]

WORKLOADS: Dict[str, List[Instance]] = {
    # PDS(4096,270,14,18): exhaustive O(n^2) automorphism certification and
    # the dense n = 4096 SRG matmul dominate.
    "pds-4096": [
        ("denniston-even", (("m", 4), ("r", 1))),
    ],
    # Orders 19683 and 19894, above both exhaustive thresholds: closure BFS,
    # quotient recounts, fingerprint and parse dominate.
    "group-20k": [
        ("denniston-odd", (("p", 3), ("t", 1))),
        ("mcfarland-odd", (("q", 7), ("s", 2))),
    ],
    # Many small calls in one interpreter (shared table caches), orders <= 729.
    "corpus-small": [
        ("pgroup", (("p", 3), ("n", 3))),
        ("dillon", ()),
        ("spence", (("d", 1),)),
        ("denniston-even", (("m", 3), ("r", 1))),
        ("denniston-gr4", (("t", 3), ("k", 3))),
        ("mcfarland-even", (("d", 3), ("variant", 3))),
        ("mcfarland-odd", (("q", 3), ("s", 2))),
        ("rds-transfer", (("d", 1), ("variant", 2))),
    ],
}


def label(inst: Instance) -> str:
    """File prefix and reference key of an instance, e.g. denniston_even_m4_r1."""
    family, flags = inst
    return "_".join([family.replace("-", "_")] + [f"{k}{v}" for k, v in flags])


def construct_argv(inst: Instance) -> List[str]:
    family, flags = inst
    argv = ["construct", family]
    for key, val in flags:
        argv += [f"--{key}", str(val)]
    return argv + ["--out", label(inst)]


def ordered(workload: str, seed: int) -> List[Instance]:
    """The workload's instances in the order the seed picks."""
    insts = list(WORKLOADS[workload])
    random.Random(seed).shuffle(insts)
    return insts
