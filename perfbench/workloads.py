"""Workload definitions: the CLI requests of one pass, the seeded lattice
files of ``classify-mix`` and ``classify-skewed`` and the answers every
request must give.

A request is the argument list after ``python -m shellbound``.  Its *key*
names the builtin request whose answer it must reproduce: the request
itself, or for a change-of-basis file the builtin lattice it was made from.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("leech-shell", "design-midsize", "verify-default", "classify-mix", "classify-skewed")

# Per-request time limit of each workload, in seconds.  A request that runs
# longer is killed and counts as failed.
REQUEST_TIMEOUT_S = {
    "leech-shell": 60.0,
    "design-midsize": 60.0,
    "verify-default": 90.0,
    "classify-mix": 15.0,
    "classify-skewed": 15.0,
}

# classify-mix re-presents each builtin lattice in a random signed
# permutation of its basis: the file path (parsing, validation, Gram
# construction) at unchanged conditioning.
#
# Skewed change-of-basis generator for classify-skewed.  Each file applies random
# elementary column operations (column j += c * column i, 1 <= |c| <= COB_CMAX)
# to a builtin Gram matrix until its largest entry reaches the file's target.
# One operation multiplies the largest entry by at most (1 + COB_CMAX)**2, so
# targets stepping evenly in log scale from COB_MIN_ENTRY to
# COB_MAX_ENTRY / (1 + COB_CMAX)**2 give largest entries that span
# COB_MIN_ENTRY to COB_MAX_ENTRY over the files of every pass.
COB_CMAX = 3
COB_MIN_ENTRY = 10**4
COB_MAX_ENTRY = 10**7


@dataclass(frozen=True)
class Request:
    args: Tuple[str, ...]
    key: str
    from_file: bool = False


def _classify(lattice: str, k: int) -> str:
    return f"classify --lattice {lattice} --k {k}"


# Basis-invariant answers (count, equality, case) of the classify requests.
CLASSIFY_ANSWERS: Dict[Tuple[str, int], Tuple[int, bool, str]] = {
    **{(f"zn:{n}", 1): (2 * n, True, "ZN") for n in range(2, 13)},
    ("e8", 2): (240, True, "E8"),
    ("scaledz:2", 8): (2, True, "RANK1"),
    ("scaledz:5", 5): (2, True, "RANK1"),
    ("scaledz:3", 6): (0, False, "NONE"),      # rank 1, count exclusion
    ("dn:4", 2): (24, False, "NONE"),          # count exclusion
    ("zn:8", 2): (112, False, "NONE"),         # count exclusion
    ("zn:3", 3): (8, False, "NONE"),           # norm-3 filter
    ("zn:5", 3): (80, False, "NONE"),          # norm-3 filter
    ("e8", 4): (2160, False, "NONE"),          # strength table
    ("dn:6", 4): (252, False, "NONE"),         # strength table
    ("zn:4", 4): (24, False, "NONE"),          # strength table
    ("zn:2", 5): (8, False, "NONE"),           # planar (circle) exclusion
}

# Known values that the answer to each builtin request must contain; keys are
# result fields of the JSON document.  These come from the mathematics, not
# from a run of the program.
KNOWN: Dict[str, Dict] = {
    "shell --lattice leech --k 4": {"count": 196560},
    "shell --lattice leech --k 4 --threads 1": {"count": 196560},
    "shell --lattice leech --k 4 --vectors": {"count": 196560},
    "design --lattice e8 --k 10": {"count": 30240},
    "spectrum --lattice dn:16 --k 4": {"count": 29152},
    "design --lattice zn:24 --k 3": {"count": 16192},
    "verify-paper": {"passed": 11, "failed": 0, "skipped": 1},
    "bound --n 24 --k 4": {"bound": 4071600},
    "bound --n 8 --k 2": {"bound": 240},
    "filter --k 2 --nmax 100": {"dimensions": [8]},
    "filter --k 3 --n 10": {"passes": False},
    "design --lattice e8 --k 2": {"count": 240, "strength": 7, "tight": True},
    "design --lattice zn:6 --k 1": {"count": 12, "strength": 3, "tight": True},
    "design --lattice dn:8 --k 2": {"count": 112},
    "spectrum --lattice e8 --k 2": {"count": 240},
    "spectrum --lattice dn:4 --k 2": {"count": 24},
    **{
        _classify(lat, k): {"count": c, "equality": eq, "case": case}
        for (lat, k), (c, eq, case) in CLASSIFY_ANSWERS.items()
    },
}

# classify-mix, builtin share: every classify case plus the other subcommands.
_MIX_BUILTIN = (
    [_classify(f"zn:{n}", 1) for n in range(2, 13)]
    + [_classify("e8", 2)] * 2
    + [_classify(lat, k) for lat, k in (
        ("scaledz:2", 8), ("scaledz:5", 5), ("scaledz:3", 6),
        ("dn:4", 2), ("zn:8", 2), ("zn:3", 3), ("zn:5", 3),
        ("e8", 4), ("dn:6", 4), ("zn:2", 5),
    )]
    + [
        "bound --n 24 --k 4", "bound --n 8 --k 2",
        "filter --k 2 --nmax 100", "filter --k 3 --n 10",
        "design --lattice e8 --k 2", "design --lattice zn:6 --k 1", "design --lattice dn:8 --k 2",
        "spectrum --lattice e8 --k 2", "spectrum --lattice dn:4 --k 2",
    ]
)

# File share of classify-mix, and all of classify-skewed: the same classify
# requests on lattice files.  The norm-4 rank-8 request is left out: in a
# skewed basis its enumeration alone takes longer than the whole builtin
# share of classify-mix.
_MIX_FILES: List[Tuple[str, int]] = [
    ("zn:2", 1), ("zn:3", 1), ("zn:4", 1), ("zn:6", 1), ("zn:9", 1), ("zn:12", 1),
    ("e8", 2), ("e8", 2),
    ("scaledz:2", 8),
    ("dn:4", 2), ("zn:8", 2),
    ("zn:3", 3), ("zn:5", 3),
    ("dn:6", 4), ("zn:4", 4),
    ("zn:2", 5),
]

_FIXED = {
    "leech-shell": [
        "shell --lattice leech --k 4",
        "shell --lattice leech --k 4 --threads 1",
        "shell --lattice leech --k 4 --vectors",
    ],
    "design-midsize": [
        "design --lattice e8 --k 10",
        "spectrum --lattice dn:16 --k 4",
        "design --lattice zn:24 --k 3",
    ],
    "verify-default": ["verify-paper"],
}


def reference_keys() -> List[str]:
    """Every builtin request of every workload, each once, in a fixed order."""
    keys = [k for w in ("leech-shell", "design-midsize", "verify-default") for k in _FIXED[w]]
    mix = _MIX_BUILTIN + [_classify(lattice, k) for lattice, k in _MIX_FILES]
    return keys + list(dict.fromkeys(mix))


def builtin_gram(name: str) -> List[List[int]]:
    """Gram matrix of a builtin lattice, read from the package under test."""
    from shellbound import builtin

    return [list(row) for row in builtin(name).gram]


def change_of_basis(gram: List[List[int]], target: float, rng: random.Random) -> List[List[int]]:
    """B^T G B for a random unimodular B whose largest entry reaches target."""
    G = [list(row) for row in gram]
    n = len(G)
    if n == 1:
        return G  # the only changes of basis are +-1
    coeffs = [s * c for c in range(1, COB_CMAX + 1) for s in (1, -1)]
    while max(abs(x) for row in G for x in row) < target:
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        H = [list(row) for row in G]
        for row in H:
            row[j] += c * row[i]
        for t in range(n):
            H[j][t] += c * H[i][t]
        G = H
    return G


def permute_basis(gram: List[List[int]], rng: random.Random) -> List[List[int]]:
    """P^T G P for a random signed permutation matrix P."""
    n = len(gram)
    order = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * gram[order[i]][order[j]] for j in range(n)] for i in range(n)]


def write_mix_files(workload: str, seed: int, directory: Path) -> List[Path]:
    """Write the lattice files of classify-mix (signed permutations) or of
    classify-skewed (skewed changes of basis) for a seed."""
    rng = random.Random(f"{workload}/files/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    lo = math.log10(COB_MIN_ENTRY)
    hi = math.log10(COB_MAX_ENTRY / (1 + COB_CMAX) ** 2)
    steps = len(_MIX_FILES) - 1
    paths = []
    for idx, (lattice, _k) in enumerate(_MIX_FILES):
        if workload == "classify-skewed":
            target = 10 ** (lo + (hi - lo) * idx / steps)
            G = change_of_basis(builtin_gram(lattice), target, rng)
        else:
            G = permute_basis(builtin_gram(lattice), rng)
        path = directory / f"cob{idx:02d}.json"
        path.write_text(json.dumps({"dim": len(G), "gram": G, "name": f"cob-{lattice}"}) + "\n")
        paths.append(path)
    return paths


def build(workload: str, seed: int, directory: Path, root: Path) -> List[Request]:
    """The requests of one pass, in the order the seed gives them.  Lattice
    files go to directory; requests name them relative to root, the
    directory the requests run in."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in _FIXED:
        requests = [Request(tuple(a.split()), a) for a in _FIXED[workload]]
    elif workload in ("classify-mix", "classify-skewed"):
        requests = [Request(tuple(a.split()), a) for a in _MIX_BUILTIN] if workload == "classify-mix" else []
        for path, (lattice, k) in zip(write_mix_files(workload, seed, directory), _MIX_FILES):
            requests.append(Request(
                ("classify", "--lattice", f"@{path.relative_to(root)}", "--k", str(k)),
                _classify(lattice, k),
                from_file=True,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests
