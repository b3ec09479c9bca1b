"""Search budgets and shared effort constants.

Every potentially expensive search in the package is driven by a SearchBudget.
The same budget always produces the same answer, so results are reproducible
bit for bit; raising a budget can only upgrade an Unknown verdict, never flip
a proven one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadBudget

DEFAULT_SEED = 0xC0DE

# Column-subset cap for the exact MDS check; min(C(n,k), C(n,n-k)) must stay
# at or below this for the subset check to run.
MDS_SUBSET_CAP = 10**7

# Supports probed per weight level on the dense (w > n-k) route before the
# level degrades to Unknown.
DENSE_SUPPORT_CAP = 50_000

# Kernel cosets enumerated exhaustively per support; above this the probe
# falls back to sampled candidates and loses exhaustiveness.
SUBSCAN_EXACT_CAP = 4096
SUBSCAN_SAMPLES = 512

# Fixed chunk sizes.  ENUM_CHUNK, ENUM_LOW, ENUM_BYTES, ENUM_PRODUCT_Q and
# SCAN_CHUNK are tuning constants only: results never depend on them.
# SAMPLE_CHUNK is not: the sampler draws its Philox stream one chunk at a
# time, and one draw of 8192 messages yields other words than two draws of
# 4096 (kernels.PhiloxStream reads each chunk's bytes off the raw Philox
# words and drops the rest of the 32-bit word its last byte came from), so
# SAMPLE_CHUNK fixes which words every sampling pass sees.  A pass encodes
# only the messages of a chunk whose unit-column weight can still reach a
# weight neither found nor proven absent, and draws no more chunks once no
# such weight is left.  Where WordSearch.decide runs the level scans first
# and they settle every weight, the pass draws no chunk at all, and
# SAMPLE_CHUNK fixes no witness there.
ENUM_CHUNK = 4096
# Enumeration counts weights block by block: ENUM_CHUNK high words are
# encoded at a time (a support probe's words are such high blocks, with no
# low words), each lead row has at most ENUM_LOW low words, and one
# count takes as many high words as keep its largest array within
# ENUM_BYTES.  A low block of 4096 doubles the traced memory peak of the
# `qmds 5 5` enumeration (1.7 -> 3.4 MB) and makes it slower.  Over fields
# up to ENUM_PRODUCT_Q a count is one float32 product of one-hot matrices,
# q*n multiply-adds a pair, whose low side takes at most 16 KB per
# coordinate; above it, n byte comparisons a pair.  On one core the product
# is 10-35% faster than the comparisons on the P(C) of `qmds 5 5` and of
# (4,3) and on the (7,4) and (8,4) duals; the comparisons are faster from
# GF(9) on: 1.6 times at q = 9, 4 at q = 32, 90 over GF(256).
ENUM_LOW = 1024
ENUM_BYTES = 2**17
ENUM_PRODUCT_Q = 8
SAMPLE_CHUNK = 4096
# Prefix-tree nodes built per step of the walk behind the MDS check and the
# support scans, at most.  At every depth the chunks start at
# SCAN_CHUNK // 64 and double up to this size over one walk, so a scan
# whose witness comes early builds few nodes.  On one core of a 2-core
# x86-64 VM, the w = 8 scan of `qmds 5 4`, whose witness is its 136th
# support, peaks at 0.11 MB traced and takes 1.6-2.9 ms at this size,
# against 0.37 MB and 2.4-4.3 ms at 16384; the complete w = 7 scan peaks at
# 0.74 MB in about 13 ms here, and at 0.92 MB in about 11 ms at 16384,
# where it builds fewer chunks.  The full walk of the parity matrix of
# `mds 64 5` peaks at 0.88 MB here and 1.45 MB at 16384, in about 6.5 ms.
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Ceilings for the weight-search routes.  Only linalg.WordSearch
    compares them with a cost, so it alone decides which route runs.

    enum: projective (or coset) classes an exhaustive enumeration may visit,
        compared against their count by WordSearch.enumerable.
    support: per-level gate of WordSearch.scan, compared against
        C(n, w) * max(min(k, n-k), 1)**3.
    samples: random messages drawn by the sampling route.
    seed: PRNG seed for every sampled stream.

    A negative ceiling raises BadBudget.
    """

    enum: int = 10**6
    support: int = 10**10
    samples: int = 10**6
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("enum", "support", "samples"):
            value = getattr(self, name)
            if value < 0:
                raise BadBudget(f"budget {name} must be at least 0, got {value}")


DEFAULT_BUDGET = SearchBudget()
