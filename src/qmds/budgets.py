"""Search budgets and shared effort constants.

Every potentially expensive search in the package is driven by a SearchBudget.
The same budget always produces the same answer, so results are reproducible
bit for bit; raising a budget can only upgrade an Unknown verdict, never flip
a proven one.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# missing weight, and draws no more chunks once no weight is missing.
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
# Prefix-tree leaves built per step of the walk behind the MDS check and the
# support scans, and so per batch_rank cross-check of a scan.  With the walk
# pruned two levels above its leaves, the w = 8 scan of `qmds 5 4` peaks at
# 4.5 MB traced at 16384 and 2.3 MB at this size, and takes 30 ms instead of
# 16 ms on one core; the w = 7 scan peaks at 1.6 and 1.3 MB, in the same
# time.  The MDS check of `mds 64 5` peaks at 1.5 MB at 16384, 1.1 MB here.
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
    """

    enum: int = 10**6
    support: int = 10**10
    samples: int = 10**6
    seed: int = DEFAULT_SEED


DEFAULT_BUDGET = SearchBudget()
