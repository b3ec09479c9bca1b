"""Search budgets and shared effort constants.

Every potentially expensive search in the package is driven by a SearchBudget.
The same budget always produces the same answer, so results are reproducible
bit for bit; raising a budget can only upgrade an Unknown verdict, never flip
a proven one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 0xC0DE

# Column-subset cap for the exact MDS check; min(C(n,k), C(n,n-k)) must stay
# at or below this for the rank sweep to run.
MDS_SUBSET_CAP = 10**7

# Supports probed per weight level on the dense (w > n-k) route before the
# level degrades to Unknown.
DENSE_SUPPORT_CAP = 50_000

# Kernel cosets enumerated exhaustively per support; above this the probe
# falls back to sampled candidates and loses exhaustiveness.
SUBSCAN_EXACT_CAP = 4096
SUBSCAN_SAMPLES = 512

# Fixed chunk sizes.  These are tuning constants only: results never depend
# on them.
ENUM_CHUNK = 4096
SAMPLE_CHUNK = 4096
RANK_CHUNK = 16384


@dataclass(frozen=True)
class SearchBudget:
    """Ceilings for the weight-search strategy ladder.

    enum: projective (or coset) classes an exhaustive enumeration may visit.
    support: per-level gate for support scans, compared against
        C(n, w) * min(k, n-k)**3.
    samples: random messages drawn by the sampling fallback.
    seed: PRNG seed for every sampled stream.
    """

    enum: int = 10**6
    support: int = 10**10
    samples: int = 10**6
    seed: int = DEFAULT_SEED

    def with_seed(self, seed: int) -> "SearchBudget":
        return replace(self, seed=seed)

    def lightened(self, enum=None, support=None, samples=None) -> "SearchBudget":
        """A copy with some ceilings lowered (never raised)."""
        return SearchBudget(
            enum=min(self.enum, enum) if enum else self.enum,
            support=min(self.support, support) if support else self.support,
            samples=min(self.samples, samples) if samples else self.samples,
            seed=self.seed,
        )


DEFAULT_BUDGET = SearchBudget()
