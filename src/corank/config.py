"""Run configuration: the three budgets a command sets are its fields, and
the five fixed ones class attributes.  Reports and cache keys name all eight.
Work caps that no measured input reaches are plain module constants, so
that reports and cache keys stay as they are."""

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class RunConfig:
    box_radius: int = 2            # evaluation-point search box {-r..r}^n
    primes: ClassVar[tuple] = (2, 3, 5, 7, 11, 13)  # mod-p searches over Z
    spair_cap: int = 50000
    degree_cap: int = 30
    zf_exact_max_n: ClassVar[int] = 12       # exact zero-forcing search tier
    modp_point_budget: ClassVar[int] = 20000  # points tried per prime in mod-p searches
    box_point_budget: ClassVar[int] = 200_000   # explicit variety box searches
    gamma_box_budget: ClassVar[int] = 20_000    # upper-bound scan inside gamma

    def __post_init__(self):
        for name, least in (("box_radius", 0), ("spair_cap", 1), ("degree_cap", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        # every cache key carries it: hashed once, not per decision
        blob = json.dumps(self.as_dict(), sort_keys=True)
        object.__setattr__(self, "_budget_hash", hashlib.sha256(blob.encode()).hexdigest()[:16])

    def budget_hash(self):
        return self._budget_hash

    def as_dict(self):
        """All eight budgets by name, the settable and the fixed."""
        d = {name: getattr(self, name) for name in RunConfig.__annotations__}
        d["primes"] = list(self.primes)
        return d


DEFAULT_CONFIG = RunConfig()

# trial divisions polyring._factor_desk_scale makes before it stops
FACTOR_DIVISION_CAP = 1_000_000
