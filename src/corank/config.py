"""Run configuration shared by search and decision procedures."""

import hashlib
import json
from dataclasses import dataclass, asdict

from .polyring import is_prime


@dataclass(frozen=True)
class RunConfig:
    box_radius: int = 2            # evaluation-point search box {-r..r}^n
    primes: tuple = (2, 3, 5, 7, 11, 13)
    spair_cap: int = 50000
    degree_cap: int = 30
    zf_exact_max_n: int = 12       # exact zero-forcing search tier
    modp_point_budget: int = 20000  # points tried per prime in mod-p searches
    box_point_budget: int = 200_000   # explicit variety box searches
    gamma_box_budget: int = 20_000    # upper-bound scan inside gamma

    def __post_init__(self):
        for name, least in (("box_radius", 0), ("spair_cap", 1), ("degree_cap", 1),
                            ("zf_exact_max_n", 0), ("modp_point_budget", 0),
                            ("box_point_budget", 0), ("gamma_box_budget", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        if not all(is_prime(p) for p in self.primes):
            raise ValueError(f"primes must be at least 2 and prime, got {list(self.primes)}")
        # every cache key carries it: hashed once, not per decision
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        object.__setattr__(self, "_budget_hash", hashlib.sha256(blob.encode()).hexdigest()[:16])

    def budget_hash(self):
        return self._budget_hash

    def as_dict(self):
        d = asdict(self)
        d["primes"] = list(self.primes)
        return d


DEFAULT_CONFIG = RunConfig()
