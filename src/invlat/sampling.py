"""Seeded random congruence systems for property sweeps.

One documented generator so every sweep is reproducible from its seed
alone, across platforms: random.Random(seed), then per system

    m ~ uniform over m_choices,
    n ~ uniform over [max(3, m + 1), n_max], redrawn until prime
        when prime_only is set (a range with no prime raises ValueError),
    coefficients = rng.sample(range(1, n), m),

giving a single-row system with distinct nonzero coefficients mod n (so
no coordinate is trivial and no two coincide).  `scan --family random`
draws each (p, m) cell from its own random.Random(seed * 1000003 +
p * 1009 + m), one rng.sample(range(1, p), m) per system, so a cell's
systems do not depend on which other cells the scan covers.  Changing
either procedure invalidates frozen sweep outputs; treat both as part of
the contract.
"""

from __future__ import annotations

import random

from .constructions import is_prime
from .lattice_core import CongruenceSystem


def random_congruence_systems(count, seed, m_choices=(2, 3, 4), n_max=50,
                              prime_only=False):
    if count < 0 or n_max < 4:
        raise ValueError("need count >= 0 and n_max >= 4")
    for m in m_choices:
        if not 1 <= m < n_max:
            raise ValueError(f"need 1 <= m < n_max, got m = {m}, n_max = {n_max}")
        if prime_only and not any(map(is_prime, range(max(3, m + 1), n_max + 1))):
            raise ValueError(
                f"no prime in [{max(3, m + 1)}, {n_max}] for m = {m}, n_max = {n_max}")
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        m = rng.choice(m_choices)
        while True:
            n = rng.randint(max(3, m + 1), n_max)
            if not prime_only or is_prime(n):
                break
        coeffs = tuple(rng.sample(range(1, n), m))
        systems.append(CongruenceSystem((n,), (coeffs,)))
    return systems


def scan_cell_systems(p, m, samples, seed):
    """The `samples` single-row systems mod p of one `scan` (p, m) cell."""
    rng = random.Random(seed * 1000003 + p * 1009 + m)
    return [CongruenceSystem((p,), (tuple(rng.sample(range(1, p), m)),))
            for _ in range(samples)]
