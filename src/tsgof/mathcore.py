"""Special functions and seeded random primitives used by every other module.

Random streams are built on the Philox counter-based bit generator, keyed
directly by the pair (master_seed, stream_index). Distinct key pairs give
statistically independent streams without any coordination, which is what
the deterministic parallel Monte Carlo in the experiment harness relies on:
every replicate owns one stream, at the index `content_index` derives from
what it simulates, and workers never share state.
"""

import math
import struct

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def content_index(family: str, q: float, m: int, n: int, rep: int) -> int:
    """Stream index of replicate rep at the (family, q, m, N) point.

    A splitmix64 fold, z = splitmix64(z ^ part) from z = 0, over the family
    name's bytes read as a big integer, the IEEE-754 bits of q, m, N and
    rep. The index depends on what the replicate simulates, not on where
    its cell sits in a grid, so editing a grid leaves the other cells'
    draws unchanged.
    """
    q_bits = struct.unpack("<Q", struct.pack("<d", float(q)))[0]
    z = 0
    for part in (int(family.encode().hex(), 16), q_bits, m, n, rep):
        z = _splitmix64(z ^ int(part))
    return z


class RngStream:
    """Independent random stream identified by (master_seed, stream_index).

    Two streams constructed with equal identifiers produce bit-identical
    output sequences; streams with distinct indices are independent. A
    stream is single-owner: never share one between concurrent tasks,
    allocate distinct stream indices instead.
    """

    __slots__ = ("master_seed", "stream_index", "generator")

    def __init__(self, master_seed: int, stream_index: int = 0):
        if not (0 <= master_seed <= MASK64 and 0 <= stream_index <= MASK64):
            raise DomainError("master_seed and stream_index must be unsigned 64-bit integers")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive a subordinate stream, e.g. for nested replications.

        The child is a plain stream whose master seed mixes the parent
        identity through splitmix64, so children of distinct parents (or
        distinct indices) do not collide in practice.
        """
        if index < 0:
            raise DomainError("child index must be nonnegative")
        mixed = _splitmix64(self.master_seed ^ _splitmix64(self.stream_index))
        return RngStream(mixed, index)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return float(gammaln(x))


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^(m/2) / Gamma(m/2 + 1)."""
    if int(m) != m or m < 1:
        raise DomainError(f"dimension must be a positive integer, got {m!r}")
    return float(math.exp(0.5 * m * math.log(math.pi) - gammaln(0.5 * m + 1.0)))


def draw_gamma(rng: RngStream, shape: float, size=None):
    """Gamma(shape, scale=1) variates.

    For shape < 1 the draw is boosted from Gamma(shape + 1) via
    G = G1 * U^(1/shape), which avoids rejection pathologies near zero.
    """
    if not (shape > 0):
        raise DomainError(f"gamma shape must be positive, got {shape!r}")
    gen = rng.generator
    if shape >= 1.0:
        out = gen.standard_gamma(shape, size=size)
    else:
        boosted = gen.standard_gamma(shape + 1.0, size=size)
        u = gen.random(size)
        out = boosted * u ** (1.0 / shape)
    return float(out) if size is None else out
