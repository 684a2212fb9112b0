"""Seeded random streams, the unit-ball volume and exactly rounded row sums.

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
        mixed = _splitmix64(self.master_seed ^ _splitmix64(self.stream_index))
        return RngStream(mixed, index)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def _positive_integer(value, name: str) -> int:
    """int(value); a DomainError naming name when value is not a positive integer."""
    if int(value) != value or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^(m/2) / Gamma(m/2 + 1). It is
    subnormal from m = 436; from m = 453 it underflows to 0.0, a DomainError."""
    _positive_integer(m, "dimension")
    volume = math.exp(0.5 * m * math.log(math.pi) - gammaln(0.5 * m + 1.0))
    if volume == 0.0:
        raise DomainError(f"the volume of the unit ball in R^{m} underflows float64")
    return volume


def exact_sums(rows) -> np.ndarray:
    """The exactly rounded sum of each row of a 2-D array: math.fsum(row.tolist())
    for every row, bit for bit.

    Two vectorized error-free extraction passes (ExtractVector of Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008), the first with
    sigma = 2^(e + b + 1) for max|row| < 2^e and N < 2^b, the second with
    sigma * 2^(b - 53), split every entry into two parts whose row sums
    are exact in any order and a remainder. The exact row sum is then the
    two pass totals plus the remainders, and math.fsum of those, being
    correctly rounded, returns what math.fsum of the row does. Rows that
    are empty or all zero, hold a non-finite value, or would need
    sigma > 2^1023 go to math.fsum itself, so their signed zeros, inf, nan
    and OverflowError are its own. A strided input is copied to C order
    first: the passes run about ten times slower over strided rows.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DomainError(f"exact_sums takes a 2-D array, got ndim={rows.ndim}")
    bits = rows.shape[1].bit_length()
    with np.errstate(invalid="ignore", over="ignore"):  # plain rows' passes are discarded
        top = np.max(np.abs(rows), axis=1, initial=0.0)
        exponent = np.frexp(top)[1] + bits + 1
        extract = np.isfinite(top) & (top > 0.0) & (exponent <= 1023)
        sigma = np.ldexp(1.0, np.where(extract, exponent, 0))[:, None]
        high = np.add(sigma, rows)
        high -= sigma
        rest = rows - high
        totals = [high.sum(axis=1).tolist()]
        sigma *= 2.0 ** (bits - 53)
        np.add(sigma, rest, out=high)
        high -= sigma
        rest -= high
        totals.append(high.sum(axis=1).tolist())
    nonzero = rest != 0.0
    ends = np.cumsum(nonzero.sum(axis=1)).tolist()
    rest = rest[nonzero].tolist()
    out, start = [], 0
    for i, (end, exact) in enumerate(zip(ends, extract.tolist())):
        if exact:
            out.append(math.fsum([totals[0][i], totals[1][i], *rest[start:end]]))
        else:
            out.append(math.fsum(rows[i].tolist()))
        start = end
    return np.array(out)
