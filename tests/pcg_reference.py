"""Scalar PCG32, the reference that numcore.Rng's bulk draws are checked against.

Written from the published algorithm (O'Neill 2014, ``pcg32_random_r``):
each output takes one LCG step, state <- state * a + inc (mod 2^64), and
returns the XSH-RR output of the state before the step. The functions
advance a given Rng's ``_state`` in place, using its ``_inc``, and call no
Rng method, so the reference and the generator it checks share no code.
"""

from fimscore.errors import DomainError

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 6364136223846793005


def next_u32(rng) -> int:
    """The next 32-bit output of ``rng``; advances it one step."""
    old = rng._state
    rng._state = (old * _MULTIPLIER + rng._inc) & _MASK64
    xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
    rot = old >> 59
    return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF


def uniform(rng) -> float:
    """A double in [0, 1): the top 53 bits of two outputs, the first high."""
    hi = next_u32(rng)
    lo = next_u32(rng)
    return (((hi << 32) | lo) >> 11) * 2.0 ** -53


def randint(rng, bound: int) -> int:
    """An integer in [0, bound) as floor(uniform * bound)."""
    if bound <= 0:
        raise DomainError(f"randint bound must be positive, got {bound}")
    return int(uniform(rng) * bound)
