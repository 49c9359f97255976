"""Seeded uniform draws from the standard library's generator.

Every random value in fedquad (synthetic datasets, batch schedules and
the self-checks' instances) is read from a ``random.Random`` seeded with
a non-negative int, as little-endian unsigned keys from its
``randbytes``. So no command imports ``numpy.random`` (nor ``secrets``
and ``hashlib`` behind it), which numpy loads on first use at a cost of
17-19 ms per process on a 2-vCPU VM.
"""

from __future__ import annotations

import operator
import random

import numpy as np


def check_int(name: str, value, low: int = 0, high: int | None = None) -> int:
    """value as an int in [low, high], else TypeError (no int) or ValueError (outside).

    Both messages name the field, as in "batch_size must be an integer,
    got 2.0" or "seed must be >= 0, got -1". An int-like value (a numpy
    integer) is its int; a float is refused, even 2.0, and so is a bool.
    This is the package's rule for a count or an index, as opposed to a
    value (tensor.int_list).
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if number < low or (high is not None and number > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {number}")
    return number


def seeded(seed) -> random.Random:
    """The generator of a seed; not an int raises TypeError, a negative one ValueError.

    random.Random would hash a float or str seed and take -seed for a
    negative one, so both are refused here (check_int).
    """
    return random.Random(check_int("seed", seed))


def keys(rng: random.Random, count: int, dtype: str) -> np.ndarray:
    """count little-endian unsigned keys of dtype ("<u4" or "<u8"), read-only."""
    dtype = np.dtype(dtype)
    return np.frombuffer(rng.randbytes(dtype.itemsize * count), dtype=dtype)


# Keys per randbytes call in uniform_ints, so that a chunk's bytes are
# still in cache when they are scaled. Chunks of whole 32-bit words give
# the keys of one call: randbytes reads the generator's words in order.
_CHUNK = 1 << 14


def uniform_ints(rng: random.Random, low: int, high: int, size=()) -> np.ndarray:
    """Integers uniform on [low, high], as float64, one 32-bit key k per value.

    A value is floor(k * span / 2**32) + low with span = high - low + 1,
    a multiply-shift: each value has floor or ceil of 2**32 / span keys,
    so its probability is off 1 / span by less than 1 / 2**32. With
    span <= 2**21, k * span < 2**53 and the float arithmetic is exact.
    """
    span = high - low + 1
    if not 1 <= span <= 2**21:
        raise ValueError(f"need 1 <= high - low + 1 <= 2**21, got [{low}, {high}]")
    scale = span * 2.0**-32
    values = np.empty(size)
    flat = values.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        part = flat[start:start + _CHUNK]
        np.multiply(keys(rng, part.size, "<u4"), scale, out=part)
        np.floor(part, out=part)
        part += low
    return values


def uniform_unit(rng: random.Random, size=()) -> np.ndarray:
    """float64 values uniform on [-1, 1): the top 53 bits m of a 64-bit key give m / 2**52 - 1."""
    m = keys(rng, int(np.prod(size)), "<u8") >> 11
    return (m * 2.0**-52 - 1.0).reshape(size)
