"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (seed, stream index): seed occupies the low 64 bits of the key,
the stream index the high 64 bits. Independent logical streams (one per
Monte Carlo sample, one per generated graph) therefore never share state,
and results do not depend on how samples are distributed over workers.

Words come straight from the bit generator's ``random_raw``, the same
words ``Generator.integers(0, 2**64, dtype=uint64)`` returns. Bounded
draws use mask rejection on them, so ``randint`` is exactly uniform, not
approximately so via floats.

A ``RandomStream`` serves one stream a word at a time. A ``StreamFamily``
fills a block with the first words of many streams, one row each, for
kernels that walk a block of samples in numpy lockstep; the words of a
stream are the same either way.
"""

from __future__ import annotations

import numpy as np

from . import params

_MASK64 = (1 << 64) - 1
_BLOCK = 128


class RandomStream:
    """Buffered uniform draws from a single bit generator."""

    __slots__ = ("_gen", "_raw", "_words")

    def __init__(self, generator: np.random.Generator):
        self._gen = generator
        self._raw = generator.bit_generator.random_raw
        self._words = iter(())

    def next_u64(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._raw(_BLOCK).tolist())
            return next(self._words)

    def randint(self, n: int) -> int:
        """Exactly uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


# Domain tags keep operation families on disjoint streams even when the
# user reuses one seed for graph generation and Monte Carlo sampling.
DOMAIN_GRAPH = 0
DOMAIN_SAMPLE = 1


def _key_high(index: int, domain: int) -> int:
    if not 0 <= index < 1 << 56:
        raise ValueError("stream index out of range")
    return ((domain << 56) | index) & _MASK64


def stream(seed: int, index: int = 0, domain: int = DOMAIN_GRAPH) -> RandomStream:
    """Stream `index` of the family keyed by (seed, domain)."""
    key = params.seed(seed, "seed") | (_key_high(index, domain) << 64)
    return RandomStream(np.random.Generator(np.random.Philox(key=key)))


class StreamFamily:
    """The streams of one (seed, domain) family, drawn as blocks of words.

    ``fill(block, indices)`` writes into row r of a `(B, width)` block the
    first `width` words of ``stream(seed, indices[r], domain)``. It re-keys
    one Philox through its state setter per stream instead of building a
    bit generator and a Generator per stream. A uint64 block holds the
    words themselves; a narrower unsigned block keeps the low bits of
    each word, all a bounded draw below 2^bits reads. A caller that needs
    more of a stream's words fills a wider row; its first words repeat.
    """

    def __init__(self, seed: int, domain: int):
        bit_generator = np.random.Philox(key=params.seed(seed, "seed"))
        state = bit_generator.state  # counter 0, empty buffer
        # the setter reads the arrays item by item: Python lists read faster
        self._key = state["state"]["key"].tolist()
        state["state"] = {"counter": state["state"]["counter"].tolist(), "key": self._key}
        state["buffer"] = state["buffer"].tolist()
        self._state = state
        self._bit_generator = bit_generator
        self._domain = domain
        self._raw = bit_generator.random_raw

    def fill(self, block: np.ndarray, indices) -> np.ndarray:
        """Row r of `block` gets the first words of stream indices[r]."""
        width = block.shape[1]
        bit_generator, state, key, raw = self._bit_generator, self._state, self._key, self._raw
        for row, index in enumerate(indices):
            key[1] = _key_high(index, self._domain)
            bit_generator.state = state
            block[row] = raw(width)  # a narrower dtype keeps the low bits
        return block
