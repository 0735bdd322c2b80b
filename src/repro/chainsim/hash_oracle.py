"""A deterministic 256-bit hash oracle.

The protocols of Section 2 only need one property from ``Hash(...)``:
its output is uniform on ``[0, 2^256 - 1]`` and independent across
distinct inputs.  A keyed SHA-256 provides exactly that (as a PRF),
while remaining deterministic given the key — so a chainsim run is
fully reproducible from its seed, unlike a wall-clock mining race.

This substitutes the real mining hashes (Ethash in Geth, SHA-256d in
Qtum, Curve25519-based in NXT); the substitution is behaviour
preserving because the paper's analysis uses only the uniformity of
the hash output.
"""

from __future__ import annotations

import hashlib
from typing import Union

__all__ = [
    "HASH_SPACE",
    "INT_HEADS",
    "HashOracle",
    "int_boundary",
    "int_chunk",
    "int_width",
    "target_bytes",
]

#: The size of the hash output space, ``2^256``.
HASH_SPACE = 1 << 256

#: ``INT_HEADS[w]`` is the wire head of an int encoded in ``w`` bytes:
#: the 4-byte big-endian length ``w + 1`` of the encoding, then its
#: ``b"i"`` tag.  Widths up to 63 bytes cover ints below about 2^496,
#: beyond any digest, block hash, nonce or tick.
INT_HEADS = tuple((width + 1).to_bytes(4, "big") + b"i" for width in range(64))

#: Compares above every 32-byte digest: the byte form of target
#: ``HASH_SPACE`` (a 32-byte digest is a prefix of it, hence smaller).
_ABOVE_EVERY_DIGEST = b"\xff" * 33

_FieldType = Union[int, str, bytes, float]


def int_width(value: int) -> int:
    """The byte width ``w`` of ``value``'s signed wire encoding.

    A counting loop keeps one width, and one :data:`INT_HEADS` head,
    until the next boundary: a non-negative value has width ``w`` up to
    ``int_boundary(w) - 1``.
    """
    return (value.bit_length() + 8) // 8 + 1


def int_boundary(width: int) -> int:
    """The first non-negative value wider than ``width`` bytes,
    ``2**(8(width-1)-1)``; below it, a non-negative value's unsigned
    big-endian bytes are its signed encoding."""
    return 1 << (8 * width - 9)


def int_chunk(value: int) -> bytes:
    """``HashOracle.chunk(value)`` for an exact int, without the type
    dispatch: the head for the value's width plus its signed big-endian
    bytes."""
    width = (value.bit_length() + 8) // 8 + 1  # int_width, inlined (hot)
    try:
        head = INT_HEADS[width]
    except IndexError:  # wider than any digest, nonce or tick
        head = (width + 1).to_bytes(4, "big") + b"i"
    return head + value.to_bytes(width, "big", signed=True)


def target_bytes(target: int) -> bytes:
    """A lottery target in ``[0, HASH_SPACE]`` as bytes that compare
    with a 32-byte digest as the integers do.

    For bytes of equal length, byte order is integer order, so
    ``digest < target_bytes(t)`` exactly when
    ``int.from_bytes(digest, "big") < t``: 0 becomes 32 zero bytes (no
    digest is below it) and ``HASH_SPACE`` a 33-byte ``0xff`` sentinel
    (every digest is below it).
    """
    if target >= HASH_SPACE:
        return _ABOVE_EVERY_DIGEST
    return target.to_bytes(32, "big")


class HashOracle:
    """Keyed deterministic uniform hash on ``[0, 2^256 - 1]``.

    Parameters
    ----------
    seed:
        Key mixed into every digest; two oracles with different seeds
        produce independent hash landscapes (different "genesis
        universes" for repeated experiments).

    Examples
    --------
    >>> oracle = HashOracle(7)
    >>> 0 <= oracle.digest("pk-A", 123) < HASH_SPACE
    True
    >>> oracle.digest("pk-A", 123) == oracle.digest("pk-A", 123)
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._key = seed.to_bytes(32, "big", signed=False) if seed >= 0 else (
            (-seed).to_bytes(32, "big") + b"-"
        )
        # Keyed start state, copied per digest: hashing the key once and
        # cloning the hasher consumes the identical byte stream as
        # re-feeding the key on every call, at a fraction of the cost.
        base = hashlib.sha256()
        base.update(self._key)
        self._base = base

    def __reduce__(self):
        # The cached _hashlib state is unpicklable; rebuild from the seed.
        return (type(self), (self._seed,))

    @staticmethod
    def _encode(field: _FieldType) -> bytes:
        if isinstance(field, bytes):
            return b"b" + field
        if isinstance(field, str):
            return b"s" + field.encode("utf-8")
        if isinstance(field, bool):  # pragma: no cover - defensive
            raise TypeError("bool fields are ambiguous; use int")
        if isinstance(field, int):
            return b"i" + field.to_bytes((field.bit_length() + 8) // 8 + 1, "big",
                                         signed=True)
        if isinstance(field, float):
            return b"f" + repr(field).encode("ascii")
        raise TypeError(f"unsupported hash field type: {type(field).__name__}")

    def digest(self, *fields: _FieldType) -> int:
        """Uniform 256-bit integer hash of the given fields.

        Fields are length-prefixed before concatenation so that
        distinct field tuples can never collide by boundary ambiguity.
        """
        hasher = self._base.copy()
        for field in fields:
            encoded = self._encode(field)
            hasher.update(len(encoded).to_bytes(4, "big"))
            hasher.update(encoded)
        return int.from_bytes(hasher.digest(), "big")

    # -- batched draws ------------------------------------------------------
    #
    # The node-level mining loops evaluate millions of digests whose
    # field tuples share long common prefixes (same tick, same parent
    # hash, same address).  The methods below, with the module's
    # int_chunk/INT_HEADS, expose the oracle's wire format so hot loops
    # can cache encoded fields and pre-hashed prefixes;
    # `digest_tail(prefix(*head), chunk(f))` consumes the identical byte
    # stream as `digest(*head, f)` and is therefore bit-identical by
    # construction.

    @classmethod
    def chunk(cls, field: _FieldType) -> bytes:
        """The length-prefixed wire encoding of one field.

        ``digest(*fields)`` hashes exactly the concatenation of the
        fields' chunks (after the key), so chunks may be cached and fed
        to pre-hashed prefixes without changing a single digest.  Exact
        ints take :func:`int_chunk`.
        """
        if type(field) is int:
            return int_chunk(field)
        encoded = cls._encode(field)
        return len(encoded).to_bytes(4, "big") + encoded

    def prefix(self, *fields: _FieldType):
        """A reusable hasher pre-loaded with the key and ``fields``.

        The returned object is a standard ``hashlib`` hasher: extend a
        ``copy()`` of it with further chunks (:meth:`digest_tail`) to
        evaluate many digests sharing this field prefix.
        """
        hasher = self._base.copy()
        for field in fields:
            hasher.update(self.chunk(field))
        return hasher

    @staticmethod
    def digest_tail(prefix, *chunks: bytes) -> int:
        """Finish a digest from a pre-hashed prefix and trailing chunks."""
        hasher = prefix.copy()
        for chunk in chunks:
            hasher.update(chunk)
        return int.from_bytes(hasher.digest(), "big")

    def fraction(self, *fields: _FieldType) -> float:
        """The digest mapped to a float in ``[0, 1)``.

        Uses the top 53 bits so the mapping is exact in double
        precision.
        """
        return (self.digest(*fields) >> (256 - 53)) / float(1 << 53)

    def below(self, target: int, *fields: _FieldType) -> bool:
        """Whether ``digest(fields) < target`` — the PoW/PoS validity test."""
        if target < 0:
            raise ValueError("target must be non-negative")
        return self.digest(*fields) < target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashOracle(key={self._key[:4].hex()}...)"
