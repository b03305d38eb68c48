"""IP prefix type used throughout the reproduction.

We need a prefix representation that is

* immutable and hashable (prefixes key RIBs, streams and counters),
* cheap to compare and sort (billions of comparisons in the analysis),
* capable of both IPv4 and IPv6 (the paper's dataset includes both),
* convertible to and from the BGP/MRT wire encodings (NLRI format).

The standard library :mod:`ipaddress` module is correct but carries
overhead we do not want in the hot path, so :class:`Prefix` is a
``(version, network, length)`` tuple of plain ``int`` values and
implements only the operations the reproduction needs.
"""

from __future__ import annotations

import ipaddress
from operator import itemgetter
from typing import Iterator

from repro.netbase.errors import PrefixError
from repro.netbase.memo import bounded_store, memo_counters

_V4_BITS = 32
_V6_BITS = 128

#: NLRI-decode interning memo: real archives repeat a small working set
#: of prefixes millions of times, so identical wire encodings resolve
#: to the *same* Prefix object (enabling identity fast paths in the
#: analysis layer) instead of re-parsing.  Bounded: cleared wholesale
#: when full, like the MRT writer's message cache.
_NLRI_MEMO: dict = {}
_NLRI_MEMO_LIMIT = 65536
_nlri_memo_enabled = True
_NLRI_STATS = memo_counters("prefix.nlri")


def set_nlri_memo(enabled: bool) -> bool:
    """Enable/disable (and clear) the NLRI interning memo.

    Returns the previous setting.  Disabling forces every decode down
    the naive parse path — the read-path tests use this to prove the
    memo is a pure optimization.
    """
    global _nlri_memo_enabled
    previous = _nlri_memo_enabled
    _nlri_memo_enabled = bool(enabled)
    _NLRI_MEMO.clear()
    return previous


def nlri_memo_size() -> int:
    """Current number of interned NLRI encodings (for bound tests)."""
    return len(_NLRI_MEMO)


class Prefix(tuple):
    """An immutable IPv4/IPv6 prefix.

    A ``tuple`` subclass holding ``(version, network, length)``, so
    hashing, equality and ordering run in C: prefixes key every RIB,
    stream and counter dict.  Tuple order is version, then network,
    then length.

    >>> Prefix("84.205.64.0/24")
    Prefix('84.205.64.0/24')
    >>> Prefix("2001:db8::/32").version
    6
    >>> Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))
    True
    """

    __slots__ = ()

    def __new__(cls, text: "str | Prefix", *, strict: bool = True):
        if isinstance(text, Prefix):
            return text
        if not isinstance(text, str):
            raise PrefixError(f"prefix must be a string, got {type(text).__name__}")
        address_text, sep, length_text = text.partition("/")
        if not sep:
            raise PrefixError(f"missing prefix length: {text!r}")
        try:
            address = ipaddress.ip_address(address_text)
            length = int(length_text)
        except ValueError as exc:
            raise PrefixError(f"malformed prefix: {text!r}") from exc
        max_bits = _V4_BITS if address.version == 4 else _V6_BITS
        if not 0 <= length <= max_bits:
            raise PrefixError(f"prefix length out of range: {text!r}")
        network = int(address)
        mask = _mask(length, max_bits)
        if strict and network & ~mask & ((1 << max_bits) - 1):
            raise PrefixError(f"host bits set in prefix: {text!r}")
        return tuple.__new__(cls, (address.version, network & mask, length))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, network: int, length: int, version: int) -> "Prefix":
        """Build a prefix directly from its integer representation."""
        max_bits = _V4_BITS if version == 4 else _V6_BITS
        if version not in (4, 6):
            raise PrefixError(f"bad IP version: {version}")
        if not 0 <= length <= max_bits:
            raise PrefixError(f"prefix length out of range: /{length}")
        if not 0 <= network < (1 << max_bits):
            raise PrefixError(f"network out of range for IPv{version}: {network}")
        mask = _mask(length, max_bits)
        if network & ~mask & ((1 << max_bits) - 1):
            raise PrefixError("host bits set in prefix integer")
        return tuple.__new__(cls, (version, network, length))

    @classmethod
    def from_nlri(cls, data: bytes, version: int = 4) -> "tuple[Prefix, int]":
        """Decode one BGP NLRI-encoded prefix from *data*.

        Returns ``(prefix, bytes_consumed)``.  NLRI encoding is a length
        octet followed by ``ceil(length / 8)`` network octets.
        """
        if not data:
            raise PrefixError("empty NLRI")
        length = data[0]
        max_bits = _V4_BITS if version == 4 else _V6_BITS
        if length > max_bits:
            raise PrefixError(f"NLRI length {length} too long for IPv{version}")
        octets = (length + 7) // 8
        if len(data) < 1 + octets:
            raise PrefixError("truncated NLRI")
        consumed = 1 + octets
        if _nlri_memo_enabled:
            key = (version, bytes(data[:consumed]))
            cached = _NLRI_MEMO.get(key)
            if cached is not None:
                _NLRI_STATS.hits += 1
                return cached
        network_bytes = (
            bytes(data[1:consumed]) + b"\x00" * (max_bits // 8 - octets)
        )
        network = int.from_bytes(network_bytes, "big")
        mask = _mask(length, max_bits)
        if network & ~mask & ((1 << max_bits) - 1):
            # Tolerate sloppy senders: mask off trailing garbage bits.
            network &= mask
        result = (cls.from_int(network, length, version), consumed)
        if _nlri_memo_enabled:
            bounded_store(
                _NLRI_MEMO, key, result, _NLRI_MEMO_LIMIT, _NLRI_STATS
            )
        return result

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    version = property(itemgetter(0), doc="IP version, 4 or 6.")
    network = property(
        itemgetter(1), doc="The network address as an integer."
    )
    length = property(itemgetter(2), doc="The prefix length in bits.")
    _version, _network, _length = version, network, length

    @property
    def max_bits(self) -> int:
        """The address width for this IP version (32 or 128)."""
        return _V4_BITS if self._version == 4 else _V6_BITS

    @property
    def network_address(self) -> str:
        """Dotted/colon text form of the network address."""
        if self._version == 4:
            return str(ipaddress.IPv4Address(self._network))
        return str(ipaddress.IPv6Address(self._network))

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains(self, other: "Prefix") -> bool:
        """True when *other* is equal to or more specific than *self*."""
        if self._version != other._version or other._length < self._length:
            return False
        shift = self.max_bits - self._length
        return (self._network >> shift) == (other._network >> shift)

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: "int | None" = None) -> "Prefix":
        """Return the covering prefix with *new_length* (default −1 bit)."""
        if new_length is None:
            new_length = self._length - 1
        if not 0 <= new_length <= self._length:
            raise PrefixError(f"bad supernet length /{new_length} for {self}")
        mask = _mask(new_length, self.max_bits)
        return Prefix.from_int(self._network & mask, new_length, self._version)

    def subnets(self) -> "tuple[Prefix, Prefix]":
        """Split into the two next-longer prefixes."""
        if self._length >= self.max_bits:
            raise PrefixError(f"cannot subnet a host route: {self}")
        new_length = self._length + 1
        low = Prefix.from_int(self._network, new_length, self._version)
        high_bit = 1 << (self.max_bits - new_length)
        high = Prefix.from_int(self._network | high_bit, new_length, self._version)
        return low, high

    def hosts_count(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (self.max_bits - self._length)

    # ------------------------------------------------------------------
    # wire encoding
    # ------------------------------------------------------------------
    def to_nlri(self) -> bytes:
        """Encode in BGP NLRI format (length octet + packed network)."""
        octets = (self._length + 7) // 8
        packed = self._network.to_bytes(self.max_bits // 8, "big")[:octets]
        return bytes([self._length]) + packed

    def iter_host_bits(self) -> Iterator[int]:
        """Yield the network bits most-significant first (for tries)."""
        for position in range(self._length):
            yield (self._network >> (self.max_bits - 1 - position)) & 1

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __reduce__(self):
        # tuple's default pickling would hand the field tuple to
        # __new__, which parses text; rebuild through from_int instead.
        return (type(self).from_int, (self[1], self[2], self[0]))

    def __repr__(self) -> str:
        return f"Prefix('{self}')"

    def __str__(self) -> str:
        return f"{self.network_address}/{self._length}"


def _mask(length: int, max_bits: int) -> int:
    """Return the network mask for *length* bits out of *max_bits*."""
    if length == 0:
        return 0
    return ((1 << length) - 1) << (max_bits - length)
