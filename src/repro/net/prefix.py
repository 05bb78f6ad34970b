"""IP address prefixes as immutable value objects.

A :class:`Prefix` is a string of ``length`` bits taken from the top of a
``width``-bit address (width 32 for IPv4, the paper's setting; width 128
gives IPv6, and small widths are used heavily by the test suite where the
whole address space can be enumerated).

The integer representation stores the prefix bits left-aligned in a
``width``-bit integer with all host bits zero, so containment and trie
navigation are plain integer operations.
"""

from __future__ import annotations

from typing import Iterator

IPV4_WIDTH = 32
IPV6_WIDTH = 128


class Prefix:
    """An immutable address prefix: ``length`` leading bits of a ``width``-bit space.

    Instances are hashable and totally ordered (by left-aligned value,
    then by length), which makes them usable as dict keys and gives
    deterministic iteration orders throughout the library.
    """

    __slots__ = ("value", "length", "width", "_hash")

    def __init__(self, value: int, length: int, width: int = IPV4_WIDTH) -> None:
        if not 0 <= length <= width:
            raise ValueError(f"prefix length {length} outside [0, {width}]")
        if not 0 <= value < (1 << width):
            raise ValueError(f"prefix value {value:#x} outside {width}-bit space")
        host_bits = width - length
        if host_bits and value & ((1 << host_bits) - 1):
            raise ValueError(
                f"prefix value {value:#x} has non-zero bits below length {length}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_hash", hash((value, length, width)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def root(cls, width: int = IPV4_WIDTH) -> "Prefix":
        """The zero-length prefix covering the entire address space."""
        return cls(0, 0, width)

    @classmethod
    def from_bits(cls, bits: str, width: int = IPV4_WIDTH) -> "Prefix":
        """Build from a bit string such as ``"10000000 0001"`` (spaces ignored)."""
        bits = bits.replace(" ", "")
        if any(b not in "01" for b in bits):
            raise ValueError(f"invalid bit string {bits!r}")
        length = len(bits)
        value = int(bits, 2) << (width - length) if length else 0
        return cls(value, length, width)

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse dotted-quad IPv4 CIDR notation, e.g. ``"128.16.0.0/15"``."""
        addr, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"missing /length in {text!r}")
        octets = addr.split(".")
        if len(octets) != 4:
            raise ValueError(f"bad IPv4 address {addr!r}")
        value = 0
        for octet in octets:
            part = int(octet)
            if not 0 <= part <= 255:
                raise ValueError(f"bad IPv4 octet {octet!r}")
            value = (value << 8) | part
        return cls(value, int(len_text), IPV4_WIDTH)

    @classmethod
    def of_address(cls, address: int, width: int = IPV4_WIDTH) -> "Prefix":
        """The full-length (host) prefix for a single address."""
        return cls(address, width, width)

    # -- structure ----------------------------------------------------

    def bit(self, index: int) -> int:
        """Bit ``index`` (0-based from the most significant end); must be < length."""
        if not 0 <= index < self.length:
            raise IndexError(f"bit {index} outside prefix of length {self.length}")
        return (self.value >> (self.width - 1 - index)) & 1

    def child(self, bit: int) -> "Prefix":
        """Extend by one bit (0 = left trie child, 1 = right trie child)."""
        if self.length >= self.width:
            raise ValueError("cannot extend a full-length prefix")
        value = self.value
        if bit:
            value |= 1 << (self.width - 1 - self.length)
        return Prefix(value, self.length + 1, self.width)

    def parent(self) -> "Prefix":
        """Drop the last bit; error on the root prefix."""
        if self.length == 0:
            raise ValueError("root prefix has no parent")
        length = self.length - 1
        mask = ~(1 << (self.width - 1 - length))
        return Prefix(self.value & mask, length, self.width)

    def sibling(self) -> "Prefix":
        """Same-length prefix differing only in the final bit."""
        if self.length == 0:
            raise ValueError("root prefix has no sibling")
        return Prefix(
            self.value ^ (1 << (self.width - self.length)), self.length, self.width
        )

    def contains(self, other: "Prefix") -> bool:
        """True when ``other``'s address space lies within this prefix (or equals it)."""
        if self.width != other.width or self.length > other.length:
            return False
        if self.length == 0:
            return True
        shift = self.width - self.length
        return (self.value >> shift) == (other.value >> shift)

    def contains_address(self, address: int) -> bool:
        """True when the integer ``address`` matches this prefix."""
        if self.length == 0:
            return 0 <= address < (1 << self.width)
        shift = self.width - self.length
        return (address >> shift) == (self.value >> shift)

    def address_count(self) -> int:
        """Number of addresses covered (2**(width - length))."""
        return 1 << (self.width - self.length)

    def address_range(self) -> tuple[int, int]:
        """Half-open integer address range ``[first, last + 1)``."""
        return self.value, self.value + self.address_count()

    def iter_addresses(self) -> Iterator[int]:
        """Every covered address; only sensible for small widths (tests)."""
        first, stop = self.address_range()
        return iter(range(first, stop))

    def bits(self) -> str:
        """The prefix as a bit string (empty for the root)."""
        if self.length == 0:
            return ""
        return format(self.value >> (self.width - self.length), f"0{self.length}b")

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.value == other.value
            and self.length == other.length
            and self.width == other.width
        )

    def __lt__(self, other: "Prefix") -> bool:
        return (self.value, self.length) < (other.value, other.length)

    def __le__(self, other: "Prefix") -> bool:
        return (self.value, self.length) <= (other.value, other.length)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type["Prefix"], tuple[int, int, int]]:
        # The immutability guard (__setattr__ raises) breaks pickle's
        # default state restore, which ``copy`` shares; rebuilding through
        # the constructor keeps instances picklable and copyable.
        return (Prefix, (self.value, self.length, self.width))

    def __repr__(self) -> str:
        if self.width == IPV4_WIDTH:
            return f"Prefix({str(self)!r})"
        return f"Prefix.from_bits({self.bits()!r}, width={self.width})"

    def __str__(self) -> str:
        if self.width == IPV4_WIDTH:
            octets = [(self.value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
            return ".".join(str(o) for o in octets) + f"/{self.length}"
        return f"{self.bits() or 'ε'}/{self.length}"
