"""The BGP UPDATE message.

:class:`UpdateMessage` is the one BGP message the model builds: the
paper's entire analysis is a taxonomy of UPDATE messages.  It is an
immutable value object.  A single UPDATE may carry both withdrawals
and announcements; the analysis layer splits them into per-prefix
observations.  Archives may also hold the other message types; the
wire decoder checks them and returns their :class:`MessageType`
instead of an object (:func:`repro.bgp.wire.decode_message_from`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bgp.attributes import PathAttributes
from repro.bgp.errors import MessageError
from repro.netbase.prefix import Prefix

_new_object = object.__new__


class UpdateMessage:
    """A BGP UPDATE: withdrawals plus announcements sharing attributes."""

    __slots__ = ("_announced", "_withdrawn", "_attributes")

    def __init__(
        self,
        *,
        announced: Sequence[Prefix] = (),
        withdrawn: Sequence[Prefix] = (),
        attributes: Optional[PathAttributes] = None,
    ):
        self._announced = tuple(announced)
        self._withdrawn = tuple(withdrawn)
        self._attributes = attributes
        if self._announced and attributes is None:
            raise MessageError("announcement without path attributes")
        if not self._announced and not self._withdrawn:
            raise MessageError("UPDATE with neither NLRI nor withdrawals")
        for prefix in self._announced + self._withdrawn:
            if not isinstance(prefix, Prefix):
                raise MessageError(f"not a Prefix: {prefix!r}")

    @classmethod
    def announce(
        cls, prefixes: "Sequence[Prefix] | Prefix", attributes: PathAttributes
    ) -> "UpdateMessage":
        """Build a pure announcement.

        One :class:`Prefix` is already valid NLRI, so it skips the
        constructor's per-prefix checks: routers announce one prefix
        per UPDATE.
        """
        if not isinstance(prefixes, Prefix):
            return cls(announced=prefixes, attributes=attributes)
        if attributes is None:
            raise MessageError("announcement without path attributes")
        message = cls.__new__(cls)
        message._announced = (prefixes,)
        message._withdrawn = ()
        message._attributes = attributes
        return message

    @classmethod
    def from_decoded(
        cls,
        announced: "tuple[Prefix, ...]",
        withdrawn: "tuple[Prefix, ...]",
        attributes: Optional[PathAttributes],
    ) -> "UpdateMessage":
        """Build from a decoder's checked parts, without re-checking.

        The wire decoder's path: both tuples hold :class:`Prefix`
        objects it built, at least one of them is non-empty, and
        *attributes* is set exactly when something is announced.
        Anything else must use the checked constructor.
        """
        message = _new_object(cls)
        message._announced = announced
        message._withdrawn = withdrawn
        message._attributes = attributes
        return message

    @classmethod
    def withdraw(cls, prefixes: "Sequence[Prefix] | Prefix") -> "UpdateMessage":
        """Build a pure withdrawal."""
        if isinstance(prefixes, Prefix):
            prefixes = (prefixes,)
        return cls(withdrawn=prefixes)

    @property
    def announced(self) -> "tuple[Prefix, ...]":
        """Prefixes announced with :attr:`attributes`."""
        return self._announced

    @property
    def withdrawn(self) -> "tuple[Prefix, ...]":
        """Prefixes withdrawn."""
        return self._withdrawn

    @property
    def attributes(self) -> Optional[PathAttributes]:
        """Shared path attributes, or None for a pure withdrawal."""
        return self._attributes

    @property
    def is_announcement(self) -> bool:
        """True when at least one prefix is announced."""
        return bool(self._announced)

    @property
    def is_withdrawal(self) -> bool:
        """True when at least one prefix is withdrawn."""
        return bool(self._withdrawn)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateMessage):
            return NotImplemented
        return (
            self._announced == other._announced
            and self._withdrawn == other._withdrawn
            and self._attributes == other._attributes
        )

    def __hash__(self) -> int:
        return hash((self._announced, self._withdrawn, self._attributes))

    def __repr__(self) -> str:
        parts = []
        if self._announced:
            parts.append(f"announced={[str(p) for p in self._announced]}")
        if self._withdrawn:
            parts.append(f"withdrawn={[str(p) for p in self._withdrawn]}")
        if self._attributes is not None:
            parts.append(f"attributes={self._attributes!r}")
        return f"UpdateMessage({', '.join(parts)})"
