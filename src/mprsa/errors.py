"""Exception types shared across the package."""


class ProtocolError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ProtocolError, ValueError):
    """An argument violates a documented precondition."""


class NotInvertible(ProtocolError):
    """Modular inverse requested for a value sharing a factor with the modulus."""


class SamplingExhausted(ProtocolError):
    """Rejection sampling hit its retry cap; the modulus is likely corrupted."""


class TransportError(ProtocolError):
    """Base class for message-transport failures."""


class AddressError(TransportError):
    """Message addressed to an unknown or illegal destination."""


class ChannelClosed(TransportError):
    """The transport was shut down while an operation was pending."""


class PayloadTooLarge(TransportError):
    """Envelope payload exceeds the framing limit."""


class MalformedMessage(TransportError):
    """A frame or payload could not be decoded."""


class DeadlockError(TransportError):
    """No in-memory participant can run while a party waits on a receive."""


class OtError(ProtocolError):
    """Base class for oblivious-transfer session errors."""


class RoleError(OtError):
    """An OT operation was invoked by a party with the wrong role."""


class OtStateError(OtError):
    """An OT operation was invoked in the wrong session state."""


class ProtocolDesync(ProtocolError):
    """Peers disagree about the expected message sequence."""


class SecrecyError(ProtocolError):
    """A secret-revealing test helper was invoked outside test mode."""


class GaveUp(ProtocolError):
    """The candidate-iteration cap was exceeded without finding a modulus."""
