"""The fleet's wire format: one frame per message, the same in both directions.

A frame is a 4-byte big-endian length and the message pickled once
(``HIGHEST_PROTOCOL``), carried over one end of a ``socket.socketpair``
(:class:`Channel`): one ``sendall`` out, and ``recv_into`` a buffer the
channel reuses in, so a small frame is one system call each way.  The
parent's end carries ``SO_RCVTIMEO``: a blocking read returns
empty-handed after that long, keeping any part of a frame it read for the
next call.  Cost vectors cross as raw ``float64`` bytes
(:func:`pack_costs`/:func:`unpack_costs`): an ``ndarray`` pickled through
``__reduce__`` cost ≈ 12 µs per reply to rebuild.  Only the fleet parent
and the workers it forked write to these sockets, so unpickling what
arrives is unpickling our own bytes.
"""

from __future__ import annotations

import pickle
import socket
import struct

import numpy as np

__all__ = ["Channel", "pack_costs", "unpack_costs"]

_HEADER = struct.Struct("!I")


class Channel:
    """One end of a fleet socket: frames out, frames in."""

    __slots__ = ("sock", "timeout", "_buf", "_view", "_have")

    def __init__(self, sock: socket.socket, timeout: float | None = None) -> None:
        self.sock = sock
        #: The receive timeout in seconds (``None``: block until a frame).
        self.timeout: float | None = None
        self._buf = bytearray(1 << 16)
        self._view = memoryview(self._buf)
        self._have = 0  # bytes of the next frame(s) already read
        if timeout is not None:
            self.set_timeout(timeout)

    def send(self, message) -> int:
        """Write ``message`` as one frame; returns the payload's byte count."""
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        self.sock.sendall(_HEADER.pack(len(payload)) + payload)
        return len(payload)

    def set_timeout(self, seconds: float) -> None:
        """Make a read give up after ``seconds`` (``SO_RCVTIMEO``; no system
        call when it is already set to that)."""
        if seconds != self.timeout:
            whole = int(seconds)
            self.sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_RCVTIMEO,
                struct.pack("ll", whole, max(1, int(1e6 * (seconds - whole)))),
            )
            self.timeout = seconds

    def recv(self):
        """The next frame, ``(message, payload byte count)``, or ``None`` when
        the receive timeout passed first.  ``EOFError`` when the peer is gone."""
        have, need = self._have, _HEADER.size
        while True:
            if have >= _HEADER.size:
                need = _HEADER.size + _HEADER.unpack_from(self._buf)[0]
                if have >= need:
                    break
                if need > len(self._buf):
                    self._view.release()
                    self._buf.extend(bytes(need - len(self._buf)))
                    self._view = memoryview(self._buf)
            try:
                n = self.sock.recv_into(self._view[have:])
            except BlockingIOError:  # SO_RCVTIMEO passed
                self._have = have
                return None
            if not n:
                raise EOFError("fleet socket closed by its peer")
            have += n
        message = pickle.loads(self._view[_HEADER.size : need])
        self._have = have - need
        if self._have:
            self._buf[: self._have] = self._buf[need:have]
        return message, need - _HEADER.size

    def close(self) -> None:
        self.sock.close()


def pack_costs(costs) -> bytes:
    return np.asarray(costs, dtype=np.float64).tobytes()


def unpack_costs(raw: bytes) -> np.ndarray:
    """The vector :func:`pack_costs` took, bit for bit — copied out of the
    frame so it is writable like the gateway's own answer."""
    return np.frombuffer(raw, dtype=np.float64).copy()
