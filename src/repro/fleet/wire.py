"""The fleet's wire format: one frame per message, the same in both directions.

A frame is the message pickled once (``HIGHEST_PROTOCOL``) and handed to
``Connection.send_bytes`` — on the pipe, a 4-byte length and the payload.
``Connection.send``/``recv`` carry the same bytes but build a
``ForkingPickler``, a ``BytesIO`` and a dispatch-table copy per message;
on the request path that was a third of the hop.  Cost vectors cross as
raw ``float64`` bytes (:func:`pack_costs`/:func:`unpack_costs`): an
``ndarray`` pickled through ``__reduce__`` cost ≈ 12 µs per reply to
rebuild in the parent.

Only the fleet parent and the workers it forked write to these pipes, so
unpickling what arrives is unpickling our own bytes.
"""

from __future__ import annotations

import pickle

import numpy as np

__all__ = ["pack_costs", "recv_frame", "send_frame", "unpack_costs"]


def send_frame(conn, message) -> int:
    """Write ``message`` as one frame; returns the payload's byte count."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(payload)
    return len(payload)


def recv_frame(conn):
    """Read one frame: ``(message, payload byte count)``.  Blocks until a
    frame arrives; ``EOFError`` when the other end is gone."""
    payload = conn.recv_bytes()
    return pickle.loads(payload), len(payload)


def pack_costs(costs) -> bytes:
    return np.asarray(costs, dtype=np.float64).tobytes()


def unpack_costs(raw: bytes) -> np.ndarray:
    """The vector :func:`pack_costs` took, bit for bit — copied out of the
    frame so it is writable like the gateway's own answer."""
    return np.frombuffer(raw, dtype=np.float64).copy()
