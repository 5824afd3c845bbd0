"""The serve wire format: newline-delimited canonical JSON.

One request per line, one JSON object per request; responses are canonical
JSON lines (sorted keys, fixed separators — the bytes of
:func:`repro.runner.serialize.canonical_json` for the str-keyed payloads
the daemon sends) so byte-identical world states produce byte-identical
reply streams — the property the resume and equivalence certificates lean
on.

Operations
----------
Update events (coalesced per tick, replied to *after* their tick applies):

* ``{"op": "move", "node": 3, "position": [x, y]}``
* ``{"op": "insert", "position": [x, y]}`` — the reply carries the
  allocated node id.
* ``{"op": "delete", "node": 3}``

Control and query operations (answered immediately):

* ``{"op": "query", "kind": "neighbours", "node": 3}`` (optional
  ``"radius"``), ``{"op": "query", "kind": "route", "source": 3,
  "target": 9}``, ``{"op": "query", "kind": "coverage", "events": [[x,
  y], ...], "radius": r}``, ``{"op": "query", "kind": "digest"}``
* ``{"op": "snapshot"}`` — persist the live world through the result
  store.
* ``{"op": "tick"}`` — force the pending batch to apply now (the stdio
  transport's deterministic scheduler).
* ``{"op": "stats"}`` / ``{"op": "ping"}`` / ``{"op": "shutdown"}``
* ``{"op": "resume"}`` — reconnect handshake: reports ``applied_seq`` and
  the next seq the batcher will assign, *without* flushing the pending
  tick, so a client that lost replies (or the daemon that died and was
  restored from a snapshot) can work out exactly which events to resend.

Every request may carry a client-chosen ``"id"`` echoed verbatim in the
response.  Malformed requests raise :class:`ProtocolError`, which transports
turn into ``{"ok": false, "error": ...}`` replies instead of dropping the
connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runner.serialize import jsonify

__all__ = [
    "UPDATE_OPS",
    "CONTROL_OPS",
    "QUERY_KINDS",
    "ProtocolError",
    "Request",
    "parse_line",
    "encode_response",
    "encode_json",
    "ok_response",
    "error_response",
]

#: Operations that mutate the world (batched and coalesced per tick).
UPDATE_OPS = ("move", "insert", "delete")
#: Operations answered outside the batching path.
CONTROL_OPS = ("query", "snapshot", "tick", "stats", "ping", "shutdown", "resume")
#: Recognised query kinds.
QUERY_KINDS = ("neighbours", "route", "coverage", "digest")


class ProtocolError(ValueError):
    """A request line that cannot be parsed into a valid :class:`Request`."""


@dataclass(frozen=True)
class Request:
    """One parsed request line.

    ``node`` / ``position`` are populated for update events, ``kind`` /
    ``args`` for queries; ``client_id`` is the caller's correlation id,
    echoed in the reply.
    """

    op: str
    node: Optional[int] = None
    position: Optional[Tuple[float, float]] = None
    kind: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    client_id: Any = None

    @property
    def is_update(self) -> bool:
        return self.op in UPDATE_OPS


def _require_node(payload: Dict[str, Any], op: str) -> int:
    node = payload.get("node")
    if not isinstance(node, int) or isinstance(node, bool) or node < 0:
        raise ProtocolError(f"{op!r} needs a non-negative integer 'node'")
    return node


def _require_position(payload: Dict[str, Any], op: str) -> Tuple[float, float]:
    position = payload.get("position")
    if (
        not isinstance(position, (list, tuple))
        or len(position) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in position)
    ):
        raise ProtocolError(f"{op!r} needs a 'position' of two finite numbers")
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ProtocolError(f"{op!r} needs a 'position' of two finite numbers")
    return (x, y)


def parse_line(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on any defect."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as err:
        raise ProtocolError(f"request is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in UPDATE_OPS and op not in CONTROL_OPS:
        known = ", ".join(UPDATE_OPS + CONTROL_OPS)
        raise ProtocolError(f"unknown op {op!r}; known: {known}")
    client_id = payload.get("id")

    if op == "move":
        return Request(
            op=op,
            node=_require_node(payload, op),
            position=_require_position(payload, op),
            client_id=client_id,
        )
    if op == "insert":
        return Request(op=op, position=_require_position(payload, op), client_id=client_id)
    if op == "delete":
        return Request(op=op, node=_require_node(payload, op), client_id=client_id)
    if op == "query":
        kind = payload.get("kind")
        if kind not in QUERY_KINDS:
            raise ProtocolError(
                f"unknown query kind {kind!r}; known: {', '.join(QUERY_KINDS)}"
            )
        args = {
            k: v for k, v in payload.items() if k not in ("op", "kind", "id")
        }
        return Request(op=op, kind=kind, args=args, client_id=client_id)
    return Request(op=op, client_id=client_id)


def _lenient(value: Any) -> Any:
    return jsonify(value, strict=False)


def encode_json(payload: Dict[str, Any], default: Callable[[Any], Any] = jsonify) -> str:
    """Sorted-key, fixed-separator JSON of a str-keyed ``payload`` in one ``json.dumps``.

    The encoder writes plain JSON types itself and hands only the rest
    (numpy scalars and arrays, sets, dataclasses ...) to ``default``, so
    the bytes equal ``canonical_json(payload)`` without its recursive walk
    over every list element.  Non-str dict keys are outside that contract:
    ``json.dumps`` spells ``True`` / ``None`` keys differently and cannot
    sort mixed key types.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=default)


def encode_response(payload: Dict[str, Any]) -> str:
    """One canonical-JSON response line (no trailing newline); odd values degrade to ``repr``."""
    return encode_json(payload, _lenient)


def ok_response(client_id: Any = None, **fields: Any) -> str:
    payload: Dict[str, Any] = {"ok": True, **fields}
    if client_id is not None:
        payload["id"] = client_id
    return encode_response(payload)


def error_response(message: str, client_id: Any = None, **fields: Any) -> str:
    payload: Dict[str, Any] = {"ok": False, "error": message, **fields}
    if client_id is not None:
        payload["id"] = client_id
    return encode_response(payload)
