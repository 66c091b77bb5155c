"""The gateway wire protocol: ``Response`` envelopes over JSON/HTTP.

Every HTTP body the gateway serves is exactly
``Response.to_dict()`` rendered as JSON — the typed envelopes and
structured :class:`ErrorCode`s of the control plane were built to
serialize, so the wire adds no second vocabulary.  The HTTP status
line is a fixed function of the envelope's code (:data:`HTTP_STATUS`);
clients that only look at the status still get sensible REST
semantics, clients that parse the body get the full envelope.
"""

from __future__ import annotations

import json

from repro.server.services.envelope import ErrorCode, Response

#: ErrorCode -> HTTP status.  Entity lookups map to 404, authorization
#: to 403, state conflicts to 409, semantic rejections to 422,
#: malformed requests to 400, and unexpected server faults to 500.
HTTP_STATUS = {
    ErrorCode.OK: 200,
    ErrorCode.UNKNOWN_ENTITY: 404,
    ErrorCode.NOT_INSTALLED: 404,
    ErrorCode.UNAUTHORIZED: 403,
    ErrorCode.DUPLICATE_ENTITY: 409,
    ErrorCode.ALREADY_INSTALLED: 409,
    ErrorCode.DEPENDENTS_PRESENT: 409,
    ErrorCode.INVALID_STATE: 409,
    ErrorCode.NOTHING_TO_DO: 409,
    ErrorCode.VERSION_UNCHANGED: 409,
    ErrorCode.CAMPAIGN_STATE: 409,
    ErrorCode.INCOMPATIBLE: 422,
    ErrorCode.NOT_PERSISTABLE: 422,
    ErrorCode.VERIFICATION_FAILED: 422,
    ErrorCode.INVALID_REQUEST: 400,
    ErrorCode.INTERNAL: 500,
}

#: Status used when the gateway itself (not the control plane) cannot
#: service a request in time — the command pump did not run before the
#: request deadline.
STATUS_GATEWAY_BUSY = 503


def http_status(response: Response) -> int:
    """The HTTP status line for one envelope."""
    return HTTP_STATUS.get(response.code, 500 if not response.ok else 200)


def encode(response: Response) -> tuple[int, bytes]:
    """``(status, body)`` of one envelope; body is UTF-8 JSON.

    Keys are sorted so responses are byte-deterministic for identical
    envelopes — the same property the telemetry snapshots guarantee.
    """
    body = json.dumps(response.to_dict(), sort_keys=True).encode("utf-8")
    return http_status(response), body


def decode(body: bytes | str) -> Response:
    """Parse a wire body back into an envelope (client side)."""
    if isinstance(body, bytes):
        body = body.decode("utf-8")
    return Response.from_dict(json.loads(body))


__all__ = ["HTTP_STATUS", "STATUS_GATEWAY_BUSY", "decode", "encode", "http_status"]
