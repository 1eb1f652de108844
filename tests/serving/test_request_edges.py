"""Request edges that the server and the proxy must answer alike.

A body a worker answers must get the same status and labels through the
fleet proxy, and a malformed ``Content-Length`` must get a typed 400 from
both instead of pinning a handler thread.
"""

from __future__ import annotations

import io
import socket

import numpy as np
import pytest

from repro.api import ClusterModel, RunConfig
from repro.serving import (
    AssignmentServer,
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
)
from repro.serving.server import VERSION_HEADER

D = 4


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    rng = np.random.default_rng(23)
    model = ClusterModel(rng.normal(size=(3, D)) * 2, RunConfig(method="kmeans", k=3))
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    version = registry.publish(model, label="edges")
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as supervisor:
        with FleetProxy(supervisor) as proxy, AssignmentServer(registry=registry) as server:
            yield model, version, supervisor, proxy, server


def _npy_bytes(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return out.getvalue()


BODIES = {
    "one_row_1d": np.linspace(-1.0, 1.0, D),
    "empty": np.empty((0, D)),
    "wrong_width": np.zeros((3, D + 1)),
}


@pytest.mark.parametrize("name", sorted(BODIES))
def test_proxy_answers_npy_bodies_as_a_worker_does(served, name):
    model, version, supervisor, proxy, _ = served
    body = _npy_bytes(BODIES[name])
    answers = []
    for url in (supervisor.target_urls()[0][1], proxy.url):
        with ServingClient(url=url) as client:
            answers.append(
                client.request_raw("POST", "/assign", body, "application/x-npy")
            )
    (direct_status, direct_headers, direct_payload), (status, headers, payload) = answers
    assert status == direct_status
    if name == "wrong_width":
        assert status == 400
        return
    assert status == 200
    labels = np.load(io.BytesIO(payload), allow_pickle=False)
    direct = np.load(io.BytesIO(direct_payload), allow_pickle=False)
    assert labels.dtype == direct.dtype == np.int64
    np.testing.assert_array_equal(labels, direct)
    np.testing.assert_array_equal(labels, model.predict(BODIES[name]))
    assert headers[VERSION_HEADER] == direct_headers[VERSION_HEADER] == version


def _post_negative_length(address, content_type):
    """Raw ``POST /assign`` with ``Content-Length: -1``; the whole reply."""
    request = (
        "POST /assign HTTP/1.1\r\n"
        "Host: edges\r\n"
        f"Content-Type: {content_type}\r\n"
        "Content-Length: -1\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(address, timeout=3.0) as sock:
        sock.sendall(request)
        reply = b""
        # The handler closes the connection after the 400; a hung
        # handler surfaces as socket.timeout instead of a reply.
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


@pytest.mark.parametrize(
    "target, content_type",
    [
        ("server", "application/x-npy"),
        ("server", "application/json"),
        ("proxy", "application/x-npy"),
        ("proxy", "application/json"),
    ],
)
def test_negative_content_length_is_a_typed_400(served, target, content_type):
    _, _, _, proxy, server = served
    front = proxy if target == "proxy" else server
    reply = _post_negative_length(front.server_address[:2], content_type)
    assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
    assert b"invalid Content-Length" in reply
