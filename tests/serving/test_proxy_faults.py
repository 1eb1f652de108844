"""Injected proxy faults: dead-lane replay and version-skew fallback.

Every fault offset must yield either a bit-identical answer (replayed
on a survivor, or degraded to a buffered scatter) or a typed error —
never a silently wrong or partial response.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.serving.proxy as proxy_module
from repro.api import ClusterModel, RunConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs.prometheus import parse_text
from repro.serving import (
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
)
from repro.serving.proxy import WORKER_HEADER
from repro.serving.server import VERSION_HEADER

D = 4
ROWS, CHUNK = 40, 8
N_FRAMES = ROWS // CHUNK  # 5 dealt frames per streamed request


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    rng = np.random.default_rng(17)
    model = ClusterModel(rng.normal(size=(3, D)) * 2, RunConfig(method="kmeans", k=3))
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    version = registry.publish(model, label="faults")
    probe = rng.normal(size=(ROWS, D))
    # Huge heartbeat: the monitor never interferes with injected deaths.
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as supervisor:
        yield supervisor, model, version, probe


def _all_offsets(func):
    """Guarantee hypothesis visits *every* frame boundary at least once."""
    for offset in range(N_FRAMES):
        func = example(offset=offset)(func)
    return func


@_all_offsets
@given(offset=st.integers(min_value=0, max_value=N_FRAMES - 1))
@settings(
    max_examples=N_FRAMES * 2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dead_lane_replays_on_survivor_at_every_frame_boundary(fleet, offset):
    """A lane whose worker 'dies' mid-stream at frame *offset* replays
    its dealt frames on the surviving worker, bit-identically."""
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=offset, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(probe, chunk_size=CHUNK)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            assert response.version == version
            # The poisoned worker url stays dead for the injector, so
            # the lane must have completed on the *other* worker.
            status, headers, _ = client.request_raw(
                "POST", "/assign", _npy_bytes(probe), "application/x-npy"
            )
            assert status == 200
            assert headers[WORKER_HEADER] in {"0", "1"}


def _npy_bytes(array):
    import io

    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return out.getvalue()


def test_dead_lane_replay_with_distances(fleet):
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=2, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(
                probe, chunk_size=CHUNK, return_distance=True
            )
            expected_labels, expected_distances = model.assign(
                probe, return_distance=True
            )
            np.testing.assert_array_equal(response.labels, expected_labels)
            np.testing.assert_array_equal(response.distances, expected_distances)


def test_version_skew_degrades_to_buffered_scatter(fleet, monkeypatch):
    """Lanes that disagree on the serving version (rollout mid-scatter)
    are re-run as a buffered scatter; the answer stays bit-identical."""
    supervisor, model, version, probe = fleet
    # Open a second lane immediately so the stream really spans lanes.
    monkeypatch.setattr(proxy_module, "MIN_DEAL_BYTES", 1)
    plan = FaultPlan([FaultEvent(site="proxy.lane.version", at=0, kind="skew")])
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(probe, chunk_size=CHUNK)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            # The client-visible version is the clean one, never the
            # skew-tagged lane answer.
            assert response.version == version


def test_multi_lane_disconnect_still_bit_identical(fleet, monkeypatch):
    """Disconnect with two live lanes: only the poisoned lane replays."""
    supervisor, model, version, probe = fleet
    monkeypatch.setattr(proxy_module, "MIN_DEAL_BYTES", 1)
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane1.frame", at=1, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(probe, chunk_size=CHUNK)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            assert response.version == version


# -- npy bodies on the dealt path -------------------------------------- #
#
# An npy body is dealt as a one-frame stream. Shrinking DEAL_SLICE_BYTES
# to one CHUNK of rows reslices the ROWS-row body into N_FRAMES frames,
# and MIN_DEAL_BYTES=1 opens the second lane at once, so the body spans
# both workers exactly like the streamed requests above.


@pytest.fixture
def dealt_npy(monkeypatch):
    monkeypatch.setattr(proxy_module, "MIN_DEAL_BYTES", 1)
    monkeypatch.setattr(proxy_module, "DEAL_SLICE_BYTES", CHUNK * D * 8)


def _post_npy(client, points):
    status, headers, payload = client.request_raw(
        "POST", "/assign", _npy_bytes(points), "application/x-npy"
    )
    assert status == 200, payload
    return headers, np.load(io.BytesIO(payload), allow_pickle=False)


def _lane_replays(client):
    _, _, payload = client.request_raw("GET", "/metrics")
    families = {f.name: f for f in parse_text(payload.decode("utf-8"))}
    return sum(s.value for s in families["repro_proxy_lane_replays_total"].samples)


def test_npy_body_dealt_across_both_workers_is_bit_identical(fleet, dealt_npy):
    supervisor, model, version, probe = fleet
    with FleetProxy(supervisor) as proxy:
        with ServingClient(url=proxy.url) as client:
            headers, labels = _post_npy(client, probe)
    np.testing.assert_array_equal(labels, model.predict(probe))
    assert headers[VERSION_HEADER] == version
    assert sorted(headers[WORKER_HEADER].split(",")) == ["0", "1"]


def test_npy_body_version_skew_degrades_to_clean_answer(fleet, dealt_npy):
    supervisor, model, version, probe = fleet
    plan = FaultPlan([FaultEvent(site="proxy.lane.version", at=0, kind="skew")])
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            headers, labels = _post_npy(client, probe)
    np.testing.assert_array_equal(labels, model.predict(probe))
    assert headers[VERSION_HEADER] == version


# Lane 0 is dealt frames 0, 2 and 4 of the body: fault each of them.
@pytest.mark.parametrize("offset", [0, 1, 2])
def test_npy_body_dead_lane_replays_on_survivor(fleet, dealt_npy, offset):
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=offset, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            headers, labels = _post_npy(client, probe)
            assert _lane_replays(client) >= 1
    np.testing.assert_array_equal(labels, model.predict(probe))
    assert headers[VERSION_HEADER] == version
    # The poisoned worker stays dead for the injector: only the survivor
    # can have answered.
    assert headers[WORKER_HEADER] in {"0", "1"}
