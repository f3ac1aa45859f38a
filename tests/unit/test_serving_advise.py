"""Advisory request types through the serving tier.

Pins the issue's serving guarantees: the ``type`` discriminator keeps
the wire protocol backward compatible with legacy single-estimate
clients; a batched multi-index ``grid`` request is byte-identical to
the equivalent serial per-point fan-out; an ``advise`` request served
from a tenant's live catalog is byte-identical to the offline CLI path
over the same catalog file.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import ServingError
from repro.serving import (
    AdviseRequest,
    EstimateRequest,
    EstimationServer,
    GridRequest,
    ServingTCPServer,
    TenantCatalogs,
    decode_any,
    decode_request,
    encode,
)
from repro.serving.protocol import CODE_REJECTED
from repro.serving.tenants import CATALOG_FILE

from repro.advisor import AdvisorSpec, advise, uniform_fleet

from tests.helpers import provision_tenants

pytestmark = pytest.mark.advisor


@pytest.fixture(scope="module")
def tenant_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("advise-tenants")
    provision_tenants(root, tenant_count=2, records=1_000, seed=23)
    return root


@pytest.fixture(scope="module")
def indexes(tenant_root):
    tenants = TenantCatalogs(tenant_root)
    return {
        name: tenants.engine(name).index_names()[0]
        for name in tenants.tenant_names()
    }


@pytest.fixture()
def server(tenant_root):
    with EstimationServer(TenantCatalogs(tenant_root)) as srv:
        yield srv


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestWire:
    def test_grid_request_round_trips(self):
        request = GridRequest(
            tenant="t0",
            estimator="epfis",
            indexes=("a", "b"),
            selectivities=((0.1, 1.0), (0.5, 0.25)),
            buffers=(1, 8, 64),
            request_id=7,
            options=(("clamp", True),),
        )
        line = encode(request)
        assert '"type":"grid"' in line
        assert decode_any(line) == request

    def test_advise_request_round_trips(self):
        spec = AdvisorSpec(
            fleet=uniform_fleet(["idx"]), budgets=(8, 16)
        ).to_dict()
        request = AdviseRequest(tenant="t0", spec=spec, request_id=3)
        decoded = decode_any(encode(request))
        assert isinstance(decoded, AdviseRequest)
        assert decoded.tenant == "t0"
        assert decoded.request_id == 3
        assert decoded.spec == spec

    def test_legacy_estimate_lines_still_decode(self):
        # No "type" key at all — the pre-grid wire format.
        legacy = (
            '{"tenant":"t","index":"i","estimator":"epfis",'
            '"sigma":0.1,"buffers":4}\n'
        )
        request = decode_any(legacy)
        assert isinstance(request, EstimateRequest)
        assert request == decode_request(legacy)
        # Explicit type:"estimate" is the same request, not an
        # unknown-key rejection.
        tagged = (
            '{"type":"estimate","tenant":"t","index":"i",'
            '"estimator":"epfis","sigma":0.1,"buffers":4}\n'
        )
        assert decode_any(tagged) == request

    def test_unknown_type_rejected(self):
        with pytest.raises(ServingError, match="unknown request type"):
            decode_any('{"type":"mystery","tenant":"t"}')

    def test_selectivity_entries_accept_sigma_only(self):
        line = (
            '{"type":"grid","tenant":"t","estimator":"e",'
            '"indexes":["i"],"selectivities":[[0.2],[0.4,0.5]],'
            '"buffers":[4]}\n'
        )
        request = decode_any(line)
        assert request.selectivities == ((0.2, 1.0), (0.4, 0.5))


# ----------------------------------------------------------------------
# Grid byte-identity vs the serial path
# ----------------------------------------------------------------------
class TestGrid:
    def test_grid_equals_serial_estimates_exactly(
        self, server, indexes
    ):
        index = indexes["tenant-0"]
        selectivities = ((0.05, 1.0), (0.3, 0.5), (0.9, 1.0))
        buffers = (1, 4, 16, 64)
        curves = server.grid(GridRequest(
            tenant="tenant-0",
            estimator="epfis",
            indexes=(index,),
            selectivities=selectivities,
            buffers=buffers,
        ))
        grid = curves[index]
        assert len(grid) == len(buffers)
        for g, pages in enumerate(buffers):
            for s, (sigma, sargable) in enumerate(selectivities):
                serial = server.estimate(EstimateRequest(
                    tenant="tenant-0", index=index,
                    estimator="epfis", sigma=sigma,
                    buffer_pages=pages, sargable=sargable,
                ))
                assert grid[g][s] == serial  # exact, not approx

    def test_grid_respond_ok_and_sorted_curves(self, server, indexes):
        index = indexes["tenant-1"]
        response = server.grid_respond(GridRequest(
            tenant="tenant-1", estimator="epfis",
            indexes=(index,), selectivities=((0.1, 1.0),),
            buffers=(2, 8), request_id=11,
        ))
        assert response.ok
        assert response.request_id == 11
        assert list(response.to_dict()["curves"]) == [index]

    def test_grid_rejections(self, server, indexes):
        index = indexes["tenant-0"]
        bad_tenant = server.grid_respond(GridRequest(
            tenant="no such tenant!", estimator="epfis",
            indexes=(index,), selectivities=((0.1, 1.0),),
            buffers=(2,),
        ))
        assert not bad_tenant.ok and bad_tenant.code == CODE_REJECTED
        bad_buffer = server.grid_respond(GridRequest(
            tenant="tenant-0", estimator="epfis",
            indexes=(index,), selectivities=((0.1, 1.0),),
            buffers=(0,),
        ))
        assert not bad_buffer.ok and bad_buffer.code == CODE_REJECTED
        bad_sigma = server.grid_respond(GridRequest(
            tenant="tenant-0", estimator="epfis",
            indexes=(index,), selectivities=((7.0, 1.0),),
            buffers=(2,),
        ))
        assert not bad_sigma.ok and bad_sigma.code == CODE_REJECTED

    def test_grid_requires_started_server(self, tenant_root, indexes):
        server = EstimationServer(TenantCatalogs(tenant_root))
        with pytest.raises(ServingError, match="not started"):
            server.grid(GridRequest(
                tenant="tenant-0", estimator="epfis",
                indexes=(indexes["tenant-0"],),
                selectivities=((0.1, 1.0),), buffers=(2,),
            ))


# ----------------------------------------------------------------------
# Advise byte-identity vs the offline path
# ----------------------------------------------------------------------
def _spec_for(index):
    return AdvisorSpec(
        fleet=uniform_fleet([index], scans_per_second=5.0),
        budgets=(4, 8, 16),
    )


class TestAdvise:
    def test_served_report_matches_offline_cli_path(
        self, server, tenant_root, indexes
    ):
        index = indexes["tenant-0"]
        spec = _spec_for(index)
        served = server.advise(AdviseRequest(
            tenant="tenant-0", spec=spec.to_dict()
        ))
        catalog = tenant_root / "tenant-0" / CATALOG_FILE
        offline = advise(catalog, spec, path="cli").to_dict()
        assert (
            json.dumps(served, sort_keys=True)
            == json.dumps(offline, sort_keys=True)
        )

    def test_advise_respond_wire_round_trip(self, server, indexes):
        index = indexes["tenant-1"]
        response = server.advise_respond(AdviseRequest(
            tenant="tenant-1", spec=_spec_for(index).to_dict(),
            request_id=5,
        ))
        assert response.ok and response.request_id == 5
        doc = response.to_dict()
        budgets = [point["budget"] for point in doc["report"]["sweep"]]
        assert budgets == [4, 8, 16]

    def test_advise_rejects_bad_spec_and_closed_server(
        self, server, tenant_root, indexes
    ):
        bad = server.advise_respond(AdviseRequest(
            tenant="tenant-0", spec={"fleet": [], "nope": 1}
        ))
        assert not bad.ok and bad.code == CODE_REJECTED
        server.close()
        closed = server.advise_respond(AdviseRequest(
            tenant="tenant-0",
            spec=_spec_for(indexes["tenant-0"]).to_dict(),
        ))
        assert not closed.ok and closed.code == CODE_REJECTED

    def test_advise_over_tcp_is_byte_identical(
        self, server, tenant_root, indexes
    ):
        index = indexes["tenant-0"]
        spec = _spec_for(index)
        expected = advise(
            tenant_root / "tenant-0" / CATALOG_FILE, spec, path="cli"
        ).to_dict()
        with ServingTCPServer(
            server, host="127.0.0.1", port=0
        ) as tcp:
            tcp.start_background()
            host, port = tcp.address
            with socket.create_connection(
                (host, port), timeout=30.0
            ) as sock:
                reader = sock.makefile("r", encoding="utf-8")
                request = AdviseRequest(
                    tenant="tenant-0", spec=spec.to_dict(),
                    request_id=42,
                )
                sock.sendall(encode(request).encode("utf-8"))
                line = reader.readline()
        doc = json.loads(line)
        assert doc["ok"] and doc["id"] == 42
        assert (
            json.dumps(doc["report"], sort_keys=True)
            == json.dumps(expected, sort_keys=True)
        )
