"""Property tests pinning the serving tier's core identity.

The micro-batcher's contract is *byte identity*: any set of requests —
mixed tenants, mixed estimators, duplicates, any submission order —
answered through the batching dispatcher must equal the same requests
answered one at a time by each tenant's own engine, float-for-float
(``==``, not approx).  Hypothesis drives the request mix; profiles in
``tests/conftest.py`` keep the example stream deterministic.

The wire format carries the same guarantee across the network
boundary, so the protocol round-trip is property-tested here too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    EstimateRequest,
    EstimationServer,
    TenantCatalogs,
    decode_request,
    decode_response,
    encode,
)
from repro.serving.protocol import EstimateResponse
from repro.types import ScanSelectivity

from tests.helpers import provision_tenants

pytestmark = pytest.mark.serving

ESTIMATORS = ("epfis", "ml", "ot")


@pytest.fixture(scope="module")
def serving_world(tmp_path_factory):
    """Two small provisioned tenants, their engines, one live server."""
    root = tmp_path_factory.mktemp("serving-prop")
    provision_tenants(root, tenant_count=2, records=1_200, seed=13)
    tenants = TenantCatalogs(root)
    names = tenants.tenant_names()
    indexes = {
        name: tenants.engine(name).index_names()[0] for name in names
    }
    with EstimationServer(tenants) as server:
        yield names, indexes, tenants, server


request_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),          # tenant pick
        st.sampled_from(ESTIMATORS),
        st.floats(min_value=0.001, max_value=1.0),      # sigma
        st.floats(min_value=0.05, max_value=1.0),       # sargable
        st.integers(min_value=1, max_value=300),        # buffer pages
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=30)
@given(specs=request_specs)
def test_batched_results_are_byte_identical_to_serial(
    serving_world, specs
):
    names, indexes, tenants, server = serving_world
    requests, expected = [], []
    for i, (pick, estimator, sigma, sargable, buffers) in enumerate(
        specs
    ):
        tenant = names[pick]
        index = indexes[tenant]
        requests.append(
            EstimateRequest(
                tenant=tenant, index=index, estimator=estimator,
                sigma=sigma, sargable=sargable, buffer_pages=buffers,
                request_id=i,
            )
        )
        expected.append(
            tenants.engine(tenant).estimate(
                index, estimator, ScanSelectivity(sigma, sargable),
                buffers,
            )
        )
    # Submit the whole burst before resolving anything, so the
    # dispatcher is free to coalesce it however the window falls —
    # the identity must hold for every possible batching.
    futures = [server.submit(request) for request in requests]
    got = [future.result(timeout=60.0) for future in futures]
    assert got == expected


@settings(max_examples=30)
@given(specs=request_specs)
def test_duplicate_requests_answer_identically(serving_world, specs):
    names, indexes, _, server = serving_world
    pick, estimator, sigma, sargable, buffers = specs[0]
    tenant = names[pick]
    request = EstimateRequest(
        tenant=tenant, index=indexes[tenant], estimator=estimator,
        sigma=sigma, sargable=sargable, buffer_pages=buffers,
    )
    futures = [server.submit(request) for _ in range(4)]
    values = {future.result(timeout=60.0) for future in futures}
    assert len(values) == 1


@settings(max_examples=100)
@given(
    tenant=st.from_regex(r"[a-z0-9][a-z0-9_-]{0,63}", fullmatch=True),
    index=st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\n\r"
        ),
        min_size=1, max_size=40,
    ),
    estimator=st.sampled_from(ESTIMATORS),
    sigma=st.floats(min_value=0.0, max_value=1.0),
    sargable=st.floats(min_value=0.0, max_value=1.0),
    buffers=st.integers(min_value=1, max_value=10**9),
    request_id=st.integers(min_value=0, max_value=2**53),
)
def test_request_wire_round_trip_is_exact(
    tenant, index, estimator, sigma, sargable, buffers, request_id
):
    request = EstimateRequest(
        tenant=tenant, index=index, estimator=estimator, sigma=sigma,
        sargable=sargable, buffer_pages=buffers, request_id=request_id,
    )
    assert decode_request(encode(request)) == request


@settings(max_examples=100)
@given(
    estimate=st.floats(
        allow_nan=False, allow_infinity=False, min_value=0.0
    ),
    request_id=st.integers(min_value=0, max_value=2**53),
)
def test_response_wire_round_trip_is_exact(estimate, request_id):
    response = EstimateResponse(
        request_id=request_id, ok=True, estimate=estimate
    )
    assert decode_response(encode(response)) == response
