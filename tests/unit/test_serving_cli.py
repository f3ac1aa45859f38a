"""CLI tests for ``repro serve`` and ``repro loadgen``.

Mirrors ``test_cli.py``: parser shape first, then command behaviour
through :func:`repro.cli.main` — happy paths *and* the clean-error
paths (bad tenant names, unknown estimators, port already bound, empty
tenant roots), which must exit 1 with an ``error:`` line rather than a
traceback.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.serving import ServingTCPServer, TCPTransport
from repro.serving.loadgen import request_stream, WorkloadSpec
from repro.serving.server import EstimationServer, ServingConfig
from repro.serving.tenants import TenantCatalogs

from tests.helpers import provision_tenants

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def tenant_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serving-cli-tenants")
    provision_tenants(root, tenant_count=2, records=1_000, seed=5)
    return root


class TestParser:
    def test_serve_requires_tenant_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--tenant-root", "/tmp/t"]
        )
        assert args.port == 8337
        assert args.host == "127.0.0.1"
        assert args.max_seconds is None
        assert args.batch_window_ms == pytest.approx(2.0)

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--tenant-root", "/tmp/t"]
        )
        assert args.mode == "closed"
        assert args.clients == 8
        assert args.requests == 400

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--tenant-root", "/tmp/t",
                 "--estimators", "nope"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--tenant-root", "/tmp/t",
                 "--fallback", "nope"]
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--tenant-root", "/tmp/t", "--mode", "spin"]
            )


class TestLoadgenErrors:
    def test_bad_tenant_name_is_clean_error(self, tenant_root, capsys):
        code = main(
            ["loadgen", "--tenant-root", str(tenant_root),
             "--tenant-names", "Bad..Name", "--requests", "4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "invalid tenant name" in err

    def test_empty_root_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["loadgen", "--tenant-root", str(tmp_path), "--requests", "4"]
        )
        assert code == 1
        assert "no tenant namespaces" in capsys.readouterr().err

    def test_open_mode_with_connect_is_clean_error(self, tenant_root,
                                                   capsys):
        code = main(
            ["loadgen", "--tenant-root", str(tenant_root),
             "--mode", "open", "--connect", "127.0.0.1:1", "--requests",
             "4"]
        )
        assert code == 1
        assert "open-loop" in capsys.readouterr().err

    def test_malformed_connect_is_clean_error(self, tenant_root, capsys):
        code = main(
            ["loadgen", "--tenant-root", str(tenant_root),
             "--connect", "nocolon", "--requests", "4"]
        )
        assert code == 1
        assert "HOST:PORT" in capsys.readouterr().err


class TestLoadgenRuns:
    def test_closed_loop_in_process(self, tenant_root, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["loadgen", "--tenant-root", str(tenant_root),
             "--requests", "48", "--clients", "4", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "sustained QPS" in text
        document = json.loads(out.read_text())
        assert document["sent"] == 48
        assert document["accounted"] is True
        assert document["completed"] == 48
        assert document["mode"] == "closed"

    def test_open_loop_in_process(self, tenant_root, capsys):
        code = main(
            ["loadgen", "--tenant-root", str(tenant_root),
             "--mode", "open", "--qps", "400", "--requests", "40"]
        )
        assert code == 0
        assert "target QPS" in capsys.readouterr().out

    def test_same_seed_same_digest(self, tenant_root, tmp_path, capsys):
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["loadgen", "--tenant-root", str(tenant_root),
                 "--requests", "16", "--clients", "2", "--seed", "42",
                 "--out", str(out)]
            ) == 0
            digests.append(
                json.loads(out.read_text())["workload_digest"]
            )
        capsys.readouterr()
        assert digests[0] == digests[1]


class TestServeErrors:
    def test_port_in_use_is_clean_error(self, tenant_root, capsys):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(
                ["serve", "--tenant-root", str(tenant_root),
                 "--port", str(port)]
            )
        finally:
            blocker.close()
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeLifecycle:
    def test_max_seconds_serves_then_drains(self, tenant_root, capsys):
        """``repro serve --max-seconds`` answers traffic, then stops.

        A client thread fires requests over TCP while the command runs
        in this thread; every request sent before the stop must be
        answered (shutdown drains, never drops).
        """
        # Grab a free port; released just before serve binds it.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        tenants = TenantCatalogs(tenant_root)
        spec = WorkloadSpec(
            tenants=("tenant-0",),
            tenant_indexes=(
                ("tenant-0",
                 tuple(tenants.engine("tenant-0").index_names())),
            ),
            seed=1,
        )
        requests = request_stream(spec, 24)
        answers = []

        def client() -> None:
            transport = None
            deadline = time.monotonic() + 10.0
            while transport is None:
                try:
                    transport = TCPTransport("127.0.0.1", port)
                except Exception:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            try:
                for request in requests:
                    answers.append(transport.call(request))
            finally:
                transport.close()

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        code = main(
            ["serve", "--tenant-root", str(tenant_root),
             "--port", str(port), "--max-seconds", "1.5"]
        )
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 2 tenant(s)" in out
        assert "served" in out
        assert len(answers) == 24
        assert all(value > 0 for value in answers)

    def test_tcp_shutdown_while_inflight_drains(self, tenant_root):
        """Direct netserver check: stop with requests on the wire."""
        tenants = TenantCatalogs(tenant_root)
        index = tenants.engine("tenant-1").index_names()[0]
        server = EstimationServer(
            tenants, ServingConfig(batch_window_ms=0.5)
        ).start()
        with ServingTCPServer(server, host="127.0.0.1", port=0) as tcp:
            tcp.start_background()
            host, port = tcp.address
            transport = TCPTransport(host, port)
            try:
                values = []
                for i in range(12):
                    values.append(transport.call(
                        request_stream(
                            WorkloadSpec(
                                tenants=("tenant-1",),
                                indexes=(index,),
                                seed=i,
                            ),
                            1,
                        )[0]
                    ))
                    if i == 5:
                        # Ask for the stop mid-conversation; already
                        # admitted work must still answer.
                        tcp.request_stop()
            finally:
                transport.close()
        assert len(values) >= 6
        assert all(value > 0 for value in values)
