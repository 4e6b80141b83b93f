"""The flow service: coalescing, caching, HTTP protocol, shutdown."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.serve import ApiError, Coalescer, Router, ServeConfig, ServeDaemon
from repro.serve.router import HttpResponse, parse_request_head


# -- coalescer ----------------------------------------------------------------


def test_concurrent_identical_keys_compute_once():
    calls = []

    async def main():
        coalescer = Coalescer()

        async def supplier():
            calls.append(1)
            await asyncio.sleep(0.01)  # hold the key in flight
            return {"answer": 42}

        results = await asyncio.gather(*[
            coalescer.run("k", supplier) for _ in range(8)])
        return coalescer, results

    coalescer, results = asyncio.run(main())
    assert len(calls) == 1
    assert coalescer.computations == 1
    assert coalescer.coalesced == 7
    assert all(value == {"answer": 42} for value, _ in results)
    assert sum(1 for _, coalesced in results if coalesced) == 7
    assert coalescer.inflight == 0


def test_distinct_keys_compute_separately():
    async def main():
        coalescer = Coalescer()

        async def supplier(i):
            await asyncio.sleep(0.005)
            return i

        await asyncio.gather(*[
            coalescer.run(f"k{i}", lambda i=i: supplier(i))
            for i in range(4)])
        return coalescer

    coalescer = asyncio.run(main())
    assert coalescer.computations == 4 and coalescer.coalesced == 0


def test_failures_propagate_and_clear_the_key():
    async def main():
        coalescer = Coalescer()

        async def boom():
            await asyncio.sleep(0.005)
            raise RuntimeError("flow exploded")

        outcomes = await asyncio.gather(
            *[coalescer.run("k", boom) for _ in range(3)],
            return_exceptions=True)

        async def fine():
            return "recovered"

        retry, coalesced = await coalescer.run("k", fine)
        return coalescer, outcomes, retry, coalesced

    coalescer, outcomes, retry, coalesced = asyncio.run(main())
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    assert retry == "recovered" and not coalesced
    assert coalescer.computations == 2  # the failure and the retry


# -- router / http plumbing ---------------------------------------------------


def test_parse_request_head():
    method, path, query, headers = parse_request_head(
        b"POST /v1/run?stream=1 HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 2")
    assert (method, path) == ("POST", "/v1/run")
    assert query == {"stream": "1"}
    assert headers == {"host": "x", "content-length": "2"}
    with pytest.raises(ApiError):
        parse_request_head(b"garbage")


def test_router_dispatch_errors():
    router = Router()

    async def ok(_req):
        return HttpResponse(payload={})

    router.add("GET", "/v1/x", ok)
    assert router.resolve("get", "/v1/x") is ok
    with pytest.raises(ApiError) as not_found:
        router.resolve("GET", "/v1/y")
    assert not_found.value.status == 404
    with pytest.raises(ApiError) as bad_method:
        router.resolve("POST", "/v1/x")
    assert bad_method.value.status == 405


# -- the daemon ---------------------------------------------------------------


async def _post(port, path, payload, raw_body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = raw_body if raw_body is not None else json.dumps(payload).encode()
    writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, rest = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), rest


async def _post_json(port, path, payload):
    status, rest = await _post(port, path, payload)
    return status, json.loads(rest)


async def _get_json(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, rest = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(rest)


@pytest.fixture(scope="module")
def tiny_ref(tmp_path_factory, tiny_design):
    from repro.io import save_design

    path = tmp_path_factory.mktemp("serve") / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


def _daemon_config(tmp_path, **overrides):
    defaults = dict(port=0, workers=1, store_root=str(tmp_path / "store"))
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _measured(result):
    """A run result without its cache flag and wall time."""
    return {k: v for k, v in result.items()
            if k not in ("cached", "runtime_s")}


@pytest.mark.parametrize("path,fields", [
    pytest.param("/v1/run", {"policy": "smart", "slack": 0.3}, id="run"),
    pytest.param("/v1/sweep", {"slacks": [0.5, 0.2]}, id="sweep"),
])
def test_daemon_coalesces_and_caches(tmp_path, tiny_ref, path, fields):
    """N identical concurrent requests -> exactly one computation."""
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path))
        await daemon.start()
        try:
            payload = {"design": tiny_ref, **fields}
            results = await asyncio.gather(*[
                _post_json(daemon.port, path, payload)
                for _ in range(6)])
            repeat = await _post_json(daemon.port, path, payload)
            stats = daemon.stats()
            return daemon, results, repeat, stats
        finally:
            await daemon.stop()

    daemon, results, repeat, stats = asyncio.run(main())
    assert all(status == 200 and env["status"] == "ok"
               for status, env in results)
    # Everyone got the same computed report.
    assert all(env["result"] == results[0][1]["result"]
               for _, env in results)
    # The proof: one computation, one pool submission, 5 coalesced.
    assert stats["coalescer"]["computations"] == 1
    assert stats["pool"]["submitted"] == 1
    assert sum(1 for _, env in results if env["coalesced"]) == 5
    # A later identical request is a response-cache hit, not a rerun.
    status, env = repeat
    assert status == 200 and env["cached"] and not env["coalesced"]
    assert stats["counters"]["response_cache_hits"] == 1
    keys = {env["key"] for _, env in results}
    assert keys == {repeat[1]["key"]} and None not in keys


def test_daemon_distinct_slacks_each_compute(tmp_path, tiny_ref):
    """Concurrent smart runs at distinct slacks on two workers: each
    computes its own cell (none is answered by another's record), each
    equals the in-process run, and each repeat is a response-cache hit."""
    from repro import api

    bodies = [{"design": tiny_ref, "policy": "smart", "slack": slack}
              for slack in (0.21, 0.23, 0.25, 0.27)]

    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, workers=2))
        await daemon.start()
        try:
            cold = await asyncio.gather(*[
                _post_json(daemon.port, "/v1/run?trace=1", body)
                for body in bodies])
            cold_submitted = daemon.pool.submitted
            hot = await asyncio.gather(*[
                _post_json(daemon.port, "/v1/run", body) for body in bodies])
            return cold, cold_submitted, hot, daemon.pool.submitted
        finally:
            await daemon.stop()

    cold, cold_submitted, hot, hot_submitted = asyncio.run(main())
    assert [status for status, _ in cold] == [200] * len(bodies)
    assert cold_submitted == len(bodies)
    for body, (_, env) in zip(bodies, cold):
        smart_cells = [r["attrs"] for r in env["trace"]["records"]
                       if r["name"] == obs.CELL_SPAN
                       and r["attrs"]["policy"] == "smart"]
        assert [cell["cached"] for cell in smart_cells] == [False], body
        direct = api.report_to_dict(api.run(api.FlowRequest(**body),
                                            store=False))
        assert _measured(env["result"]) \
            == _measured(json.loads(json.dumps(direct))), body
    assert all(status == 200 and env["cached"] for status, env in hot)
    assert hot_submitted == len(bodies)


def test_daemon_workers_verify_under_the_variable(tmp_path, tiny_ref):
    """REPRO_VERIFY_FLOWS (set suite-wide) reaches the daemon's
    workers: the flows they compute run the check registry."""
    import os

    assert os.environ.get("REPRO_VERIFY_FLOWS")

    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path))
        await daemon.start()
        try:
            return await _post_json(
                daemon.port, "/v1/run?trace=1",
                {"design": tiny_ref, "policy": "smart", "slack": 0.33})
        finally:
            await daemon.stop()

    status, env = asyncio.run(main())
    assert status == 200, env
    assert env["trace"]["metrics"]["verify.checks_run"]["value"] > 0


def test_daemon_keeps_metrics_not_spans(tmp_path, tiny_ref):
    """A daemon that installed its own tracer keeps no span records,
    however many requests it serves, and still merges the workers'
    counters into /v1/metrics."""
    bodies = [{"design": tiny_ref, "policy": "no-ndr",
               "slack": round(0.2 + 0.01 * i, 2)} for i in range(20)]

    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path))
        await daemon.start()
        try:
            records = {}
            for i, body in enumerate(bodies, start=1):
                for _ in range(2):  # a miss, then its response-cache hit
                    status, _env = await _post_json(daemon.port, "/v1/run",
                                                    body)
                    assert status == 200
                if 2 * i in (10, 40):
                    records[2 * i] = len(obs.active().records)
            _, metrics = await _get_json(daemon.port, "/v1/metrics")
            return records, metrics["metrics"], daemon.stats()
        finally:
            await daemon.stop()

    records, metrics, stats = asyncio.run(main())
    assert records == {10: 0, 40: 0}
    assert stats["counters"]["response_cache_hits"] == len(bodies)
    assert metrics["serve.computations"]["value"] == len(bodies)
    assert metrics["runner.cells_computed"]["value"] == 2  # cell + reference
    assert metrics["runner.cells_cached"]["value"] == 2 * len(bodies) - 2
    assert metrics["artifacts.hits"]["value"] > 0


def test_daemon_http_errors_and_stats(tmp_path):
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, warm=False))
        await daemon.start()
        try:
            out = {}
            out["bad_json"] = await _post(daemon.port, "/v1/run", None,
                                          raw_body=b"{nope")
            out["bad_field"] = await _post_json(
                daemon.port, "/v1/run", {"design": "x", "slcak": 1})
            out["no_design"] = await _post_json(daemon.port, "/v1/run", {})
            out["wrong_kind"] = await _post_json(
                daemon.port, "/v1/sweep", {"kind": "run", "design": "x"})
            out["not_found"] = await _get_json(daemon.port, "/v1/nope")
            out["health"] = await _get_json(daemon.port, "/v1/health")
            out["stats"] = await _get_json(daemon.port, "/v1/stats")
            out["store_stats"] = await _get_json(daemon.port,
                                                 "/v1/store/stats")
            out["gc"] = await _post_json(daemon.port, "/v1/store/gc",
                                         {"max_bytes": 0})
            return out
        finally:
            await daemon.stop()

    out = asyncio.run(main())
    assert out["bad_json"][0] == 400
    assert out["bad_field"][0] == 400
    assert "slcak" in out["bad_field"][1]["error"]
    assert out["no_design"][0] == 400
    assert out["wrong_kind"][0] == 400
    assert out["not_found"][0] == 404
    assert out["health"][0] == 200
    assert out["health"][1]["status"] == "ok"
    assert out["health"][1]["workers"] == 1
    assert "/v1/run" in out["health"][1]["endpoints"]
    assert out["stats"][1]["coalescer"]["computations"] == 0
    assert out["store_stats"][1]["store"]["disk_entries"] == 0
    assert out["gc"][1]["evicted"] == 0


#: Bodies the daemon rejects with 400 before any worker sees them: an
#: out-of-range or mistyped number, an unknown design (also when
#: streamed, before the 200 head) and an unreadable design file.
BAD_FLOW_BODIES = [
    pytest.param("/v1/run", {"design": "x", "slack": "0.2"}, id="run-slack-str"),
    pytest.param("/v1/run", {"design": "x", "slack": -0.1}, id="run-slack-neg"),
    pytest.param("/v1/run", {"design": "x", "slack": True}, id="run-slack-bool"),
    pytest.param("/v1/run", {"design": "x", "lambda_track": -1.0},
                 id="run-lambda-neg"),
    pytest.param("/v1/run", {"design": "x", "lambda_track": "0.05"},
                 id="run-lambda-str"),
    pytest.param("/v1/run", {"design": "x", "random_fraction": 1.5},
                 id="run-fraction-high"),
    pytest.param("/v1/run", {"design": "x", "random_fraction": -0.1},
                 id="run-fraction-neg"),
    pytest.param("/v1/run", {"design": "x", "random_seed": 1.5},
                 id="run-seed-float"),
    pytest.param("/v1/run", {"design": "x", "random_seed": True},
                 id="run-seed-bool"),
    pytest.param("/v1/compare", {"design": "x", "slack": -0.1},
                 id="compare-slack-neg"),
    pytest.param("/v1/compare", {"design": "x", "slack": "0.2"},
                 id="compare-slack-str"),
    pytest.param("/v1/sweep", {"design": "x", "slacks": [0.3, -0.1]},
                 id="sweep-slack-neg"),
    pytest.param("/v1/sweep", {"design": "x", "slacks": ["0.2"]},
                 id="sweep-slack-str"),
    pytest.param("/v1/sweep", {"design": "x", "slacks": [True]},
                 id="sweep-slack-bool"),
    pytest.param("/v1/run", {"design": "no-such-design"},
                 id="run-unknown-design"),
    pytest.param("/v1/compare", {"design": "no-such-design"},
                 id="compare-unknown-design"),
    pytest.param("/v1/sweep", {"design": "no-such-design"},
                 id="sweep-unknown-design"),
    pytest.param("/v1/lint", {"design": "no-such-design"},
                 id="lint-unknown-design"),
    pytest.param("/v1/run", {"design": "no-such-design.json"},
                 id="run-missing-design-file"),
    pytest.param("/v1/run?stream=1", {"design": "no-such-design"},
                 id="run-stream-unknown-design"),
]


@pytest.mark.parametrize("path,body", BAD_FLOW_BODIES)
def test_daemon_rejects_malformed_flow_fields(tmp_path, path, body):
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, warm=False))
        await daemon.start()
        try:
            reply = await _post_json(daemon.port, path, body)
            return reply, daemon.pool.submitted
        finally:
            await daemon.stop()

    (status, env), submitted = asyncio.run(main())
    assert status == 400, env
    assert env["status"] == "error"
    assert submitted == 0


@pytest.mark.parametrize("max_bytes", [True, -1])
def test_daemon_gc_rejects_bool_and_negative_budgets(tmp_path, max_bytes):
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, warm=False))
        daemon.store.save("a" * 64, b"x" * 100)
        await daemon.start()
        try:
            reply = await _post_json(daemon.port, "/v1/store/gc",
                                     {"max_bytes": max_bytes})
            return reply, daemon.pool.submitted, daemon.store
        finally:
            await daemon.stop()

    (status, env), submitted, store = asyncio.run(main())
    assert status == 400, env
    assert submitted == 0
    assert store.evictions == 0
    assert store.path_for("a" * 64).exists()


def test_daemon_streams_request_events(tmp_path, tiny_ref):
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path))
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            body = json.dumps({"design": tiny_ref, "slack": 0.3}).encode()
            writer.write((f"POST /v1/run?stream=1&trace=1 HTTP/1.1\r\n"
                          f"Host: t\r\nContent-Length: {len(body)}"
                          "\r\n\r\n").encode() + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw
        finally:
            await daemon.stop()

    raw = asyncio.run(main())
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert b"chunked" in head
    # De-chunk: every line that parses as JSON is an event.
    events = [json.loads(line) for line in payload.split(b"\n")
              if line.strip().startswith(b"{")]
    assert [e["event"] for e in events] == ["accepted", "done"]
    done = events[-1]
    assert done["result"]["summary"]["power_uw"] > 0
    # The worker's span tree rode back with the response.
    names = {r["name"] for r in done["trace"]["records"]}
    assert "serve.request" in names


def test_daemon_shutdown_endpoint_is_clean(tmp_path):
    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, warm=False))
        await daemon.start()
        status, env = await _post_json(daemon.port, "/v1/shutdown", {})
        await asyncio.wait_for(daemon.run_until_shutdown(), timeout=10)
        return status, env

    status, env = asyncio.run(main())
    assert status == 200 and env == {"status": "ok", "stopping": True}
    assert obs.active() is None  # the daemon's tracer was uninstalled


def test_eviction_never_removes_inflight_response(tmp_path, tiny_ref):
    """GC under a zero budget while identical requests are in flight:
    coalesced waiters read the leader's result, not the store, so every
    one gets a full result, and a repeat computes the same one."""
    async def until_inflight(daemon):
        while daemon.coalescer.inflight == 0:
            await asyncio.sleep(0.005)

    async def main():
        daemon = ServeDaemon(_daemon_config(tmp_path, max_store_bytes=0))
        await daemon.start()
        try:
            payload = {"design": tiny_ref, "slack": 0.3}
            waiters = [asyncio.create_task(
                _post_json(daemon.port, "/v1/run", payload))
                for _ in range(3)]
            await asyncio.wait_for(until_inflight(daemon), timeout=30)
            swept = daemon.store.gc(max_bytes=0)
            assert daemon.coalescer.inflight == 1  # the sweep was mid-flight
            results = await asyncio.gather(*waiters)
            repeat = await _post_json(daemon.port, "/v1/run", payload)
            return daemon.stats(), swept, results, repeat
        finally:
            await daemon.stop()

    stats, swept, results, repeat = asyncio.run(main())
    assert swept["kept_bytes"] == 0
    assert all(status == 200 and env["result"]["summary"]["power_uw"] > 0
               for status, env in results)
    assert sorted(env["coalesced"] for _, env in results) \
        == [False, True, True]
    # Every save under the zero budget evicts, so the repeat computes
    # again from an empty store, and gets the same result.
    status, env = repeat
    assert status == 200 and not env["cached"]
    assert stats["coalescer"]["computations"] == 2
    assert all(_measured(e["result"]) == _measured(env["result"])
               for _, e in results)
