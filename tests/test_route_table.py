"""The HTTP route table (http_api.ROUTES) and its one dispatcher.

Every malformed request to every route is a JSON 4xx naming the fault —
never a 500 and never a dropped connection: invalid JSON, a non-object
body, each required field missing, an unknown field, and each declared
field with the wrong JSON type. The cases are generated from ROUTES, so a
new route is covered by its row."""

import http.client
import json

import pytest

from remote_vector_index_builder_ray.http_api import ROUTES, serve_background
from remote_vector_index_builder_ray.service import BuildService

# one value of each declared JSON type, and one value of another type
_SAMPLE = {"str": "x", "int": 1, "number": 0.5, "bool": True, "list": ["x"],
           "dict": {}}
_WRONG = {"str": 1, "int": "1", "number": "1", "bool": 1, "list": "x",
          "dict": ["x"]}


def _cases():
    """(case id, method, url, body bytes, the text the error must name)."""
    for (method, path), route in ROUTES.items():
        kinds = {n.rstrip("?"): kind for n, kind in route.fields.items()}
        required = [n for n in route.fields if not n.endswith("?")]
        if method == "GET":  # fields are query params, or the path's {id}
            url = path.replace("{id}", "x")
            params = [n for n in required if f"{{{n}}}" not in path]
            for n in params:
                rest = "&".join(f"{m}=x" for m in params if m != n)
                yield f"GET {path} missing {n}", method, f"{url}?{rest}", b"", n
            rest = "".join(f"{m}=x&" for m in params)
            yield f"GET {path} unknown", method, f"{url}?{rest}bogus=1", b"", "bogus"
            continue
        full = {n: _SAMPLE[kinds[n]] for n in required}
        yield f"POST {path} invalid json", method, path, b"{not json", ""
        yield f"POST {path} array", method, path, b"[]", "JSON object"
        for n in required:
            body = {m: v for m, v in full.items() if m != n}
            yield f"POST {path} missing {n}", method, path, json.dumps(body).encode(), n
        yield f"POST {path} unknown", method, path, json.dumps({**full, "bogus": 1}).encode(), "bogus"
        for n, kind in kinds.items():
            yield (f"POST {path} wrong type {n}", method, path,
                   json.dumps({**full, n: _WRONG[kind]}).encode(), n)


_CASES = list(_cases())


@pytest.fixture(scope="module")
def base():
    service = BuildService(max_workers=1, max_jobs=1)
    server, _ = serve_background(service)
    yield server.server_address
    server.shutdown()
    service.shutdown()


def _request(addr, method: str, url: str, body: bytes = b""):
    conn = http.client.HTTPConnection(*addr, timeout=60)
    try:
        conn.request(method, url, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_samples_cover_every_type():
    kinds = {k for r in ROUTES.values() for k in r.fields.values()}
    assert kinds <= set(_SAMPLE) == set(_WRONG)
    assert all(type(_SAMPLE[k]) is not type(_WRONG[k]) for k in _SAMPLE)


@pytest.mark.parametrize("method,url,body,named", [c[1:] for c in _CASES],
                         ids=[c[0] for c in _CASES])
def test_malformed_request_is_a_named_4xx(base, method, url, body, named):
    code, out = _request(base, method, url, body)
    assert 400 <= code < 500, (code, out)
    assert named in out["error"]


@pytest.mark.parametrize("method,url", [
    ("GET", "/_cat/indices_foo?index_dir=x"),
    ("GET", "/_status"),
    ("GET", "/_search"),
    ("POST", "/_searchx"),
    ("POST", "/_heart_beat"),
])
def test_unknown_route_is_404(base, method, url):
    code, out = _request(base, method, url, b"{}")
    assert code == 404 and "error" in out


def test_build_with_unsortable_input_paths_is_400(base, tmp_path):
    """The job id sorts input_paths: mixed element types raise TypeError,
    which is a request fault, not a dropped connection."""
    code, out = _request(base, "POST", "/_build", json.dumps({
        "input_paths": [1, "a"], "index_dir": str(tmp_path / "idx")}).encode())
    assert code == 400 and "error" in out
