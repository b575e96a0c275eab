"""``stop()``'s time and the held request's answer: ``drain_grace_s=1.0``
and one ``/aggregate`` held ``HOLD_S`` seconds inside the engine, on the
serve tests' model.  Run from a checkout (its ``src/`` is the one
measured)::

    PYTHONPATH=src:. python benchmarks/results/harness/PR58/drain_probe.py HOLD_S
"""
import pathlib, sys, tempfile, threading, time, urllib.error, urllib.request
from tests.serve.conftest import build_serve_model
from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer

HOLD = float(sys.argv[1])
d = pathlib.Path(tempfile.mkdtemp()) / "m"
build_serve_model(d)
srv = QueryServer(d, ServeConfig(port=0, workers=1, drain_grace_s=1.0)).start()
execute = srv.dispatcher._engine.execute
held = threading.Event()
def slow(query, plan=None):
    held.set(); time.sleep(HOLD); return execute(query, plan=plan)
srv.dispatcher._engine.execute = slow
out = []
def get():
    try:
        with urllib.request.urlopen(srv.url + "/aggregate?fn=sum&rows=0:40&cols=0:25", timeout=30) as r:
            out.append((r.status, None, r.read().decode()))
    except urllib.error.HTTPError as e:
        out.append((e.code, e.headers.get("Retry-After"), e.read().decode()))
t = threading.Thread(target=get); t.start(); held.wait(10)
start = time.monotonic(); srv.stop(); took = time.monotonic() - start
t.join(30)
print(f"hold {HOLD:g} s: stop() {took:.2f} s; held request -> {out[0][0]} Retry-After={out[0][1]} {out[0][2].replace(str(d.parent), '<dir>')}")
