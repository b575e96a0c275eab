"""Wire and telemetry parity of the served-request path.

About 200 requests — all five query routes, runs and lists, full axes,
budgets, ``limit``s, deadlines, malformed parameters and unknown paths
— are served one at a time through the query handler, with the
registry enabled as ``repro serve`` runs it.  Each answer (status,
``Content-Type``, and the body without ``elapsed_ms`` and
``trace_id``) and, after the whole sequence on a freshly reset
registry, every counter value, every gauge name and every histogram's
count must equal ``data/served_parity.json``: a record made by this
module on the tree before the served path was restated to do each
thing once.

Two front-door bugs were fixed by that change, so their requests
(:data:`FIXED`) are served after the snapshot and checked against
their new answers instead: ``/groupby`` and ``/explain`` read their
deadline as every other query route does, and ``/aggregate`` reads
``rows`` and ``cols`` each on its own instead of splicing them into
query text.

Regenerate the record (only in a change that means to move an answer
or a metric) from the repository root::

    PYTHONPATH=src:. python tests/serve/test_served_parity.py

It rewrites the answers and the telemetry and keeps ``fixed``: those
are the answers before the fixes, which this tree no longer gives
(:func:`regenerated`).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import registry
from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer, _split_target
from tests.serve.conftest import build_serve_model, serve_once

RECORD = Path(__file__).parent / "data" / "served_parity.json"

_CELLS = [(0, 0), (1, 1), (79, 49), (40, 25), (3, 7), (12, 0), (0, 49), (66, 13)]
_SELECTIONS = [
    "",
    "&rows=0:10",
    "&cols=5:9",
    "&rows=0:80",
    "&rows=3:60&cols=0:50",
    "&rows=10:20&cols=7:14",
    "&rows=3,17,42&cols=1:4",
    "&rows=5&cols=9",
    "&rows=0:40&cols=2,4,6",
    "&cols=0:50",
]


def _requests() -> list[tuple[str, tuple]]:
    """``(target, headers)`` of every request in the recorded sequence."""
    out: list[tuple[str, tuple]] = []
    add = lambda target, *headers: out.append((target, headers))  # noqa: E731
    for row, col in _CELLS:
        add(f"/cell?row={row}&col={col}")
    for target in (
        "/cell?row=80&col=0", "/cell?row=0&col=50", "/cell?row=-1&col=3",
        "/cell?row=a&col=1", "/cell?row=1", "/cell?col=1", "/cell",
        "/cell?row=1.5&col=2", "/cell?row=&col=", "/cell?row=1&row=2&col=3",
        "/cell?row=%31&col=%32", "/cell?row=+4&col=5", "/cell?row=%EF%BC%91&col=2",
        "/cell?row=1;col=1", "/cell?row=1&col=1&", "/cell?&&row=2&&col=2",
        "/cell?row=1=2&col=1", "/cell?r%6Fw=6&col=6", "/cell?row=1&col=1#frag",
        "/cell?row=%zz&col=1", "/cell?row=1&col=1&timeout_ms=1000",
        "/cell?row=1&col=1&timeout_ms=soon", "/cell?row=1&col=1&timeout_ms=-5",
        "/cell?row=1&col=1&timeout_ms=0", "/cell?row=1&col=1&timeout_ms=inf",
        "/cell?row=1&col=1&timeout_ms=nan", "/cell?row=1&col=1&timeout_ms=",
        "/cell?row=2&col=2&max_rmspe=0.5",
        "http://h/cell?row=1&col=1", "//h/cell?row=2&col=3", "/cell/?row=1&col=1",
    ):
        add(target)
    add("/cell?row=1&col=1", ("X-Repro-Deadline-Ms", "5000"))
    add("/cell?row=1&col=1", ("X-Repro-Deadline-Ms", "soon"))
    add("/cell?row=1&col=1&timeout_ms=5000", ("X-Repro-Deadline-Ms", "soon"))
    for fn in ("sum", "avg", "count", "min", "max", "stddev"):
        for selection in _SELECTIONS:
            add(f"/aggregate?fn={fn}{selection}")
    for target in (
        "/aggregate?fn=SUM&rows=0:10", "/aggregate?fn=+sum&cols=0:5",
        "/aggregate?fn=Avg&rows=1:3&cols=1:3", "/aggregate?fn=sum&rows=&cols=",
        "/aggregate?fn=sum&rows=0:10&rows=20:30", "/aggregate?fn=sum&rows=%30:%35",
        "/aggregate?fn=sum&rows=0+:+10", "/aggregate?fn=sum&rows=1,2,,3",
        "/aggregate?fn=sum&rows=%2C", "/aggregate?fn=sum&rows=+",
        "/aggregate?fn=sum&rows=5:5", "/aggregate?fn=sum&rows=9:3",
        "/aggregate?fn=sum&rows=0:81", "/aggregate?fn=sum&cols=0:51",
        "/aggregate?fn=sum&rows=1:2:3",
        "/aggregate?fn=sum&rows=0:10,5", "/aggregate?fn=sum&rows=1+2",
        "/aggregate?fn=sum&rows=90", "/aggregate?fn=median&rows=0:5",
        "/aggregate?rows=0:5", "/aggregate", "/aggregate?fn=sum&rows=0:10&max_rmspe=0",
        "/aggregate?fn=sum&rows=0:10&cols=0:5&max_rmspe=0.5",
        "/aggregate?fn=avg&rows=0:10&cols=0:5&max_rmspe=1",
        "/aggregate?fn=min&rows=0:10&max_rmspe=0.5",
        "/aggregate?fn=sum&rows=0:10&max_rmspe=x",
        "/aggregate?fn=sum&rows=0:10&max_rmspe=-1",
        "/aggregate?fn=sum&rows=0:10&max_rmspe=nan",
        "/aggregate?fn=sum&rows=0:10&max_rmspe=2",
        "/aggregate?fn=sum&rows=0:10&timeout_ms=3000",
        "/aggregate?fn=sum&rows=0:10&timeout_ms=soon",
        "/aggregate?fn=stddev&rows=1,5,9&cols=3",
    ):
        add(target)
    for text in (
        "cell(1, 2)", "cell(79,49)", "cell(80, 0)", "sum() rows 0:10 cols 0:5",
        "avg() rows 3,17,42", "stddev()", "count() cols 5:9", "min() rows 10:20",
        "max() rows 0:80 cols 49", "SUM() ROWS 0:5", "sum() rows 5:5", "median()",
        "DROP TABLE users;", "", "sum() rows 0:99999",
    ):
        add(f"/query?q={_quote(text)}")
    for target in (
        "/query", "/query?q=cell(1,1)&max_rmspe=0.5",
        "/query?q=sum()+rows+0:10&max_rmspe=0.5", "/query?q=sum()&timeout_ms=soon",
        "/query?q=sum()+cols+0:9&timeout_ms=2000",
    ):
        add(target)
    for by in ("day", "week", "month", "quarter", "year", "customer"):
        for fn in ("sum", "avg", "max"):
            add(f"/groupby?by={by}&fn={fn}")
    for target in (
        "/groupby", "/groupby?by=month", "/groupby?fn=count",
        "/groupby?by=week&fn=sum&limit=3", "/groupby?by=customer&fn=sum&limit=5",
        "/groupby?by=customer&fn=min&limit=100", "/groupby?by=day&fn=stddev&limit=2",
        "/groupby?by=month&limit=x", "/groupby?by=month&limit=0",
        "/groupby?by=month&limit=-2", "/groupby?by=month&limit=+2",
        "/groupby?by=decade", "/groupby?by=month&fn=median",
        "/groupby?by=&fn=", "/groupby?by=month&timeout_ms=4000",
    ):
        add(target)
    for text in (
        "sum() rows 0:10 cols 0:5", "avg() rows 3,17,42", "min()", "stddev() rows 0:80",
        "count()", "cell(3, 4)", "cell(99, 0)", "sum() rows 5:5", "nonsense",
    ):
        add(f"/explain?q={_quote(text)}")
    for target in (
        "/explain", "/explain?q=sum()+rows+0:10&max_rmspe=0.5",
        "/explain?q=cell(1,1)&max_rmspe=0.5", "/explain?q=sum()+rows+0:10&timeout_ms=100",
    ):
        add(target)
    for target in (
        "/", "/nope", "/cell/extra", "/aggregate/", "/Query", "/healthz", "/healthz/live",
        "/healthz/ready", "/healthz?x=1", "/stats?x=%zz", "/metrics/x", "/%63ell?row=1&col=1",
    ):
        add(target)
    add("/stats")
    return out


def _quote(text: str) -> str:
    from urllib.parse import quote_plus

    return quote_plus(text, safe=":,()")


#: The requests whose answer the two front-door fixes change, served
#: after the registry snapshot: target -> ``(status, body)`` now.
_BAD_TIMEOUT = "timeout_ms must be a number, got 'soon'"
FIXED: dict[str, tuple[tuple, int, dict]] = {
    "/groupby?by=month&fn=sum&timeout_ms=soon": (
        (), 400, {"error": "bad_request", "message": _BAD_TIMEOUT},
    ),
    "/groupby?by=week&timeout_ms=-5": (
        (), 400,
        {"error": "bad_request", "message": "timeout_ms must be positive and finite, got -5"},
    ),
    "/groupby?by=month": (
        (("X-Repro-Deadline-Ms", "soon"),), 400,
        {"error": "bad_request", "message": _BAD_TIMEOUT},
    ),
    "/explain?q=sum()+rows+0:10&timeout_ms=soon": (
        (), 400, {"error": "bad_request", "message": _BAD_TIMEOUT},
    ),
    "/aggregate?fn=sum&rows=1:5+cols+0:3": (
        (), 400,
        {
            "error": "bad_request",
            "message": "bad rows '1:5 cols 0:3'; expected start:stop, an index "
            "or a comma list",
        },
    ),
    "/aggregate?fn=sum&rows=0:10+cols+5:9&cols=1:3": (
        (), 400,
        {
            "error": "bad_request",
            "message": "bad rows '0:10 cols 5:9'; expected start:stop, an index "
            "or a comma list",
        },
    ),
    "/aggregate?fn=sum&cols=0:3+rows+1:5": (
        (), 400,
        {
            "error": "bad_request",
            "message": "bad cols '0:3 rows 1:5'; expected start:stop, an index "
            "or a comma list",
        },
    ),
    "/aggregate?fn=sum&rows=a:b": (
        (), 400,
        {
            "error": "bad_request",
            "message": "bad rows 'a:b'; expected start:stop, an index or a comma list",
        },
    ),
    "/aggregate?fn=s%3Fm&rows=0:5": (
        (), 400,
        {
            "error": "bad_request",
            "message": "unknown aggregate 's?m'; expected one of "
            "('sum', 'avg', 'count', 'min', 'max', 'stddev')",
        },
    ),
    "/aggregate?fn=&rows=0:5": (
        (), 400,
        {
            "error": "bad_request",
            "message": "unknown aggregate ''; expected one of "
            "('sum', 'avg', 'count', 'min', 'max', 'stddev')",
        },
    ),
}


def _answer(raw: bytes) -> dict:
    """Status, content type and body (JSON without ``elapsed_ms`` and
    ``trace_id``) of one raw response."""
    head, _blank, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    content_type = headers["Content-Type"]
    if content_type.startswith("application/json"):
        payload = json.loads(body)
        if isinstance(payload, dict):
            payload.pop("elapsed_ms", None)
            payload.pop("trace_id", None)
    else:
        payload = body.decode("utf-8")
    return {"status": int(lines[0].split()[1]), "type": content_type, "body": payload}


def _telemetry(snapshot: dict) -> dict:
    return {
        "counters": snapshot["counters"],
        "gauges": sorted(snapshot["gauges"]),
        "histograms": {name: h["count"] for name, h in snapshot["histograms"].items()},
    }


def serve_sequence(model_dir) -> dict:
    """Serve the whole sequence, then the fixed rows; the record's shape."""
    was_enabled = registry.enabled
    registry.enable()
    server = QueryServer(model_dir, ServeConfig(workers=1)).start()
    try:
        registry.reset()  # the warm-up's spans and counters are not the sequence's
        answers = [
            {"target": target, "headers": [list(h) for h in headers],
             **_answer(serve_once(server, target, headers))}
            for target, headers in _requests()
        ]
        telemetry = _telemetry(registry.snapshot())
        fixed = {
            target: _answer(serve_once(server, target, headers))
            for target, (headers, _status, _body) in FIXED.items()
        }
    finally:
        server.stop()
        registry.reset()
        if not was_enabled:
            registry.disable()
    return {"answers": answers, "telemetry": telemetry, "fixed": fixed}


def regenerated(record: dict, made: dict) -> dict:
    """The record a regeneration writes over ``record``: ``made``'s
    answers and telemetry, and ``record``'s own ``fixed`` answers."""
    return {**made, "fixed": record["fixed"]}


@pytest.fixture(scope="module")
def served(serve_model_dir):
    return serve_sequence(serve_model_dir)


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_the_record_covers_every_route(record):
    answers = record["answers"]
    assert 180 <= len(answers) <= 260
    paths = {a["target"].split("?")[0] for a in answers}
    assert {"/query", "/cell", "/aggregate", "/groupby", "/explain"} <= paths
    statuses = {a["status"] for a in answers}
    assert {200, 400, 404} <= statuses


def test_every_answer_is_the_recorded_one(served, record):
    assert [a["target"] for a in served["answers"]] == [
        a["target"] for a in record["answers"]
    ]
    for got, want in zip(served["answers"], record["answers"]):
        assert got == want, got["target"]


def test_telemetry_counts_are_the_recorded_ones(served, record):
    assert served["telemetry"] == record["telemetry"]


@pytest.mark.parametrize("target", FIXED)
def test_the_fixed_requests_answer_what_the_fixes_say(served, record, target):
    _headers, status, body = FIXED[target]
    got = served["fixed"][target]
    assert (got["status"], got["body"]) == (status, body)
    assert got["type"] == "application/json; charset=utf-8"
    assert record["fixed"][target] != got  # the record holds the old answer


def test_a_regenerated_record_keeps_the_fixed_answers(served, record):
    """Rewriting the record from today's serving keeps the old answers
    of the fixed requests, so it still passes the test above."""
    again = regenerated(record, served)
    assert again["fixed"] == record["fixed"]
    assert (again["answers"], again["telemetry"]) == (served["answers"], served["telemetry"])
    for target in FIXED:
        assert again["fixed"][target] != served["fixed"][target]


def _stdlib_split(target: str) -> tuple[str, dict]:
    """What the handler read before: ``urlsplit`` + ``parse_qs`` and
    the last value of each name."""
    from urllib.parse import parse_qs, urlsplit

    split = urlsplit(target)
    params = parse_qs(split.query, keep_blank_values=True)
    return split.path, {name: values[-1] for name, values in params.items()}


#: Pieces of a request-line word (never a space): separators, escapes
#: good, short and bad, brackets (an unparseable netloc), non-ASCII.
_TARGET_PIECES = st.sampled_from(
    list("/?&=#%+;:,.-_[]abcrowl0129AF") + ["%2", "%zz", "%E2%82%AC", "\xff", "\x00"]
)


@settings(max_examples=400, deadline=None)
@given(
    lead=st.sampled_from(["/", "//", "http://h/", "", "x:", "/cell?", "/aggregate?fn=sum&"]),
    body=st.lists(_TARGET_PIECES, max_size=24).map("".join),
)
def test_a_target_splits_as_urlsplit_and_parse_qs_read_it(lead, body):
    target = lead + body
    try:
        want = _stdlib_split(target)
    except ValueError:
        with pytest.raises(ValueError):
            _split_target(target)
        return
    assert _split_target(target) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "model"
        build_serve_model(directory)
        made = serve_sequence(directory)
    made = regenerated(json.loads(RECORD.read_text()), made)
    RECORD.write_text(json.dumps(made, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}: {len(made['answers'])} answers", file=sys.stderr)
