"""The benchmark's own open-loop HTTP load generator.

It is kept apart from ``repro.serving.loadgen`` so that a change to the
program cannot move the instrument.  One process, one thread per
keep-alive connection.  Requests are sent on a seeded Poisson schedule
whatever the replies do; when every connection is busy a due request
waits, and its latency is counted from when it was due, so a stall
shows in the latency of every request it delays.  How late each
request actually left is reported as the generator's lag.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Request:
    due_s: float  # offset from the start of the run
    rows: np.ndarray
    body: bytes


@dataclass
class Reply:
    status: int  # 0 when the connection failed
    latency_s: float  # from the due time to the last byte of the reply
    lag_s: float  # how late the request was sent
    body: bytes


def poisson_schedule(r: np.random.Generator, rate: float, seconds: float,
                     make_rows) -> list[Request]:
    """Arrivals at ``rate`` per second for ``seconds``; ``make_rows(r)``
    draws each request's query rows."""
    out, t = [], 0.0
    while True:
        t += r.exponential(1.0 / rate)
        if t >= seconds:
            break
        rows = make_rows(r)
        out.append(Request(t, rows, json.dumps({"points": rows.tolist()}).encode()))
    all_rows = np.vstack([q.rows for q in out]) if out else np.empty((0, 1))
    if np.unique(all_rows, axis=0).shape[0] != all_rows.shape[0]:
        raise ValueError("schedule repeats a query row")
    return out


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/predict", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def run(port: int, requests: list[Request], n_conns: int,
        open_loop: bool = True) -> list[Reply]:
    """Send ``requests`` over ``n_conns`` connections.  Open loop: each
    is sent at its due time or as soon as a connection frees up after
    it; closed loop (``open_loop=False``): each is sent as soon as a
    connection is free, and timed from its send."""
    replies: list[Reply | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.05

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                req = requests[i]
                due = start + req.due_s
                if open_loop:
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                if not open_loop:
                    due = sent
                try:
                    status, body = _post(conn, req.body)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    status, body = 0, b""
                replies[i] = Reply(status, time.perf_counter() - due, sent - due, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(n_conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


def get_json(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        return resp.status, json.loads(body) if body else {}
    finally:
        conn.close()
