"""Single-threaded HTTP/1.1 load generator over nonblocking sockets.

One ``selectors`` event loop drives every connection, so the open loop
needs no thread per request and the generator stays one process on one
thread. ``convmeter serve`` answers each request with ``Connection: close``,
so every request is a fresh TCP connection.

Each request records when it was due, when the generator actually started
it, when the connection was established, when the request was fully
written, when the first response byte arrived and when the response was
complete (all ``time.perf_counter`` seconds).
"""

import errno
import selectors
import socket
import time

#: A request with no complete answer after this long counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: The open loop stops blocking this long before a request is due.
SPIN_S = 0.002


def request_bytes(body):
    """The exact bytes sent for a ``/predict`` body (``bytes``)."""
    head = (
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


def get(addr, path, timeout=10.0):
    """A blocking GET for control-plane scrapes -> ``(status, body bytes)``."""
    with socket.create_connection(addr, timeout=timeout) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    status, _, body = parse_response(b"".join(chunks))
    return status, body


def parse_response(raw):
    """Split a complete HTTP response -> ``(status, headers dict, body)``;
    ``status`` is ``None`` when the bytes are not a whole response."""
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        return None, {}, b""
    lines = raw[:head_end].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        return None, {}, b""
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    body = raw[head_end + 4:]
    length = headers.get("content-length")
    if length is not None and (not length.isdigit() or len(body) != int(length)):
        return None, headers, body
    return int(parts[1]), headers, body


class Request:
    """One request's wire state and timestamps."""

    __slots__ = ("index", "body", "due", "start", "connected", "sent", "first",
                 "done", "status", "response", "error", "sock", "out", "pos", "buf")

    def __init__(self, index, body, due):
        self.index = index
        self.body = body
        self.due = due
        self.start = self.connected = self.sent = self.first = self.done = None
        self.status = None
        self.response = b""
        self.error = None
        self.sock = None
        self.out = memoryview(request_bytes(body))
        self.pos = 0
        self.buf = []

    @property
    def ok(self):
        return self.error is None and self.status == 200


class Loop:
    """The event loop shared by the open and the closed phase."""

    def __init__(self, addr):
        self.addr = addr
        self.sel = selectors.DefaultSelector()
        self.active = {}

    def start(self, req, now):
        req.start = now
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = sock.connect_ex(self.addr)
        if err not in (0, errno.EINPROGRESS):
            sock.close()
            req.error = f"connect: {errno.errorcode.get(err, err)}"
            req.done = now
            return False
        req.sock = sock
        self.active[sock.fileno()] = req
        self.sel.register(sock, selectors.EVENT_WRITE, req)
        return True

    def _finish(self, req, now, error=None):
        self.sel.unregister(req.sock)
        del self.active[req.sock.fileno()]
        req.sock.close()
        req.sock = None
        req.done = now
        raw = b"".join(req.buf)
        req.buf = []
        if error is None:
            status, _, body = parse_response(raw)
            if status is None:
                error = "incomplete response"
            else:
                req.status, req.response = status, body
        req.error = error

    def _complete(self, req):
        """Whether the buffered bytes already hold the whole response."""
        raw = b"".join(req.buf)
        req.buf = [raw]
        return parse_response(raw)[0] is not None

    def poll(self, timeout, finished):
        """Serve socket events for up to ``timeout`` s; completed requests
        are appended to ``finished``."""
        for key, mask in self.sel.select(timeout):
            req = key.data
            now = time.perf_counter()
            if req.connected is None:
                err = req.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    self._finish(req, now, f"connect: {errno.errorcode.get(err, err)}")
                    finished.append(req)
                    continue
                req.connected = now
            if mask & selectors.EVENT_WRITE and req.sent is None:
                try:
                    req.pos += req.sock.send(req.out[req.pos:])
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as e:
                    self._finish(req, now, f"send: {e}")
                    finished.append(req)
                    continue
                if req.pos == len(req.out):
                    req.sent = time.perf_counter()
                    self.sel.modify(req.sock, selectors.EVENT_READ, req)
                continue
            if mask & selectors.EVENT_READ:
                try:
                    data = req.sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as e:
                    self._finish(req, now, f"recv: {e}")
                    finished.append(req)
                    continue
                if data and req.first is None:
                    req.first = now
                if data:
                    req.buf.append(data)
                if not data or self._complete(req):
                    self._finish(req, now)
                    finished.append(req)
        now = time.perf_counter()
        for req in list(self.active.values()):
            if now - req.start > REQUEST_TIMEOUT_S:
                self._finish(req, now, "timeout")
                finished.append(req)

    def close(self):
        now = time.perf_counter()
        for req in list(self.active.values()):
            self._finish(req, now, "abandoned")
        self.sel.close()


def open_loop(addr, bodies, rate):
    """Send ``bodies`` at a fixed ``rate`` (requests/s) whatever the server
    does; each request is due at ``t0 + i / rate``. Returns the requests in
    send order once every one has finished."""
    loop = Loop(addr)
    t0 = time.perf_counter() + 0.01
    reqs = [Request(i, b, t0 + i / rate) for i, b in enumerate(bodies)]
    finished = []
    nxt = 0
    try:
        while nxt < len(reqs) or loop.active:
            now = time.perf_counter()
            while nxt < len(reqs) and reqs[nxt].due <= now:
                if not loop.start(reqs[nxt], now):
                    finished.append(reqs[nxt])
                nxt += 1
                now = time.perf_counter()
            # Wake SPIN_S before the next due time and poll without
            # blocking until it, so the generator's own wake-up delay does
            # not make it late.
            wait = 0.05 if nxt >= len(reqs) else max(0.0, reqs[nxt].due - now - SPIN_S)
            loop.poll(wait, finished)
    finally:
        loop.close()
    return reqs


def closed_loop(addr, next_body, connections):
    """Keep ``connections`` requests outstanding, each sending its next
    request as soon as the previous one finished, until ``next_body()``
    returns ``None``. Returns ``(requests, elapsed_s)``; elapsed runs from
    the first send to the last completion."""
    loop = Loop(addr)
    reqs, finished = [], []
    t0 = time.perf_counter()
    exhausted = False

    def launch(now):
        nonlocal exhausted
        body = next_body()
        if body is None:
            exhausted = True
            return
        req = Request(len(reqs), body, now)
        reqs.append(req)
        if not loop.start(req, now):
            finished.append(req)

    try:
        for _ in range(connections):
            launch(time.perf_counter())
        while loop.active:
            done_before = len(finished)
            loop.poll(0.05, finished)
            now = time.perf_counter()
            for _ in range(len(finished) - done_before):
                if not exhausted:
                    launch(now)
    finally:
        loop.close()
    last = max((r.done for r in reqs if r.done is not None), default=t0)
    return reqs, last - t0


def lateness(requests, failed_ids=frozenset()):
    """Open-loop timings in ms -> ``(latency, lag)`` per request.

    Latency runs from when a request was *due*, not from when it was sent,
    so a stall in the generator or the server also delays every request
    queued behind it in the measurement. Lag is how late the generator
    started the request. Failed requests (``id`` in ``failed_ids``) get an
    infinite latency: they miss every limit.
    """
    latency = [float("inf") if id(r) in failed_ids or r.done is None
               else (r.done - r.due) * 1000 for r in requests]
    lag = [(r.start - r.due) * 1000 for r in requests if r.start is not None]
    return latency, lag
