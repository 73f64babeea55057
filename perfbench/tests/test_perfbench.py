"""Self-tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

They need no build: percentiles and sample counts, open-loop lateness
against a local stub server, and the output checks on tampered artefacts
tampered response bodies and wrong answers to the pinned queries.
"""

import json
import math
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from pb import checks, loadgen, stats  # noqa: E402
from pb.trace import self_times  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(HERE), "reference")


class Percentiles(unittest.TestCase):
    def test_nearest_rank_on_raw_samples(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), (50, 50))
        self.assertEqual(stats.percentile(samples, 99), (99, 1))
        self.assertEqual(stats.percentile(samples, 100), (100, 0))
        # Not a histogram bucket bound: 8191-style rounding never appears.
        self.assertEqual(stats.percentile([5.5, 1.25, 3.0], 50), (3.0, 1))

    def test_beyond_counts_only_strictly_greater_samples(self):
        self.assertEqual(stats.percentile([1, 2, 2, 2, 3], 50), (2, 1))

    def test_failed_requests_sit_above_every_limit(self):
        samples = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(stats.percentile(samples, 99), (math.inf, 0))
        self.assertEqual(stats.percentile(samples, 98), (1.0, 2))

    def test_highest_supported_needs_ten_beyond(self):
        self.assertEqual(stats.highest_supported(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.highest_supported(list(range(100)))[0], 90.0)
        self.assertIsNone(stats.highest_supported(list(range(15))))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)


class QuietCycles(unittest.TestCase):
    def test_keeps_the_share_with_least_noise_in_order(self):
        steal = [0.05, 0.0, 0.2, 0.01, 0.0, 0.3]
        self.assertEqual(stats.quietest(steal, lambda s: s, 0.5), [0.0, 0.01, 0.0])
        cycles = list(enumerate(steal))
        kept = stats.quietest(cycles, lambda c: c[1], 0.5)
        self.assertEqual([i for i, _ in kept], [1, 3, 4])

    def test_ties_keep_the_earlier_item_and_at_least_one(self):
        self.assertEqual(stats.quietest(["a", "b", "c"], lambda _: 0, 0.5), ["a", "b"])
        self.assertEqual(stats.quietest(["a"], lambda _: 0, 0.5), ["a"])


class FakeRequest:
    def __init__(self, due, start, done):
        self.due, self.start, self.done = due, start, done


class Lateness(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Sent 50 ms late and served in 1 ms: 51 ms late for its user.
        req = FakeRequest(due=10.0, start=10.050, done=10.051)
        latency, lag = loadgen.lateness([req])
        self.assertAlmostEqual(latency[0], 51.0, places=6)
        self.assertAlmostEqual(lag[0], 50.0, places=6)

    def test_failed_request_latency_is_infinite(self):
        req = FakeRequest(due=0.0, start=0.0, done=0.001)
        latency, _ = loadgen.lateness([req], {id(req)})
        self.assertEqual(latency, [math.inf])

    def test_server_stall_delays_requests_queued_behind_it(self):
        # The stub accepts nothing for 150 ms: requests due during the stall
        # are sent on time (small lag) yet are each late by the stall.
        with StubServer(stall_s=0.15) as addr:
            reqs = loadgen.open_loop(addr, [b"{}"] * 5, rate=100)
        latency, lag = loadgen.lateness(reqs)
        self.assertTrue(all(r.ok for r in reqs), [r.error for r in reqs])
        self.assertTrue(all(g < 20 for g in lag), lag)
        for i, ms in enumerate(latency):
            self.assertGreater(ms, 150 - 10 * i - 20)


class StubServer:
    """A local HTTP server that starts accepting after ``stall_s``."""

    BODY = b'{"ok": true}'

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(64)
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.serve)

    def serve(self):
        time.sleep(self.stall_s)
        self.sock.settimeout(0.05)
        while not self.stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                while len(body) < length:
                    body += conn.recv(4096)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
                             % len(self.BODY) + self.BODY)

    def __enter__(self):
        self.thread.start()
        return self.sock.getsockname()

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()
        self.sock.close()


class ArtefactChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.out = os.path.join(self.tmp, "out")
        shutil.copytree(REFERENCE, self.out)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def failures(self):
        return [(n, m) for n, m in checks.check_dir(REFERENCE, self.out) if m]

    def tamper(self, name, find, replace):
        path = os.path.join(self.out, name)
        with open(path, "rb") as f:
            data = f.read()
        pos = data.index(find)
        with open(path, "wb") as f:
            f.write(data[:pos] + replace + data[pos + len(find):])

    def test_untouched_copy_passes(self):
        self.assertEqual(self.failures(), [])

    def test_one_tampered_byte_in_a_string_fails(self):
        self.tamper("table1.json", b'"resnet50"', b'"resnet5O"')
        self.assertEqual([n for n, _ in self.failures()], ["table1.json"])

    def test_one_tampered_leading_digit_fails(self):
        with open(os.path.join(self.out, "fig6.json"), "rb") as f:
            data = f.read()
        pos = data.index(b'"convmeter_mape": ') + len(b'"convmeter_mape": ')
        digit = data[pos:pos + 1]
        swapped = b"1" if digit != b"1" else b"2"
        with open(os.path.join(self.out, "fig6.json"), "wb") as f:
            f.write(data[:pos] + swapped + data[pos + 1:])
        self.assertEqual([n for n, _ in self.failures()], ["fig6.json"])

    def test_one_tampered_structural_byte_fails(self):
        self.tamper("fig8.json", b"[", b"{")
        self.assertEqual([n for n, _ in self.failures()], ["fig8.json"])

    def test_float_tolerance_accepts_reordered_sums_only(self):
        self.assertIsNone(checks.diff(0.1 + 0.2 + 0.3, 0.1 + (0.2 + 0.3)))
        self.assertIsNone(checks.diff(1.0, 1.0 + 5e-7))
        self.assertIsNotNone(checks.diff(1.0, 1.0 + 2e-6))
        self.assertIsNotNone(checks.diff({"a": 1}, {"b": 1}))
        self.assertIsNotNone(checks.diff([1, 2], [1, 2, 3]))
        self.assertIsNotNone(checks.diff(True, 1))

    def test_missing_and_unexpected_artefacts_fail(self):
        os.remove(os.path.join(self.out, "fig2.json"))
        with open(os.path.join(self.out, "new.json"), "w") as f:
            json.dump({}, f)
        self.assertEqual(sorted(n for n, _ in self.failures()), ["fig2.json", "new.json"])

    def test_manifest_ignores_timings_but_not_experiments(self):
        with open(os.path.join(REFERENCE, "manifest.json")) as f:
            manifest = json.load(f)
        manifest["experiments"][0]["wall_seconds"] = 123.0
        with open(os.path.join(self.out, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        self.assertEqual(self.failures(), [])
        manifest["experiments"].pop()
        with open(os.path.join(self.out, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        self.assertEqual([n for n, _ in self.failures()], ["manifest.json"])


class ResponseChecks(unittest.TestCase):
    def request(self, body, status, response, error=None):
        r = loadgen.Request(0, body, 0.0)
        r.status, r.response, r.error = status, response, error
        return r

    def test_one_tampered_response_byte_fails(self):
        expected = {b"q": b'{"forward_s": 0.25}'}
        good = self.request(b"q", 200, b'{"forward_s": 0.25}')
        bad = self.request(b"q", 200, b'{"forward_s": 0.26}')
        self.assertEqual(checks.bad_responses([good, bad], expected), [bad])

    def test_refusals_and_timeouts_fail(self):
        expected = {b"q": b"{}"}
        shed = self.request(b"q", 503, b"{}")
        late = self.request(b"q", None, b"", error="timeout")
        self.assertEqual(checks.bad_responses([shed, late], expected), [shed, late])


class PinnedResponses(unittest.TestCase):
    """Answers to the pinned queries must equal the pinned ones, numbers
    within the float tolerance; the server and the in-process answer
    agreeing with each other is not enough."""

    def setUp(self):
        self.pinned = checks.load_pinned(os.path.join(REFERENCE, "predict.jsonl"))[:3]

    def answers(self, tamper=None):
        reqs = []
        for i, (body, want) in enumerate(self.pinned):
            r = loadgen.Request(i, body, 0.0)
            text = json.dumps(want)
            if i == 1 and tamper:
                text = tamper(text)
            r.status, r.response = 200, text.encode()
            reqs.append(r)
        return reqs

    def test_pinned_answers_pass(self):
        self.assertEqual(checks.pinned_mismatches(self.pinned, self.answers()), [])

    def test_reordered_float_sum_passes(self):
        def nudge(text):
            value = json.loads(text)
            value["forward_s"] *= 1 + 1e-12
            return json.dumps(value)
        self.assertEqual(checks.pinned_mismatches(self.pinned, self.answers(nudge)), [])

    def test_wrong_prediction_fails(self):
        def wrong(text):
            value = json.loads(text)
            value["forward_s"] *= 1.001
            return json.dumps(value)
        reqs = self.answers(wrong)
        found = checks.pinned_mismatches(self.pinned, reqs)
        self.assertEqual([r for r, _ in found], [reqs[1]])
        self.assertIn("forward_s", found[0][1])

    def test_one_tampered_structural_byte_and_refusal_fail(self):
        reqs = self.answers(lambda text: text[:-1])
        reqs[2].status = 503
        self.assertEqual([r for r, _ in checks.pinned_mismatches(self.pinned, reqs)],
                         reqs[1:])


class Responses(unittest.TestCase):
    def test_parse_response_requires_the_whole_body(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
        self.assertEqual(loadgen.parse_response(raw)[0], 200)
        self.assertIsNone(loadgen.parse_response(raw[:-1])[0])


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        import run
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [["top", 0.0, 10.0, None, None],
                 ["a", 1.0, 4.0, 0, None],
                 ["b", 3.0, 6.0, 0, None],   # overlaps a: union is 1..6
                 ["c", 8.0, 12.0, 0, None]]  # clipped to the parent: 8..10
        self.assertEqual(self_times(spans), [3.0, 3.0, 3.0, 4.0])


if __name__ == "__main__":
    unittest.main()
