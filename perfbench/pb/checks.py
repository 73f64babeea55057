"""Output checks: regenerated paper artefacts and /predict responses.

Artefacts and the answers to a fixed set of /predict queries are compared
as JSON values against a pinned reference: object
keys, list lengths, strings, booleans and nulls must match exactly, and
numbers must agree within ``RTOL`` relative (``ATOL`` absolute near zero).
The tolerance lets a change that only reorders floating-point sums pass,
and stops a wrong answer: any change above one part in a million fails.
"""

import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12

#: Manifest fields that are timings, machine paths or byte-level digests;
#: the manifest check covers which experiments ran and what they wrote.
MANIFEST_SKIP = {"wall_seconds", "path", "hash", "bytes", "spans", "jobs",
                 "build_seconds", "builds", "disk_hits", "memory_hits",
                 "disk_cache"}


def diff(expected, actual, path="$"):
    """First difference between two JSON values as a message, or ``None``."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return None if expected is actual else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if math.isnan(expected) and math.isnan(actual):
            return None
        if expected == actual:
            return None
        if abs(expected - actual) <= ATOL + RTOL * max(abs(expected), abs(actual)):
            return None
        return f"{path}: {actual!r} differs from {expected!r} beyond rtol {RTOL}"
    if type(expected) is not type(actual):
        return f"{path}: {type(actual).__name__} where {type(expected).__name__} expected"
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = diff(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: {len(actual)} items where {len(expected)} expected"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = diff(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


def strip_manifest(value):
    """The manifest without timings, paths, digests and cache counters."""
    if isinstance(value, dict):
        return {k: strip_manifest(v) for k, v in value.items() if k not in MANIFEST_SKIP}
    if isinstance(value, list):
        return [strip_manifest(v) for v in value]
    return value


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, ValueError) as e:
        return None, f"{os.path.basename(path)}: {e}"


def check_dir(reference_dir, out_dir):
    """Compare every pinned artefact in ``reference_dir`` with its namesake
    in ``out_dir`` -> list of ``(name, message or None)``, one per artefact;
    also flags artefacts the reference does not know."""
    results = []
    names = sorted(n for n in os.listdir(reference_dir) if n.endswith(".json"))
    for name in names:
        expected, err = load(os.path.join(reference_dir, name))
        if err:
            results.append((name, f"reference unreadable: {err}"))
            continue
        actual, err = load(os.path.join(out_dir, name))
        if err:
            results.append((name, err))
            continue
        if name == "manifest.json":
            expected, actual = strip_manifest(expected), strip_manifest(actual)
        results.append((name, diff(expected, actual, name)))
    written = {n for n in os.listdir(out_dir) if n.endswith(".json")}
    for extra in sorted(written - set(names)):
        results.append((extra, "artefact missing from the reference"))
    return results


def bad_responses(requests, expected):
    """Requests that failed: an error or timeout, any status but 200
    (refusals such as 503 and 408 included), or a body that is not byte for
    byte the in-process answer ``expected[body]``."""
    return [r for r in requests
            if r.error is not None or r.status != 200 or r.response != expected.get(r.body)]


def load_pinned(path):
    """Pinned ``/predict`` answers -> ``[(request body bytes, response value)]``."""
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [(row["request"].encode(), row["response"]) for row in rows]


def pinned_mismatches(pinned, requests):
    """Requests (sent in the order of ``pinned``) whose answer is not the
    pinned one, numbers within ``RTOL`` -> ``[(request, message)]``."""
    out = []
    for (body, want), r in zip(pinned, requests):
        if r.body != body or r.error is not None or r.status != 200:
            out.append((r, f"status {r.status} error {r.error}"))
            continue
        try:
            got = json.loads(r.response)
        except ValueError as e:
            out.append((r, f"response is not JSON: {e}"))
            continue
        found = diff(want, got, "response")
        if found:
            out.append((r, found))
    return out
