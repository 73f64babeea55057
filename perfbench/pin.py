#!/usr/bin/env python3
"""Pin the `/predict` answers that the serve workloads check.

    python3 perfbench/pin.py

Run it from the root of a checkout, and only in a change that means to
alter what `/predict` answers. It builds the harness, generates the
serve-hot query grid (the same for every seed) and the first MISS_SAMPLE
serve-miss queries of PIN_SEED, answers them in-process with
`ServeState::predict` configured like `serve --warm`, and writes
perfbench/reference/predict.jsonl, one `{"request", "response"}` object
a line.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

PIN_SEED = 1
MISS_SAMPLE = 48


def main():
    root = os.getcwd()
    try:
        binary, harness = run.build(root)
    except run.Fail as e:
        sys.stderr.write(f"pin: {e}\n")
        return 2
    args = argparse.Namespace(workload="pin", seed=PIN_SEED, seconds=0, trace=0)
    ctx = run.Ctx(args, root, binary, harness)
    bodies = []
    for workload, count in (("serve-hot", 0), ("serve-miss", MISS_SAMPLE)):
        path = os.path.join(ctx.dir, f"{workload}.jsonl")
        ctx.harness_run("gen", "--workload", workload, "--seed", str(PIN_SEED),
                        "--count", str(count), "--out", path)
        bodies += run.read_bodies(path)
    answers = run.expect(ctx, bodies)
    with open(run.PINNED, "w", encoding="utf-8") as f:
        for body in bodies:
            f.write(json.dumps({"request": body.decode(),
                                "response": json.loads(answers[body])}) + "\n")
    shutil.rmtree(ctx.dir)
    print(f"pinned {len(bodies)} answers in {os.path.relpath(run.PINNED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
