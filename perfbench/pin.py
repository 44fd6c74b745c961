#!/usr/bin/env python3
"""Regenerate perfbench/pinned.json for the pinned seed.

    python3 perfbench/pin.py [--seed 1]

Shard digests come from one run of each build command, which must already
pass every other check (counters against the generator's truth). Evaluate
aggregates come from the independent oracles in tests/oracles.py, never
from the program. Re-pin only when the benchmark's inputs change, or when a
change deliberately alters shard bytes and says why.
"""

import argparse
import json
import os
import sys

import gen
import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    os.makedirs(os.path.join(run.WORK, "logs"), exist_ok=True)
    pinned = {"seed": seed}
    with run.Launcher(run.child_env()) as launcher:
        for name in ("build_full", "build_sparse"):
            workload = workloads.prepare(name, seed, run.WORK, run.ROOT, {})
            pinned[name] = {}
            for cmd in workload.commands:
                result = run.run_subprocess(cmd, launcher, "pin", timed=False)
                if result["problems"]:
                    sys.exit(f"{name} {cmd.name}: {result['problems']}")
                pinned[name][cmd.name.split("-")[1]] = result["fingerprint"]

    oracles = workloads.load_oracles(run.ROOT)
    scratch = os.path.join(run.WORK, "pin")
    os.makedirs(scratch, exist_ok=True)
    sizes = workloads.SIZES["evaluate"]
    vqa = gen.write_vqa_fixture(os.path.join(scratch, "p.jsonl"), os.path.join(scratch, "g.jsonl"),
                                seed, sizes["vqa_items"])
    cap = gen.write_caption_fixture(os.path.join(scratch, "p.jsonl"), os.path.join(scratch, "g.jsonl"),
                                    seed + 1, sizes["caption_items"])
    pinned["evaluate"] = {
        "vqa_anls": workloads.vqa_truth(oracles, vqa, seed, with_anls_aggregate=True)["aggregate"],
        "caption": workloads.caption_truth(oracles, cap, with_cider=True)["aggregate"],
    }
    with open(os.path.join(run.HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
