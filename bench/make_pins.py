#!/usr/bin/env python3
"""Record the corpus verdict sequences that bench/pins.json ships.

    python3 bench/make_pins.py FIRST LAST

For each seed in FIRST..LAST the corpus is generated and decided, and its
digest and YES/NO sequence (bit i set when query i is YES) are stored.  Every
YES is re-checked by the benchmark's own gate before it is recorded.  The
sequences pin today's verdicts, so a search rewrite that flips one is
caught; rerun this only when the corpus generator itself changes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def pin(seed: int) -> dict:
    corpus = workloads.generate_corpus(seed)
    bits = 0
    for index, entry in enumerate(corpus):
        query = workloads.corpus_query(index, entry, None)
        outcome = query.run()
        status, detail = query.check(outcome)
        if status != workloads.OK:
            raise SystemExit(f"seed {seed}: {query.name} is {status}: {detail}")
        if outcome[0].verdict == "YES":
            bits |= 1 << index
    return {"digest": workloads.corpus_digest(corpus), "verdicts": f"{bits:x}"}


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    pins = workloads.load_pins()
    pins["size"] = len(workloads.generate_corpus(first))
    for seed in range(first, last + 1):
        pins["seeds"][str(seed)] = pin(seed)
        pins["seeds"] = dict(sorted(pins["seeds"].items(), key=lambda item: int(item[0])))
        with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=0)
            handle.write("\n")
        print(f"seed {seed} pinned", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
