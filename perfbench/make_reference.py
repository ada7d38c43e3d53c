"""Regenerate reference.json: every workload's expected output, full size and
smoke size, at the default seed and the holdout seed.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to alter results; the diff of
reference.json then shows which values moved.
"""

from __future__ import annotations

import json
import os
import shutil

from checks import REFERENCE_SEEDS, REFERENCE_PATH
from run import ROOT, SRC, import_package
from spans import NullTracer
from workloads import WORKLOADS, InMemory


def expected_output(wl) -> dict:
    null = NullTracer()
    wl.stored = None
    wl.setup(null)
    wl.prepare()
    if isinstance(wl, InMemory):
        wl.op(null)
        return wl.first
    return wl.expected


def main() -> None:
    w = import_package()
    doc: dict = {}
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for size in ("smoke", "full"):
            for name, cls in WORKLOADS.items():
                for seed in REFERENCE_SEEDS:
                    wl = cls(w, seed, size, workdir, SRC)
                    doc.setdefault(size, {}).setdefault(name, {})[str(seed)] = \
                        expected_output(wl)
                    print(f"{size} {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
