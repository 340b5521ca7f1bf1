"""The benchmark's answers at seed 201, as digests.

A digest is the first 16 hex digits of the sha256 over the ``repr`` of
each ``Runner.run`` output plus a newline, in query order, with one
``Runner`` per segment of ``generate(workload, 201, 20, ref, 6)``, read
from ``perfbench/workloads.py`` and ``perfbench/reference.json`` as they
are.  Each workload runs twice in one process: the first pass after
``exactnum.forget()``, cold as a new process runs it, and the second
meets the field contexts, base systems and Thue-Morse words that the
first left behind, and must answer the same.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cantorint import exactnum

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = {"intersect": "844c47ec48e407ae", "boxcount": "62c1171d818902b4",
           "spectrum": "227bb721c5b4c8b6"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads, json.loads((BENCH / "reference.json").read_text())


def digest(workloads, ref, workload) -> str:
    h = hashlib.sha256()
    for segment in workloads.generate(workload, 201, 20, ref, 6):
        runner = workloads.Runner(ref)
        for q in segment:
            h.update((repr(runner.run(q)) + "\n").encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_201_answers(bench, workload):
    exactnum.forget()
    cold, warm = (digest(*bench, workload) for _ in range(2))
    assert cold == warm == DIGESTS[workload]
