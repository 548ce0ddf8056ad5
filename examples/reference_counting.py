#!/usr/bin/env python3
"""Reference counting case study: XADD vs. SNZI vs. Refcache vs. COUP.

Reproduces the paper's Sec. 5.4 microbenchmarks at example scale:

* immediate deallocation — threads randomly increment or decrement-and-read a
  pool of shared reference counters (low-count and high-count variants);
* delayed deallocation — threads only update counters during an epoch and
  check for zeroes at epoch boundaries (COUP with a modified-bitmap vs.
  Refcache's per-thread delta caches).

Run with::

    python examples/reference_counting.py [n_cores]
"""

from __future__ import annotations

import sys

from repro import simulate, table1_config
from repro.experiments.tables import print_table
from repro.workloads import (
    CountMode,
    DelayedRefcountWorkload,
    ImmediateRefcountWorkload,
    RefcountScheme,
)


def immediate(n_cores: int, count_mode: CountMode) -> dict:
    config = table1_config(n_cores)
    results = {}
    for scheme, protocol in (
        (RefcountScheme.COUP, "COUP"),
        (RefcountScheme.XADD, "MESI"),
        (RefcountScheme.SNZI, "MESI"),
    ):
        workload = ImmediateRefcountWorkload(
            n_counters=1024,
            updates_per_thread=400,
            scheme=scheme,
            count_mode=count_mode,
        )
        results[scheme.value] = simulate(
            workload.generate_columnar(n_cores), config, protocol, track_values=False
        )
    xadd = results["xadd"].run_cycles
    return {
        "variant": f"immediate/{count_mode.value}",
        "coup_vs_xadd": xadd / results["coup"].run_cycles,
        "snzi_vs_xadd": xadd / results["snzi"].run_cycles,
    }


def delayed(n_cores: int, updates_per_epoch: int) -> dict:
    config = table1_config(n_cores)
    coup = simulate(
        DelayedRefcountWorkload(
            n_counters=2048, updates_per_epoch=updates_per_epoch, scheme=RefcountScheme.COUP
        ).generate_columnar(n_cores),
        config,
        "COUP",
        track_values=False,
    )
    refcache = simulate(
        DelayedRefcountWorkload(
            n_counters=2048,
            updates_per_epoch=updates_per_epoch,
            scheme=RefcountScheme.REFCACHE,
        ).generate_columnar(n_cores),
        config,
        "MESI",
        track_values=False,
    )
    return {
        "variant": f"delayed/{updates_per_epoch} upd/epoch",
        "coup_vs_refcache": refcache.run_cycles / coup.run_cycles,
    }


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 32

    immediate_rows = [
        immediate(n_cores, CountMode.LOW),
        immediate(n_cores, CountMode.HIGH),
    ]
    print_table(
        immediate_rows,
        title=f"Immediate deallocation on {n_cores} cores (speedup over flat atomic counters)",
    )
    print()

    delayed_rows = [delayed(n_cores, updates) for updates in (10, 100, 400)]
    print_table(
        delayed_rows,
        title=f"Delayed deallocation on {n_cores} cores (COUP speedup over Refcache)",
    )
    print()
    print("COUP keeps a single copy of every counter and lets all threads update it")
    print("concurrently; SNZI and Refcache approximate that in software at the cost of")
    print("extra memory, tuning, and (for Refcache) delayed reclamation.")


if __name__ == "__main__":
    main()
