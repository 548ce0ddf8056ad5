#!/usr/bin/env python3
"""Quickstart: a shared counter under MESI, COUP, and RMO.

This is the paper's Fig. 1 motivating example: several cores repeatedly add to
one shared counter, and one core reads the total at the end.  Under MESI every
atomic add ping-pongs the counter's cache line; under COUP the adds are
buffered locally in update-only mode and folded by a single reduction when the
counter is read; under RMO every add travels to the shared cache.

Run with::

    python examples/quickstart.py [n_cores] [updates_per_core]
"""

from __future__ import annotations

import sys

from repro import simulate, table1_config
from repro.workloads import SharedCounterWorkload, UpdateStyle


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    updates_per_core = int(sys.argv[2]) if len(sys.argv) > 2 else 400

    config = table1_config(n_cores)
    results = {}
    for protocol, style in (
        ("MESI", UpdateStyle.ATOMIC),
        ("COUP", UpdateStyle.COMMUTATIVE),
        ("RMO", UpdateStyle.REMOTE),
    ):
        workload = SharedCounterWorkload(
            updates_per_core=updates_per_core, update_style=style
        )
        trace = workload.generate_columnar(n_cores)
        results[protocol] = simulate(trace, config, protocol)

    expected = n_cores * updates_per_core
    counter_address = SharedCounterWorkload().counter_address

    print(f"Shared counter, {n_cores} cores x {updates_per_core} updates each")
    print(f"expected final value: {expected}")
    print()
    print(f"{'protocol':10s} {'cycles':>12s} {'speedup':>8s} {'AMAT':>8s} "
          f"{'off-chip bytes':>15s} {'final value':>12s}")
    baseline = results["MESI"].run_cycles
    for protocol, result in results.items():
        final = result.final_values.get(counter_address, 0)
        print(
            f"{protocol:10s} {result.run_cycles:12.0f} {baseline / result.run_cycles:8.2f} "
            f"{result.amat:8.1f} {result.offchip_bytes:15d} {final:12d}"
        )

    coup = results["COUP"]
    print()
    print(
        f"COUP performed {coup.reductions} full reduction(s) and "
        f"{coup.partial_reductions} partial reduction(s); "
        f"MESI invalidated {results['MESI'].invalidations} cache copies."
    )


if __name__ == "__main__":
    main()
