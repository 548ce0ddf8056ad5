#!/usr/bin/env python3
"""Histogram case study: atomics vs. software privatization vs. COUP.

Reproduces the experiment behind the paper's Fig. 2 and Fig. 12 at example
scale: a parallel histogram over a fixed number of input values, with the
number of bins swept from small (heavily contended) to large (where the
privatized reduction phase dominates).

Run with::

    python examples/histogram_study.py [n_cores]
"""

from __future__ import annotations

import sys

from repro import simulate, table1_config
from repro.experiments.tables import print_table
from repro.software.privatization import PrivatizationLevel
from repro.workloads import HistogramWorkload, UpdateStyle


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    n_items = 12_000
    config = table1_config(n_cores)

    rows = []
    for n_bins in (32, 256, 2048, 16384):
        coup = simulate(
            HistogramWorkload(
                n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.COMMUTATIVE
            ).generate_columnar(n_cores),
            config,
            "COUP",
            track_values=False,
        )
        atomics = simulate(
            HistogramWorkload(
                n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.ATOMIC
            ).generate_columnar(n_cores),
            config,
            "MESI",
            track_values=False,
        )
        core_priv = simulate(
            HistogramWorkload(n_bins=n_bins, n_items=n_items).generate_privatized(
                n_cores, level=PrivatizationLevel.CORE
            ),
            config,
            "MESI",
            track_values=False,
        )
        socket_priv = simulate(
            HistogramWorkload(n_bins=n_bins, n_items=n_items).generate_privatized(
                n_cores,
                level=PrivatizationLevel.SOCKET,
                cores_per_socket=config.cores_per_chip,
            ),
            config,
            "MESI",
            track_values=False,
        )
        rows.append(
            {
                "n_bins": n_bins,
                "coup_Mcycles": coup.run_cycles / 1e6,
                "atomics_vs_coup": atomics.run_cycles / coup.run_cycles,
                "core_priv_vs_coup": core_priv.run_cycles / coup.run_cycles,
                "socket_priv_vs_coup": socket_priv.run_cycles / coup.run_cycles,
            }
        )

    print_table(
        rows,
        title=(
            f"Histogram on {n_cores} cores, {n_items} input values "
            "(columns give each scheme's run time relative to COUP; >1 means COUP is faster)"
        ),
    )
    print()
    print("With few bins, atomics suffer contention; with many bins, core-level")
    print("privatization pays for its reduction phase and footprint. COUP avoids both.")


if __name__ == "__main__":
    main()
