"""Table 1: configuration of the simulated system.

The paper's Table 1 lists the parameters of the simulated machine.  This
experiment reports the corresponding parameters of the reproduction's
:func:`repro.sim.config.table1_config` machine so they can be compared side by
side and checked by tests.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.experiments.sweep import FuncPoint, SweepSpec, execute
from repro.experiments.tables import print_table
from repro.sim.config import SystemConfig, table1_config


def rows_for(config: SystemConfig) -> List[dict]:
    """Describe a machine configuration as (parameter, value) rows."""
    return [
        {"parameter": "cores", "value": f"{config.n_cores} ({config.cores_per_chip}/chip)"},
        {"parameter": "processor chips", "value": config.n_chips},
        {"parameter": "l4 chips", "value": config.n_l4_chips},
        {
            "parameter": "L1D",
            "value": f"{config.l1d.size_bytes // 1024}KB {config.l1d.ways}-way, {config.l1d.latency}-cycle",
        },
        {
            "parameter": "L2",
            "value": f"{config.l2.size_bytes // 1024}KB {config.l2.ways}-way, {config.l2.latency}-cycle",
        },
        {
            "parameter": "L3",
            "value": (
                f"{config.l3.size_bytes // (1024 * 1024)}MB, {config.l3.banks} banks, "
                f"{config.l3.ways}-way, {config.l3.latency}-cycle"
            ),
        },
        {
            "parameter": "L4",
            "value": (
                f"{config.l4.size_bytes // (1024 * 1024)}MB/chip, {config.l4.banks} banks, "
                f"{config.l4.ways}-way, {config.l4.latency}-cycle"
            ),
        },
        {
            "parameter": "off-chip network",
            "value": (
                f"{config.network.topology.name}, "
                f"{config.network.offchip_link_latency}-cycle links"
                + (
                    f", contention on ({config.network.topology.link_bandwidth_bytes_per_cycle:g} B/cycle links)"
                    if config.network.topology.contention
                    else ""
                )
            ),
        },
        {
            "parameter": "coherence",
            "value": f"MESI/MEUSI, {config.line_bytes}B lines, no silent drops",
        },
        {
            "parameter": "main memory",
            "value": (
                f"{config.memory.channels_per_l4_chip} channels/L4 chip, "
                f"{config.memory.latency}-cycle latency"
            ),
        },
        {
            "parameter": "reduction unit",
            "value": (
                f"{config.reduction_unit.lane_bits}-bit, "
                f"1 line / {config.reduction_unit.cycles_per_line} cycles"
            ),
        },
    ]


def sweep_spec(n_cores: int = 128) -> SweepSpec:
    """A single descriptive point: the Table 1 machine's parameters."""
    config = table1_config(n_cores)
    point = FuncPoint(
        "config",
        lambda ctx: rows_for(config),
        fingerprint_data={"config": dataclasses.asdict(config)},
    )
    return SweepSpec("table1", [point], lambda results: results["config"])


def run(n_cores: int = 128) -> List[dict]:
    """Build the Table 1 rows for the reproduction's machine."""
    spec = sweep_spec(n_cores)
    return spec.rows(execute(spec))


def render(rows: List[dict]) -> None:
    """Print the Table 1 rows."""
    print_table(rows, columns=["parameter", "value"], title="Table 1: simulated system configuration")


def main() -> List[dict]:
    rows = run()
    render(rows)
    return rows


if __name__ == "__main__":
    main()
