"""Topology sensitivity: protocol x workload x off-chip topology, under load.

The paper's traffic-reduction results matter because coherence traffic
contends for finite interconnect bandwidth; this experiment quantifies that
by running each benchmark under every off-chip topology
(:mod:`repro.interconnect.topology`) with the epoch contention model enabled,
plus a *baseline* column — the dancehall with contention disabled, i.e. the
original fixed-latency machine — that every other column is normalised
against.  The baseline points use the stock :func:`table1_config`, so their
results are bit-identical to the legacy interconnect path
(:func:`baseline_matches_legacy` asserts exactly that; the CI
``topology-smoke`` lane runs it against a ``runner --jobs 2`` sweep).

All points of one benchmark share a single materialized trace through the
sweep engine's trace cache, so the whole grid regenerates each workload once.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments import settings
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.experiments.sweep import SimPoint, SweepSpec, WorkloadSpec, execute
from repro.experiments.tables import print_table
from repro.sim.config import TOPOLOGY_NAMES, TopologyConfig, table1_config
from repro.workloads import UpdateStyle

#: Key of the dancehall/no-contention baseline column.
BASELINE = "baseline"

#: Protocols with the update style each one simulates (as in Fig. 11).
_PROTOCOL_STYLES = (("COUP", UpdateStyle.COMMUTATIVE), ("MESI", UpdateStyle.ATOMIC))

#: Default benchmarks: one dense-update and one graph workload keeps the
#: grid affordable (4 topologies + baseline, 2 protocols each).
DEFAULT_BENCHMARKS = ("hist", "pgrank")


def _topology(name: str) -> TopologyConfig:
    """Contention-enabled configuration of one topology."""
    return TopologyConfig(name=name, contention=True)


def default_cores() -> int:
    """Core count of the sensitivity grid (capped like every sweep)."""
    return min(32, settings.max_cores())


def sweep_spec(
    benchmarks: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = TOPOLOGY_NAMES,
    n_cores: Optional[int] = None,
    protocols: Sequence[str] = tuple(name for name, _ in _PROTOCOL_STYLES),
) -> SweepSpec:
    """The grid: benchmark x protocol x (baseline + contention topologies)."""
    benchmarks = list(dict.fromkeys(benchmarks or DEFAULT_BENCHMARKS))
    topologies = list(dict.fromkeys(topologies))
    n_cores = n_cores or default_cores()
    styles = dict(_PROTOCOL_STYLES)
    protocols = list(dict.fromkeys(protocols))

    columns = [(BASELINE, table1_config(n_cores))] + [
        (name, table1_config(n_cores, topology=_topology(name))) for name in topologies
    ]

    points: List[SimPoint] = []
    for name in benchmarks:
        if name not in PAPER_WORKLOAD_FACTORIES:
            raise ValueError(f"unknown benchmark {name!r}")
        factory = PAPER_WORKLOAD_FACTORIES[name]
        for protocol in protocols:
            spec = WorkloadSpec.plain(partial(factory, styles[protocol]))
            for column, config in columns:
                points.append(
                    SimPoint(
                        f"{name}/{column}/{protocol}",
                        spec,
                        protocol,
                        n_cores,
                        config,
                    )
                )

    def build(results: Mapping[str, object]) -> Dict[str, List[dict]]:
        out: Dict[str, List[dict]] = {}
        for name in benchmarks:
            rows: List[dict] = []
            for protocol in protocols:
                baseline = results[f"{name}/{BASELINE}/{protocol}"]
                for column, _config in columns:
                    result = results[f"{name}/{column}/{protocol}"]
                    link_stats = result.link_stats
                    rows.append(
                        {
                            "benchmark": name,
                            "protocol": protocol,
                            "topology": column,
                            "n_cores": n_cores,
                            "run_cycles": result.run_cycles,
                            "amat": result.amat,
                            "offchip_bytes": result.offchip_bytes,
                            "slowdown_vs_baseline": (
                                result.run_cycles / baseline.run_cycles
                                if baseline.run_cycles
                                else 0.0
                            ),
                            "max_link_utilization": (
                                link_stats.max_link_utilization
                                if link_stats is not None
                                else 0.0
                            ),
                            "surcharge_cycles": (
                                link_stats.surcharge_cycles
                                if link_stats is not None
                                else 0.0
                            ),
                        }
                    )
            out[name] = rows
        return out

    return SweepSpec("sensitivity-topology", points, build)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = TOPOLOGY_NAMES,
    n_cores: Optional[int] = None,
    protocols: Sequence[str] = tuple(name for name, _ in _PROTOCOL_STYLES),
) -> Dict[str, List[dict]]:
    """Run the topology sensitivity grid."""
    spec = sweep_spec(benchmarks, topologies, n_cores, protocols)
    return spec.rows(execute(spec))


def baseline_rows(results: Dict[str, List[dict]]) -> List[dict]:
    """The dancehall/no-contention rows of a result set."""
    return [
        row
        for rows in results.values()
        for row in rows
        if row["topology"] == BASELINE
    ]


def baseline_matches_legacy(results: Dict[str, List[dict]]) -> None:
    """Assert the baseline column is bit-identical to the legacy path.

    The baseline points run on the stock :func:`table1_config` machine —
    dancehall, contention off — which must charge exactly the pre-topology
    fixed-latency constants.  This recomputes each baseline point with a
    direct :func:`repro.sim.simulator.simulate` call (no sweep engine, no
    trace cache) and compares ``run_cycles``/``amat``/``offchip_bytes``
    bit-for-bit.  Raises ``AssertionError`` on any divergence; used by the
    CI ``topology-smoke`` lane and ``tests/interconnect``.
    """
    from repro.sim.simulator import simulate

    rows = baseline_rows(results)
    if not rows:
        raise AssertionError("no baseline rows present")
    styles = dict(_PROTOCOL_STYLES)
    for row in rows:
        factory = PAPER_WORKLOAD_FACTORIES[row["benchmark"]]
        workload = factory(styles[row["protocol"]])
        n_cores = row["n_cores"]
        reference = simulate(
            workload.generate_columnar(n_cores),
            table1_config(n_cores),
            row["protocol"],
            track_values=False,
        )
        observed = (row["run_cycles"], row["amat"], row["offchip_bytes"])
        expected = (reference.run_cycles, reference.amat, reference.offchip_bytes)
        assert observed == expected, (
            f"baseline {row['benchmark']}/{row['protocol']} diverged from the "
            f"legacy path: {observed} != {expected}"
        )


def render(results: Dict[str, List[dict]]) -> None:
    """Print one topology sensitivity table per benchmark."""
    columns = [
        "protocol",
        "topology",
        "run_cycles",
        "slowdown_vs_baseline",
        "amat",
        "max_link_utilization",
        "surcharge_cycles",
    ]
    for name, rows in results.items():
        print_table(
            rows,
            columns=columns,
            title=(
                f"Topology sensitivity: {name} under contention "
                f"(baseline = dancehall, contention off)"
            ),
        )
        print()


def main() -> Dict[str, List[dict]]:
    """Regenerate the topology sensitivity tables."""
    results = run()
    render(results)
    return results


if __name__ == "__main__":
    main()
