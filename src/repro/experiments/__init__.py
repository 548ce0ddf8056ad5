"""Experiment harness: one module per table and figure of the paper.

Every module exposes ``sweep_spec()``, its grid of sweep points, and
``render(rows)``, which prints the table those points fold into; the runner
executes every experiment through these two, serially or with ``--jobs N``.
Modules also keep ``run(...)`` returning structured rows and ``main()``
printing the table, for direct use.  The registry below maps experiment ids
to their modules so benchmarks, tests, and the command line can discover
them uniformly.
"""

from repro.experiments import settings
from repro.experiments.tables import format_table, geometric_mean, print_table

#: Experiment id -> dotted module path implementing it.
EXPERIMENT_MODULES = {
    "figure2": "repro.experiments.figure02_histogram_bins",
    "figure8": "repro.experiments.figure08_verification",
    "figure10": "repro.experiments.figure10_speedups",
    "figure11": "repro.experiments.figure11_amat",
    "figure12": "repro.experiments.figure12_privatization",
    "figure13": "repro.experiments.figure13_refcount",
    "table1": "repro.experiments.table1_configuration",
    "table2": "repro.experiments.table2_benchmarks",
    "traffic": "repro.experiments.traffic_reduction",
    "sensitivity": "repro.experiments.sensitivity_reduction_unit",
    # Interconnect subsystem: AMAT under load and topology sensitivity.
    "figure11-contention": "repro.experiments.figure11_amat_contention",
    "sensitivity-topology": "repro.experiments.sensitivity_topology",
    # Ablations beyond the paper's figures (design-choice studies).
    "ablation-interleaving": "repro.experiments.ablation_interleaving",
    "ablation-hierarchical": "repro.experiments.ablation_hierarchical_reduction",
}

__all__ = [
    "EXPERIMENT_MODULES",
    "format_table",
    "geometric_mean",
    "print_table",
    "settings",
]
