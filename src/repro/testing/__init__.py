"""Test support: deterministic fault injection for chaos-testing the
execution stack, and reference oracles production code is checked against."""

from .faults import (
    FaultSpec,
    InjectedFault,
    clear_faults,
    fire,
    install_faults,
    installed_faults,
)
from .sampling_oracle import reference_marginal_probabilities, reference_sample_counts
from .trajectory_oracle import reference_trajectory_chunk, reference_trajectory_counts

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "clear_faults",
    "fire",
    "install_faults",
    "installed_faults",
    "reference_marginal_probabilities",
    "reference_sample_counts",
    "reference_trajectory_chunk",
    "reference_trajectory_counts",
]
