"""Discretized influence-functional path integrals and memory-kernel
hierarchies for small open quantum systems coupled to harmonic baths."""

from .bath import (
    BathSpec,
    EtaTable,
    SpectralDensity,
    bump_correlation,
    eta_table,
    eta_table_from_correlation,
    eta_truncated,
)
from .combinatorics import (
    catalan,
    enumerate_dyck,
    expand_hierarchy,
    numeric_check,
    term_census,
)
from .config import RunConfig, default_config_text, load_config, parse_config
from .kernel_io import load_kernels, save_kernels
from .kernels import (
    ComparisonReport,
    KernelSet,
    closed_form_asym,
    compare,
    extract_kernels,
    extract_ttm,
    gqme_kernel,
    propagate,
    propagate_blocks,
    solve_midpoint,
    solve_termination,
)
from .liouville import (
    SystemSpec,
    TimeGrid,
    apply_map,
    fb_propagator,
    liou_norm,
)
from .pathsum import config_count, oracle_trajectory

__version__ = "0.1.0"
