"""Discretized influence-functional path integrals and memory-kernel
hierarchies for small open quantum systems coupled to harmonic baths."""

from .bath import BathSpec, EtaTable, SpectralDensity, eta_table
from .combinatorics import catalan, enumerate_dyck
from .config import RunConfig, default_config_text, load_config, parse_config
from .kernel_io import load_kernels, save_kernels
from .kernels import (
    KernelSet,
    closed_form_asym,
    compare,
    extract_kernels,
    extract_ttm,
    gqme_kernel,
    propagate_blocks,
    solve_midpoint,
    solve_termination,
)
from .liouville import SystemSpec, TimeGrid, fb_propagators, liou_norm
from .pathsum import oracle_trajectory

__version__ = "0.1.0"
