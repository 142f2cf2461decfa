"""Numerical laboratory for the nonlocal NLS equation with symmetric nonzero
background: direct scattering, plane-wave and modulated-elliptic ray
asymptotics, and an independent split-step PDE oracle."""

from .background import Ray, RayRegion, classify_ray
from .ellipticwave import EllipticData, SurfaceData, elliptic_data, elliptic_eval
from .harness import ComparisonReport, RunConfig, emit_report, run
from .planewave import PlaneWaveData, planewave_eval, planewave_params
from .scattering import (AssumptionReport, InitialProfile, SpectralTable,
                         validate_assumptions)
from .simulator import FieldTrajectory, SimGrid, sample_ray, simulate

__all__ = [
    "Ray", "RayRegion", "classify_ray",
    "InitialProfile", "SpectralTable", "AssumptionReport",
    "validate_assumptions",
    "PlaneWaveData", "planewave_params", "planewave_eval",
    "SurfaceData", "EllipticData", "elliptic_data", "elliptic_eval",
    "SimGrid", "FieldTrajectory", "simulate", "sample_ray",
    "RunConfig", "ComparisonReport", "run", "emit_report",
]

__version__ = "0.1.0"
