"""Discretization and spectral analysis of a two-phase size-structured
population model: upwind finite-volume generator assembly, positive
implicit evolution, Perron eigenvalue computation, closed-form spectral
quantities, and mechanical verification of the structural hypotheses
behind irreducibility, spectral gaps, and asynchronous exponential
growth."""

from .criteria import Verdict, full_verdict
from .errors import (ConfigurationError, NumericalError, TwophaseError,
                     ValidationError)
from .evolution import (Trajectory, evolve, ideal_invariance_probe,
                        mass_balance, step_implicit)
from .model import (Kernel, ModelParams, SizeGrid, build_grid, build_kernel,
                    sample_params)
from .operators import (DiscreteGenerator, StateVector, VolterraOp, assemble,
                        resolvent_direct, resolvent_transport_analytic,
                        volterra_norm_sequence)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .spectral import (AEGFit, SpectralReport, closed_form_sB, detect_AEG,
                       sB_probe_infinite, spectral_bound,
                       spectral_gap_lower_bound)

__version__ = "0.1.0"
