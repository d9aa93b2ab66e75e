"""dcspin: resonant electron-nuclear spin coupling via switched low-power driving.

The library covers the analytic resonance theory of a periodically switched
qubit splitting (dynamic phase, coupling factor, resonance condition and
its optimum), exact propagation of the composite electron-nuclear system
under that drive, the comparison protocols (phase modulation and pulse-train
polarization transfer), and a preset/CLI layer reproducing the headline
comparisons as CSV tables.
"""

__version__ = "0.1.0"

from .constants import (  # noqa: F401
    GAMMA_13C,
    GAMMA_1H,
    GYROMAGNETIC_RATIOS,
    angular_from_khz,
    angular_from_mhz,
    mhz_from_angular,
)
from .spincore import (  # noqa: F401
    InitialStateKind,
    Nucleus,
    Observable,
    QuantumState,
    SpinSystem,
    build_hamiltonian,
    embed_operator,
    expectation,
    initial_state,
    nuclear_frequency,
    nucleus_from_isotope,
)
from .waveform import (  # noqa: F401
    ConstantWaveform,
    DcsWaveform,
    FactorizationError,
    PmWaveform,
    QuadratureError,
    ResonanceConditionError,
    Waveform,
    average_drive,
    average_power,
    closed_form_period_coupling,
    coherence_factor,
    coupling_factor,
    dynamic_phase,
    optimal_dwell_times,
    period_coupling_factor,
    period_phase_defect,
    resonance_frequency,
    waveform_value,
)
from .dynamics import (  # noqa: F401
    IntegrationPolicy,
    PropagationError,
    Trajectory,
    effective_flipflop_signal,
    magnus_effective_hamiltonian,
    propagate,
    propagate_spin_pair,
)
from .protocols import (  # noqa: F401
    ProtocolSpec,
    PulseTrain,
    apply_amplitude_error,
    build_dcs_waveform,
    build_pm_waveform,
    effective_field_topdnp,
    run_dcs_dnp,
    run_dcs_sensing,
    run_sweep,
    solve_topdnp_detuning,
    topdnp_average_power,
)
from .sweep import SweepResult, refine_extremum  # noqa: F401
from .config import ConfigError, ExperimentConfig, load_config, parse_config  # noqa: F401
from .presets import PRESETS, run_preset, verify_preset  # noqa: F401
from .cli import run_experiment  # noqa: F401
