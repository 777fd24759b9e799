"""Simulation toolkit for 1-D free bosonic chains with long-range hopping.

Builds exact many-body condensate states in block-decimation (MPS) form by
folding condensate sums onto a single mode, evolves them in the Heisenberg
picture, and measures occupations and logarithmic negativity.
"""
from .errors import BosefoldError, ConfigError, CutoffError, ModelError, ValidationError
from .model import (CouplingMatrix, ModelSpec, add_gaussian_center_perturbation,
                    add_onsite_barrier, add_parabolic_trap, build_coupling,
                    build_inverse_distance, build_jx, coupling_from_array)
from .heisenberg import (ModeAmplitudes, PropagatorMatrix, Spectrum, evolve_mode,
                         ground_mode, occupations_oracle, packet_modes, propagate,
                         spectral_decompose)
from .folding import (FoldPlan, PairRotationOp, PhaseOp, TwoSumPlan,
                      apply_plan_to_modes, fold_single, fold_two, invert_plan,
                      pair_rotation_angle, plan_from_text, plan_to_text)
from .mps import (BlockDecimationState, amplitude, apply_single, apply_two,
                  build_pair_rotation_gate, build_phase_gate, canonical_defect,
                  condensate_state, condensate_states, from_fock, lift_first_site, occupations,
                  reduced_density_two_sites, schmidt_values, state_norm,
                  two_sum_state, two_sum_states)
from .entanglement import (EntanglementResult, binomial_end_entanglement_asymptotic,
                           binomial_end_entanglement_exact, collection_fraction,
                           logneg_partial_transpose, logneg_pure)
from .perturbation import (TransferReport, closed_form_series, exact_transfer,
                           first_order_numeric, transfer_report)

__version__ = "0.1.0"
