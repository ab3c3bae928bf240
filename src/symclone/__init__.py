"""symclone: optimal quantum cloning of photonic qudits by beam-splitter
symmetrization, with an exact few-photon engine and a Monte Carlo bench.
"""

# set before the submodules are imported: the Monte Carlo records it in its
# JSON summary
__version__ = "0.1.0"

from .hilbert import (
    BASIS_NAMES,
    DensityMatrix,
    LabeledBasis,
    PureState,
    basis_computational,
    basis_four,
    basis_logical,
    basis_state,
    fidelity_pure,
    named_basis,
)
from .bosonic import (
    DistinguishabilityModel,
    FockState,
    add_photon,
    beam_splitter,
    coalescence_enhancement,
    hom_curve,
    identical_photons,
    postselect_same_port,
    reduced_single_photon,
    single_photon,
)
from .cloning import (
    CloningOutcome,
    CloningSpec,
    cascade_clone,
    clone_analytic,
    clone_oracle,
    f_clon,
    f_est,
)
from .experiment import (
    CountsTable,
    EstimationResult,
    ExperimentConfig,
    FidelityTable,
    estimate_probabilities,
    replicate_table,
    run_cloning_experiment,
    write_counts_csv,
)
