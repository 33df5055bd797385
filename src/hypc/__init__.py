"""hypc: trajectory-codebook weight compression at desk scale.

Pairs of weights become indices into a winding-trajectory codebook, stored as
bit-packed integers in the HCMP container. Submodules: codebook (geometry and
nearest-neighbor), codec (encode/decode), container (NTB/HCMP formats),
inference (pipelined forward pass and toy trainer), analysis (metrics and the
error-bound check), percolation (lattice threshold experiments), cli.
"""

from .analysis import compression_ratio, error_stats, validate_error_bound
from .codebook import (
    Codebook,
    CodebookConfig,
    DirectionMode,
    build_codebook,
    cached_codebook,
    direction_vector,
    generalized_tau,
)
from .codec import (
    EncodedLayer,
    EncodeParams,
    categorize,
    decode_layer,
    encode_layer,
    group_pairs,
    pack_bits,
    ring_error_bounds,
    scale_factor,
    unpack_bits,
)
from .container import (
    CompressedModel,
    Tensor,
    TensorBundle,
    read_hcmp,
    read_ntb,
    write_hcmp,
    write_ntb,
)
from .errors import ConsistencyError, DataError, FormatError, HypcError
from .inference import (
    MlpLayer,
    MlpNetwork,
    ToyDataset,
    bundle_to_network,
    eval_accuracy,
    load_dataset_csv,
    make_toy_dataset,
    mlp_forward,
    model_to_network,
    network_to_bundle,
    pipelined_forward,
    save_dataset_csv,
    train_toy,
)
from .percolation import (
    LatticeSpec,
    PercolationEstimate,
    check_g2_isomorphism,
    estimate_threshold,
    percolation_trial,
    solve_p0,
)

__version__ = "0.1.0"
