"""hypc: trajectory-codebook weight compression at desk scale.

Pairs of weights become indices into a winding-trajectory codebook, stored as
bit-packed integers in the HCMP container. Import names from their modules:
codebook (geometry, nearest-neighbor), codec (encode/decode), container
(NTB/HCMP formats), inference (pipelined forward pass, toy trainer), analysis
(metrics, the error-bound check), percolation (lattice thresholds), errors, cli.
"""
