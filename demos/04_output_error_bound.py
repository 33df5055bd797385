"""Check the layer-output error bound on random single-layer networks.

For inputs and weights drawn uniform in [0,1], the L1 discrepancy between the
outputs of the original and round-tripped weight vector is bounded by
2 * samples * dims * eps, where eps is the worst per-weight error. The same
bound covers the ReLU outputs, since ReLU is 1-Lipschitz. Both checks must
hold in every trial; the report also shows how loose the bound is in practice.
"""

import json

from hypc.analysis import validate_error_bound

report = validate_error_bound(sample_count=64, input_dim=128, trials=100, seed=0)
print(json.dumps(report, indent=2))

print(f"\nevery trial satisfied both inequalities: "
      f"{report['pass_fraction'] == 1.0}")
print(f"the tightest trial used {100 * report['max_ratio_observed']:.2f}% "
      f"of its budget")
print(f"worst per-weight error seen: {report['epsilon_max']:.2e}")
