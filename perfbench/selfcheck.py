"""Show that every output check of the benchmark passes on the program's real
output and fails on a corrupted copy of it.

Usage (from the repository root): python3 perfbench/selfcheck.py [--seed N]
Prints one line per case and exits 1 if any check misjudges its case.
"""

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile

import numpy as np

import run
import reference as ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    results = []

    def case(label, verdict, expected):
        results.append(verdict == expected)
        mark = "ok " if verdict == expected else "BAD"
        print(f"{mark} {label}: check says {'pass' if verdict else 'fail'}")

    try:
        # cli-chain: one real round, then each check on a corrupted output.
        chain = run.CliChain(seed, work)
        try:
            chain.setup()
            ops = chain.round()
        finally:
            chain.close()
        payloads = {op.name: json.loads(op.detail["stdout"].splitlines()[-1]) for op in ops}
        for op in ops:
            case(f"cli-chain {op.name}, real output", op.status == "ok", True)
        p = dict(payloads["compress"], output_bytes=payloads["compress"]["output_bytes"] + 1)
        case("cli-chain compress, output_bytes off by one", chain.check_compress(p), False)
        good = chain.restored_path.read_bytes()
        tensors = ref.load_ntb(good)
        name, shape, data = tensors[0]
        worst = int(np.argmax(chain.bounds[0]))
        data = data.copy()
        data[worst] = chain.tensors[0][2][worst] + np.float32(1.01 * chain.bounds[0][worst])
        tensors[0] = (name, shape, data)
        chain.restored_path.write_bytes(ref.dump_ntb(tensors))
        case("cli-chain decompress, one weight 1.01 bounds off",
             chain.check_decompress(payloads["decompress"]), False)
        chain.restored_path.write_bytes(good)
        case("cli-chain decompress, real file again",
             chain.check_decompress(payloads["decompress"]), True)
        p = dict(payloads["eval"], max_abs=np.nextafter(payloads["eval"]["max_abs"], 1.0))
        case("cli-chain eval, max_abs one ulp high", chain.check_eval(p), False)
        p = dict(payloads["infer"], accuracy=payloads["infer"]["accuracy"] + 1 / run.CSV_ROWS)
        case("cli-chain infer, accuracy one row high", chain.check_infer(p), False)

        # codec-sweep: real decode of each setting, then one weight pushed out.
        from hypc.codec import decode_layer, encode_layer

        sweep = run.CodecSweep(seed, work)
        sweep.setup()
        for params, bounds in sweep.settings:
            restored = [decode_layer(encode_layer(data, name, shape, params))
                        for name, shape, data in sweep.tensors]
            u = params.num_points
            case(f"codec-sweep U={u}, real output", sweep.check(restored, bounds), True)
            tightest = max(float(np.max(np.abs(got - data) / bound))
                           for (_, _, data), got, bound
                           in zip(sweep.tensors, restored, bounds))
            print(f"    largest error / bound at U={u}: {tightest:.3f}")
            i = int(np.argmax(bounds[1]))
            restored[1][i] = sweep.tensors[1][2][i] + 1.01 * bounds[1][i]
            case(f"codec-sweep U={u}, one weight 1.01 bounds off",
                 sweep.check(restored, bounds), False)

        # serve-infer: real responses, then one output one ulp off.
        from hypc.inference import pipelined_forward

        serve = run.ServeInfer(seed, work)
        serve.setup()
        for b in run.BATCHES:
            x, expected = serve.requests[b][0]
            out = pipelined_forward(serve.model, x)
            case(f"serve-infer b{b}, real response", serve.same_bits(out, expected), True)
            out[-1, -1] = np.nextafter(out[-1, -1], np.float32(np.inf))
            case(f"serve-infer b{b}, one output one ulp off",
                 serve.same_bits(out, expected), False)

        # perc-estimate: real estimates and trials, then shifted or flipped ones.
        from hypc.percolation import estimate_threshold, percolation_trial

        perc = run.PercEstimate(seed, work)
        perc.setup()
        case("perc-estimate union-find vs percolation_trial", perc.sample_agrees, True)
        case("perc-estimate union-find vs a trial flipped at p = 0.31",
             perc.sample_check(lambda spec: percolation_trial(spec) != (spec.p == 0.31)),
             False)
        crossed = [ref.crosses(k, run.PERC_SIZE, run.PERC_SIZE, p, ref.trial_seed(seed, t))
                   for k, p in run.PERC_SAMPLE for t in range(run.PERC_SAMPLE_TRIALS)]
        print(f"    sample trials crossing: {sum(crossed)} of {len(crossed)}")
        wrongs = {2: (0.5 - 1.2 * run.K2_TOLERANCE, 0.5 + 1.2 * run.K2_TOLERANCE),
                  3: (0.19, perc.p0 + 0.006)}
        for kernel, moved in wrongs.items():
            est = estimate_threshold(kernel, run.PERC_SIZE, run.PERC_SIZE, run.PERC_TRIALS,
                                     seed=seed)
            case(f"perc-estimate k{kernel}, real p_hat {est.p_hat:.4f}",
                 perc.check(kernel, est), True)
            for wrong in moved:
                case(f"perc-estimate k{kernel}, p_hat moved to {wrong:.4f}",
                     perc.check(kernel, dataclasses.replace(est, p_hat=wrong)), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} cases judged right")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
