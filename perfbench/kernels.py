"""Kernel timings taken from outside bfl, on fixed inputs.

    python3 perfbench/kernels.py --out FILE

Times GF(9) multiplication, 4x4 matrix product and inverse over GF(3), and
permutation products at degree 80 and 728 (the action sizes of gl:4:3 and
sl:2:27).  Each figure is the median of several timeit repeats, per call.
"""

import argparse
import json
import operator
import os
import random
import statistics
import sys
import timeit

REPEATS = 7


def _per_call(fn, inputs, loops):
    """Median seconds per call of fn over the fixed inputs."""
    def body():
        for args in inputs:
            fn(*args)
    times = timeit.repeat(body, number=loops, repeat=REPEATS)
    return statistics.median(times) / (loops * len(inputs))


def measure():
    from bfl import GF, Permutation, SquareMatrix
    rng = random.Random(0xBF)
    F9, F3 = GF(9), GF(3)
    pairs = [(rng.randrange(9), rng.randrange(9)) for _ in range(64)]
    mats = []
    while len(mats) < 16:
        m = SquareMatrix(F3, [[rng.randrange(3) for _ in range(4)]
                              for _ in range(4)])
        if m.det():
            mats.append(m)
    mat_pairs = list(zip(mats, mats[1:] + mats[:1]))

    def perms(n):
        out = []
        for _ in range(8):
            images = list(range(n))
            rng.shuffle(images)
            out.append(Permutation(images))
        return list(zip(out, out[1:] + out[:1]))

    p80, p728 = perms(80), perms(728)
    return {
        "fields.mul_ns": 1e9 * _per_call(F9.mul, pairs, 200),
        "elements.matmul_us": 1e6 * _per_call(operator.mul, mat_pairs, 100),
        "elements.matinv_us": 1e6 * _per_call(operator.invert,
                                              [(m,) for m in mats], 50),
        "elements.permmul_deg80_us": 1e6 * _per_call(operator.mul, p80, 200),
        "elements.permmul_deg728_us": 1e6 * _per_call(operator.mul, p728, 40),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath("src"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(measure(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
