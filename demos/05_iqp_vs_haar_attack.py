# One query separates the diagonal families from Haar unitaries.
#
# Both IQP-style candidates fix H^k |0...0> exactly. Feed the uniform
# superposition to the unknown unitary and project the reply back onto it:
# the IQP side accepts every time, a Haar unitary only with probability
# 2^-lambda. This is why the candidates cannot be pseudorandom unitaries,
# even though their *states* may still look random.

import sys
import time

from qgalab.games import attack_iqp_fixed_point
from qgalab.qga import iqp_poly_qga


def main():
    for lam in (2, 3, 4):
        started = time.perf_counter()
        res = attack_iqp_fixed_point(iqp_poly_qga(lam), trials=4000, seed=41)
        ms = (time.perf_counter() - started) * 1000
        d = res.detail
        print(f"lambda={lam}: iqp accept {d['iqp_rate']:.4f}, "
              f"haar accept {d['haar_rate']:.4f} (expect {2.0**-lam:.4f}), "
              f"advantage {res.estimate:.4f} "
              f"ci [{res.ci_low:.4f}, {res.ci_high:.4f}]  ({ms:.0f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
