#!/usr/bin/env python3
"""Encrypted compare-and-swap — the cell of oblivious sorting networks.

Paper Sec. III-A lists "encrypted sorting" among the applications its
depth-4 parameter set supports. This demo sorts pairs of encrypted 3-bit
values without the server learning anything: the comparator consumes
depth 3 and the selection multiplexer one more — exactly the paper's
depth-4 budget, which is the quantitative content of its remark.

Run:  python examples/encrypted_sorting.py
"""

import numpy as np

from repro import Session, mini
from repro.apps.comparator import BITS, EncryptedComparator


def main() -> None:
    params = mini(t=2)
    session = Session(params, seed=17)
    comparator = EncryptedComparator(session)

    print(f"{BITS}-bit compare-and-swap: comparator depth "
          f"{BITS} + 1 mux level = {BITS + 1} total (paper budget: 4)\n")

    rng = np.random.default_rng(3)
    for _ in range(4):
        x, y = (int(v) for v in rng.integers(0, 1 << BITS, 2))
        ct_x = comparator.encrypt_value(x)
        ct_y = comparator.encrypt_value(y)
        low_ct, high_ct = comparator.compare_and_swap(ct_x, ct_y)
        low = comparator.decrypt_value(low_ct)
        high = comparator.decrypt_value(high_ct)
        budget = session.noise_budget_bits(low_ct[0])
        status = "OK" if (low, high) == (min(x, y), max(x, y)) else "WRONG"
        print(f"sort({x}, {y}) -> ({low}, {high})  [{status}; "
              f"remaining budget {budget:.1f} bits]")

    print("\na full k-element sorting network repeats this cell "
          "O(k log^2 k) times;\neach cell is one paper-grade Mult "
          "workload for the coprocessor.")


if __name__ == "__main__":
    main()
