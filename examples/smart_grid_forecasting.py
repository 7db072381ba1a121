#!/usr/bin/env python3
"""Privacy-friendly smart-grid statistics on encrypted meter readings.

The motivating application of the paper (its depth-4 parameter set cites
the smart-grid forecasting work of Bos et al. [4]): meters encrypt their
readings, the utility's cloud computes totals, weighted forecasts, and
variance-style second moments without seeing any individual household's
consumption.

Run:  python examples/smart_grid_forecasting.py
"""

import numpy as np

from repro import Session, mini
from repro.apps import SmartGridAggregator
from repro.apps.forecasting import plaintext_reference

NUM_METERS = 8
SLOTS = 48            # half-hour readings for one day


def main() -> None:
    # t = 65537 is prime with t ≡ 1 (mod 2n): batching packs one reading
    # per slot, so a single ciphertext carries a meter's whole day.
    params = mini(t=65537)
    aggregator = SmartGridAggregator(Session(params, seed=7))

    rng = np.random.default_rng(11)
    readings = rng.integers(0, 500, size=(NUM_METERS, SLOTS))
    print(f"{NUM_METERS} meters, {SLOTS} slots each; "
          f"ciphertext = {params.ciphertext_bytes:,} bytes\n")

    print("meters encrypt their readings ...")
    meter_cts = [aggregator.encrypt_readings(r) for r in readings]

    print("cloud aggregates under encryption ...")
    total_ct = aggregator.total(meter_cts)
    sum_sq_ct = aggregator.sum_of_squares(meter_cts)
    forecast_ct = aggregator.weighted_forecast(meter_cts[:3])

    print("authority decrypts only the aggregates:\n")
    reference = plaintext_reference(readings, params.t)
    total = aggregator.decrypt_slots(total_ct, SLOTS)
    sum_sq = aggregator.decrypt_slots(sum_sq_ct, SLOTS)
    forecast = aggregator.decrypt_slots(forecast_ct, SLOTS)

    print(f"slot 0..5 totals:    {total[:6].tolist()}")
    print(f"  (reference:        {reference['total'][:6].tolist()})")
    print(f"slot 0..5 sum of x^2: {sum_sq[:6].tolist()}")
    print(f"  (reference:        {reference['sum_of_squares'][:6].tolist()})")
    print(f"slot 0..5 forecast:  {forecast[:6].tolist()}")
    print(f"  (reference:        {reference['forecast'][:6].tolist()})")

    assert np.array_equal(total, reference["total"])
    assert np.array_equal(sum_sq, reference["sum_of_squares"])
    assert np.array_equal(forecast, reference["forecast"])
    print("\nall encrypted aggregates match the plaintext reference.")

    # Extension: one number for the whole fleet via Galois rotations
    # (rotate-and-add slot summation; see docs/ARCHITECTURE.md Sec. 5).
    grand_ct = aggregator.grand_total(meter_cts)
    grand = aggregator.decrypt_slots(grand_ct, 1)[0]
    expected = int(readings.sum()) % params.t
    print(f"\ngrand total over all meters and slots (computed entirely "
          f"under encryption): {grand}  (plaintext check: {expected})")
    assert grand == expected


if __name__ == "__main__":
    main()
