"""Privacy-friendly smart-grid statistics (paper refs [4], Sec. III-A).

Smart meters encrypt their readings; the utility's cloud computes
aggregate statistics without ever seeing an individual household's data.
With the batching encoder a single ciphertext carries thousands of
readings, and:

* totals and means need only ciphertext additions;
* weighted forecasts (the GMDH-style predictor of [4] is a weighted sum
  of lagged readings) need plaintext multiplications;
* variances need one ciphertext-ciphertext multiplication — the
  operation the paper's coprocessor accelerates (depth 1 of the
  available 4).

The aggregator speaks the :mod:`repro.api` facade: methods take and
return opaque ciphertext handles and stay lazy until decrypted, so a
whole aggregation pipeline can also be compiled into one
:class:`~repro.api.HEProgram` and priced on the simulated cluster.
"""

from __future__ import annotations

import numpy as np

from ..api.program import CiphertextHandle
from ..api.session import Session
from ..errors import ParameterError

#: The public forecasting model: the weights of the lagged days, most
#: recent first.
WEIGHTS = (5, 3, 1)


class SmartGridAggregator:
    """Server-side aggregation over encrypted meter readings.

    Construct with ``SmartGridAggregator(session)`` (the session must
    use the batch encoder, i.e. an NTT-friendly plaintext modulus).
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        if self.session.encoder_kind != "batch":
            raise ParameterError(
                "SmartGridAggregator needs a batch-encoder session "
                "(NTT-friendly plaintext modulus); got "
                f"{self.session.encoder_kind!r}"
            )
        self.encoder = self.session.encoder

    # -- client side -------------------------------------------------------------

    def encrypt_readings(self, readings) -> CiphertextHandle:
        """A meter encrypts one batch of readings (one slot each)."""
        return self.session.encrypt(np.asarray(readings, dtype=np.int64))

    # -- server side (never sees plaintext) -----------------------------------------

    def total(self, meter_cts: list):
        """Slot-wise sum over all meters (pure additions)."""
        if not meter_cts:
            raise ParameterError("no meter ciphertexts supplied")
        acc = meter_cts[0]
        for handle in meter_cts[1:]:
            acc = acc + handle
        return acc

    def weighted_forecast(self, lagged_cts: list):
        """GMDH-style linear predictor: sum_i w_i * x_{t-i}.

        The :data:`WEIGHTS` are public model coefficients (plaintext
        multiplications, no relinearisation needed).
        """
        if len(lagged_cts) != len(WEIGHTS):
            raise ParameterError("one weight per lagged ciphertext required")
        acc = None
        for ct, weight in zip(lagged_cts, WEIGHTS, strict=True):
            term = ct * int(weight)
            acc = term if acc is None else acc + term
        return acc

    def squared(self, ct):
        """Slot-wise square (one homomorphic multiplication)."""
        return ct * ct

    def sum_of_squares(self, meter_cts: list):
        """sum_i x_i^2 — with the total, gives the variance."""
        return self.total([self.squared(ct) for ct in meter_cts])

    def grand_total(self, meter_cts: list):
        """One ciphertext whose every slot holds the total over all
        meters *and* all slots (rotate-and-add via Galois keys, which
        the session generates and caches on first use).
        """
        return self.total(meter_cts).sum_slots()

    # -- authority side ----------------------------------------------------------------

    def decrypt_slots(self, ct, count: int) -> np.ndarray:
        return self.session.decrypt(ct, size=count)


def plaintext_reference(readings_matrix: np.ndarray, t: int) -> dict:
    """What the aggregates should equal, computed in the clear (mod t)."""
    total = readings_matrix.sum(axis=0) % t
    sum_sq = (readings_matrix ** 2).sum(axis=0) % t
    forecast = sum(
        w * readings_matrix[i] for i, w in enumerate(WEIGHTS)
    ) % t
    return {"total": total, "sum_of_squares": sum_sq, "forecast": forecast}
