"""repro — reproduction of the HPCA 2019 FPGA FV accelerator.

A functional + cycle-level Python reproduction of:

    Sujoy Sinha Roy, Furkan Turan, Kimmo Järvinen, Frederik Vercauteren,
    Ingrid Verbauwhede. "FPGA-Based High-Performance Parallel
    Architecture for Homomorphic Computing on Encrypted Data."
    HPCA 2019, pp. 387-398.

Public API tour — the :class:`Session` facade is the front door:

>>> from repro import Session, mini
>>> s = Session(mini(t=65537), seed=7)
>>> a, b = s.encrypt([1, 2, 3]), s.encrypt([4, 5, 6])
>>> s.decrypt(a * b + a, size=3)          # lazy graph, auto-executed
array([ 5, 14, 27])

The same expression compiles into an :class:`HEProgram` that also runs
through the simulated serving stack (latency under load on N boards):

>>> from repro import SimulatedBackend, sum_slots
>>> program = s.compile(sum_slots(a * b), name="dot")
>>> run = SimulatedBackend.over_cluster(s.params, 4).run(
...     program, requests=100, rate_per_second=200.0)
>>> run.latency_summary().p99             # simulated seconds

The low-level layers stay importable for scheme internals work:

>>> from repro import hpca19, FvContext, Evaluator, Plaintext
>>> params = hpca19()
>>> ctx = FvContext(params, seed=1)
>>> keys = ctx.keygen()

Run one multiplication on the simulated coprocessor and read the
paper's Table I/II numbers off the report:

>>> from repro import Coprocessor
>>> m = Plaintext.from_list([1, 1], params.n, params.t)
>>> ct = ctx.encrypt(m, keys.public)
>>> hw_result, report = Coprocessor(params).mult(ct, ct, keys.relin)
>>> report.seconds           # ~4.3e-3, the paper measures 4.458 ms
"""

from .api import (
    CiphertextHandle,
    HEProgram,
    LocalBackend,
    ProgramFuture,
    ProgramResult,
    Session,
    LoweredProgram,
    SimulatedBackend,
    SimulatedRun,
    rotate,
    sum_slots,
)

from .errors import (
    CapacityError,
    EncodingError,
    HardwareModelError,
    IsaError,
    MemoryConflictError,
    NoiseBudgetExhausted,
    ParameterError,
    ReproError,
)
from .fv import (
    BatchEncoder,
    Ciphertext,
    Evaluator,
    FvContext,
    IntegerEncoder,
    KeySet,
    Plaintext,
    PublicKey,
    RelinKey,
    SecretKey,
    noise_budget_bits,
)
from .hw import Coprocessor, HardwareConfig, MultReport, Opcode
from .hw.config import slow_coprocessor_config
from .params import ParameterSet, hpca19, hpca19_large, large_ring, mini, toy
from .rns.decompose import WordDecomp
from .system import CostModel, SoftwareBaseline

__version__ = "1.1.0"

__all__ = [
    # client facade (start here)
    "Session", "CiphertextHandle", "HEProgram", "rotate", "sum_slots",
    "LocalBackend", "ProgramResult",
    "SimulatedBackend", "SimulatedRun", "ProgramFuture",
    "LoweredProgram",
    # parameters
    "ParameterSet", "hpca19", "hpca19_large", "large_ring", "mini", "toy",
    # FV scheme
    "FvContext", "Evaluator", "Plaintext", "IntegerEncoder", "BatchEncoder",
    "Ciphertext", "KeySet", "SecretKey", "PublicKey", "RelinKey",
    "WordDecomp", "noise_budget_bits",
    # hardware simulator
    "Coprocessor", "HardwareConfig", "slow_coprocessor_config",
    "MultReport", "Opcode",
    # system
    "CostModel", "SoftwareBaseline",
    # errors
    "ReproError", "ParameterError", "EncodingError", "NoiseBudgetExhausted",
    "HardwareModelError", "MemoryConflictError", "CapacityError", "IsaError",
]
