"""Cloud applications from the paper's introduction and Sec. III-A.

The paper sizes its parameter set (depth 4) for "several statistical
applications such as privacy-friendly forecasting for the smart grid [4],
[...] private information retrieval or encrypted search", and for
"encrypted sorting". Forecasting, a private table lookup and the
compare-and-swap under a sorting network are implemented here on the
public FV API, beside an encrypted blocked matrix product, each with a
plaintext reference computation for verification.
"""

from .comparator import EncryptedComparator
from .forecasting import SmartGridAggregator
from .lookup import EncryptedLookupTable
from .matmul import EncryptedMatmul

__all__ = [
    "SmartGridAggregator",
    "EncryptedLookupTable",
    "EncryptedMatmul",
    "EncryptedComparator",
]
