"""Persistence: save and load ciphertexts.

Ciphertexts are what travels between client and cloud in paper
Fig. 11; keys never leave the :class:`~repro.api.session.Session` that
made them, so the one wire format here is the ciphertext's. It is
deliberately simple and self-describing: a small JSON header (magic,
version, parameter fingerprint, part count) followed by the raw
little-endian payload, byte-identical to the DMA layout of
:meth:`repro.fv.ciphertext.Ciphertext.to_wire_bytes`.

Ciphertext headers are versioned. Version 2 adds the **NTT-domain wire
format**: a ``domain`` flag (``"coeff"`` or ``"ntt"``) plus a payload
digest bound to that flag. Ciphertexts live in the evaluation domain,
so they serialise without an inverse transform and reload as they
were; a coefficient payload from outside is transformed forward once,
at load — and a payload whose domain flag was mislabelled is rejected
instead of silently decrypted as garbage. Version 2 is the only version
read: a header whose ``version`` is missing, older or newer is
rejected, so no file can bypass the digest and domain checks by losing
a header field.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

from .errors import EncodingError, ParameterError
from .fv.ciphertext import Ciphertext
from .params import ParameterSet
from .rns.basis import basis_for

MAGIC = b"REPROFV1"

#: Current ciphertext header version (2 = domain-tagged wire format).
CIPHERTEXT_WIRE_VERSION = 2

_WIRE_DOMAINS = ("coeff", "ntt")


def _payload_digest(domain: str, payload: bytes) -> str:
    """Short digest binding the payload bytes to their declared domain.

    Editing the header's domain flag without recomputing the digest —
    the "mislabelled domain" corruption — therefore fails
    closed at load time.
    """
    digest = hashlib.sha256()
    digest.update(domain.encode())
    digest.update(b":")
    digest.update(payload)
    return digest.hexdigest()[:16]


def _params_fingerprint(params: ParameterSet) -> dict:
    return {
        "name": params.name,
        "n": params.n,
        "q_primes": list(params.q_primes),
        "p_primes": list(params.p_primes),
        "t": params.t,
    }


def _check_fingerprint(header: dict, params: ParameterSet) -> None:
    expected = _params_fingerprint(params)
    found = header.get("params", {})
    if found != expected:
        raise ParameterError(
            "file was produced under different FV parameters "
            f"({found.get('name')!r} vs {expected['name']!r})"
        )


def _check_version(header: dict) -> None:
    version = header.get("version")
    if version != CIPHERTEXT_WIRE_VERSION:
        raise EncodingError(
            f"ciphertext wire version {version!r} is not supported; this "
            f"library reads version {CIPHERTEXT_WIRE_VERSION} only"
        )


def _write(path: Path, header: dict, payload: bytes) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(payload)


def _read(path: Path) -> tuple[dict, bytes]:
    """Parse the magic/header/payload framing, failing *closed*.

    Any way a file can be short, bit-flipped or mis-framed must raise
    :class:`~repro.errors.EncodingError` — never a bare ``struct``,
    ``json`` or unicode error — so callers (and operators reading the
    stack trace) always see "corrupt wire file", not an internals leak.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise EncodingError(f"{path} is not a repro FV file")
    offset = len(MAGIC)
    if len(blob) < offset + 4:
        raise EncodingError(f"{path} is truncated: header length missing")
    (header_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if header_len > len(blob) - offset:
        raise EncodingError(
            f"{path} is truncated: header declares {header_len} bytes "
            f"but only {len(blob) - offset} follow"
        )
    try:
        header = json.loads(blob[offset: offset + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise EncodingError(
            f"{path} has a corrupt header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise EncodingError(
            f"{path} header is {type(header).__name__}, not an object"
        )
    return header, blob[offset + header_len:]


# -- ciphertexts ---------------------------------------------------------------------


def save_ciphertext(path, ct: Ciphertext) -> None:
    """Persist a ciphertext as it is (version-2 wire).

    A two-part ciphertext lives in the evaluation domain and serialises
    with ``domain: "ntt"`` and no inverse transform; a three-part raw
    product is Scale's coefficient output and writes ``domain:
    "coeff"``.
    """
    payload = ct.to_wire_bytes()
    domain = ct.domain
    header = {
        "kind": "ciphertext",
        "version": CIPHERTEXT_WIRE_VERSION,
        "parts": ct.size,
        "domain": domain,
        "digest": _payload_digest(domain, payload),
        "params": _params_fingerprint(ct.params),
    }
    _write(Path(path), header, payload)


def load_ciphertext(path, params: ParameterSet) -> Ciphertext:
    """Load a version-2 ciphertext file. The door: a two-part
    coefficient payload is transformed into the evaluation domain here,
    once (:meth:`~repro.fv.ciphertext.Ciphertext.to_ntt`)."""
    header, payload = _read(Path(path))
    if header.get("kind") != "ciphertext":
        raise EncodingError("file does not hold a ciphertext")
    _check_fingerprint(header, params)
    _check_version(header)
    domain = header.get("domain")
    if domain not in _WIRE_DOMAINS:
        raise EncodingError(
            f"unknown ciphertext domain {domain!r}; expected one of "
            f"{_WIRE_DOMAINS}"
        )
    declared_digest = header.get("digest")
    if declared_digest != _payload_digest(domain, payload):
        raise EncodingError(
            f"ciphertext payload does not match its declared "
            f"{domain!r}-domain digest — corrupted file or "
            "mislabelled domain flag"
        )
    basis = basis_for(params.q_primes)
    ct = Ciphertext.from_bytes(payload, params, basis,
                               ntt_domain=domain == "ntt")
    # The header declares the part count; a truncated three-part blob
    # can still be a *valid* two-part length, so the payload-inferred
    # count alone cannot catch the corruption.
    declared = header.get("parts", ct.size)
    if declared != ct.size:
        raise EncodingError(
            f"ciphertext payload holds {ct.size} parts but the header "
            f"declares {declared} — truncated or corrupted file"
        )
    return ct.to_ntt() if ct.size == 2 else ct
