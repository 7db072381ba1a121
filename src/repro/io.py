"""Persistence: save and load keys and ciphertexts.

A cloud deployment (paper Fig. 11) needs durable key material on the
client and durable ciphertexts in flight. The wire formats here are
deliberately simple and self-describing: a small JSON header (magic,
version, parameter fingerprint, payload shapes) followed by raw
little-endian arrays — the ciphertext payload is byte-identical to the
DMA layout of :meth:`repro.fv.ciphertext.Ciphertext.to_wire_bytes`.

Ciphertext headers are versioned. Version 2 adds the **NTT-domain wire
format**: a ``domain`` flag (``"coeff"`` or ``"ntt"``) plus a payload
digest bound to that flag. Ciphertexts live in the evaluation domain,
so they serialise without an inverse transform and reload as they
were; a coefficient payload from outside is transformed forward once,
at load — and a payload whose domain flag was mislabelled is rejected
instead of silently decrypted as garbage. Version 2 is the only version read: a header whose
``version`` is missing, older or newer is rejected, so no file can
bypass the digest and domain checks by losing a header field.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import EncodingError, ParameterError
from .fv.ciphertext import Ciphertext
from .fv.keys import KeySet, PublicKey, RelinKey, SecretKey
from .params import ParameterSet
from .poly.rns_poly import RnsPoly
from .rns.basis import basis_for

MAGIC = b"REPROFV1"

#: Current ciphertext header version (2 = domain-tagged wire format).
CIPHERTEXT_WIRE_VERSION = 2

#: Current key-material header version. Version 2 persists the secret
#: and public key NTT caches and tags every relinearisation /
#: Galois-key digit with an ``"ntt"``-domain payload digest, so loading
#: a key file performs **zero** key-material transforms.
KEYSET_WIRE_VERSION = 2

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


def _check_version(header: dict, what: str, supported: int) -> None:
    version = header.get("version")
    if version != supported:
        raise EncodingError(
            f"{what} wire version {version!r} is not supported; this "
            f"library reads version {supported} only"
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
    _check_version(header, "ciphertext", CIPHERTEXT_WIRE_VERSION)
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


# -- keys -----------------------------------------------------------------------------


def _matrix_bytes(matrix: np.ndarray) -> bytes:
    return matrix.astype("<i8").tobytes()


def _matrix_from(payload: bytes, offset: int, rows: int,
                 cols: int) -> tuple[np.ndarray, int]:
    count = rows * cols
    end = offset + 8 * count
    if end > len(payload):
        raise EncodingError("key file truncated: matrix payload missing")
    matrix = np.frombuffer(payload[offset:end], dtype="<i8").reshape(
        rows, cols
    ).astype(np.int64)
    return matrix, end


def _pair_digest(b_ntt: np.ndarray, a_ntt: np.ndarray) -> str:
    return _payload_digest("ntt", _matrix_bytes(b_ntt) + _matrix_bytes(a_ntt))


def save_keyset(path, keys: KeySet, params: ParameterSet) -> None:
    """Persist secret, public, and relinearisation keys in one file.

    The secret key is included — this is a client-side credential file;
    treat it like one.

    Version 2 additionally persists the NTT caches (``s_ntt``,
    ``p0_ntt``, ``p1_ntt``) and tags every relinearisation digit with
    an NTT-domain payload digest, so :func:`load_keyset` rebuilds the
    key set without a single forward transform. Key material missing
    its NTT cache (hand-built test fixtures) is transformed here, at
    save time, once.
    """
    k_q, n = params.k_q, params.n
    secret, public = keys.secret, keys.public
    if (secret.ntt_rows is None or public.p0_ntt is None
            or public.p1_ntt is None):
        from .fv.scheme import FvContext

        context = FvContext(params, seed=0)
        if secret.ntt_rows is None:
            secret.ntt_rows = context._ntt_rows(secret.rns.residues)
        if public.p0_ntt is None:
            public.p0_ntt = context._ntt_rows(public.p0.residues)
        if public.p1_ntt is None:
            public.p1_ntt = context._ntt_rows(public.p1.residues)
    ntt_blob = (_matrix_bytes(secret.ntt_rows)
                + _matrix_bytes(public.p0_ntt)
                + _matrix_bytes(public.p1_ntt))
    blobs = [
        secret.coeffs.astype("<i8").tobytes(),
        _matrix_bytes(public.p0.residues),
        _matrix_bytes(public.p1.residues),
        ntt_blob,
    ]
    digests = []
    for b_ntt, a_ntt in keys.relin.pairs:
        blobs.append(_matrix_bytes(b_ntt))
        blobs.append(_matrix_bytes(a_ntt))
        digests.append(_pair_digest(b_ntt, a_ntt))
    header = {
        "kind": "keyset",
        "version": KEYSET_WIRE_VERSION,
        "relin_components": keys.relin.num_components,
        "ntt_digest": _payload_digest("ntt", ntt_blob),
        "relin_digests": digests,
        "params": _params_fingerprint(params),
    }
    _write(Path(path), header, b"".join(blobs))


def load_keyset(path, params: ParameterSet) -> KeySet:
    """Rebuild a :class:`~repro.fv.keys.KeySet` from a key file.

    Every NTT cache reloads straight from the payload — zero
    key-material transforms, verified by the per-digit digests.
    """
    header, payload = _read(Path(path))
    if header.get("kind") != "keyset":
        raise EncodingError("file does not hold a key set")
    _check_fingerprint(header, params)
    _check_version(header, "keyset", KEYSET_WIRE_VERSION)
    k_q, n = params.k_q, params.n
    basis = basis_for(params.q_primes)

    components = header.get("relin_components")
    # A flipped or missing header field must not drive the payload walk
    # into a numpy shape error (or a multi-gigabyte allocation).
    max_components = len(payload) // (8 * n) + 1
    if (not isinstance(components, int) or isinstance(components, bool)
            or not 0 <= components <= max_components):
        raise EncodingError(
            f"key file declares an implausible relinearisation component "
            f"count ({components!r}) — corrupted header"
        )
    if len(payload) < 8 * n:
        raise EncodingError("key file truncated: secret key missing")
    offset = 0
    s_coeffs = np.frombuffer(payload[: 8 * n], dtype="<i8").astype(np.int64)
    offset = 8 * n
    p0, offset = _matrix_from(payload, offset, k_q, n)
    p1, offset = _matrix_from(payload, offset, k_q, n)
    ntt_start = offset
    s_ntt, offset = _matrix_from(payload, offset, k_q, n)
    p0_ntt, offset = _matrix_from(payload, offset, k_q, n)
    p1_ntt, offset = _matrix_from(payload, offset, k_q, n)
    if (header.get("ntt_digest")
            != _payload_digest("ntt", payload[ntt_start:offset])):
        raise EncodingError(
            "key NTT caches do not match their declared digest — "
            "corrupted file"
        )
    digests = header.get("relin_digests")
    if not isinstance(digests, list) or len(digests) != components:
        raise EncodingError(
            "key file declares a relinearisation digest list that does "
            "not match its component count — corrupted header"
        )
    pairs = []
    for i in range(components):
        b_ntt, offset = _matrix_from(payload, offset, k_q, n)
        a_ntt, offset = _matrix_from(payload, offset, k_q, n)
        if digests[i] != _pair_digest(b_ntt, a_ntt):
            raise EncodingError(
                f"relinearisation digit {i} does not match its declared "
                "NTT-domain digest — corrupted file"
            )
        pairs.append((b_ntt, a_ntt))
    if offset != len(payload):
        raise EncodingError("key file has trailing or missing bytes")

    s_rows = s_coeffs[None, :] % basis.primes_col
    secret = SecretKey(
        coeffs=s_coeffs,
        rns=RnsPoly(basis, s_rows),
        ntt_rows=s_ntt,
    )
    public = PublicKey(
        p0=RnsPoly(basis, p0),
        p1=RnsPoly(basis, p1),
        p0_ntt=p0_ntt,
        p1_ntt=p1_ntt,
    )
    return KeySet(secret=secret, public=public,
                  relin=RelinKey(pairs=pairs), basis=basis)


def save_galois_keys(path, keys: dict, params: ParameterSet) -> None:
    """Persist a labelled Galois key bundle NTT-domain (version 2).

    ``keys`` maps labels — rotation step counts, ``"conjugate"`` or
    ``"conjugate_quarter"``, as produced by
    :meth:`~repro.fv.galois.GaloisEngine.rotation_keygen` and
    ``summation_keygen`` — to :class:`~repro.fv.galois.GaloisKey`
    objects. The (b, a) digit pairs are written in the NTT domain the
    engine holds them in, widened to the format's 64-bit words (the
    engine's rows are ``uint32``), each tagged with a payload digest,
    so a reload performs zero key transforms.
    """
    entries = []
    blobs = []
    for label, key in keys.items():
        digests = []
        for b_ntt, a_ntt in key.pairs:
            pair_bytes = _matrix_bytes(b_ntt) + _matrix_bytes(a_ntt)
            blobs.append(pair_bytes)
            digests.append(_payload_digest("ntt", pair_bytes))
        entries.append({
            "label": str(label),
            "element": key.element,
            "components": len(key.pairs),
            "digests": digests,
        })
    header = {
        "kind": "galois_keys",
        "version": KEYSET_WIRE_VERSION,
        "entries": entries,
        "params": _params_fingerprint(params),
    }
    _write(Path(path), header, b"".join(blobs))


def load_galois_keys(path, params: ParameterSet) -> dict:
    """Rebuild a labelled Galois key bundle saved by
    :func:`save_galois_keys`.

    Integer labels come back as ``int`` (rotation steps); the
    ``"conjugate"`` and ``"conjugate_quarter"`` labels stay strings —
    the mapping plugs straight into ``GaloisEngine.rotate`` /
    ``sum_all_slots``. Every digit is checked against its
    NTT-domain digest and range, comes back as the ``uint32`` rows the
    engine holds, and no transform runs.
    """
    from .fv.galois import CONJUGATE, CONJUGATE_QUARTER, GaloisKey

    header, payload = _read(Path(path))
    if header.get("kind") != "galois_keys":
        raise EncodingError("file does not hold Galois keys")
    _check_fingerprint(header, params)
    _check_version(header, "Galois key", KEYSET_WIRE_VERSION)
    entries = header.get("entries")
    if not isinstance(entries, list):
        raise EncodingError(
            "Galois key file declares no entry table — corrupted header"
        )
    k_q, n = params.k_q, params.n
    primes_col = basis_for(params.q_primes).primes_col
    max_components = len(payload) // (8 * n) + 1
    keys: dict = {}
    offset = 0
    for entry in entries:
        if not isinstance(entry, dict):
            raise EncodingError("Galois key entry is not an object")
        components = entry.get("components")
        if (not isinstance(components, int) or isinstance(components, bool)
                or not 0 <= components <= max_components):
            raise EncodingError(
                f"Galois key entry declares an implausible component "
                f"count ({components!r}) — corrupted header"
            )
        digests = entry.get("digests")
        if not isinstance(digests, list) or len(digests) != components:
            raise EncodingError(
                "Galois key entry digest list does not match its "
                "component count — corrupted header"
            )
        label = entry.get("label")
        element = entry.get("element")
        if not isinstance(label, str) or not isinstance(element, int):
            raise EncodingError(
                "Galois key entry is missing its label or element"
            )
        pairs = []
        for i in range(components):
            b_ntt, offset = _matrix_from(payload, offset, k_q, n)
            a_ntt, offset = _matrix_from(payload, offset, k_q, n)
            if digests[i] != _pair_digest(b_ntt, a_ntt):
                raise EncodingError(
                    f"Galois key {label!r} digit {i} does not match its "
                    "declared NTT-domain digest — corrupted file"
                )
            for rows in (b_ntt, a_ntt):
                if ((rows < 0) | (rows >= primes_col)).any():
                    raise EncodingError(
                        f"Galois key {label!r} digit {i} holds values "
                        "that are not residues — corrupted file"
                    )
            pairs.append((b_ntt.astype(np.uint32),
                          a_ntt.astype(np.uint32)))
        if label in (CONJUGATE, CONJUGATE_QUARTER):
            resolved: object = label
        else:
            try:
                resolved = int(label)
            except ValueError as exc:
                raise EncodingError(
                    f"Galois key label {label!r} is neither a step count "
                    "nor a conjugation label — corrupted header"
                ) from exc
        keys[resolved] = GaloisKey(element=element, pairs=pairs)
    if offset != len(payload):
        raise EncodingError("Galois key file has trailing or missing bytes")
    return keys
