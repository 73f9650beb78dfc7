"""From-scratch cryptographic substrate for the sealed-bottle protocols.

The paper's mechanism relies exclusively on symmetric primitives (SHA-256,
AES-256) plus small-modulus arithmetic, while the baselines it compares
against need big-number asymmetric primitives.  This package provides all
of them from the standard library alone (SHA-256 is :mod:`hashlib`):

- :mod:`repro.crypto.aes` -- FIPS-197 AES block cipher (128/192/256).
- :mod:`repro.crypto.backend` -- the batched SWAR AES the protocol hot path
  calls (``CIPHER``), with the per-block code above as its reference.
- :mod:`repro.crypto.modes` -- ECB/CBC/CTR modes and PKCS#7 padding.
- :mod:`repro.crypto.authenticated` -- encrypt-then-MAC AEAD used for the
  post-match secure channel.
- :mod:`repro.crypto.hashes` -- SHA-256 helpers and integer conversions.
- :mod:`repro.crypto.kdf` -- HKDF-SHA256.
- :mod:`repro.crypto.numbers` -- modular arithmetic and prime generation for
  the asymmetric baselines.
- :mod:`repro.crypto.rng` -- deterministic HMAC-DRBG for reproducible runs.
"""

from repro.crypto.aes import AES
from repro.crypto.authenticated import AuthenticatedCipher, AuthenticationError
from repro.crypto.hashes import (
    sha256,
    sha256_int,
    int_to_bytes,
    bytes_to_int,
    hash_attribute,
    hash_vector_key,
)
from repro.crypto.kdf import hkdf
from repro.crypto.modes import (
    ctr_keystream,
    decrypt_cbc,
    decrypt_ctr,
    decrypt_ecb,
    encrypt_cbc,
    encrypt_ctr,
    encrypt_ecb,
    pkcs7_pad,
    pkcs7_unpad,
    PaddingError,
)
from repro.crypto.rng import HmacDrbg

__all__ = [
    "AES",
    "AuthenticatedCipher",
    "AuthenticationError",
    "HmacDrbg",
    "PaddingError",
    "bytes_to_int",
    "ctr_keystream",
    "decrypt_cbc",
    "decrypt_ctr",
    "decrypt_ecb",
    "encrypt_cbc",
    "encrypt_ctr",
    "encrypt_ecb",
    "hash_attribute",
    "hash_vector_key",
    "hkdf",
    "int_to_bytes",
    "pkcs7_pad",
    "pkcs7_unpad",
    "sha256",
    "sha256_int",
]
