//! Keys and Schnorr signatures over edwards25519.
//!
//! The paper's prototype signs every gossip message with an Ed25519-style
//! signature over Curve 25519 (§9). This module provides an equivalent
//! scheme built on the in-tree curve: deterministic Schnorr with a SHA-256
//! Fiat–Shamir challenge. Key sizes (32-byte public keys), signature sizes
//! (64 bytes), and verification cost (one double-scalar multiplication) all
//! match Ed25519; see DESIGN.md §4 for the substitution rationale.

use crate::edwards::EdwardsPoint;
use crate::error::CryptoError;
use crate::memo::Memo;
use crate::scalar::Scalar;
use crate::sha256::{sha256_concat, Sha256};

/// Domain-separation tags. Distinct tags guarantee hashes used as secret
/// scalars, nonces, and challenges can never collide across contexts.
const DOM_SK: &[u8] = b"algorand-repro/sk/v1";
const DOM_NONCE: &[u8] = b"algorand-repro/nonce/v1";
const DOM_CHAL: &[u8] = b"algorand-repro/chal/v1";

/// Expands `parts` into 64 uniform bytes using two domain-separated SHA-256
/// invocations, then reduces mod ℓ.
pub(crate) fn hash_to_scalar(domain: &[u8], parts: &[&[u8]]) -> Scalar {
    let mut wide = [0u8; 64];
    for (i, half) in wide.chunks_exact_mut(32).enumerate() {
        let mut h = Sha256::new();
        h.update(domain);
        h.update(&[i as u8]);
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        half.copy_from_slice(&h.finalize());
    }
    Scalar::from_bytes_mod_order_wide(&wide)
}

/// A secret signing key: a 32-byte seed and the scalar derived from it.
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
    scalar: Scalar,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

impl SecretKey {
    /// Derives a secret key deterministically from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> SecretKey {
        let scalar = hash_to_scalar(DOM_SK, &[&seed]);
        SecretKey { seed, scalar }
    }

    /// The secret scalar (used by the VRF, which shares the keypair).
    pub(crate) fn scalar(&self) -> &Scalar {
        &self.scalar
    }

    /// Computes the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        let point = EdwardsPoint::basepoint_mul(&self.scalar);
        PublicKey {
            bytes: point.compress(),
            point,
        }
    }

    /// Derives the deterministic per-message nonce scalar.
    pub(crate) fn nonce(&self, domain: &[u8], msg_parts: &[&[u8]]) -> Scalar {
        let mut parts: Vec<&[u8]> = vec![&self.seed[..], domain];
        parts.extend_from_slice(msg_parts);
        hash_to_scalar(DOM_NONCE, &parts)
    }
}

/// Most distinct key encodings the key memo holds before it clears.
pub const KEY_MEMO_CAP: usize = 4_096;

/// Key encodings that passed [`PublicKey::from_bytes`]'s validation, with
/// their decompressed points.
static KEY_MEMO: Memo<EdwardsPoint> = Memo::new(KEY_MEMO_CAP);

/// The full check behind [`PublicKey::from_bytes`]: the bytes decompress
/// to a curve point in the prime-order subgroup (ℓ·P = identity) other
/// than the identity.
fn validate_point(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
    let point = EdwardsPoint::decompress(bytes).ok_or(CryptoError::InvalidPoint)?;
    if !point.is_torsion_free() || point.is_identity() {
        return Err(CryptoError::InvalidPoint);
    }
    Ok(point)
}

/// A public verification key: a compressed point plus its decompression.
///
/// The decompressed point is cached because vote verification (ProcessMsg,
/// Algorithm 6) performs many verifications against the same key.
#[derive(Clone, Copy)]
pub struct PublicKey {
    bytes: [u8; 32],
    point: EdwardsPoint,
}

impl PublicKey {
    /// Parses a compressed public key, validating the point.
    ///
    /// A passing encoding is remembered process-wide (at most
    /// [`KEY_MEMO_CAP`] of them), so the same 32 bytes are fully validated
    /// once; a rejected encoding is never remembered and pays the full
    /// check on every call.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the bytes do not name a
    /// point in the prime-order subgroup.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<PublicKey, CryptoError> {
        let point = KEY_MEMO.get_or_check(bytes, || validate_point(bytes))?;
        Ok(PublicKey {
            bytes: *bytes,
            point,
        })
    }

    /// The 32-byte compressed encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.bytes
    }

    /// Borrow the compressed encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    pub(crate) fn point(&self) -> &EdwardsPoint {
        &self.point
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PublicKey {}

impl std::hash::Hash for PublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl PartialOrd for PublicKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PublicKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}..)",
            self.bytes[0], self.bytes[1], self.bytes[2], self.bytes[3]
        )
    }
}

/// A secret/public key pair.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The secret half.
    pub sk: SecretKey,
    /// The public half.
    pub pk: PublicKey,
}

impl Keypair {
    /// Generates a fresh keypair from the given randomness source.
    pub fn generate(rng: &mut crate::rng::Rng) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(seed)
    }

    /// Derives a keypair deterministically from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let sk = SecretKey::from_seed(seed);
        let pk = sk.public_key();
        Keypair { sk, pk }
    }
}

/// A 64-byte Schnorr signature (R, s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r_bytes: [u8; 32],
    s: Scalar,
}

/// Length of a serialized signature in bytes.
pub const SIGNATURE_LEN: usize = 64;

impl Signature {
    /// Serializes to 64 bytes: compressed R then s.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r_bytes);
        out[32..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Parses a 64-byte signature.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when `s` is non-canonical
    /// (which would otherwise make signatures malleable).
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Signature, CryptoError> {
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&bytes[32..]);
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::InvalidSignature)?;
        Ok(Signature { r_bytes, s })
    }
}

fn challenge(r_bytes: &[u8; 32], pk: &PublicKey, msg: &[u8]) -> Scalar {
    hash_to_scalar(DOM_CHAL, &[r_bytes, pk.as_bytes(), msg])
}

/// Signs `msg` with the secret key, deterministically.
pub fn sign(keypair: &Keypair, msg: &[u8]) -> Signature {
    let k = keypair.sk.nonce(b"sig", &[msg]);
    let r_point = EdwardsPoint::basepoint_mul(&k);
    let r_bytes = r_point.compress();
    let c = challenge(&r_bytes, &keypair.pk, msg);
    let s = k.add(&c.mul(keypair.sk.scalar()));
    Signature { r_bytes, s }
}

/// Verifies a signature on `msg` under `pk`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] if the equation
/// `s·B = R + c·PK` does not hold.
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
    let c = challenge(&sig.r_bytes, pk, msg);
    // R' = s·B − c·PK must equal R.
    let r_prime = EdwardsPoint::double_scalar_mul_basepoint(&c.neg(), pk.point(), &sig.s);
    if r_prime.compress() == sig.r_bytes {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Convenience: hash used to bind structured messages before signing.
pub fn message_digest(parts: &[&[u8]]) -> [u8; 32] {
    sha256_concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keypair = kp(1);
        let sig = sign(&keypair, b"hello algorand");
        assert!(verify(&keypair.pk, b"hello algorand", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let keypair = kp(2);
        let sig = sign(&keypair, b"msg A");
        assert!(verify(&keypair.pk, b"msg B", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let a = kp(3);
        let b = kp(4);
        let sig = sign(&a, b"msg");
        assert!(verify(&b.pk, b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let keypair = kp(5);
        let sig = sign(&keypair, b"msg");
        let mut bytes = sig.to_bytes();
        bytes[0] ^= 1;
        if let Ok(tampered) = Signature::from_bytes(&bytes) {
            assert!(verify(&keypair.pk, b"msg", &tampered).is_err());
        } // An unparseable R is equally a rejection.
    }

    #[test]
    fn signature_is_deterministic() {
        let keypair = kp(6);
        assert_eq!(
            sign(&keypair, b"m").to_bytes(),
            sign(&keypair, b"m").to_bytes()
        );
        assert_ne!(
            sign(&keypair, b"m").to_bytes(),
            sign(&keypair, b"n").to_bytes()
        );
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let keypair = kp(7);
        let sig = sign(&keypair, b"roundtrip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn noncanonical_s_rejected() {
        let keypair = kp(8);
        let sig = sign(&keypair, b"msg");
        let mut bytes = sig.to_bytes();
        // Force s into non-canonical territory by setting high bits ≥ ℓ.
        for b in bytes[32..].iter_mut() {
            *b = 0xff;
        }
        bytes[63] = 0x1f;
        assert!(Signature::from_bytes(&bytes).is_err());
    }

    #[test]
    fn public_key_parse_roundtrip() {
        let keypair = kp(9);
        let parsed = PublicKey::from_bytes(keypair.pk.as_bytes()).unwrap();
        assert_eq!(parsed, keypair.pk);
    }

    #[test]
    fn public_key_rejects_garbage() {
        // y = 2 is not the y-coordinate of any curve point.
        let mut not_on_curve = [0u8; 32];
        not_on_curve[0] = 2;
        assert!(PublicKey::from_bytes(&not_on_curve).is_err());
        // The identity point must be rejected.
        let id = crate::edwards::EdwardsPoint::identity().compress();
        assert!(PublicKey::from_bytes(&id).is_err());
    }

    /// Encodings that must fail validation: off the curve, the identity,
    /// a point of order 2, one of order 4, and `valid` plus an order-4
    /// component.
    fn invalid_encodings(valid: &PublicKey) -> Vec<[u8; 32]> {
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        // y = 0 names the order-4 points (±√−1, 0).
        let order4 = EdwardsPoint::decompress(&[0u8; 32]).expect("on curve");
        assert!(order4.double().double().is_identity() && !order4.double().is_identity());
        let order2 = order4.double();
        vec![
            off_curve,
            EdwardsPoint::identity().compress(),
            order2.compress(),
            order4.compress(),
            valid.point().add(&order4).compress(),
        ]
    }

    /// Serializes the tests that assert what the process-wide key memo
    /// holds, since one of them fills and clears it.
    fn key_memo_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn assert_all_rejected(invalid: &[[u8; 32]], when: &str) {
        for bytes in invalid {
            assert!(
                PublicKey::from_bytes(bytes).is_err(),
                "{when}: accepted {bytes:02x?}"
            );
            assert!(!KEY_MEMO.contains(bytes), "{when}: memoized a rejection");
        }
    }

    #[test]
    fn memo_hit_equals_cold_validation() {
        let _serial = key_memo_lock();
        let keypair = kp(20);
        let bytes = keypair.pk.to_bytes();
        let cold = validate_point(&bytes).expect("valid key");
        let first = PublicKey::from_bytes(&bytes).unwrap();
        assert!(KEY_MEMO.contains(&bytes));
        let hit = PublicKey::from_bytes(&bytes).unwrap();
        for key in [first, hit] {
            assert_eq!(key.to_bytes(), bytes);
            assert!(*key.point() == cold);
            assert!(*key.point() == *keypair.pk.point());
        }
    }

    #[test]
    fn invalid_keys_rejected_before_and_after_memoization_and_clearing() {
        let _serial = key_memo_lock();
        let keypair = kp(21);
        let invalid = invalid_encodings(&keypair.pk);
        assert_all_rejected(&invalid, "before the valid key is memoized");
        PublicKey::from_bytes(keypair.pk.as_bytes()).unwrap();
        assert!(KEY_MEMO.contains(keypair.pk.as_bytes()));
        assert_all_rejected(&invalid, "after the valid key is memoized");

        // Fill past the cap with distinct valid keys k·B, k = 2, 3, ...
        let b = EdwardsPoint::basepoint();
        let mut p = b;
        let mut first = None;
        for _ in 0..=KEY_MEMO_CAP {
            p = p.add(&b);
            let bytes = p.compress();
            PublicKey::from_bytes(&bytes).unwrap();
            first.get_or_insert(bytes);
            assert!(KEY_MEMO.len() <= KEY_MEMO_CAP);
        }
        assert!(
            !KEY_MEMO.contains(&first.unwrap()),
            "cap + 1 distinct keys must have cleared the memo at least once"
        );
        assert_all_rejected(&invalid, "after the memo filled and cleared");
        assert!(PublicKey::from_bytes(keypair.pk.as_bytes()).is_ok());
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = Rng::seed_from_u64(42);
        let a = Keypair::generate(&mut rng);
        let b = Keypair::generate(&mut rng);
        assert_ne!(a.pk, b.pk);
    }

    #[test]
    fn keys_are_deterministic_from_seed() {
        assert_eq!(kp(10).pk, kp(10).pk);
        assert_ne!(kp(10).pk, kp(11).pk);
    }
}
