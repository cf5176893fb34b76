//! Signed payment transactions (§3, §8.1).
//!
//! Each transaction is "a payment signed by one user's public key
//! transferring money to another user's public key". A per-sender sequence
//! number prevents replay.

use crate::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::memo::Memo;
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::{sha256, Keypair, PublicKey};

/// Most transaction ids the signature memo holds before it clears.
pub const SIG_MEMO_CAP: usize = 65_536;

/// Ids of transactions whose signature verified. The id hashes the full
/// encoding, signature included, so it names exactly the bytes checked.
static SIG_MEMO: Memo<()> = Memo::new(SIG_MEMO_CAP);

/// A signed payment.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// The paying account.
    pub from: PublicKey,
    /// The receiving account.
    pub to: PublicKey,
    /// Currency units transferred.
    pub amount: u64,
    /// Sender sequence number; must be exactly the sender's current nonce
    /// plus one, preventing replay and enforcing per-sender ordering.
    pub nonce: u64,
    /// Signature by `from` over all fields above.
    pub sig: Signature,
}

impl Transaction {
    /// The serialized size in bytes: 32 + 32 + 8 + 8 + 64.
    pub const WIRE_SIZE: usize = 144;

    fn signing_digest(from: &PublicKey, to: &PublicKey, amount: u64, nonce: u64) -> [u8; 32] {
        let mut buf = Vec::with_capacity(90);
        buf.put_bytes(b"algorand-repro/tx/v1");
        buf.put_bytes(from.as_bytes());
        buf.put_bytes(to.as_bytes());
        buf.put_u64(amount);
        buf.put_u64(nonce);
        sha256(&buf)
    }

    /// Creates and signs a payment of `amount` from `keypair` to `to`.
    pub fn payment(keypair: &Keypair, to: PublicKey, amount: u64, nonce: u64) -> Transaction {
        let digest = Self::signing_digest(&keypair.pk, &to, amount, nonce);
        Transaction {
            from: keypair.pk,
            to,
            amount,
            nonce,
            sig: sig::sign(keypair, &digest),
        }
    }

    /// Verifies the sender's signature.
    ///
    /// A transaction whose signature verified is remembered process-wide
    /// by its [`Transaction::id`] (at most [`SIG_MEMO_CAP`] of them), so
    /// pool admission, block validation and chain append share one
    /// verification. A failing signature is never remembered.
    pub fn signature_valid(&self) -> bool {
        SIG_MEMO
            .get_or_check(&self.id(), || {
                let digest = Self::signing_digest(&self.from, &self.to, self.amount, self.nonce);
                sig::verify(&self.from, &digest, &self.sig)
            })
            .is_ok()
    }

    /// A content hash identifying this transaction.
    pub fn id(&self) -> [u8; 32] {
        sha256(&self.encoded())
    }

    /// Appends the canonical encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_bytes(self.from.as_bytes());
        out.put_bytes(self.to.as_bytes());
        out.put_u64(self.amount);
        out.put_u64(self.nonce);
        out.put_bytes(&self.sig.to_bytes());
    }

    /// The canonical encoding as a fresh buffer.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode(&mut out);
        out
    }

    /// Decodes a transaction, validating key and signature encodings.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Invalid`] for malformed keys or signatures.
    pub fn decode(r: &mut Reader<'_>) -> Result<Transaction, DecodeError> {
        let from = PublicKey::from_bytes(&r.bytes32()?).map_err(|_| DecodeError::Invalid)?;
        let to = PublicKey::from_bytes(&r.bytes32()?).map_err(|_| DecodeError::Invalid)?;
        let amount = r.u64()?;
        let nonce = r.u64()?;
        let mut sig_bytes = [0u8; 64];
        sig_bytes.copy_from_slice(r.bytes(64)?);
        let sig = Signature::from_bytes(&sig_bytes).map_err(|_| DecodeError::Invalid)?;
        Ok(Transaction {
            from,
            to,
            amount,
            nonce,
            sig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn payment_signature_verifies() {
        let a = kp(1);
        let b = kp(2);
        let tx = Transaction::payment(&a, b.pk, 50, 1);
        assert!(tx.signature_valid());
    }

    #[test]
    fn tampered_amount_breaks_signature() {
        let a = kp(1);
        let b = kp(2);
        let mut tx = Transaction::payment(&a, b.pk, 50, 1);
        tx.amount = 500;
        assert!(!tx.signature_valid());
    }

    #[test]
    fn tampering_any_field_of_a_verified_transaction_is_rejected() {
        let a = kp(11);
        let b = kp(12);
        let tx = Transaction::payment(&a, b.pk, 50, 3);
        assert!(tx.signature_valid());
        assert!(SIG_MEMO.contains(&tx.id()));
        let other = Transaction::payment(&a, b.pk, 51, 3);
        let mut tampered = Vec::new();
        for field in 0..5 {
            let mut t = tx.clone();
            match field {
                0 => t.from = kp(13).pk,
                1 => t.to = kp(13).pk,
                2 => t.amount += 1,
                3 => t.nonce += 1,
                _ => t.sig = other.sig,
            }
            tampered.push(t);
        }
        for t in &tampered {
            assert_ne!(t.id(), tx.id());
            for _ in 0..2 {
                assert!(!t.signature_valid(), "tampered copy accepted: {t:?}");
            }
            assert!(!SIG_MEMO.contains(&t.id()));
        }
        assert!(tx.signature_valid(), "the original still verifies");
    }

    #[test]
    fn bad_signature_rejected_and_not_memoized() {
        let mut tx = Transaction::payment(&kp(14), kp(15).pk, 5, 1);
        tx.from = kp(16).pk; // Forged sender.
        for _ in 0..2 {
            assert!(!tx.signature_valid());
            assert!(!SIG_MEMO.contains(&tx.id()));
        }
    }

    #[test]
    fn memo_skips_reverification_of_every_copy() {
        let tx = Transaction::payment(&kp(17), kp(18).pk, 1, 1);
        assert!(tx.signature_valid());
        // A copy decoded from the wire has the same id, so it is a hit.
        let bytes = tx.encoded();
        let mut r = Reader::new(&bytes);
        let copy = Transaction::decode(&mut r).unwrap();
        assert!(SIG_MEMO.contains(&copy.id()));
        assert!(copy.signature_valid());
        assert!(SIG_MEMO.len() <= SIG_MEMO_CAP);
    }

    #[test]
    fn encoding_roundtrip() {
        let a = kp(3);
        let b = kp(4);
        let tx = Transaction::payment(&a, b.pk, 123, 7);
        let bytes = tx.encoded();
        assert_eq!(bytes.len(), Transaction::WIRE_SIZE);
        let mut r = Reader::new(&bytes);
        let back = Transaction::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.id(), tx.id());
        assert!(back.signature_valid());
        assert_eq!(back.amount, 123);
        assert_eq!(back.nonce, 7);
    }

    #[test]
    fn ids_differ_by_content() {
        let a = kp(5);
        let b = kp(6);
        let t1 = Transaction::payment(&a, b.pk, 1, 1);
        let t2 = Transaction::payment(&a, b.pk, 2, 1);
        let t3 = Transaction::payment(&a, b.pk, 1, 2);
        assert_ne!(t1.id(), t2.id());
        assert_ne!(t1.id(), t3.id());
    }

    #[test]
    fn decode_rejects_garbage_key() {
        let a = kp(7);
        let b = kp(8);
        let mut bytes = Transaction::payment(&a, b.pk, 1, 1).encoded();
        // Corrupt the `to` key so it no longer decompresses.
        for byte in bytes[32..64].iter_mut() {
            *byte = 0xff;
        }
        let mut r = Reader::new(&bytes);
        assert!(Transaction::decode(&mut r).is_err());
    }
}
