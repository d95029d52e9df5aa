//! Developer signing.
//!
//! Real APKs are signed with the developer's private key; the paper
//! extracts the signing certificate with `ApkSigner` and uses it as the
//! developer's identity (Section 5.1). We reproduce the *semantics* with a
//! keyed MAC: a signature records the developer key digest and a MAC over
//! the payload digest. A repackager can re-sign modified content — but
//! only under their *own* key, which is exactly the property that makes
//! signature-based clone detection work. (This is a simulation of
//! signature semantics, not real cryptography.)

use crate::error::ApkError;
use bytes::{Buf, BufMut};
use marketscope_core::hash::Md5;
use marketscope_core::DeveloperKey;

const MAGIC: u32 = 0x5349_4731; // "SIG1"

/// A signature over an APK payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The signing developer's key digest (the identity the paper compares).
    pub developer: DeveloperKey,
    /// MAC over (developer key ‖ payload digest).
    pub mac: [u8; 16],
}

impl Signature {
    /// Sign a payload digest with a developer key.
    pub(crate) fn sign(developer: DeveloperKey, payload_digest: &[u8; 16]) -> Signature {
        Signature {
            developer,
            mac: mac(&developer, payload_digest),
        }
    }

    /// Verify this signature against a payload digest.
    pub(crate) fn verify(&self, payload_digest: &[u8; 16]) -> bool {
        self.mac == mac(&self.developer, payload_digest)
    }

    /// Serialize to the `META-INF/CERT.SF` entry payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 20 + 16);
        out.put_u32_le(MAGIC);
        out.put_slice(&self.developer.0);
        out.put_slice(&self.mac);
        out
    }

    /// Parse a `META-INF/CERT.SF` entry payload.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Signature, ApkError> {
        let mut buf = bytes;
        if buf.remaining() != 4 + 20 + 16 {
            return Err(ApkError::Signature("wrong length"));
        }
        if buf.get_u32_le() != MAGIC {
            return Err(ApkError::Signature("bad magic"));
        }
        let mut developer = [0u8; 20];
        buf.copy_to_slice(&mut developer);
        let mut mac = [0u8; 16];
        buf.copy_to_slice(&mut mac);
        Ok(Signature {
            developer: DeveloperKey(developer),
            mac,
        })
    }
}

fn mac(developer: &DeveloperKey, payload_digest: &[u8; 16]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(&developer.0);
    h.update(payload_digest);
    h.update(b"mac1");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_core::hash::md5;

    #[test]
    fn sign_and_verify() {
        let key = DeveloperKey::from_label("dev-42");
        let digest = md5(b"apk payload");
        let sig = Signature::sign(key, &digest);
        assert!(sig.verify(&digest));
    }

    #[test]
    fn verification_fails_on_tampered_payload() {
        let key = DeveloperKey::from_label("dev-42");
        let digest = md5(b"apk payload");
        let sig = Signature::sign(key, &digest);
        let tampered = md5(b"apk payload!");
        assert!(!sig.verify(&tampered));
    }

    #[test]
    fn repackager_cannot_keep_identity() {
        // A repackager re-signs modified content with their own key; the
        // developer identity necessarily changes.
        let original = DeveloperKey::from_label("legit");
        let attacker = DeveloperKey::from_label("attacker");
        let modified = md5(b"modified payload");
        let resigned = Signature::sign(attacker, &modified);
        assert!(resigned.verify(&modified));
        assert_ne!(resigned.developer, original);
    }

    #[test]
    fn encode_decode_round_trip() {
        let key = DeveloperKey::from_label("dev-7");
        let sig = Signature::sign(key, &md5(b"x"));
        let back = Signature::decode(&sig.encode()).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Signature::decode(&[]).is_err());
        assert!(Signature::decode(&[0u8; 39]).is_err());
        assert!(Signature::decode(&[0u8; 41]).is_err());
        let key = DeveloperKey::from_label("d");
        let mut bytes = Signature::sign(key, &md5(b"y")).encode();
        bytes[0] ^= 0xFF;
        assert!(Signature::decode(&bytes).is_err());
    }
}
