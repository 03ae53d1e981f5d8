//! On-disk persistence of Groth16 verification keys, keyed by circuit
//! shape digest and setup seed.
//!
//! `zkvc verify` used to re-derive the whole CRS on every invocation just
//! to obtain the expected verification key. With this cache the first
//! verification of a `(shape, seed)` pair pays for setup once and stores
//! the ~330-byte vk; every later invocation loads it and the verification
//! cost drops to the constant pairing check.
//!
//! Only Groth16 keys are persisted: Spartan's verifier preprocessing is
//! derived from the circuit structure (transparent, comparatively cheap)
//! and has no wire format. Loaded keys go through
//! [`VerifyingKey::from_bytes`], which validates every group element and
//! recomputes the cached pairing, so a corrupted cache file degrades to a
//! decode failure (treated as a miss), never to accepting a bad proof.

use std::io;
use std::path::{Path, PathBuf};

use zkvc_ff::codec::hex;
use zkvc_groth16::VerifyingKey;

/// A directory of persisted verification keys.
#[derive(Clone, Debug)]
pub struct DiskKeyCache {
    dir: PathBuf,
}

impl DiskKeyCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskKeyCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for a `(digest, seed)` pair.
    fn key_path(&self, digest: &[u8; 32], seed: u64) -> PathBuf {
        self.dir.join(format!("{}-s{seed}.groth16.vk", hex(digest)))
    }

    /// Loads a persisted Groth16 verification key, or `None` when absent
    /// or undecodable. A corrupt file is a cache miss, not an error, and
    /// is **quarantined**: renamed to `<entry>.bad` so the next store can
    /// rewrite the entry cleanly and the damaged bytes stay around for
    /// inspection instead of being re-decoded (and re-failed) forever.
    pub fn load_groth16_vk(&self, digest: &[u8; 32], seed: u64) -> Option<VerifyingKey> {
        let path = self.key_path(digest, seed);
        let mut bytes = std::fs::read(&path).ok()?;
        if crate::fault::fires("disk.vk.poison").is_some() {
            // Injected corruption: flip the tail so decode fails exactly
            // like a torn or tampered entry would.
            match bytes.last_mut() {
                Some(last) => *last ^= 0xff,
                None => bytes.push(0),
            }
        }
        match VerifyingKey::from_bytes(&bytes) {
            Some(vk) => Some(vk),
            None => {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                let _ = std::fs::rename(&path, &bad);
                None
            }
        }
    }

    /// Persists a Groth16 verification key, returning the file written.
    /// The write goes through a temporary file + rename so a crashed
    /// process never leaves a torn key behind.
    pub fn store_groth16_vk(
        &self,
        digest: &[u8; 32],
        seed: u64,
        vk: &VerifyingKey,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.key_path(digest, seed);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, vk.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_core::matmul::{MatMulBuilder, Strategy};
    use zkvc_core::{Backend, Circuit, VerifierKey};

    use crate::cache::KeyCache;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zkvc-disk-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_roundtrip_and_misses() {
        let dir = temp_dir("roundtrip");
        let cache = DiskKeyCache::new(&dir);
        let mut rng = StdRng::seed_from_u64(3);
        let job = MatMulBuilder::new(2, 3, 2)
            .strategy(Strategy::Vanilla)
            .build_circuit_random(&mut rng);
        let digest = job.shape_digest();

        // Cold cache: miss.
        assert!(cache.load_groth16_vk(&digest, 7).is_none());

        let mem = KeyCache::with_seed(7);
        let (keys, _) = mem.get_or_setup_circuit(Backend::Groth16, &job);
        let VerifierKey::Groth16(vk) = &keys.verifier else {
            panic!("groth16 setup must yield a groth16 key");
        };
        let path = cache.store_groth16_vk(&digest, 7, vk).expect("store");
        assert!(path.starts_with(&dir));

        let loaded = cache.load_groth16_vk(&digest, 7).expect("hit after store");
        assert_eq!(loaded.to_bytes(), vk.to_bytes());
        // A different seed (different CRS) is a separate entry.
        assert!(cache.load_groth16_vk(&digest, 8).is_none());
        // A different digest is a separate entry.
        assert!(cache.load_groth16_vk(&[0u8; 32], 7).is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_is_a_miss_and_quarantined() {
        let dir = temp_dir("corrupt");
        let cache = DiskKeyCache::new(&dir);
        let digest = [7u8; 32];
        let path = cache.key_path(&digest, 1);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        assert!(cache.load_groth16_vk(&digest, 1).is_none());

        // The garbage entry was moved aside, not left in place: the key
        // path is free for a clean rewrite and the damaged bytes survive
        // under `.bad` for inspection.
        assert!(
            !path.exists(),
            "corrupt entry must not stay at the key path"
        );
        let mut bad = path.into_os_string();
        bad.push(".bad");
        let bad = PathBuf::from(bad);
        assert_eq!(std::fs::read(&bad).unwrap(), b"garbage");

        // A second load is a plain miss (nothing left to quarantine), and
        // the quarantine file is untouched.
        assert!(cache.load_groth16_vk(&digest, 1).is_none());
        assert!(bad.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
