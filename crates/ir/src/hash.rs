//! A small, fast, non-cryptographic hasher for [`crate::GraphBuilder`]'s
//! name set.
//!
//! The builder's names come from the program's own model code, never from
//! outside input, so the DoS resistance of the std SipHash default buys
//! nothing there, while its cost shows on every name a graph builds. This
//! is the word-at-a-time multiply-rotate hash rustc uses for its own tables
//! (FxHash). The name set still compares names exactly: a collision costs
//! a comparison, never a wrong answer. [`crate::Graph::validate`] also
//! checks graphs read from JSON files, so it keeps the std default.

use std::hash::{BuildHasherDefault, Hasher};

/// [`FastHasher`] as a `HashMap`/`HashSet` hasher parameter.
pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length keeps zero padding from aliasing trailing NUL bytes.
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`FastHasher`] hash of one name.
pub(crate) fn hash_name(name: &str) -> u64 {
    use std::hash::Hash;
    let mut h = FastHasher::default();
    name.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_differing_anywhere_hash_apart() {
        let names = [
            "layer1.0.conv1",
            "layer1.0.conv2",
            "layer1.0.conv1:0",
            "",
            "a",
            "b",
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(hash_name(a), hash_name(b), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(hash_name("ab"), hash_name("ab\0"));
        assert_eq!(hash_name("x"), hash_name("x"));
    }
}
