//! Deterministic, labelled randomness.
//!
//! Every experiment in the workspace is driven by a single `u64` campaign
//! seed. Subsystems (shadowing, fading, blockage, traffic, ABR jitter, …)
//! each draw an independent ChaCha12 stream derived from the seed and a
//! textual label, so:
//!
//! * re-running an experiment reproduces every figure bit-for-bit;
//! * adding a new consumer of randomness never perturbs existing streams
//!   (streams are keyed by label, not by draw order).

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A tree of named, independent random streams under one root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// Create the tree from a campaign seed.
    pub const fn new(root: u64) -> Self {
        SeedTree { root }
    }

    /// The root seed.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Derive a child tree, e.g. one per measurement session.
    pub fn child(&self, label: &str) -> SeedTree {
        SeedTree { root: mix(self.root, label) }
    }

    /// Derive a child tree keyed by an index (session number, UE id, …).
    pub fn child_indexed(&self, label: &str, index: u64) -> SeedTree {
        SeedTree { root: mix(mix(self.root, label), &index.to_string()) }
    }

    /// Open the labelled random stream.
    pub fn stream(&self, label: &str) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(mix(self.root, label))
    }

    /// Open the labelled stream for a `&'static str` label.
    ///
    /// Yields exactly the stream [`stream`](SeedTree::stream) would for
    /// the same bytes — the point of the separate entry is the call-site
    /// contract: a static label carries no hidden `format!`/`String`
    /// construction, so hot constructors (one per carrier, per site, per
    /// session) can open streams without touching the heap. Prefer this
    /// wherever the label is known at compile time.
    pub fn stream_static(&self, label: &'static str) -> ChaCha12Rng {
        self.stream(label)
    }
}

/// Whether [`ChaCha12Rng::fill_u64`] may batch keystream blocks on AVX2:
/// only when the `vmath` dispatch (picked once per process) runs its
/// AVX2 arm, so `MIDBAND5G_SIMD` caps the keystream and the float
/// kernels alike. Callers outside this crate that refill their own
/// tiles pass it too, so the cap holds for every stream.
pub fn keystream_avx2() -> bool {
    vmath::active_arm() == vmath::Arm::Avx2
}

/// FNV-1a style mixing of a seed with a label — cheap, stable across
/// platforms and Rust versions (unlike `DefaultHasher`).
fn mix(seed: u64, label: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche (splitmix64 finaliser).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let t = SeedTree::new(42);
        let a: u64 = t.stream("fading").gen();
        let b: u64 = t.stream("fading").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let t = SeedTree::new(42);
        let a: u64 = t.stream("fading").gen();
        let b: u64 = t.stream("shadowing").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn children_are_independent() {
        let t = SeedTree::new(7);
        let c1 = t.child_indexed("session", 1);
        let c2 = t.child_indexed("session", 2);
        assert_ne!(c1.root(), c2.root());
        let a: u64 = c1.stream("x").gen();
        let b: u64 = c2.stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn static_stream_matches_dynamic() {
        let t = SeedTree::new(99);
        let a: u64 = t.stream_static("carrier0/bler").gen();
        let b: u64 = t.stream(&format!("carrier{}/bler", 0)).gen();
        assert_eq!(a, b, "stream_static must be label-byte compatible");
    }

    #[test]
    fn different_roots_differ() {
        let a: u64 = SeedTree::new(1).stream("x").gen();
        let b: u64 = SeedTree::new(2).stream("x").gen();
        assert_ne!(a, b);
    }
}
