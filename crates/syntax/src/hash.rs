//! The workspace's one fast hasher.
//!
//! Every hot map in the system is keyed by small program-internal values —
//! interned symbols, source locations, chunk ids, `Rc` pointer bits — so
//! SipHash's DoS resistance buys nothing there and costs a dozen rounds per
//! lookup. FNV-1a is tiny and allocation-free; the same byte-wise function
//! also produces the stable fingerprints the expander and the profile
//! rebaser persist.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, as a [`Hasher`]: tiny, allocation-free, and much cheaper than
/// SipHash for short keys. Not DoS-resistant, which is fine: keys are
/// program-internal (symbols, source locations, ids), not attacker input.
///
/// `finish` is the plain 64-bit FNV-1a of the bytes written, so the value
/// is stable across runs and platforms when callers write fixed-endian
/// bytes.
///
/// # Example
///
/// ```
/// use pgmp_syntax::{FnvHashMap, FnvHasher};
/// use std::hash::Hasher;
/// let mut h = FnvHasher::default();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
/// let mut m: FnvHashMap<u32, &str> = FnvHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m[&7], "seven");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// A `HashMap` keyed through [`FnvHasher`]. Build with
/// `FnvHashMap::default()`.
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
