//! Structural content hashing for the workspace's cache keys.
//!
//! Both the simulation cache and the annotation store address their
//! entries by content: the full set of fields that determine a
//! deterministic result. [`Fnv64`] is a minimal FNV-1a accumulator over
//! the *bit patterns* of those fields — `f64`s are fed through
//! [`f64::to_bits`], so two configurations hash equally exactly when
//! their fields are bitwise equal, with no intermediate `String`
//! rendering and no allocation. Collisions are always resolved by a full
//! `PartialEq` comparison at the lookup site, so the hash only needs to
//! spread well.

/// An incremental FNV-1a hasher over 64-bit words.
///
/// # Examples
///
/// ```
/// use pipedepth_trace::hash::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.write_u64(7).write_f64(1.5);
/// let mut b = Fnv64::new();
/// b.write_u64(7).write_f64(1.5);
/// assert_eq!(a.finish(), b.finish());
/// b.write_bool(true);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds one 64-bit word, byte by byte (FNV-1a is a byte hash).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        for byte in v.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a 32-bit word.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Feeds a boolean as a full word (keeps adjacent fields unambiguous).
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Feeds an `f64` through its IEEE-754 bit pattern. Note that `-0.0`
    /// and `0.0` hash differently; callers relying on `PartialEq`
    /// collision resolution (which treats them as equal) merely get two
    /// cache entries, never a wrong answer.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish(), "field order must matter");
    }

    #[test]
    fn f64_uses_bit_pattern() {
        let mut a = Fnv64::new();
        a.write_f64(1.0);
        let mut b = Fnv64::new();
        b.write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn bool_and_u32_spread() {
        let mut t = Fnv64::new();
        t.write_bool(true);
        let mut f = Fnv64::new();
        f.write_bool(false);
        assert_ne!(t.finish(), f.finish());
        let mut x = Fnv64::new();
        x.write_u32(5);
        let mut y = Fnv64::new();
        y.write_u64(5);
        assert_eq!(x.finish(), y.finish(), "u32 widens to u64");
    }

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
