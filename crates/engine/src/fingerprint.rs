//! Stable content fingerprints over simulation input closures.
//!
//! A scenario's result is a pure function of its inputs: the hypervisor
//! kind, the cost model constants, the workload mix, the machine
//! topology, the fault plan, and the charging logic itself. This module
//! provides a small, dependency-free hash — 128-bit FNV-1a over a
//! canonical encoding — that higher layers (the suite's result cache
//! and baseline gate) use to content-address those closures.
//!
//! Two properties matter more than hash quality here:
//!
//! 1. **Stability.** The digest for a given closure must be identical
//!    across runs, platforms, and `--jobs` settings. The hasher
//!    therefore never consumes pointers, map iteration order, or
//!    platform-sized integers; every multi-byte value is written
//!    little-endian, and strings/sequences are length-prefixed so that
//!    adjacent fields cannot alias (`("ab", "c")` vs `("a", "bc")`).
//! 2. **Sensitivity.** Any change to any input must change the digest.
//!    Structured inputs are hashed through their `serde` `Value` tree
//!    ([`FingerprintHasher::write_serialize`]) with a tag byte per node
//!    kind, so `0u64`, `false`, and `""` all hash differently.
//!
//! Collision resistance against an adversary is explicitly a non-goal:
//! the cache keys are produced and consumed by the same trusted tool.

use std::fmt;

use serde::{Serialize, Value};

/// A 128-bit content fingerprint, displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// The canonical 32-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the canonical hex rendering (exactly 32 lowercase hex
    /// digits, no sign) back into a fingerprint.
    pub fn parse_hex(s: &str) -> Option<Fingerprint> {
        let canonical = s.len() == 32 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if !canonical {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }

    /// Fingerprint of a single serializable value (fresh hasher).
    pub fn of_serialize<T: Serialize + ?Sized>(value: &T) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_serialize(value);
        h.finish()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a-128 hasher with a domain-separated encoding.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

// Node-kind tags keep differently-typed but same-bit inputs distinct.
const TAG_NULL: u8 = 0x01;
const TAG_BOOL: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_INT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;
const TAG_U128: u8 = 0x09;

impl FingerprintHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> FingerprintHasher {
        FingerprintHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes (no framing — callers wanting self-delimiting
    /// input should use the typed writers).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one tag byte (domain separation).
    fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Absorbs a `u64`, little-endian, with a uint tag.
    pub fn write_u64(&mut self, v: u64) {
        self.write_tag(TAG_UINT);
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32` (widened — the digest does not distinguish
    /// integer widths, only values).
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Absorbs an `i64` with a distinct tag from unsigned values.
    pub fn write_i64(&mut self, v: i64) {
        self.write_tag(TAG_INT);
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_tag(TAG_STR);
        self.write_bytes(&(s.len() as u64).to_le_bytes());
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs any serializable value via its canonical `Value` tree.
    ///
    /// Object keys are hashed in insertion (declaration) order — the
    /// shim's `Value::Object` preserves field order, so this is as
    /// stable as the type definition itself. Renaming or reordering
    /// fields is a schema change and *should* move the digest.
    pub fn write_serialize<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.write_value(&value.serialize());
    }

    fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_tag(TAG_NULL),
            Value::Bool(b) => {
                self.write_tag(TAG_BOOL);
                self.write_bytes(&[u8::from(*b)]);
            }
            Value::U64(n) => self.write_u64(*n),
            Value::I64(n) => self.write_i64(*n),
            Value::U128(n) => {
                self.write_tag(TAG_U128);
                self.write_bytes(&n.to_le_bytes());
            }
            Value::F64(f) => {
                self.write_tag(TAG_FLOAT);
                // Hash the bit pattern: distinguishes -0.0 from 0.0 and
                // needs no decimal rendering to be canonical.
                self.write_bytes(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => self.write_str(s),
            Value::Array(items) => {
                self.write_tag(TAG_ARRAY);
                self.write_bytes(&(items.len() as u64).to_le_bytes());
                for item in items {
                    self.write_value(item);
                }
            }
            Value::Object(fields) => {
                self.write_tag(TAG_OBJECT);
                self.write_bytes(&(fields.len() as u64).to_le_bytes());
                for (k, val) in fields {
                    self.write_str(k);
                    self.write_value(val);
                }
            }
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hasher_is_offset_basis() {
        assert_eq!(FingerprintHasher::new().finish().as_u128(), FNV_OFFSET);
    }

    #[test]
    fn hex_round_trip() {
        let mut h = FingerprintHasher::new();
        h.write_str("hello");
        let fp = h.finish();
        assert_eq!(Fingerprint::parse_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(Fingerprint::parse_hex(""), None);
        assert_eq!(Fingerprint::parse_hex("xyz"), None);
        assert_eq!(Fingerprint::parse_hex(&"g".repeat(32)), None);
        assert_eq!(Fingerprint::parse_hex(&"0".repeat(31)), None);
        // `u128::from_str_radix` alone would take a sign and upper case.
        assert_eq!(
            Fingerprint::parse_hex(&format!("+{}", "0".repeat(31))),
            None
        );
        assert_eq!(Fingerprint::parse_hex(&"A".repeat(32)), None);
        assert_eq!(
            Fingerprint::parse_hex(&"ab".repeat(16)).unwrap().to_hex(),
            "ab".repeat(16)
        );
    }

    #[test]
    fn adjacent_strings_do_not_alias() {
        let mut a = FingerprintHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = FingerprintHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_values_do_not_alias() {
        let zero = Fingerprint::of_serialize(&0u64);
        let fals = Fingerprint::of_serialize(&false);
        let empty = Fingerprint::of_serialize("");
        assert_ne!(zero, fals);
        assert_ne!(zero, empty);
        assert_ne!(fals, empty);
    }

    #[test]
    fn serialize_digest_tracks_value_changes() {
        #[derive(serde::Serialize)]
        struct Probe {
            a: u64,
            b: f64,
        }
        let base = Fingerprint::of_serialize(&Probe { a: 1, b: 2.0 });
        assert_eq!(base, Fingerprint::of_serialize(&Probe { a: 1, b: 2.0 }));
        assert_ne!(base, Fingerprint::of_serialize(&Probe { a: 2, b: 2.0 }));
        assert_ne!(base, Fingerprint::of_serialize(&Probe { a: 1, b: 2.5 }));
    }
}
