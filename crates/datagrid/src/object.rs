//! Content-addressed objects: identities, references, and the store.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Content address of an immutable object: a 64-bit hash of its bytes.
///
/// Two byte-identical payloads always map to the same id, which is what
/// makes deduplication work: a bootstrap batch of 100 replicates referencing
/// the same alignment stores (and ships) it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Hash `bytes` into a content address (FNV-1a, 64-bit).
    ///
    /// FNV is not cryptographic, but the simulation only needs a stable,
    /// dependency-free content address with negligible collision odds at
    /// the scale of a campaign's input set.
    pub fn from_bytes(bytes: &[u8]) -> ObjectId {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        ObjectId(h)
    }

    /// Content address for a logically-named object (an alignment file, a
    /// config template) without materializing its payload: hashes the name.
    pub fn from_name(name: &str) -> ObjectId {
        ObjectId::from_bytes(name.as_bytes())
    }
}

/// A sized reference to a content-addressed object, as carried on a job
/// spec: the id names the content, `bytes` is its transfer size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Content address.
    pub id: ObjectId,
    /// Payload size in bytes (what a cache slot or a transfer costs).
    pub bytes: u64,
}

impl ObjectRef {
    /// Reference a named object of `bytes` size.
    pub fn named(name: &str, bytes: u64) -> ObjectRef {
        ObjectRef {
            id: ObjectId::from_name(name),
            bytes,
        }
    }
}

/// Aggregate accounting for an [`ObjectStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Distinct objects registered.
    pub unique_objects: usize,
    /// Bytes across distinct objects (post-dedup footprint).
    pub unique_bytes: u64,
    /// Bytes across every registration including repeats (what a naive,
    /// non-content-addressed portal would have stored and shipped).
    pub ingested_bytes: u64,
    /// Registrations that hit an already-stored object.
    pub dedup_hits: u64,
}

impl StoreStats {
    /// Bytes the content addressing saved versus naive storage.
    pub fn dedup_saved_bytes(&self) -> u64 {
        self.ingested_bytes - self.unique_bytes
    }
}

/// Content-addressed object catalogue with deduplicated size accounting.
///
/// The store is the portal-side source of truth: every job's inputs are
/// registered here on submission, and registering the same content twice is
/// a dedup hit — the second copy costs nothing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObjectStore {
    #[serde(with = "serde::sorted_pairs")]
    sizes: BTreeMap<ObjectId, u64>,
    stats: StoreStats,
}

impl ObjectStore {
    /// Empty store.
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    /// Register an object reference. Returns `true` if the content was new
    /// to the store, `false` on a dedup hit.
    ///
    /// # Panics
    /// Panics if the same id is re-registered with a different size — that
    /// would mean two different payloads hashed to one address, which the
    /// simulation treats as corruption rather than silently mis-accounting.
    pub fn register(&mut self, obj: ObjectRef) -> bool {
        self.stats.ingested_bytes += obj.bytes;
        match self.sizes.get(&obj.id) {
            Some(&size) => {
                assert_eq!(
                    size, obj.bytes,
                    "object {:?} re-registered with a different size",
                    obj.id
                );
                self.stats.dedup_hits += 1;
                false
            }
            None => {
                self.sizes.insert(obj.id, obj.bytes);
                self.stats.unique_objects += 1;
                self.stats.unique_bytes += obj.bytes;
                true
            }
        }
    }

    /// Size of a stored object, if registered.
    pub fn size_of(&self, id: ObjectId) -> Option<u64> {
        self.sizes.get(&id).copied()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.sizes.contains_key(&id)
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_addressing_is_stable_and_discriminating() {
        let a = ObjectId::from_bytes(b"alignment-1");
        let b = ObjectId::from_bytes(b"alignment-1");
        let c = ObjectId::from_bytes(b"alignment-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ObjectId::from_name("x"), ObjectId::from_bytes(b"x"));
    }

    #[test]
    fn store_dedups_identical_content() {
        let mut store = ObjectStore::new();
        let aln = ObjectRef::named("aln", 1000);
        assert!(store.register(aln));
        for _ in 0..99 {
            assert!(!store.register(aln));
        }
        let s = store.stats();
        assert_eq!(s.unique_objects, 1);
        assert_eq!(s.unique_bytes, 1000);
        assert_eq!(s.ingested_bytes, 100_000);
        assert_eq!(s.dedup_hits, 99);
        assert_eq!(s.dedup_saved_bytes(), 99_000);
        assert_eq!(store.size_of(aln.id), Some(1000));
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn size_conflict_is_rejected() {
        let mut store = ObjectStore::new();
        store.register(ObjectRef::named("a", 10));
        store.register(ObjectRef {
            id: ObjectId::from_name("a"),
            bytes: 20,
        });
    }

    #[test]
    fn store_serde_roundtrip_keeps_dedup_accounting() {
        let mut store = ObjectStore::new();
        store.register(ObjectRef::named("aln", 1000));
        store.register(ObjectRef::named("aln", 1000));
        store.register(ObjectRef::named("cfg", 10));
        let json = serde_json::to_string(&store).unwrap();
        let mut back: ObjectStore = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.stats(), store.stats());
        // Re-registering known content after restore is still a dedup hit.
        assert!(!back.register(ObjectRef::named("aln", 1000)));
    }

    #[test]
    fn object_ref_serde_roundtrip() {
        let obj = ObjectRef::named("aln", 5 << 20);
        let json = serde_json::to_string(&obj).unwrap();
        let back: ObjectRef = serde_json::from_str(&json).unwrap();
        assert_eq!(obj, back);
    }
}
