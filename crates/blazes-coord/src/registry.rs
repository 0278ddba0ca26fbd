//! The producer registry: which producers contribute to which partition.
//!
//! The seal protocol's unanimous vote needs to know the "stakeholders"
//! contributing to a partition (paper Section V-B1). In the paper the
//! reporting servers learn this with one Zookeeper call per campaign; here
//! the registry is a plain data structure the application queries (and may
//! charge a simulated lookup latency for).

use blazes_dataflow::value::Value;
use std::collections::BTreeMap;

/// Identifier of a producer (e.g. an ad server index).
pub type ProducerId = usize;

/// Maps partition key values to the producers that contribute to them.
#[derive(Debug, Clone, Default)]
pub struct ProducerRegistry {
    by_partition: BTreeMap<Value, Vec<ProducerId>>,
    default_producers: Vec<ProducerId>,
}

impl ProducerRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        ProducerRegistry::default()
    }

    /// A registry where *every* partition is produced by all of
    /// `producers` — the paper's non-independent "Seal" topology, where all
    /// ad servers produce click records for all campaigns.
    #[must_use]
    pub fn all_produce(producers: impl IntoIterator<Item = ProducerId>) -> Self {
        ProducerRegistry {
            by_partition: BTreeMap::new(),
            default_producers: producers.into_iter().collect(),
        }
    }

    /// Register that `partition` is produced exactly by `producers`. Used
    /// for the "Independent seal" topology (each campaign mastered at one ad
    /// server).
    pub fn register(
        &mut self,
        partition: impl Into<Value>,
        producers: impl IntoIterator<Item = ProducerId>,
    ) {
        self.by_partition
            .insert(partition.into(), producers.into_iter().collect());
    }

    /// The producers of `partition` (falling back to the default set).
    #[must_use]
    pub fn producers_of(&self, partition: &Value) -> &[ProducerId] {
        self.by_partition
            .get(partition)
            .map_or(&self.default_producers, Vec::as_slice)
    }

    /// Partitions explicitly registered.
    pub fn partitions(&self) -> impl Iterator<Item = &Value> {
        self.by_partition.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_produce_defaults() {
        let r = ProducerRegistry::all_produce(0..3);
        let p = Value::str("campaign-1");
        assert_eq!(r.producers_of(&p), &[0, 1, 2]);
        assert_eq!(r.producers_of(&p).len(), 3);
    }

    #[test]
    fn explicit_registration_overrides_default() {
        let mut r = ProducerRegistry::all_produce(0..3);
        r.register(Value::str("campaign-1"), [2]);
        assert_eq!(r.producers_of(&Value::str("campaign-1")), &[2]);
        // Others keep the default.
        assert_eq!(r.producers_of(&Value::str("campaign-2")), &[0, 1, 2]);
    }

    #[test]
    fn empty_registry_has_no_producers() {
        let r = ProducerRegistry::new();
        assert!(r.producers_of(&Value::Int(1)).is_empty());
    }

    #[test]
    fn partitions_iterates_registered_keys() {
        let mut r = ProducerRegistry::new();
        r.register(Value::str("a"), [0]);
        r.register(Value::str("b"), [1]);
        assert_eq!(r.partitions().count(), 2);
    }
}
