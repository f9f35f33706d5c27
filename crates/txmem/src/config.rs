//! Substrate configuration.

/// Configuration for the transactional memory substrate.
///
/// A [`TxConfig`] fixes the sizes of the global structures
/// (heap capacity and lock-table size) and the default speculation parameters
/// picked up by the runtimes built on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxConfig {
    /// Maximum number of 64-bit words the heap can hold.
    ///
    /// The heap reserves address space lazily in segments, so a large value is
    /// cheap until the words are actually allocated.
    pub heap_capacity_words: u64,
    /// Number of words per heap segment (must be a power of two).
    pub heap_segment_words: u64,
    /// log2 of the number of lock-table entries.
    ///
    /// SwissTM uses a fixed global table of lock pairs; word addresses are
    /// hashed into it, so a smaller table trades memory for false conflicts.
    pub lock_table_bits: u32,
    /// Default speculative depth (`SPECDEPTH`): the maximum number of
    /// simultaneously active tasks per user-thread in the TLSTM runtime.
    pub spec_depth: usize,
}

impl TxConfig {
    /// A configuration with a small heap and lock table, useful in unit tests
    /// to force lock-table collisions and heap exhaustion quickly.
    pub fn small() -> Self {
        TxConfig {
            heap_capacity_words: 1 << 16,
            heap_segment_words: 1 << 10,
            lock_table_bits: 8,
            spec_depth: 4,
        }
    }

    /// Validates the internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.heap_segment_words.is_power_of_two() {
            return Err(format!(
                "heap_segment_words must be a power of two, got {}",
                self.heap_segment_words
            ));
        }
        if self.heap_capacity_words == 0 {
            return Err("heap_capacity_words must be non-zero".to_string());
        }
        if self.lock_table_bits == 0 || self.lock_table_bits > 30 {
            return Err(format!(
                "lock_table_bits must be in 1..=30, got {}",
                self.lock_table_bits
            ));
        }
        if self.spec_depth == 0 {
            return Err("spec_depth must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig {
            heap_capacity_words: 1 << 26, // 64 Mi words = 512 MiB of address space
            heap_segment_words: 1 << 18,
            lock_table_bits: 20,
            spec_depth: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(TxConfig::default().validate().is_ok());
        assert!(TxConfig::small().validate().is_ok());
    }

    #[test]
    fn invalid_segment_size_rejected() {
        let c = TxConfig {
            heap_segment_words: 100,
            ..TxConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_lock_bits_rejected() {
        let mut c = TxConfig {
            lock_table_bits: 0,
            ..TxConfig::default()
        };
        assert!(c.validate().is_err());
        c.lock_table_bits = 31;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_spec_depth_rejected() {
        let c = TxConfig {
            spec_depth: 0,
            ..TxConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
