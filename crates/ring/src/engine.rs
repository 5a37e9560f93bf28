//! The hot-path engine handle.
//!
//! One software backend serves the full-magnitude (|s| ≤ 5) asymmetric
//! multiply on the KEM hot path: the constant-time u16-lane schoolbook
//! ([`CtSchoolbookMultiplier`]), whose timing the `saber-timing` leakage
//! gate holds secret-independent. [`EngineKind`] names it and builds
//! boxed shards for the service layer's worker threads. The paper's
//! HS-I and HS-II schedules live on as cycle models in `saber-core`,
//! not as software engines.
//!
//! # Examples
//!
//! ```
//! use saber_ring::engine::EngineKind;
//!
//! let mut shard = EngineKind::default().build();
//! assert_eq!(shard.name(), "ct-schoolbook constant-time (software)");
//! assert_eq!(EngineKind::default().label(), "ct");
//! ```

use crate::ct::CtSchoolbookMultiplier;
use crate::mul::PolyMultiplier;

/// The hot-path multiplier engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Constant-time fixed-scan schoolbook in wrapping u16 lanes.
    #[default]
    Ct,
}

impl EngineKind {
    /// The engine's label in reports (`"ct"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        "ct"
    }

    /// Builds a fresh boxed shard of the engine — the form the service
    /// layer hands each worker thread.
    #[must_use]
    pub fn build(self) -> Box<dyn PolyMultiplier + Send> {
        Box::new(CtSchoolbookMultiplier::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;
    use crate::{PolyQ, SecretPoly};

    #[test]
    fn the_engine_builds_a_working_shard() {
        let a = PolyQ::from_fn(|i| (29 * i as u16) & 0x1fff);
        let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        let mut shard = EngineKind::default().build();
        assert_eq!(shard.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    fn default_is_ct() {
        assert_eq!(EngineKind::default().label(), "ct");
        assert_eq!(
            EngineKind::default().build().name(),
            CtSchoolbookMultiplier::new().name()
        );
    }
}
