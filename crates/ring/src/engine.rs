//! Hot-path engine selection.
//!
//! Three software backends implement the full-magnitude (|s| ≤ 5)
//! asymmetric multiply on the KEM hot path: the constant-time u16-lane
//! schoolbook ([`CtSchoolbookMultiplier`], the default — the fastest
//! engine in the derby and the one whose timing the `saber-timing`
//! leakage gate holds secret-independent), the HS-I mirror
//! ([`CachedSchoolbookMultiplier`]) and the HS-II SWAR mirror
//! ([`SwarMultiplier`]). [`EngineKind`] names them, parses the
//! `SABER_ENGINE` environment variable, and builds boxed shards for the
//! service layer's worker threads.
//!
//! # Examples
//!
//! ```
//! use saber_ring::engine::EngineKind;
//!
//! let mut shard = EngineKind::Swar.build();
//! assert_eq!(shard.name(), "swar-packed HS-II mirror (software)");
//! assert_eq!(EngineKind::parse("swar"), Some(EngineKind::Swar));
//! assert_eq!(EngineKind::parse("cached"), Some(EngineKind::Cached));
//! assert_eq!(EngineKind::parse("ct"), Some(EngineKind::Ct));
//! assert_eq!(EngineKind::parse("toom"), None);
//! assert_eq!(EngineKind::default(), EngineKind::Ct);
//! ```

use crate::cached::CachedSchoolbookMultiplier;
use crate::ct::CtSchoolbookMultiplier;
use crate::mul::PolyMultiplier;
use crate::swar::SwarMultiplier;

/// Environment variable consulted by [`EngineKind::from_env`].
pub const ENGINE_ENV: &str = "SABER_ENGINE";

/// Which multiplier backend serves the hot path. The default is
/// [`EngineKind::Ct`], the constant-time engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// HS-I mirror: multiple caching + bucket scans.
    Cached,
    /// HS-II mirror: SWAR lane packing + complement rows.
    Swar,
    /// Constant-time fixed-scan schoolbook in wrapping u16 lanes:
    /// secret-independent timing (the default).
    #[default]
    Ct,
}

impl EngineKind {
    /// Every selectable engine.
    pub const ALL: [EngineKind; 3] = [EngineKind::Cached, EngineKind::Swar, EngineKind::Ct];

    /// Parses an engine label (case-insensitive): `"cached"`, `"swar"` or
    /// `"ct"`, plus the hardware-schedule aliases `"hs1"`/`"hs2"` and the
    /// long form `"ct-schoolbook"`.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label.trim().to_ascii_lowercase().as_str() {
            "cached" | "hs1" => Some(EngineKind::Cached),
            "swar" | "hs2" => Some(EngineKind::Swar),
            "ct" | "ct-schoolbook" => Some(EngineKind::Ct),
            _ => None,
        }
    }

    /// Reads `SABER_ENGINE` (default [`EngineKind::Ct`]).
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to an unknown engine label, so a
    /// typo in a CI matrix fails loudly instead of silently benchmarking
    /// the wrong backend.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(ENGINE_ENV) {
            Ok(label) => Self::parse(&label).unwrap_or_else(|| {
                panic!(
                    "{ENGINE_ENV}={label:?}: unknown engine (expected \"cached\", \
                     \"swar\" or \"ct\")"
                )
            }),
            Err(_) => EngineKind::default(),
        }
    }

    /// The canonical parseable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Cached => "cached",
            EngineKind::Swar => "swar",
            EngineKind::Ct => "ct",
        }
    }

    /// Builds a fresh boxed shard of this engine — the form the service
    /// layer hands each worker thread.
    #[must_use]
    pub fn build(self) -> Box<dyn PolyMultiplier + Send> {
        match self {
            EngineKind::Cached => Box::new(CachedSchoolbookMultiplier::new()),
            EngineKind::Swar => Box::new(SwarMultiplier::new()),
            EngineKind::Ct => Box::new(CtSchoolbookMultiplier::new()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;
    use crate::{PolyQ, SecretPoly};

    #[test]
    fn labels_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
            assert_eq!(EngineKind::parse(&kind.label().to_uppercase()), Some(kind));
        }
        assert_eq!(EngineKind::parse("  swar "), Some(EngineKind::Swar));
        assert_eq!(EngineKind::parse("ct-schoolbook"), Some(EngineKind::Ct));
        // Retired engines and the retired auto-tuner no longer parse, so
        // `SABER_ENGINE=auto` fails loudly in `from_env`.
        for retired in ["auto", "toom", "toom4", "ntt", "ntt-crt"] {
            assert_eq!(EngineKind::parse(retired), None, "{retired}");
        }
        assert_eq!(EngineKind::parse(""), None);
        assert_eq!(EngineKind::parse("karatsuba"), None);
    }

    #[test]
    fn every_engine_builds_a_working_shard() {
        let a = PolyQ::from_fn(|i| (29 * i as u16) & 0x1fff);
        let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        let expected = schoolbook::mul_asym(&a, &s);
        for kind in EngineKind::ALL {
            let mut shard = kind.build();
            assert_eq!(shard.multiply(&a, &s), expected, "engine {kind}");
        }
    }

    #[test]
    fn default_is_ct() {
        assert_eq!(EngineKind::default(), EngineKind::Ct);
    }
}
