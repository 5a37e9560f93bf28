//! The global-clock abstraction: every sequential primitive advances on
//! the same edge.
//!
//! Architectures in `saber-core` drive their components directly. To
//! run raw primitives together — in lock-step, on divided clocks, or
//! alongside full datapath models — lift them onto `saber-soc`'s
//! discrete-event scheduler with its `ClockedComponent` adapter, which
//! borrows any [`Clocked`] component (`&mut dyn Clocked`). Wall time
//! there goes through the shared `saber_trace::clock::Clock`, so
//! `FakeClock`-driven tests assert the timing path deterministically.

/// A sequential component that advances one clock edge at a time.
pub trait Clocked {
    /// Applies one rising clock edge.
    fn rising_edge(&mut self);
}

impl Clocked for crate::bram::Bram {
    fn rising_edge(&mut self) {
        self.tick();
    }
}

impl Clocked for crate::dsp::Dsp48 {
    fn rising_edge(&mut self) {
        self.tick();
    }
}

impl Clocked for crate::keccak_core::KeccakCore {
    fn rising_edge(&mut self) {
        self.tick();
    }
}
