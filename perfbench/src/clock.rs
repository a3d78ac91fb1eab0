//! The benchmark's one wall clock: every host time it reports is read
//! through [`Stamp`]. Nothing here reaches the simulator's virtual
//! clocks; the program under test never sees these values.

use std::time::Duration;
// tidy-allow: wall-clock -- the benchmark measures host wall-clock time by design
use std::time::Instant;

/// A point in host wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
// tidy-allow: wall-clock -- the benchmark measures host wall-clock time by design
pub struct Stamp(Instant);

impl Stamp {
    pub fn now() -> Stamp {
        // tidy-allow: wall-clock -- the benchmark measures host wall-clock time by design
        Stamp(Instant::now())
    }

    /// Seconds from `earlier` to `self` (0 when `earlier` is later).
    pub fn secs_since(self, earlier: Stamp) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Seconds since this stamp.
    pub fn elapsed_s(self) -> f64 {
        Stamp::now().secs_since(self)
    }

    /// Milliseconds since this stamp.
    pub fn elapsed_ms(self) -> f64 {
        self.elapsed_s() * 1e3
    }

    /// Microseconds since this stamp.
    pub fn elapsed_us(self) -> f64 {
        self.elapsed_s() * 1e6
    }

    /// The stamp `ms` milliseconds later.
    pub fn plus_ms(self, ms: f64) -> Stamp {
        Stamp(self.0 + Duration::from_secs_f64(ms.max(0.0) / 1e3))
    }
}
