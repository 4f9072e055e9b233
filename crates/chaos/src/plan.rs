//! The fault plan: which toxics a proxy applies, under which seed.
//!
//! A [`ChaosPlan`] is declarative and immutable once handed to the
//! proxy — the same builder discipline as the simulator's `FaultPlan`
//! (`FaultPlan::new(seed).drop_prob(..).crash(..)`), lifted from
//! simulated messages to real TCP bytes. Toxics compose: a plan with
//! latency *and* corruption delays every chunk and flips bytes in it.

use std::time::Duration;

/// One fault class a [`crate::ChaosProxy`] injects. All toxics apply to
/// both directions of every proxied connection; byte budgets
/// ([`Toxic::Reset`], [`Toxic::Blackhole`]) are counted per direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Toxic {
    /// Delays each forwarded chunk by `delay` plus a uniform draw from
    /// `[0, jitter]`.
    Latency {
        /// Fixed component of the delay.
        delay: Duration,
        /// Upper bound of the uniform jitter added on top.
        jitter: Duration,
    },
    /// Caps forwarding at `bytes_per_sec` per direction by sleeping
    /// `len / rate` per chunk.
    Throttle {
        /// Sustained bandwidth cap, bytes per second. Must be nonzero.
        bytes_per_sec: u64,
    },
    /// Cuts the connection abruptly (both sockets shut down, no FIN
    /// handshake courtesy) once a direction has forwarded `after_bytes`.
    Reset {
        /// Bytes a direction may forward before the cut.
        after_bytes: u64,
    },
    /// Silently stops delivering once a direction has forwarded
    /// `after_bytes`: the connection stays open and the peer sees an
    /// unbounded stall — a partition, not a failure signal.
    Blackhole {
        /// Bytes a direction may forward before the partition.
        after_bytes: u64,
    },
    /// Re-segments the stream into chunks of 1..=`max_chunk` bytes,
    /// sleeping `gap` between consecutive chunks — frames arrive torn
    /// across many reads and never aligned to frame boundaries.
    Slice {
        /// Largest chunk forwarded at once. Must be nonzero.
        max_chunk: usize,
        /// Pause between consecutive slices.
        gap: Duration,
    },
    /// Flips each forwarded byte to a random value with probability
    /// `prob` (per byte).
    Corrupt {
        /// Per-byte corruption probability in `[0, 1]`.
        prob: f64,
    },
}

/// A seeded, replayable set of [`Toxic`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Root seed; every per-connection random stream derives from it.
    pub seed: u64,
    /// The toxic chain, applied in order to every chunk.
    pub toxics: Vec<Toxic>,
}

impl ChaosPlan {
    /// An empty plan (a faithful proxy) under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed, toxics: Vec::new() }
    }

    /// Appends an arbitrary toxic.
    #[must_use]
    pub fn toxic(mut self, toxic: Toxic) -> Self {
        self.toxics.push(toxic);
        self
    }

    /// Adds [`Toxic::Latency`].
    #[must_use]
    pub fn latency(self, delay: Duration, jitter: Duration) -> Self {
        self.toxic(Toxic::Latency { delay, jitter })
    }

    /// Adds [`Toxic::Throttle`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero (use
    /// [`ChaosPlan::blackhole_after`] for a total stall).
    #[must_use]
    pub fn throttle(self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "a zero-rate throttle is a blackhole; use blackhole_after()");
        self.toxic(Toxic::Throttle { bytes_per_sec })
    }

    /// Adds [`Toxic::Reset`].
    #[must_use]
    pub fn reset_after(self, after_bytes: u64) -> Self {
        self.toxic(Toxic::Reset { after_bytes })
    }

    /// Adds [`Toxic::Blackhole`].
    #[must_use]
    pub fn blackhole_after(self, after_bytes: u64) -> Self {
        self.toxic(Toxic::Blackhole { after_bytes })
    }

    /// Adds [`Toxic::Slice`].
    ///
    /// # Panics
    ///
    /// Panics if `max_chunk` is zero.
    #[must_use]
    pub fn slice(self, max_chunk: usize, gap: Duration) -> Self {
        assert!(max_chunk > 0, "slices must carry at least one byte");
        self.toxic(Toxic::Slice { max_chunk, gap })
    }

    /// Adds [`Toxic::Corrupt`].
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    #[must_use]
    pub fn corrupt(self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "a probability must be in [0, 1]");
        self.toxic(Toxic::Corrupt { prob })
    }

    /// The deterministic seed of one connection's one direction:
    /// connection `conn` (accept order), `dir` 0 for client→server, 1
    /// for server→client. SplitMix-style mixing keeps nearby inputs
    /// from yielding correlated streams.
    #[must_use]
    pub fn stream_seed(&self, conn: u64, dir: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(dir.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let plan = ChaosPlan::new(7)
            .latency(Duration::from_millis(1), Duration::from_millis(2))
            .throttle(1024)
            .reset_after(100)
            .blackhole_after(200)
            .slice(3, Duration::from_micros(50))
            .corrupt(0.5);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.toxics.len(), 6);
        assert_eq!(plan.toxics[1], Toxic::Throttle { bytes_per_sec: 1024 });
        assert_eq!(plan.toxics[5], Toxic::Corrupt { prob: 0.5 });
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let plan = ChaosPlan::new(42);
        assert_eq!(plan.stream_seed(0, 0), plan.stream_seed(0, 0));
        assert_ne!(plan.stream_seed(0, 0), plan.stream_seed(0, 1));
        assert_ne!(plan.stream_seed(0, 0), plan.stream_seed(1, 0));
        assert_ne!(plan.stream_seed(0, 0), ChaosPlan::new(43).stream_seed(0, 0));
    }

    #[test]
    #[should_panic(expected = "blackhole")]
    fn zero_rate_throttle_is_refused() {
        let _ = ChaosPlan::new(0).throttle(0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_is_refused() {
        let _ = ChaosPlan::new(0).corrupt(1.5);
    }
}
