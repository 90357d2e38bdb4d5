//! Unstable wireless uplink (Gilbert–Elliott), used by the cloud-offload
//! ablation that motivates local inference (paper §I: "unstable
//! communication … may lead to unpredictable delay") and by bundle
//! downloads. Every caller drives the same link, so its six parameters (two
//! transition probabilities, RTT, jitter, bandwidth and timeout) are
//! constants of this module.

use anole_tensor::StdRng;

/// Per-step probability of leaving the good state.
const P_GOOD_TO_BAD: f32 = 0.02;
/// Per-step probability of recovering from the bad state.
const P_BAD_TO_GOOD: f32 = 0.10;
/// Mean round-trip time in the good state, milliseconds.
const GOOD_RTT_MS: f32 = 60.0;
/// RTT jitter fraction in the good state.
const RTT_JITTER: f32 = 0.3;
/// Uplink bandwidth in bytes per millisecond in the good state.
const BANDWIDTH_BYTES_PER_MS: f32 = 1_000.0;
/// Timeout after which a transfer in the bad state is abandoned.
const TIMEOUT_MS: f32 = 1_000.0;

/// Channel state of the two-state Gilbert–Elliott model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkState {
    /// Connected with nominal bandwidth and RTT.
    #[default]
    Good,
    /// Degraded or disconnected: transfers time out.
    Bad,
}

/// The unstable uplink simulator: a vehicular LTE-like link with ~60 ms
/// RTT, ~1 MB/s up and occasional multi-second outages. Each
/// [`UnstableLink::round_trip_ms`] call advances the channel one step and
/// prices one offloaded inference.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UnstableLink {
    state: LinkState,
}

impl UnstableLink {
    /// Creates a link starting in the good state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current channel state.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Attempts one offloaded round trip carrying `payload_bytes` up.
    ///
    /// Returns `Ok(ms)` on success or `Err(timeout_ms)` when the channel was
    /// bad and the request timed out (the caller must retry or fall back to
    /// local inference, paying the timeout either way).
    pub fn round_trip_ms(&mut self, payload_bytes: u64, rng: &mut StdRng) -> Result<f32, f32> {
        self.step(rng);
        match self.state {
            LinkState::Good => {
                let transfer = payload_bytes as f32 / BANDWIDTH_BYTES_PER_MS;
                let jitter = 1.0 + (rng.f32() - 0.5) * 2.0 * RTT_JITTER;
                Ok(GOOD_RTT_MS * jitter.max(0.1) + transfer)
            }
            LinkState::Bad => Err(TIMEOUT_MS),
        }
    }

    fn step(&mut self, rng: &mut StdRng) {
        let flip = rng.f32();
        self.state = match self.state {
            LinkState::Good if flip < P_GOOD_TO_BAD => LinkState::Bad,
            LinkState::Bad if flip < P_BAD_TO_GOOD => LinkState::Good,
            s => s,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_tensor::{rng_from_seed, Seed};

    /// Round trips until the channel times out, returning the timeout.
    fn until_outage(link: &mut UnstableLink, rng: &mut StdRng) -> f32 {
        loop {
            if let Err(timeout) = link.round_trip_ms(1, rng) {
                return timeout;
            }
        }
    }

    #[test]
    fn good_state_prices_rtt_plus_transfer() {
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(1));
        // Replay the two draws the round trip makes: the state flip, then
        // the jitter.
        let mut draws = rng.clone();
        assert!(
            draws.f32() >= P_GOOD_TO_BAD,
            "seed 1 must stay in the good state"
        );
        let jitter = 1.0 + (draws.f32() - 0.5) * 2.0 * RTT_JITTER;
        let ms = link.round_trip_ms(200_000, &mut rng).unwrap();
        assert_eq!(link.state(), LinkState::Good);
        assert!((ms - (60.0 * jitter + 200.0)).abs() < 1e-3, "{ms}");
        assert_eq!(rng, draws);
    }

    #[test]
    fn outages_produce_timeouts() {
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(2));
        assert_eq!(until_outage(&mut link, &mut rng), 1000.0);
        assert_eq!(link.state(), LinkState::Bad);
    }

    #[test]
    fn tail_latency_is_much_worse_than_median() {
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(3));
        let mut latencies: Vec<f32> = (0..2000)
            .map(|_| match link.round_trip_ms(200_000, &mut rng) {
                Ok(ms) => ms,
                Err(timeout) => timeout,
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = latencies[latencies.len() / 2];
        let p99 = latencies[latencies.len() * 99 / 100];
        assert!(p99 > 3.0 * median, "median {median}, p99 {p99}");
    }

    #[test]
    fn channel_recovers_eventually() {
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(4));
        until_outage(&mut link, &mut rng);
        let mut recovered = false;
        for _ in 0..100 {
            if link.round_trip_ms(1, &mut rng).is_ok() {
                recovered = true;
                break;
            }
        }
        assert!(recovered);
    }

    #[test]
    fn outage_fraction_matches_stationary_distribution() {
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(5));
        let n = 20_000;
        let bad = (0..n)
            .filter(|_| link.round_trip_ms(1, &mut rng).is_err())
            .count();
        let expected = P_GOOD_TO_BAD / (P_GOOD_TO_BAD + P_BAD_TO_GOOD);
        let measured = bad as f32 / n as f32;
        assert!(
            (measured - expected).abs() < 0.03,
            "measured {measured}, expected {expected}"
        );
    }
}
