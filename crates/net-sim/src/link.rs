//! The deployment's link delays: the paper's WAN and a fleet's
//! router↔replica hops.
//!
//! Delays are *accounted*, not slept: an experiment draws a one-way
//! ([`DelayModel::sample`]) or round-trip ([`DelayModel::rtt`]) delay
//! and adds it to its latency budget. This keeps the Fig 7 end-to-end
//! experiment deterministic and fast while preserving the distributional
//! shape.

use crate::delay::DelayModel;

/// The WAN topology of the paper's deployment, calibrated per DESIGN.md §6.
/// Each link is its one-way delay.
#[derive(Debug, Clone)]
pub struct WanModel {
    /// Client (broker) ↔ X-Search/PEAS proxy in a public cloud.
    pub client_proxy: DelayModel,
    /// Proxy ↔ search engine.
    pub proxy_engine: DelayModel,
    /// Client ↔ search engine directly (the Direct baseline).
    pub client_engine: DelayModel,
    /// One Tor relay hop (client→guard, relay→relay, exit→engine all use
    /// independent samples of this link).
    pub tor_hop: DelayModel,
    /// Search-engine service time (query evaluation at Bing).
    pub engine_service: DelayModel,
}

impl Default for WanModel {
    fn default() -> Self {
        WanModel {
            client_proxy: DelayModel::lognormal_ms(20, 0.35),
            proxy_engine: DelayModel::lognormal_ms(15, 0.35),
            client_engine: DelayModel::lognormal_ms(18, 0.35),
            tor_hop: DelayModel::lognormal_ms(110, 0.55),
            engine_service: DelayModel::lognormal_ms(380, 0.25),
        }
    }
}

/// Base median one-way delay between a fleet's router and a replica, in µs.
const BASE_HOP_US: u64 = 250;

/// The one-way router ↔ replica `i` delay of a multi-enclave proxy
/// fleet. The router sits in the same data center as the replicas, but
/// racks are heterogeneous: replica `i` gets a log-normal delay whose
/// median is the base hop plus a per-replica skew of `i % 4` × 50 µs —
/// enough spread that placement policies see a heterogeneous fleet,
/// small enough that the hop never dominates the enclave service time.
#[must_use]
pub fn fleet_hop(i: usize) -> DelayModel {
    DelayModel::lognormal_us(BASE_HOP_US + 50 * (i as u64 % 4), 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn rtt_is_sum_of_two_one_ways_for_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            DelayModel::constant_ms(30).rtt(&mut rng),
            Duration::from_millis(60)
        );
    }

    #[test]
    fn default_wan_orders_paths_sensibly() {
        // A Tor hop is slower than the direct paths; the engine dominates.
        let wan = WanModel::default();
        assert!(wan.tor_hop.median() > wan.client_proxy.median());
        assert!(wan.engine_service.median() > wan.tor_hop.median());
    }

    #[test]
    fn fleet_links_are_per_replica_and_heterogeneous() {
        // Replicas 0 and 1 sit on different racks: different medians.
        assert!(fleet_hop(1).median() > fleet_hop(0).median());
        // Four racks: replica 4 shares replica 0's.
        assert_eq!(fleet_hop(4), fleet_hop(0));
        // The hop stays intra-DC: well under a WAN client-proxy hop.
        assert!(fleet_hop(3).median() * 10 < WanModel::default().client_proxy.median());
    }

    #[test]
    fn direct_median_rtt_lands_near_paper_scale() {
        // Direct search: client-engine RTT + engine service ≈ 0.42 s median,
        // matching Fig 7's Direct curve being comfortably under X-Search's
        // 0.577 s median.
        let wan = WanModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<f64> = (0..2001)
            .map(|_| {
                (wan.client_engine.rtt(&mut rng) + wan.engine_service.sample(&mut rng))
                    .as_secs_f64()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((0.30..0.60).contains(&median), "median {median}");
    }
}
