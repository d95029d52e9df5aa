//! Seeded chaos profiles for the market fleet.
//!
//! The paper's crawlers fought real-world market misbehaviour: dropped
//! connections, hour-long slowdowns, truncated downloads, error storms
//! and outright downtime. A [`ChaosProfile`] reproduces that weather
//! deterministically: each market gets a [`FaultPlan`] matched to its
//! character, seeded from one campaign-level chaos seed, so two runs with
//! the same seed inject byte-identical fault sequences.
//!
//! Assignment rationale:
//!
//! * **Google Play** stays fault-free — its pathology is the APK rate
//!   limiter, which is already modelled (and which the resilience layer
//!   must *not* mistake for an outage);
//! * **Baidu** stalls: its sequential detail index made it the slowest
//!   market to walk;
//! * **360** truncates bodies: Jiagubao-wrapped APKs were the ones most
//!   often cut off mid-download;
//! * the remaining **web-company** store (Tencent) resets connections
//!   under load;
//! * **vendor** stores burst 5xx with a short `retry-after` hint — the
//!   kind of transient backend hiccup a polite retry absorbs;
//! * **specialized** stores flap: periodic downtime windows during which
//!   every request dies, exercising quarantine-and-revisit.
//!
//! The offline repository is never faulted: it is the backfill anchor the
//! crawler degrades onto, mirroring how AndroZoo stayed solid while the
//! live markets misbehaved.

use marketscope_core::hash::fnv1a64;
use marketscope_core::{MarketId, MarketKind};
use marketscope_net::FaultPlan;
use std::time::Duration;

/// How hard a [`ChaosProfile`] bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosIntensity {
    /// Base fault rates: every pathology fires, nothing overwhelms the
    /// retry budget.
    Light,
    /// Base rates tripled (downtime windows stretched): quarantines and
    /// breaker opens become routine.
    Heavy,
}

impl ChaosIntensity {
    /// The factor applied to every base [`FaultPlan`].
    pub(crate) fn factor(self) -> f64 {
        match self {
            ChaosIntensity::Light => 1.0,
            ChaosIntensity::Heavy => 3.0,
        }
    }
}

impl std::str::FromStr for ChaosIntensity {
    type Err = String;

    fn from_str(s: &str) -> Result<ChaosIntensity, String> {
        match s {
            "light" => Ok(ChaosIntensity::Light),
            "heavy" => Ok(ChaosIntensity::Heavy),
            other => Err(format!("unknown chaos profile {other:?} (light|heavy)")),
        }
    }
}

/// A deterministic fault assignment for the whole fleet: one seed, one
/// intensity, one [`FaultPlan`] per market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProfile {
    /// Campaign-level chaos seed; each market derives its own stream
    /// seed from it (see `ChaosProfile::seed_for`).
    pub seed: u64,
    /// Scales every per-market plan.
    pub intensity: ChaosIntensity,
}

impl ChaosProfile {
    /// A heavy-intensity profile.
    pub fn heavy(seed: u64) -> ChaosProfile {
        ChaosProfile {
            seed,
            intensity: ChaosIntensity::Heavy,
        }
    }

    /// The fault-stream seed for one market: the campaign seed xored
    /// with the market slug's FNV-1a hash, so markets draw independent
    /// streams that all replay under the same campaign seed.
    pub(crate) fn seed_for(&self, market: MarketId) -> u64 {
        self.seed ^ fnv1a64(market.slug().as_bytes())
    }

    /// The fault plan for one market (possibly a no-op — Google Play is
    /// always served clean).
    pub(crate) fn plan_for(&self, market: MarketId) -> FaultPlan {
        base_plan(market).scaled(self.intensity.factor())
    }
}

/// The light-intensity base plan for one market.
fn base_plan(market: MarketId) -> FaultPlan {
    match market {
        MarketId::BaiduMarket => FaultPlan {
            stall: 0.10,
            stall_for: Duration::from_millis(20),
            ..FaultPlan::none()
        },
        MarketId::Market360 => FaultPlan {
            truncate: 0.06,
            ..FaultPlan::none()
        },
        m => match m.kind() {
            MarketKind::Official => FaultPlan::none(),
            MarketKind::WebCompany => FaultPlan {
                reset: 0.08,
                ..FaultPlan::none()
            },
            MarketKind::Vendor => FaultPlan {
                error_5xx: 0.10,
                error_retry_after: Some(Duration::from_millis(15)),
                ..FaultPlan::none()
            },
            MarketKind::Specialized => FaultPlan {
                downtime_every: 48,
                downtime_len: 6,
                ..FaultPlan::none()
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light(seed: u64) -> ChaosProfile {
        ChaosProfile {
            seed,
            intensity: ChaosIntensity::Light,
        }
    }

    #[test]
    fn google_play_is_always_clean() {
        for profile in [light(7), ChaosProfile::heavy(7)] {
            assert!(profile.plan_for(MarketId::GooglePlay).is_noop());
        }
    }

    #[test]
    fn every_chinese_market_gets_some_fault() {
        let profile = light(7);
        for m in MarketId::chinese() {
            assert!(!profile.plan_for(m).is_noop(), "{m} has no fault plan");
        }
    }

    #[test]
    fn heavy_scales_light() {
        let light = light(7);
        let heavy = ChaosProfile::heavy(7);
        let (l, h) = (
            light.plan_for(MarketId::TencentMyapp),
            heavy.plan_for(MarketId::TencentMyapp),
        );
        assert!(h.reset > l.reset);
        // Downtime windows stretch under heavy chaos.
        let (l, h) = (
            light.plan_for(MarketId::Pp25),
            heavy.plan_for(MarketId::Pp25),
        );
        assert!(h.downtime_len > l.downtime_len);
        assert_eq!(h.downtime_every, l.downtime_every);
    }

    /// Downtime windows are the one fault keyed on a market's arrival
    /// order, and a retried status fault is the one thing that lets a
    /// pipelined lane reorder arrivals: the requests written behind the
    /// failed one reach the server before its retry. A market with both
    /// would see its outcomes depend on the lane depth.
    #[test]
    fn no_market_pairs_downtime_windows_with_status_faults() {
        for profile in [light(7), ChaosProfile::heavy(7)] {
            for m in MarketId::ALL {
                let plan = profile.plan_for(m);
                let downtime = plan.downtime_every > 0 && plan.downtime_len > 0;
                assert!(
                    !(downtime && plan.error_5xx > 0.0),
                    "{m} pairs downtime windows with 5xx faults"
                );
            }
        }
    }

    #[test]
    fn market_streams_are_independent_but_replayable() {
        let a = light(42);
        let b = light(42);
        let mut seeds = std::collections::HashSet::new();
        for m in MarketId::ALL {
            assert_eq!(a.seed_for(m), b.seed_for(m), "{m} stream not replayable");
            assert!(seeds.insert(a.seed_for(m)), "{m} shares a stream seed");
        }
    }

    #[test]
    fn intensity_parses_from_cli_names() {
        assert_eq!("light".parse(), Ok(ChaosIntensity::Light));
        assert_eq!("heavy".parse(), Ok(ChaosIntensity::Heavy));
        assert!("medium".parse::<ChaosIntensity>().is_err());
    }
}
