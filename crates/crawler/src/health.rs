//! Per-market crawl health: consecutive-failure tracking and quarantine.
//!
//! The harvest pass walks each market's catalog sequentially. When a
//! market degrades hard — resets every connection, serves nothing but
//! 5xx, or disappears into a downtime window — burning a retry budget on
//! every remaining listing is pure waste.
//! `MarketHealth` watches the failure *streak*: after a configurable
//! run of consecutive terminal failures the market is quarantined, the
//! rest of its work is deferred, and a later revisit pass (by which time
//! a flapping server has typically rotated back up and an open circuit
//! breaker has half-opened) gives every deferred fetch one more chance.

/// Tracks one market's fetch health during a harvest pass.
///
/// Successes reset the streak, so a market has to fail `threshold` times
/// *in a row* to be quarantined — scattered failures (a lost connection
/// here, a 500 there) never trip it. A threshold of `0` disables
/// quarantine entirely.
#[derive(Debug, Clone)]
pub(crate) struct MarketHealth {
    threshold: u32,
    consecutive: u32,
    quarantined: bool,
}

impl MarketHealth {
    /// A fresh tracker quarantining after `threshold` consecutive
    /// failures (`0` = never quarantine).
    pub(crate) fn new(threshold: u32) -> MarketHealth {
        MarketHealth {
            threshold,
            consecutive: 0,
            quarantined: false,
        }
    }

    /// The market answered definitively: reset the failure streak.
    pub(crate) fn note_ok(&mut self) {
        self.consecutive = 0;
    }

    /// The market failed terminally. Returns `true` exactly when this
    /// failure is the one that trips the quarantine.
    pub(crate) fn note_failure(&mut self) -> bool {
        if self.quarantined || self.threshold == 0 {
            return false;
        }
        self.consecutive += 1;
        if self.consecutive >= self.threshold {
            self.quarantined = true;
            return true;
        }
        false
    }

    /// Whether the market is currently quarantined.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Lift the quarantine for a revisit pass: the streak re-arms from
    /// zero, so the revisit can re-quarantine if the market is still down.
    pub(crate) fn release(&mut self) {
        self.quarantined = false;
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streak_must_be_consecutive() {
        let mut h = MarketHealth::new(3);
        for _ in 0..10 {
            assert!(!h.note_failure());
            assert!(!h.note_failure());
            h.note_ok(); // reset one short of the threshold
        }
        assert!(!h.is_quarantined());
    }

    #[test]
    fn threshold_trips_exactly_once() {
        let mut h = MarketHealth::new(3);
        assert!(!h.note_failure());
        assert!(!h.note_failure());
        assert!(h.note_failure(), "third consecutive failure quarantines");
        assert!(h.is_quarantined());
        // Further failures don't re-report the trip.
        assert!(!h.note_failure());
        assert!(h.is_quarantined());
    }

    #[test]
    fn zero_threshold_disables_quarantine() {
        let mut h = MarketHealth::new(0);
        for _ in 0..1000 {
            assert!(!h.note_failure());
        }
        assert!(!h.is_quarantined());
    }

    #[test]
    fn release_rearms_the_streak() {
        let mut h = MarketHealth::new(2);
        h.note_failure();
        assert!(h.note_failure());
        h.release();
        assert!(!h.is_quarantined());
        // One failure after release is not enough to re-trip...
        assert!(!h.note_failure());
        // ...but a full fresh streak is.
        assert!(h.note_failure());
        assert!(h.is_quarantined());
    }
}
