//! The framework API-call identifier space.
//!
//! The paper's code-based clone detector (after WuKong) builds one feature
//! vector per app with **more than 45 K dimensions**: one per Android API
//! call / Intent / Content Provider. We model that space as a dense range
//! of [`ApiCallId`]s partitioned into the same three families, so that
//! permission mapping (PScout-style) and feature extraction can reason
//! about id ranges without tables of real method names.

use std::fmt;

/// Total number of feature dimensions (API calls + intents + content
/// providers), matching the paper's ">45K dimensions".
pub const API_DIMENSIONS: u32 = 45_056;

/// Number of ids modelling plain framework API calls (PScout lists 32,445
/// permission-related APIs; we reserve the low range for APIs generally).
pub const API_CALL_RANGE: u32 = 40_960;

/// Number of ids modelling Intent actions (PScout: 97 permission-related
/// intents; we model a larger action space).
pub(crate) const INTENT_RANGE: u32 = 2_048;

/// Number of ids modelling Content-Provider URIs.
pub const PROVIDER_RANGE: u32 = API_DIMENSIONS - API_CALL_RANGE - INTENT_RANGE;

/// The family an id belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ApiFamily {
    /// An Android framework method call.
    MethodCall,
    /// An Intent action string.
    Intent,
    /// A Content-Provider URI.
    ContentProvider,
}

/// One dimension of the feature space: a framework API call, an Intent
/// action, or a Content-Provider URI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApiCallId(pub u32);

impl ApiCallId {
    /// The family this id models.
    pub(crate) fn family(self) -> ApiFamily {
        if self.0 < API_CALL_RANGE {
            ApiFamily::MethodCall
        } else if self.0 < API_CALL_RANGE + INTENT_RANGE {
            ApiFamily::Intent
        } else {
            ApiFamily::ContentProvider
        }
    }

    /// Dense feature index in `0..API_DIMENSIONS`.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ApiCallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family() {
            ApiFamily::MethodCall => write!(f, "api#{}", self.0),
            ApiFamily::Intent => write!(f, "intent#{}", self.0 - API_CALL_RANGE),
            ApiFamily::ContentProvider => {
                write!(f, "provider#{}", self.0 - API_CALL_RANGE - INTENT_RANGE)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_space() {
        assert_eq!(
            API_CALL_RANGE + INTENT_RANGE + PROVIDER_RANGE,
            API_DIMENSIONS
        );
        // Paper: more than 45K dimensions. A const so the check happens at
        // compile time (clippy: assertions_on_constants).
        const _: () = assert!(API_DIMENSIONS > 45_000);
    }

    #[test]
    fn family_boundaries() {
        assert_eq!(ApiCallId(0).family(), ApiFamily::MethodCall);
        assert_eq!(
            ApiCallId(API_CALL_RANGE - 1).family(),
            ApiFamily::MethodCall
        );
        assert_eq!(ApiCallId(API_CALL_RANGE).family(), ApiFamily::Intent);
        assert_eq!(
            ApiCallId(API_CALL_RANGE + INTENT_RANGE).family(),
            ApiFamily::ContentProvider
        );
        assert_eq!(
            ApiCallId(API_DIMENSIONS - 1).family(),
            ApiFamily::ContentProvider
        );
    }

    #[test]
    fn display_by_family() {
        assert_eq!(ApiCallId(3).to_string(), "api#3");
        assert_eq!(ApiCallId(API_CALL_RANGE + 1).to_string(), "intent#1");
        assert_eq!(
            ApiCallId(API_CALL_RANGE + INTENT_RANGE + 2).to_string(),
            "provider#2"
        );
    }
}
