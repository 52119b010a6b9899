//! Error types returned by schedulers and program constructors.

use core::fmt;

use crate::types::{GroupId, PageId};

/// Errors arising while validating a group ladder or running a scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The ladder has no groups.
    EmptyLadder,
    /// A group declared zero pages and the constructor forbids it.
    EmptyGroup {
        /// The offending group.
        group: GroupId,
    },
    /// Expected times are not a geometric progression `t_{i+1} = c * t_i`.
    NonGeometricTimes {
        /// The group whose expected time breaks the progression.
        group: GroupId,
        /// Expected time found for this group, in slots.
        found: u64,
        /// Expected time required by the progression, in slots.
        required: u64,
    },
    /// The common ratio would have to be less than 1 (times not ascending).
    NonAscendingTimes {
        /// The group whose expected time is not larger than its predecessor's.
        group: GroupId,
    },
    /// The system supplies fewer channels than the algorithm requires.
    InsufficientChannels {
        /// Channels the caller supplied.
        supplied: u32,
        /// Minimum channels required (Theorem 3.1).
        required: u32,
    },
    /// A channel count of zero was supplied.
    NoChannels,
    /// The scheduler could not place a page (internal invariant violation).
    PlacementFailed {
        /// The page that could not be placed.
        page: PageId,
    },
    /// A frequency vector had the wrong arity or a zero entry.
    InvalidFrequencies {
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// The workload exceeds implementation limits (more than `u32::MAX`
    /// pages, or expected times overflowing 64 bits).
    WorkloadTooLarge {
        /// Human-readable description of the limit hit.
        reason: &'static str,
    },
    /// The workload is too large for the requested exhaustive search.
    SearchSpaceTooLarge {
        /// Number of candidate vectors that would have to be enumerated.
        candidates: u128,
        /// The configured enumeration limit.
        limit: u128,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyLadder => write!(f, "group ladder contains no groups"),
            Self::EmptyGroup { group } => {
                write!(f, "group {group} declares zero pages")
            }
            Self::NonGeometricTimes {
                group,
                found,
                required,
            } => write!(
                f,
                "expected time of {group} is {found} slots but the geometric \
                 ladder requires {required}"
            ),
            Self::NonAscendingTimes { group } => write!(
                f,
                "expected time of {group} is not larger than its predecessor's"
            ),
            Self::InsufficientChannels { supplied, required } => write!(
                f,
                "{supplied} channel(s) supplied but {required} required; use \
                 an insufficient-channel scheduler such as PAMAD"
            ),
            Self::NoChannels => write!(f, "at least one channel is required"),
            Self::PlacementFailed { page } => {
                write!(f, "internal error: no slot found for page {page}")
            }
            Self::InvalidFrequencies { reason } => {
                write!(f, "invalid frequency vector: {reason}")
            }
            Self::WorkloadTooLarge { reason } => {
                write!(f, "workload exceeds implementation limits: {reason}")
            }
            Self::SearchSpaceTooLarge { candidates, limit } => write!(
                f,
                "exhaustive search would enumerate {candidates} candidate \
                 frequency vectors, above the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The refusal of a page id at or above [`crate::types::PAGE_ID_LIMIT`].
pub(crate) const PAGE_ID_TOO_LARGE: ScheduleError = ScheduleError::WorkloadTooLarge {
    reason: "page id at or above the page-id limit",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GroupId;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = ScheduleError::InsufficientChannels {
            supplied: 3,
            required: 5,
        };
        let msg = err.to_string();
        assert!(msg.starts_with("3 channel(s) supplied"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ScheduleError>();
    }

    #[test]
    fn display_covers_all_variants() {
        let samples = [
            ScheduleError::EmptyLadder,
            ScheduleError::EmptyGroup {
                group: GroupId::new(1),
            },
            ScheduleError::NonGeometricTimes {
                group: GroupId::new(2),
                found: 5,
                required: 8,
            },
            ScheduleError::NonAscendingTimes {
                group: GroupId::new(1),
            },
            ScheduleError::NoChannels,
            ScheduleError::PlacementFailed {
                page: crate::types::PageId::new(3),
            },
            ScheduleError::InvalidFrequencies {
                reason: "arity mismatch",
            },
            ScheduleError::SearchSpaceTooLarge {
                candidates: 1 << 70,
                limit: 1 << 20,
            },
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }
}
