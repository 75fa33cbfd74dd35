//! Inter-cluster coherence directory and page placement for the
//! clustered-DSM simulator.
//!
//! Three pieces:
//!
//! * [`FullMapDirectory`] — a full-map, home-based directory keeping one
//!   presence bit per cluster per block plus the dirty-owner cluster. It is
//!   *non-notifying*: clean replacements are not reported, so a set presence
//!   bit at request time means the cluster once had the block and lost it to
//!   capacity/conflict — exactly the signal R-NUMA uses to classify a miss
//!   as a capacity miss rather than a *necessary* (cold/coherence) miss.
//! * [`FirstTouchPlacement`] / [`HomeMap`] — first-touch page placement
//!   (the paper's policy, after Marchetti et al.), assigning each page's
//!   home to the cluster of the first processor to touch it, with explicit
//!   pre-assignment support for the paper's LU fix.
//! * [`RnumaCounters`] — R-NUMA's per-page-per-cluster capacity-miss
//!   counters that drive page relocation into the page cache.
//!
//! # Example
//!
//! ```
//! use dsm_directory::FullMapDirectory;
//! use dsm_types::{BlockAddr, ClusterId};
//!
//! let mut dir = FullMapDirectory::new(8);
//! let b = BlockAddr(100);
//! let grant = dir.read(b, ClusterId(2));
//! assert!(grant.exclusive);          // first reader machine-wide
//! assert!(!grant.prior_presence);    // a necessary (cold) miss
//! let again = dir.read(b, ClusterId(2));
//! assert!(again.prior_presence);     // non-notifying: this is a capacity miss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod full_map;
pub mod limited;
pub mod placement;
pub mod rnuma;
pub mod unit;

pub use full_map::{FullMapDirectory, ReadGrant, WriteGrant};
pub use limited::{LimitedPointerDirectory, MAX_POINTERS};
pub use placement::{FirstTouchPlacement, HomeMap};
pub use rnuma::RnumaCounters;
pub use unit::DirectoryUnit;
