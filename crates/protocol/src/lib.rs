//! The intra-cluster snooping bus and MESIR coherence protocol.
//!
//! A cluster in the paper is a small bus-based SMP: a handful of processors
//! with private write-back caches, snooping a shared bus, plus a
//! pseudo-processor that represents the rest of the machine and controls
//! the network cache. This crate models the *processor-cache side* of that
//! bus: lookups, cache-to-cache supply, upgrades/invalidations, fills and
//! victimizations under the paper's **MESIR** protocol (MESI plus the `R`
//! state — mastership of a remote clean block — so that clean remote
//! victims reach the bus and can be captured by a network victim cache).
//!
//! The network-cache and page-cache layers are *policies* built on top of
//! this mechanism and live in `dsm-core`; this crate deliberately knows
//! nothing about them. See [`mesir`] for the transition tables and
//! [`BusCluster`] for the operations the system simulator composes.
//!
//! # Example
//!
//! ```
//! use dsm_cache::{CacheShape, CacheState};
//! use dsm_protocol::BusCluster;
//! use dsm_types::{BlockAddr, LocalProcId};
//!
//! let shape = CacheShape::new(1024, 64, 2)?;
//! let mut cluster = BusCluster::new(4, shape);
//! let b = BlockAddr(10);
//! // P0 brings in a remote clean block: MESIR fills it in state R.
//! cluster.fill(LocalProcId(0), b, CacheState::RemoteMaster);
//! // P1 reads the same block: cache-to-cache supply, P1 gets S, P0 keeps R.
//! let (supplier, _) = cluster.find_supplier(LocalProcId(1), b).unwrap();
//! assert_eq!(supplier, LocalProcId(0));
//! # Ok::<(), dsm_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod mesir;
pub mod transaction;

pub use bus::BusCluster;
pub use transaction::{InvalidationResult, PeerReadSupply, PeerWriteSupply};
