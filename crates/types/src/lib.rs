//! Shared vocabulary types for the clustered-DSM simulator.
//!
//! This crate defines the address-space geometry (blocks and pages),
//! identifiers for processors and clusters, memory operations, and the
//! configuration error type used across the workspace. It deliberately has
//! no simulation logic: every other crate builds on these types, so they are
//! small, `Copy` where possible, and implement the common std traits.
//!
//! # Example
//!
//! ```
//! use dsm_types::{Addr, Geometry, MemOp, MemRef, ProcId, Topology};
//!
//! let geo = Geometry::new(64, 4096).unwrap();
//! let topo = Topology::new(8, 4).unwrap();
//! let r = MemRef::new(ProcId::new(5), MemOp::Write, Addr(0x1_2345));
//! assert_eq!(geo.block_of(r.addr).0, 0x1_2345 / 64);
//! assert_eq!(geo.page_of(r.addr).0, 0x1_2345 / 4096);
//! assert_eq!(topo.cluster_of(r.proc).0, 1);
//! ```

// `deny`, not `forbid`: the `prefetch` module opts back in for the
// prefetch intrinsics alone (see its module docs for the safety story).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cluster_set;
pub mod decoded;
pub mod error;
pub mod fastmap;
pub mod geometry;
pub mod ids;
pub mod op;
pub mod prefetch;

pub use addr::{Addr, BlockAddr, PageAddr};
pub use cluster_set::{ClusterSet, ClusterSetIter};
pub use decoded::DecodedRef;
pub use error::{ConfigError, DsmError, ErrorKind};
pub use fastmap::{DenseMap, FxBuildHasher, FxHashMap, FxHasher};
pub use geometry::{AddrParts, Geometry};
pub use ids::{ClusterId, LocalProcId, ProcId, Topology};
pub use op::{MemOp, MemRef};
pub use prefetch::{prefetch_read, prefetch_slice};
