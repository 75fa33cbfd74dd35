//! The pre-split form of a [`MemRef`](crate::MemRef): every per-reference
//! derivation done once, ahead of replay.

use crate::{BlockAddr, ClusterId, LocalProcId, PageAddr};

/// One shared-memory reference with its address decomposition and issuer
/// split already applied — the unit a columnar replay buffer hands the
/// simulator, so the per-reference hot path does no address arithmetic
/// and, while page homes are static, no page-table lookups.
///
/// A `DecodedRef` carries exactly what the simulator's per-reference
/// body consumes; `System::process` decodes a lone `MemRef` into one,
/// and the batched replay reads them off the trace's columns:
///
/// * [`Topology::split_of`](crate::Topology::split_of) →
///   [`DecodedRef::cluster`] / [`DecodedRef::lproc`];
/// * [`Geometry::decompose`](crate::Geometry::decompose) →
///   [`DecodedRef::block`] / [`DecodedRef::page`];
/// * first-touch page placement → [`DecodedRef::home`] /
///   [`DecodedRef::first_touch`] (the home the page has under pure
///   first-touch placement, i.e. the issuing cluster of the trace's first
///   reference to it — see `SharedTrace` in `dsm-trace`).
///
/// The precomputed home is only valid while page homes are static; a
/// replay under OS migration policies, or on a machine whose pages are
/// already placed, reads homes from its live placement map and ignores
/// both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodedRef {
    /// The issuing processor's cluster.
    pub cluster: ClusterId,
    /// The issuing processor's index within its cluster.
    pub lproc: LocalProcId,
    /// Whether the reference is a store.
    pub write: bool,
    /// Whether this is the trace's first reference to [`DecodedRef::page`]
    /// (the reference that first-touch placement assigns the page on).
    pub first_touch: bool,
    /// The block containing the address.
    pub block: BlockAddr,
    /// The page containing the address.
    pub page: PageAddr,
    /// The page's home cluster under first-touch placement.
    pub home: ClusterId,
}
