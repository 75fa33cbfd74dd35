//! Observation sinks and structured export: where [`Probe`] data goes.
//!
//! * [`StatsSink`] — in-memory aggregation: an [`EventCounts`] table
//!   (events by cluster and kind, the table the phase profiler keeps
//!   too), per-page heat, relocation/threshold timelines, and the
//!   collected [`EpochSample`] series. This is the sink behind
//!   `simulate --stats` and the `reproduce` run reports.
//! * [`JsonlSink`] — streams every event (and epoch) as one JSON object
//!   per line to any `io::Write`, for offline analysis of full traces.
//! * [`json::Json`] — the dependency-free JSON writer both use; also the
//!   serialization target for [`Metrics`], [`ClusterCounts`],
//!   [`EpochSample`] and the bench `Report`.
//!
//! Combine sinks with [`Tee`](crate::probe::Tee) to, say, stream a JSONL
//! log while also aggregating statistics.
//!
//! [`span`] is the wall-clock side of observability: hierarchical timed
//! spans (trace load → sweep point → replay batch) recorded by a
//! thread-safe [`span::SpanTracer`] and exported as chrome://tracing
//! JSON, so a whole `reproduce` run opens in a trace viewer.

pub mod json;
pub mod span;

use std::io::{self, Write};
use std::path::Path;

use dsm_types::{DenseMap, DsmError, PageAddr};

use crate::metrics::{ClusterCounts, Metrics};
use crate::probe::{EpochSample, Event, EventCounts, Probe};

pub use json::Json;

/// Writes `json` to `path` atomically: the document is rendered into a
/// sibling `<name>.tmp` file, flushed and synced, then renamed over the
/// target. A crash mid-write leaves either the old file or the new one —
/// never a truncated half-document.
///
/// Transient failures (`EINTR`-class, injected or real) are retried a
/// bounded number of times with backoff ([`crate::fault::retry_transient`])
/// before surfacing.
///
/// # Errors
///
/// Returns a [`DsmError`] naming the path on any I/O failure; the
/// temporary file is removed on a failed write.
pub fn write_json_atomic(path: &Path, json: &Json) -> Result<(), DsmError> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => {
            return Err(DsmError::bad_input(format!(
                "not a file path: {}",
                path.display()
            )))
        }
    };
    let io_err = |stage: &str, e: io::Error| {
        DsmError::internal(format!("cannot {stage} {}: {e}", path.display()))
    };
    let write = || -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(f, "{}", json.render())?;
        f.flush()?;
        f.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_data()
    };
    if let Err(e) = crate::fault::retry_transient(crate::fault::FaultSite::AtomicWriteIo, write) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err("write", e));
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("replace", e))
}

/// Serializes the full counter set as a JSON object.
#[must_use]
pub fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.fields()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::U64(v)))
            .collect(),
    )
}

/// Serializes one cluster's counters as a JSON object (with the derived
/// remote intensity).
#[must_use]
pub fn cluster_counts_json(c: &ClusterCounts) -> Json {
    let mut j = Json::Obj(
        c.fields()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::U64(v)))
            .collect(),
    );
    j = j.set("remote_intensity", c.remote_intensity());
    j
}

/// Serializes an epoch sample: window bounds, the delta counters, and
/// per-cluster breakdowns.
#[must_use]
pub fn epoch_json(s: &EpochSample) -> Json {
    Json::obj()
        .set("epoch", s.index)
        .set("start_ref", s.start_ref)
        .set("end_ref", s.end_ref)
        .set("delta", metrics_json(&s.delta))
        .set(
            "per_cluster",
            Json::Arr(s.per_cluster.iter().map(cluster_counts_json).collect()),
        )
        .set(
            "thresholds",
            Json::Arr(
                s.thresholds
                    .iter()
                    .map(|&t| Json::U64(u64::from(t)))
                    .collect(),
            ),
        )
}

/// Serializes one event as a flat JSON object: `{"at":..,"ev":..,
/// "cluster":.., ...}` plus the variant's own fields.
#[must_use]
pub fn event_json(at: u64, e: &Event) -> Json {
    let mut j = Json::obj()
        .set("at", at)
        .set("ev", e.kind())
        .set("cluster", u64::from(e.cluster().0));
    match *e {
        Event::CacheHit { write, .. } => j = j.set("write", write),
        Event::LocalUpgrade { block, .. } => j = j.set("block", block.0),
        Event::PeerTransfer { block, write, .. } => {
            j = j.set("block", block.0).set("write", write);
        }
        Event::NcHit {
            block,
            write,
            dirty,
            ..
        } => {
            j = j
                .set("block", block.0)
                .set("write", write)
                .set("dirty", dirty);
        }
        Event::PcHit {
            page, block, write, ..
        } => {
            j = j
                .set("page", page.0)
                .set("block", block.0)
                .set("write", write);
        }
        Event::LocalMiss { block, .. } => j = j.set("block", block.0),
        Event::RemoteRead {
            block, capacity, ..
        }
        | Event::RemoteWrite {
            block, capacity, ..
        } => {
            j = j.set("block", block.0).set("capacity", capacity);
        }
        Event::OwnershipRequest { block, .. } => j = j.set("block", block.0),
        Event::Invalidation { block, copies, .. } => {
            j = j.set("block", block.0).set("copies", copies);
        }
        Event::RemoteWriteback { block, .. } => j = j.set("block", block.0),
        Event::AbsorbedDowngrade { block, .. } => j = j.set("block", block.0),
        Event::NcCapture {
            block, dirty, set, ..
        } => {
            j = j.set("block", block.0).set("dirty", dirty);
            if let Some(s) = set {
                j = j.set("set", s);
            }
        }
        Event::ForcedEviction { block, .. } => j = j.set("block", block.0),
        Event::Relocation { page, .. } => j = j.set("page", page.0),
        Event::PageEviction {
            page,
            dirty_blocks,
            hits,
            ..
        } => {
            j = j
                .set("page", page.0)
                .set("dirty_blocks", dirty_blocks)
                .set("hits", hits);
        }
        Event::ThresholdAdapted { threshold, .. } => j = j.set("threshold", threshold),
        Event::Migration { page, .. }
        | Event::Replication { page, .. }
        | Event::ReplicaCollapse { page, .. } => j = j.set("page", page.0),
    }
    j
}

/// An aggregating probe: histograms and timelines instead of a raw log.
///
/// Everything is keyed so the profiling views fall out directly:
/// [`StatsSink::counts`] for events by kind and per-cluster load,
/// `top_pages` for the hottest remote pages, `relocations`/
/// `threshold_changes` for Fig-6-style dynamics, and the full epoch series
/// for time-resolved figures-of-merit.
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    counts: EventCounts,
    /// Remote-service heat per page: PC hits on the page plus its
    /// relocations (each weighted once).
    page_heat: DenseMap<u64>,
    /// `(at, cluster, page)` for every relocation, in trace order.
    relocations: Vec<(u64, u16, u64)>,
    /// `(at, cluster, new_threshold)` for every adaptive adjustment.
    threshold_changes: Vec<(u64, u16, u32)>,
    epochs: Vec<EpochSample>,
}

impl StatsSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// The events observed, by cluster and kind.
    #[must_use]
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// The `k` hottest pages by remote service count, descending.
    #[must_use]
    pub fn top_pages(&self, k: usize) -> Vec<(PageAddr, u64)> {
        let mut v: Vec<_> = self
            .page_heat
            .iter()
            .map(|(p, &n)| (PageAddr(p), n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v.truncate(k);
        v
    }

    /// Every relocation as `(at, cluster, page)`, in trace order.
    #[must_use]
    pub fn relocation_timeline(&self) -> &[(u64, u16, u64)] {
        &self.relocations
    }

    /// Every adaptive-threshold adjustment as `(at, cluster, threshold)`.
    #[must_use]
    pub fn threshold_timeline(&self) -> &[(u64, u16, u32)] {
        &self.threshold_changes
    }

    /// The collected epoch series.
    #[must_use]
    pub fn epochs(&self) -> &[EpochSample] {
        &self.epochs
    }

    /// Merges all epoch deltas back into one aggregate — equals the run's
    /// final [`Metrics`] when every epoch was flushed (the invariant the
    /// integration tests assert).
    #[must_use]
    pub fn epoch_total(&self) -> Metrics {
        let mut total = Metrics::new();
        for e in &self.epochs {
            total.merge(&e.delta);
        }
        total
    }

    /// Per-cluster sums across all epochs.
    #[must_use]
    pub fn epoch_cluster_totals(&self) -> Vec<ClusterCounts> {
        let clusters = self.epochs.first().map_or(0, |e| e.per_cluster.len());
        let mut totals = vec![ClusterCounts::default(); clusters];
        for e in &self.epochs {
            for (t, d) in totals.iter_mut().zip(&e.per_cluster) {
                t.merge(d);
            }
        }
        totals
    }

    /// The whole sink as a JSON object (the `"observed"` section of run
    /// reports): per-kind counts, per-cluster event totals, top pages,
    /// relocation/threshold timelines, and the epoch series.
    #[must_use]
    pub fn to_json(&self, top_k: usize) -> Json {
        Json::obj()
            .set("events", self.counts.total())
            .set(
                "by_kind",
                Json::Obj(
                    self.counts
                        .kind_counts()
                        .into_iter()
                        .map(|(k, n)| (k.to_owned(), Json::U64(n)))
                        .collect(),
                ),
            )
            .set(
                "per_cluster_events",
                Json::Arr(
                    self.counts
                        .cluster_totals()
                        .into_iter()
                        .map(Json::U64)
                        .collect(),
                ),
            )
            .set(
                "top_pages",
                Json::Arr(
                    self.top_pages(top_k)
                        .into_iter()
                        .map(|(p, n)| Json::obj().set("page", p.0).set("heat", n))
                        .collect(),
                ),
            )
            .set(
                "relocation_timeline",
                Json::Arr(
                    self.relocations
                        .iter()
                        .map(|&(at, cl, page)| {
                            Json::obj()
                                .set("at", at)
                                .set("cluster", u64::from(cl))
                                .set("page", page)
                        })
                        .collect(),
                ),
            )
            .set(
                "threshold_timeline",
                Json::Arr(
                    self.threshold_changes
                        .iter()
                        .map(|&(at, cl, t)| {
                            Json::obj()
                                .set("at", at)
                                .set("cluster", u64::from(cl))
                                .set("threshold", t)
                        })
                        .collect(),
                ),
            )
            .set(
                "epochs",
                Json::Arr(self.epochs.iter().map(epoch_json).collect()),
            )
    }
}

impl Probe for StatsSink {
    fn event(&mut self, at: u64, event: &Event) {
        self.counts.record(event);
        match *event {
            Event::PcHit { page, .. } | Event::Relocation { page, .. } => {
                *self.page_heat.entry_or_default(page.0) += 1;
            }
            _ => {}
        }
        if let Event::Relocation { cluster, page } = *event {
            self.relocations.push((at, cluster.0, page.0));
        }
        if let Event::ThresholdAdapted { cluster, threshold } = *event {
            self.threshold_changes.push((at, cluster.0, threshold));
        }
    }

    fn epoch(&mut self, sample: &EpochSample) {
        self.epochs.push(sample.clone());
    }
}

/// A streaming probe: one JSON object per line per event (and per epoch)
/// into any writer. Errors are sticky — the first I/O failure stops
/// writing and is reported by [`JsonlSink::finish`].
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `out` (consider a `BufWriter`: traces emit millions of
    /// events).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            error: None,
            lines: 0,
        }
    }

    /// Lines successfully written.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first write/flush error encountered.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, j: &Json) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.out, "{}", j.render()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    fn event(&mut self, at: u64, event: &Event) {
        let j = event_json(at, event);
        self.write_line(&j);
    }

    fn epoch(&mut self, sample: &EpochSample) {
        let j = epoch_json(sample).set("ev", "epoch");
        self.write_line(&j);
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_types::{BlockAddr, ClusterId};

    #[test]
    fn atomic_write_absorbs_transient_injections() {
        let _guard = crate::fault::test_lock();
        let path = std::env::temp_dir().join(format!(
            "dsm-obs-atomic-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        // Two injected EINTRs fit inside the three-attempt budget.
        crate::fault::install(Some(
            crate::fault::FaultPlan::from_spec("atomic-write-io:2").unwrap(),
        ));
        let out = write_json_atomic(&path, &Json::U64(1));
        crate::fault::install(None);
        out.unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n");
        // Three injections exhaust it: a structured internal error, and
        // the old file must survive untouched (no torn write).
        crate::fault::install(Some(
            crate::fault::FaultPlan::from_spec("atomic-write-io:3").unwrap(),
        ));
        let out = write_json_atomic(&path, &Json::U64(2));
        crate::fault::install(None);
        let err = out.unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_sink_aggregates() {
        let mut s = StatsSink::new();
        s.event(
            1,
            &Event::PcHit {
                cluster: ClusterId(1),
                page: PageAddr(7),
                block: BlockAddr(448),
                write: false,
            },
        );
        s.event(
            2,
            &Event::PcHit {
                cluster: ClusterId(1),
                page: PageAddr(7),
                block: BlockAddr(449),
                write: true,
            },
        );
        s.event(
            3,
            &Event::Relocation {
                cluster: ClusterId(2),
                page: PageAddr(9),
            },
        );
        assert_eq!(s.counts().total(), 3);
        assert_eq!(s.counts().kind_counts(), [("pc_hit", 2), ("relocation", 1)]);
        assert_eq!(s.counts().cluster_totals(), [0, 2, 1]);
        assert_eq!(s.top_pages(1), vec![(PageAddr(7), 2)]);
        assert_eq!(s.relocation_timeline(), &[(3, 2, 9)]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(
            5,
            &Event::RemoteRead {
                cluster: ClusterId(3),
                block: BlockAddr(64),
                capacity: true,
            },
        );
        let bytes = sink.finish().unwrap();
        let line = String::from_utf8(bytes).unwrap();
        assert_eq!(
            line,
            "{\"at\":5,\"ev\":\"remote_read\",\"cluster\":3,\"block\":64,\"capacity\":true}\n"
        );
    }

    #[test]
    fn epoch_total_merges_deltas() {
        let mut s = StatsSink::new();
        let mut d1 = Metrics::new();
        d1.shared_refs = 10;
        d1.reads = 6;
        let mut d2 = Metrics::new();
        d2.shared_refs = 5;
        d2.writes = 5;
        for (i, d) in [d1, d2].into_iter().enumerate() {
            s.epoch(&EpochSample {
                index: i as u64,
                start_ref: 0,
                end_ref: 0,
                delta: d,
                per_cluster: vec![ClusterCounts {
                    refs: 1,
                    ..ClusterCounts::default()
                }],
                thresholds: vec![32],
            });
        }
        let total = s.epoch_total();
        assert_eq!(total.shared_refs, 15);
        assert_eq!(total.reads, 6);
        assert_eq!(total.writes, 5);
        assert_eq!(s.epoch_cluster_totals()[0].refs, 2);
    }
}
