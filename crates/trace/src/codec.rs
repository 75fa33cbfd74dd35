//! A compact binary on-disk format for reference traces.
//!
//! Trace-driven methodology separates *tracing* from *simulation*: the
//! paper's authors traced SPARC binaries once and replayed the traces
//! against every system configuration. This codec provides the same
//! workflow — generate once with the `tracegen` binary, replay many times
//! with `simulate` — and makes traces portable between machines.
//!
//! # Format (`DSMT`)
//!
//! All integers little-endian. The format is columnar, mirroring
//! [`SharedTrace`]'s struct-of-arrays layout:
//!
//! ```text
//! magic        4 bytes  "DSMT"
//! version      u16      2
//! clusters     u16
//! procs/cl     u16
//! block bytes  u64      geometry the trace was generated under
//! page bytes   u64
//! refs         u64      reference count
//! proc column  refs x u16
//! op bitmap    ceil(refs / 8) bytes, bit i set = reference i is a write
//! addr column  refs x u64
//! ```
//!
//! Version 2 is the only version: a file with any other version number
//! (including the retired row-oriented version 1) is rejected as
//! `unsupported version`. There is one parser, [`shared_from_mapping`]:
//! [`open_shared_mapped`] feeds it a file mapping and [`read_shared`]
//! the bytes it read, and in both cases the trace's address column
//! borrows from those bytes.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use dsm_types::{ConfigError, DsmError, Geometry, Topology};

use crate::mmap::Mapping;
use crate::shared::{derive_columns, AddrColumn, DeriveError, SharedTrace, OP_BIT, PROC_MASK};

const MAGIC: &[u8; 4] = b"DSMT";
const VERSION: u16 = 2;

/// Errors produced while reading a trace file.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a trace file, or an unsupported version.
    Format(String),
    /// The header's topology or geometry is invalid.
    Config(ConfigError),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Format(m) => write!(f, "malformed trace: {m}"),
            CodecError::Config(e) => write!(f, "invalid configuration in trace: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::Config(e) => Some(e),
            CodecError::Format(_) => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl From<CodecError> for DsmError {
    /// Classifies codec failures for exit codes: malformed bytes, invalid
    /// header configuration, and truncation (`UnexpectedEof`) are the
    /// input's fault; any other I/O failure (permissions, disk) is
    /// environmental and therefore internal.
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                DsmError::bad_input(format!("truncated trace: {io}"))
            }
            CodecError::Io(io) => DsmError::internal(format!("i/o error: {io}")),
            CodecError::Format(m) => DsmError::bad_input(format!("malformed trace: {m}")),
            CodecError::Config(c) => {
                DsmError::bad_input(format!("invalid configuration in trace: {c}"))
            }
        }
    }
}

/// References per buffered write of [`write_shared`]: 64 KiB of
/// addresses (a multiple of 8, so only the last chunk of the op bitmap
/// ends in a partial byte).
const CHUNK: usize = 8 * 1024;

/// Writes `trace` to `w` in the `DSMT` columnar format, preserving the
/// topology and geometry it was decomposed under. Each file column is
/// encoded straight from the stored column it mirrors, 8192 references
/// at a time; a mapped trace's address column is written from its file
/// window in one piece.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_shared<W: Write>(mut w: W, trace: &SharedTrace) -> Result<(), CodecError> {
    let topo = trace.topology();
    let geo = trace.geometry();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&topo.clusters().to_le_bytes())?;
    w.write_all(&topo.procs_per_cluster().to_le_bytes())?;
    w.write_all(&geo.block_bytes().to_le_bytes())?;
    w.write_all(&geo.page_bytes().to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let (proc_op, wide_proc, addr) = trace.columns();
    let mut buf = vec![0u8; CHUNK * 8];
    // Processor column: the packed byte's id bits, or the wide column.
    if wide_proc.is_empty() {
        for refs in proc_op.chunks(CHUNK) {
            let out = &mut buf[..refs.len() * 2];
            for (o, &packed) in out.chunks_exact_mut(2).zip(refs) {
                o.copy_from_slice(&u16::from(packed & PROC_MASK).to_le_bytes());
            }
            w.write_all(out)?;
        }
    } else {
        for procs in wide_proc.chunks(CHUNK) {
            let out = &mut buf[..procs.len() * 2];
            for (o, &p) in out.chunks_exact_mut(2).zip(procs) {
                o.copy_from_slice(&p.to_le_bytes());
            }
            w.write_all(out)?;
        }
    }
    // Op bitmap: the packed bytes' write bits, eight references a byte.
    for refs in proc_op.chunks(CHUNK) {
        let out = &mut buf[..refs.len().div_ceil(8)];
        for (o, eight) in out.iter_mut().zip(refs.chunks(8)) {
            *o = eight.iter().enumerate().fold(0, |bits, (k, &packed)| {
                bits | u8::from(packed & OP_BIT != 0) << k
            });
        }
        w.write_all(out)?;
    }
    // Address column.
    match addr {
        AddrColumn::Owned(addrs) => {
            for chunk in addrs.chunks(CHUNK) {
                let out = &mut buf[..chunk.len() * 8];
                for (o, &a) in out.chunks_exact_mut(8).zip(chunk) {
                    o.copy_from_slice(&a.to_le_bytes());
                }
                w.write_all(out)?;
            }
        }
        AddrColumn::Mapped { map, offset, count } => {
            w.write_all(&map.bytes()[*offset..*offset + count * 8])?;
        }
    }
    w.flush()?;
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], CodecError> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Parses a `DSMT` header: the topology, geometry and reference count
/// preceding the columns.
fn read_header<R: Read>(r: &mut R) -> Result<(Topology, Geometry, usize), CodecError> {
    let magic = read_exact::<_, 4>(r)?;
    if &magic != MAGIC {
        return Err(CodecError::Format(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = u16::from_le_bytes(read_exact::<_, 2>(r)?);
    if version != VERSION {
        return Err(CodecError::Format(format!("unsupported version {version}")));
    }
    let clusters = u16::from_le_bytes(read_exact::<_, 2>(r)?);
    let procs = u16::from_le_bytes(read_exact::<_, 2>(r)?);
    let topo = Topology::new(clusters, procs).map_err(CodecError::Config)?;
    let block = u64::from_le_bytes(read_exact::<_, 8>(r)?);
    let page = u64::from_le_bytes(read_exact::<_, 8>(r)?);
    let geo = Geometry::new(block, page).map_err(CodecError::Config)?;
    let count = u64::from_le_bytes(read_exact::<_, 8>(r)?);
    let count = usize::try_from(count)
        .map_err(|_| CodecError::Format("trace too large for this platform".into()))?;
    Ok((topo, geo, count))
}

/// Reads a `DSMT` trace from `r` into the columnar [`SharedTrace`]
/// replay form: the bytes are read into memory and parsed by
/// [`shared_from_mapping`], the parser [`open_shared_mapped`] uses, so
/// the address column borrows from the bytes read.
///
/// # Errors
///
/// Returns [`CodecError`] on I/O failure, bad magic or an unsupported
/// version, an invalid topology or geometry, a file shorter
/// (`UnexpectedEof`) or longer than its header promises, a reference
/// naming a processor outside the topology, or a topology beyond
/// [`SharedTrace`]'s 256-cluster column width.
pub fn read_shared<R: Read>(mut r: R) -> Result<SharedTrace, CodecError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    shared_from_mapping(Arc::new(Mapping::from_vec(bytes)))
}

/// Maps `path` and parses it into a [`SharedTrace`] whose address column
/// borrows straight from the mapping — [`read_shared`] without the copy.
/// Loading cost is independent of trace size, and every process (or
/// sweep worker) mapping the same file shares one set of physical pages.
///
/// On platforms without the raw `mmap` path (or under `DSM_NO_MMAP=1`)
/// the mapping degrades to an owned read; the parse and the resulting
/// trace bytes are identical either way.
///
/// # Errors
///
/// As [`read_shared`]; a file shorter than its header promises is
/// reported as truncation (`UnexpectedEof`, exit code 3 at the CLI), a
/// longer one as trailing bytes.
pub fn open_shared_mapped(path: &Path) -> Result<SharedTrace, CodecError> {
    let map = Mapping::open(path)?;
    // A file that shrank between open and map (or a mapping whose backing
    // file was truncated by a concurrent writer) would SIGBUS on first
    // touch; fstat it again so the race becomes a clean decode error.
    map.revalidate()?;
    shared_from_mapping(Arc::new(map))
}

/// Parses the bytes of a trace file held by `map` into a
/// [`SharedTrace`] whose address column borrows from them — the one
/// `DSMT` parser, behind both [`open_shared_mapped`] and
/// [`read_shared`].
///
/// # Errors
///
/// As [`open_shared_mapped`].
pub fn shared_from_mapping(map: Arc<Mapping>) -> Result<SharedTrace, CodecError> {
    let bytes = map.bytes();
    let mut cursor = bytes;
    let (topo, geo, count) = read_header(&mut cursor)?;
    let header_len = bytes.len() - cursor.len();
    // Column extents, overflow-checked: a hostile header can claim
    // usize::MAX references.
    let (proc_bytes, addr_bytes) = match (count.checked_mul(2), count.checked_mul(8)) {
        (Some(p), Some(a)) => (p, a),
        _ => {
            return Err(CodecError::Format(
                "trace too large for this platform".into(),
            ))
        }
    };
    let op_off = header_len + proc_bytes;
    let addr_off = op_off + count.div_ceil(8);
    let total = match addr_off.checked_add(addr_bytes) {
        Some(t) => t,
        None => {
            return Err(CodecError::Format(
                "trace too large for this platform".into(),
            ))
        }
    };
    if bytes.len() < total {
        return Err(CodecError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "file is {} bytes but the header promises {total}",
                bytes.len()
            ),
        )));
    }
    if bytes.len() > total {
        return Err(CodecError::Format("trailing bytes after trace".into()));
    }
    let ops = &bytes[op_off..addr_off];
    let procs = bytes[header_len..op_off]
        .chunks_exact(2)
        .map(|p| u16::from_le_bytes([p[0], p[1]]));
    let writes = (0..count).map(|i| ops[i / 8] & (1 << (i % 8)) != 0);
    let addrs = bytes[addr_off..total].chunks_exact(8).map(|a| {
        let mut b = [0u8; 8];
        b.copy_from_slice(a);
        u64::from_le_bytes(b)
    });
    let refs = procs.zip(writes).zip(addrs).map(|((p, w), a)| (p, w, a));
    let derived = derive_columns(&topo, &geo, refs).map_err(|e| match e {
        DeriveError::TooManyClusters(c) => CodecError::Config(ConfigError::new(format!(
            "SharedTrace cluster columns are one byte: {c} clusters exceed 256"
        ))),
        DeriveError::BadProc { index, proc } => CodecError::Format(format!(
            "record {index}: processor {proc} outside topology {topo}"
        )),
    })?;
    let addr = AddrColumn::Mapped {
        map: Arc::clone(&map),
        offset: addr_off,
        count,
    };
    Ok(SharedTrace::from_parts(topo, geo, addr, derived))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_types::{Addr, MemRef, ProcId};

    fn sample() -> (Topology, Vec<MemRef>) {
        let topo = Topology::new(2, 2).unwrap();
        let trace = vec![
            MemRef::read(ProcId(0), Addr(0x40)),
            MemRef::write(ProcId(3), Addr(0xdead_beef)),
            MemRef::read(ProcId(2), Addr(u64::MAX)),
        ];
        (topo, trace)
    }

    fn sample_shared() -> SharedTrace {
        let (topo, trace) = sample();
        SharedTrace::from_refs(topo, Geometry::paper_default(), &trace)
    }

    fn refs_of(trace: &SharedTrace) -> Vec<MemRef> {
        (0..trace.len()).map(|i| trace.get(i)).collect()
    }

    #[test]
    fn v2_roundtrip() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.topology(), shared.topology());
        assert_eq!(back.geometry(), shared.geometry());
        assert_eq!(refs_of(&back), sample().1);
    }

    #[test]
    fn v2_preserves_nondefault_geometry() {
        let (topo, trace) = sample();
        let geo = Geometry::new(128, 8192).unwrap();
        let shared = SharedTrace::from_refs(topo, geo, &trace);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.geometry(), &geo);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let topo = Topology::paper_default();
        let shared = SharedTrace::from_refs(topo, Geometry::paper_default(), &[]);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        assert!(read_shared(bytes.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn v2_layout_is_columnar() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let n = shared.len();
        // header + proc column + op bitmap + addr column
        assert_eq!(
            bytes.len(),
            (4 + 2 + 2 + 2 + 8 + 8 + 8) + n * 2 + n.div_ceil(8) + n * 8
        );
        assert_eq!(&bytes[4..6], &2u16.to_le_bytes());
        // op bitmap: only reference 1 is a write.
        assert_eq!(bytes[34 + n * 2], 0b010);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_shared(&b"NOPE\x02\x00"[..]).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &sample_shared()).unwrap();
        bytes[4] = 9;
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Format(_)
        ));
        // The retired row-oriented version 1: an 18-byte header (1x1
        // topology, no geometry, 0 references) is refused, not parsed.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"DSMT");
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(v1.len(), 18);
        for err in [read_shared(v1.as_slice()), mapped_from(v1)].map(Result::unwrap_err) {
            assert!(err.to_string().contains("unsupported version 1"), "{err}");
            let err: DsmError = err.into();
            assert_eq!(err.kind(), dsm_types::ErrorKind::BadInput);
        }
    }

    #[test]
    fn rejects_truncated_v2_columns() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Io(_)
        ));
    }

    #[test]
    fn rejects_out_of_range_processor_v2() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DSMT");
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes()); // 1 cluster
        bytes.extend_from_slice(&1u16.to_le_bytes()); // 1 proc
        bytes.extend_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&7u16.to_le_bytes()); // proc column: proc 7
        bytes.push(0); // op bitmap
        bytes.extend_from_slice(&0u64.to_le_bytes()); // addr column
        let err = read_shared(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &sample_shared()).unwrap();
        bytes.push(0);
        let err = read_shared(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_bad_geometry_v2() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DSMT");
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&63u64.to_le_bytes()); // not a power of two
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Config(_)
        ));
    }

    #[test]
    fn codec_errors_classify_into_dsm_errors() {
        use dsm_types::ErrorKind;
        let truncated: DsmError =
            CodecError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")).into();
        assert_eq!(truncated.kind(), ErrorKind::BadInput);
        let denied: DsmError =
            CodecError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "no")).into();
        assert_eq!(denied.kind(), ErrorKind::Internal);
        let malformed: DsmError = CodecError::Format("bad magic".into()).into();
        assert_eq!(malformed.kind(), ErrorKind::BadInput);
        assert!(malformed.to_string().contains("bad magic"));
        let config: DsmError = CodecError::Config(ConfigError::new("zero clusters")).into();
        assert_eq!(config.kind(), ErrorKind::BadInput);
    }

    /// A deterministic pseudo-random reference stream (xorshift) for the
    /// mapped-vs-owned equivalence checks.
    fn random_refs(seed: u64, n: usize) -> Vec<MemRef> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let proc = ProcId((x % 32) as u16);
                let addr = Addr((x >> 8) % (1 << 30));
                if x.is_multiple_of(4) {
                    MemRef::write(proc, addr)
                } else {
                    MemRef::read(proc, addr)
                }
            })
            .collect()
    }

    fn mapped_from(bytes: Vec<u8>) -> Result<SharedTrace, CodecError> {
        shared_from_mapping(Arc::new(Mapping::from_vec(bytes)))
    }

    #[test]
    fn mapped_parse_matches_owned_parse_on_random_traces() {
        use dsm_types::DecodedRef;
        for seed in [3, 17, 0xDEAD] {
            let refs = random_refs(seed, 777);
            let owned =
                SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
            let mut bytes = Vec::new();
            write_shared(&mut bytes, &owned).unwrap();
            let mapped = mapped_from(bytes).unwrap();
            // The address column borrows from the buffer: only the three
            // derived bytes per reference are column heap.
            assert_eq!(mapped.column_bytes(), 3 * mapped.len());
            assert_eq!(mapped.topology(), owned.topology());
            assert_eq!(mapped.geometry(), owned.geometry());
            assert_eq!(mapped.len(), owned.len());
            let mut a = [DecodedRef::default(); crate::BATCH];
            let mut b = [DecodedRef::default(); crate::BATCH];
            let mut start = 0;
            loop {
                let n = owned.decode_batch(start, &mut a);
                assert_eq!(mapped.decode_batch(start, &mut b), n);
                if n == 0 {
                    break;
                }
                assert_eq!(a[..n], b[..n], "batch at {start}, seed {seed}");
                start += n;
            }
        }
    }

    #[test]
    fn open_shared_mapped_reads_files_zero_copy() {
        let refs = random_refs(42, 300);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("dsm-codec-mmap-{}.dsmt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = open_shared_mapped(&path).unwrap();
        assert_eq!(refs_of(&mapped), refs);
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(mapped.is_mapped());
        // The mapping outlives the directory entry: replay after unlink.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(mapped.get(0), refs[0]);
    }

    #[test]
    fn mapped_parse_rejects_truncation_as_eof() {
        let refs = random_refs(7, 100);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        // Torn anywhere — mid-header, mid-proc-column, mid-addr-column —
        // must be a clean UnexpectedEof (exit code 3), never a panic.
        for keep in [3, 20, 34, 34 + 50, bytes.len() - 1] {
            let torn = bytes[..keep].to_vec();
            let err = mapped_from(torn).unwrap_err();
            match err {
                CodecError::Io(io) => assert_eq!(io.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("keep={keep}: expected Io(UnexpectedEof), got {other}"),
            }
        }
        let err: DsmError = mapped_from(bytes[..40].to_vec()).unwrap_err().into();
        assert_eq!(err.kind(), dsm_types::ErrorKind::BadInput);
    }

    #[test]
    fn mapped_parse_rejects_trailing_and_bad_records() {
        let refs = random_refs(9, 50);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = mapped_from(trailing).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // Corrupt the proc column: processor 999 is outside the topology.
        let mut bad = bytes.clone();
        bad[34..36].copy_from_slice(&999u16.to_le_bytes());
        let err = mapped_from(bad).unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn concurrent_readers_share_one_mapping() {
        use dsm_types::DecodedRef;
        let refs = random_refs(11, 500);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mapped = mapped_from(bytes).unwrap();
        // Clones share the Arc'd mapping — the sweep-worker sharing shape.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let trace = mapped.clone();
                let want = &refs;
                s.spawn(move || {
                    let mut out = [DecodedRef::default(); crate::BATCH];
                    let mut start = 0;
                    loop {
                        let n = trace.decode_batch(start, &mut out);
                        if n == 0 {
                            break;
                        }
                        for (k, d) in out[..n].iter().enumerate() {
                            let r = want[start + k];
                            assert_eq!(d.write, r.op.is_write());
                            assert_eq!(d.block, Geometry::paper_default().block_of(r.addr));
                        }
                        start += n;
                    }
                    assert_eq!(start, want.len());
                });
            }
        });
    }

    /// Every reference's decoded `(home, first touch)`.
    fn homes_of(trace: &SharedTrace) -> Vec<(u16, bool)> {
        use dsm_types::DecodedRef;
        let mut out = Vec::new();
        let mut batch = [DecodedRef::default(); crate::BATCH];
        let mut start = 0;
        loop {
            let n = trace.decode_batch(start, &mut batch);
            if n == 0 {
                return out;
            }
            out.extend(batch[..n].iter().map(|d| (d.home.0, d.first_touch)));
            start += n;
        }
    }

    #[test]
    fn first_touch_homes_straddle_the_flat_table_cap() {
        // Small page numbers interleaved with pages around the flat
        // table's 2^20-page cap and near the top of the address space:
        // both page stores must assign exactly the homes a naive
        // first-touch map does, through the in-memory builder and the
        // file parser alike.
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let top = u64::MAX >> 12;
        let pages = [0, top, 1, (1 << 20) - 1, 1 << 20, top - 1, (1 << 20) + 1, 5];
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let refs: Vec<MemRef> = (0..4000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = pages[(x % 8) as usize];
                let addr = Addr((page << 12) | ((x >> 20) % 4096));
                let proc = ProcId(((x >> 40) % 32) as u16);
                if i % 3 == 0 {
                    MemRef::write(proc, addr)
                } else {
                    MemRef::read(proc, addr)
                }
            })
            .collect();
        let mut naive = std::collections::HashMap::new();
        let want: Vec<(u16, bool)> = refs
            .iter()
            .map(|r| {
                let cluster = topo.split_of(r.proc).0 .0;
                let mut first = false;
                let home = *naive.entry(r.addr.0 >> 12).or_insert_with(|| {
                    first = true;
                    cluster
                });
                (home, first)
            })
            .collect();
        assert_eq!(naive.len(), pages.len());
        let owned = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(homes_of(&owned), want);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mapped = mapped_from(bytes).unwrap();
        assert_eq!(homes_of(&mapped), want);
        assert_eq!(refs_of(&mapped), refs);
    }

    #[test]
    fn mapped_trace_rewrites_its_file_byte_for_byte() {
        for n in [0, 1, 7, 8, 9, 10_007] {
            let refs = random_refs(n as u64 + 1, n);
            let owned =
                SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
            let mut bytes = Vec::new();
            write_shared(&mut bytes, &owned).unwrap();
            let mapped = mapped_from(bytes.clone()).unwrap();
            let mut again = Vec::new();
            write_shared(&mut again, &mapped).unwrap();
            assert!(again == bytes, "{n} references: rewritten file differs");
        }
    }

    #[test]
    fn wide_processor_traces_roundtrip() {
        // 32 clusters x 4 processors = 128 > 64: the processor column is
        // encoded from the wide side column, not the packed byte.
        let topo = Topology::new(32, 4).unwrap();
        let refs: Vec<MemRef> = random_refs(5, 3001)
            .into_iter()
            .enumerate()
            .map(|(i, r)| MemRef::new(ProcId((i * 37 % 128) as u16), r.op, r.addr))
            .collect();
        let owned = SharedTrace::from_refs(topo, Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let n = refs.len();
        for (i, r) in refs.iter().enumerate() {
            let at = 34 + 2 * i;
            assert_eq!(bytes[at..at + 2], r.proc.0.to_le_bytes(), "proc {i}");
            assert_eq!(
                bytes[34 + 2 * n + i / 8] >> (i % 8) & 1 == 1,
                r.op.is_write()
            );
        }
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.topology(), &topo);
        assert_eq!(refs_of(&back), refs);
        assert_eq!(homes_of(&back), homes_of(&owned));
        let mut again = Vec::new();
        write_shared(&mut again, &back).unwrap();
        assert!(again == bytes, "rewritten wide trace differs");
    }

    #[test]
    fn large_trace_roundtrips_through_buffering() {
        // Exercise the writer's 64-KiB internal buffer boundary.
        let topo = Topology::paper_default();
        let trace: Vec<MemRef> = (0..10_000u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemRef::write(ProcId((i % 32) as u16), Addr(i * 64))
                } else {
                    MemRef::read(ProcId((i % 32) as u16), Addr(i * 64))
                }
            })
            .collect();
        let shared = SharedTrace::from_refs(topo, Geometry::paper_default(), &trace);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(refs_of(&back), trace);
    }
}
