//! Dependency-free read-only file mappings for zero-copy trace loading.
//!
//! The v2 trace codec is column-major, so a mapped trace file *is* the
//! columnar replay buffer: `SharedTrace` can borrow its address column
//! straight from the mapping instead of copying multi-gigabyte traces
//! through `read`. Sweep workers cloning a mapped trace share the same
//! physical pages read-only, and start-up cost drops to a page-table
//! update regardless of trace size.
//!
//! The workspace is dependency-free, so there is no `libc` to call. On
//! Linux x86-64 and AArch64 [`Mapping::open`] issues the `mmap`/`munmap`
//! syscalls directly with inline assembly; everywhere else (and under
//! the `DSM_NO_MMAP=1` escape hatch) it falls back to reading the file
//! into an owned buffer, so callers never need platform `cfg`s — only
//! the sharing/startup benefits differ, never the bytes observed.
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate is otherwise `deny(unsafe_code)`). The invariants are local:
//! a successful `mmap(PROT_READ, MAP_PRIVATE)` of `len` bytes yields
//! exactly `len` readable bytes that stay valid until the matching
//! `munmap` in [`Drop`]; the struct owns the region exclusively and
//! never hands out `&mut`. Truncating the file *after* mapping could
//! fault a reader (SIGBUS) — the simulator never rewrites trace files
//! it is replaying, and the CLI surface documents the same contract.
#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only byte buffer backed either by a kernel file mapping or by
/// an owned in-memory copy — the storage behind mapped [`SharedTrace`]s.
///
/// [`SharedTrace`]: crate::SharedTrace
pub struct Mapping {
    ptr: *const u8,
    len: usize,
    backing: Backing,
    /// The mapped file, retained so [`Mapping::revalidate`] can fstat it
    /// long after open. `None` for owned backings (nothing to
    /// revalidate — the bytes are copied).
    file: Option<File>,
}

enum Backing {
    /// `ptr` came from `mmap`; `Drop` must `munmap` it.
    Kernel,
    /// `ptr` points into the vector (kept alive here). Covers platforms
    /// without the raw syscall path, `DSM_NO_MMAP=1`, and empty files.
    Owned(#[allow(dead_code)] Vec<u8>),
}

// SAFETY: the region is immutable for the life of the value (PROT_READ,
// or an owned buffer nothing else can reach), so shared references may
// cross threads freely — exactly how sweep workers share one trace.
unsafe impl Send for Mapping {}
// SAFETY: as above; `&Mapping` only ever yields `&[u8]`.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only, falling back to an owned read of the whole
    /// file on platforms without the raw syscall path or when the
    /// `DSM_NO_MMAP=1` environment override is set.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened,
    /// sized, mapped, or (on the fallback path) read.
    pub fn open(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::other("file too large to map on this platform"))?;
        if len == 0 || no_mmap_override() {
            drop(file);
            return Ok(Mapping::from_vec(std::fs::read(path)?));
        }
        sys::map_file(file, len)
    }

    /// Wraps an owned buffer in the `Mapping` interface — the storage the
    /// platform fallback produces, and what tests use to exercise the
    /// owned arm without touching the filesystem.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Mapping {
        Mapping {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
            backing: Backing::Owned(bytes),
            file: None,
        }
    }

    /// Re-checks (fstat) that the mapped file still covers the mapped
    /// length. Reading pages of a file that shrank after mapping faults
    /// the process (SIGBUS), so callers revalidate at parse time and
    /// again before each replay of the trace, turning a concurrent
    /// truncation into a clean error instead of a crash.
    /// Owned backings hold a private copy and always pass. The window
    /// between this check and the read is irreducible without copying;
    /// the check catches the realistic failure (the file was rewritten
    /// between spill and replay) deterministically.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be fstat'ed or is now
    /// shorter than the mapped length (also injected under a
    /// `mmap-truncate` [`dsm_types::fault::FaultPlan`]).
    pub fn revalidate(&self) -> io::Result<()> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        if dsm_types::fault::active().is_some_and(|p| p.site == dsm_types::FaultSite::MmapTruncate)
        {
            return Err(io::Error::other(
                "injected fault: mapped trace file reported truncated (mmap-truncate)",
            ));
        }
        let now = file.metadata()?.len();
        if now < self.len as u64 {
            return Err(io::Error::other(format!(
                "mapped trace file shrank to {now} bytes ({} were mapped); \
                 refusing to replay a truncated mapping",
                self.len
            )));
        }
        Ok(())
    }

    /// The mapped (or owned) bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` points to `len` readable bytes for the life of
        // `self` (see the module docs), and the region is immutable.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when backed by kernel file pages (zero-copy), `false` on
    /// the owned fallback.
    #[must_use]
    pub fn is_kernel_mapped(&self) -> bool {
        matches!(self.backing, Backing::Kernel)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if let Backing::Kernel = self.backing {
            // SAFETY: `ptr`/`len` are exactly what mmap returned, unmapped
            // once (Drop runs once); failure leaks the region, harmlessly.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len)
            .field("kernel_mapped", &self.is_kernel_mapped())
            .finish()
    }
}

/// Whether `DSM_NO_MMAP=1` (or any non-empty value but `0`) disables the
/// syscall path — useful for A/B-ing storage modes on one platform.
fn no_mmap_override() -> bool {
    matches!(std::env::var("DSM_NO_MMAP"), Ok(v) if !v.is_empty() && v != "0")
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{Backing, Mapping};
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Raw 6-argument Linux syscall. Returns the kernel's raw result:
    /// values in `-4095..0` (as isize) encode `-errno`.
    ///
    /// SAFETY: caller must pass arguments valid for the syscall number.
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: per the x86-64 Linux ABI, `syscall` clobbers only
        // rcx/r11 (declared) and returns in rax.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: per the AArch64 Linux ABI, `svc 0` takes the number in
        // x8, arguments in x0-x5, and returns in x0.
        unsafe {
            asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a as isize => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }

    pub(super) fn map_file(file: File, len: usize) -> io::Result<Mapping> {
        let fd = file.as_raw_fd();
        // SAFETY: a NULL hint with PROT_READ|MAP_PRIVATE over an open fd
        // is always sound to *request*; the result is checked below.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                usize::try_from(fd).map_err(|_| io::Error::other("negative fd"))?,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            #[allow(clippy::cast_possible_truncation)] // range-checked above
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Mapping {
            ptr: ret as usize as *const u8,
            len,
            backing: Backing::Kernel,
            file: Some(file),
        })
    }

    /// SAFETY: `ptr`/`len` must be a live region returned by `map_file`,
    /// not unmapped before, and never used again after this call.
    pub(super) unsafe fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: forwarded from the caller's contract.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::Mapping;
    use std::fs::File;
    use std::io;
    use std::io::Read;

    /// Portable fallback: read the whole file into an owned buffer. Loses
    /// the page-sharing and instant-start properties, never the bytes.
    pub(super) fn map_file(mut file: File, len: usize) -> io::Result<Mapping> {
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(Mapping::from_vec(bytes))
    }

    /// SAFETY: never called — the portable build has no kernel mappings.
    pub(super) unsafe fn munmap(_ptr: *const u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dsm-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = temp_path("exact");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = Mapping::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(map.is_kernel_mapped());
        drop(map); // munmap must not fault
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mapping::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        assert!(!map.is_kernel_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Mapping::open(Path::new("/nonexistent/dsm-mmap-test")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn owned_backing_roundtrips() {
        let map = Mapping::from_vec(vec![1, 2, 3]);
        assert_eq!(map.bytes(), &[1, 2, 3]);
        assert!(!map.is_kernel_mapped());
        let dbg = format!("{map:?}");
        assert!(dbg.contains("kernel_mapped"), "{dbg}");
    }

    #[test]
    fn revalidate_detects_truncation_without_faulting() {
        let path = temp_path("revalidate");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&vec![7u8; 8192])
            .unwrap();
        let map = Mapping::open(&path).unwrap();
        map.revalidate().expect("intact file revalidates");
        if map.is_kernel_mapped() {
            // Shrink the file under the live mapping. revalidate only
            // fstats — it must report the hazard, not touch the pages.
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(100)
                .unwrap();
            let err = map.revalidate().unwrap_err();
            assert!(err.to_string().contains("shrank"), "{err}");
        }
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owned_backing_always_revalidates() {
        Mapping::from_vec(vec![1, 2, 3]).revalidate().unwrap();
    }

    #[test]
    fn injected_truncation_fault_trips_revalidate() {
        use dsm_types::fault;
        let path = temp_path("fault-reval");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&[9u8; 4096])
            .unwrap();
        let map = Mapping::open(&path).unwrap();
        if map.is_kernel_mapped() {
            let _guard = fault::test_lock();
            fault::install(Some(fault::FaultPlan::from_spec("mmap-truncate").unwrap()));
            let err = map.revalidate().unwrap_err();
            fault::install(None);
            assert!(err.to_string().contains("injected"), "{err}");
            map.revalidate().expect("clean once the plan is cleared");
        }
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp_path("threads");
        let payload = vec![0xABu8; 4096 * 3 + 17];
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = std::sync::Arc::new(Mapping::open(&path).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let map = std::sync::Arc::clone(&map);
                s.spawn(move || {
                    assert!(map.bytes().iter().all(|&b| b == 0xAB));
                });
            }
        });
        std::fs::remove_file(&path).unwrap();
    }
}
