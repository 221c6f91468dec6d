//! Disk managers: where page images live and how much the I/O costs.
//!
//! Two backends are provided. [`InMemoryDisk`] is the default for tests and
//! experiments: pages survive a *simulated crash* (the volatile buffer pool
//! is dropped, the "disk" is not), and every read/write is counted along with
//! the seek distance between successive accesses. Seek distance is the metric
//! the paper's pass 2 improves — after swapping, leaves within a key range are
//! contiguous on disk, so a range scan's head movement collapses.
//! [`FileDisk`] stores the same images in a real file for durability-shaped
//! testing.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use obr_sync::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Snapshot of I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Page reads served.
    pub reads: u64,
    /// Page writes performed.
    pub writes: u64,
    /// Sum of |Δ page-id| between successive accesses (a seek-cost model).
    pub seek_distance: u64,
    /// Sync (force) operations.
    pub syncs: u64,
}

impl DiskStats {
    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            seek_distance: self.seek_distance - earlier.seek_distance,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

#[derive(Debug, Default)]
struct StatCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    seek: AtomicU64,
    syncs: AtomicU64,
    // Last page id accessed, +1 (0 = "no access yet").
    head: AtomicU64,
}

impl StatCounters {
    fn record(&self, id: PageId, is_write: bool) {
        if is_write {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        let pos = id.0 as u64 + 1;
        let prev = self.head.swap(pos, Ordering::Relaxed);
        if prev != 0 {
            self.seek.fetch_add(prev.abs_diff(pos), Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            seek_distance: self.seek.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.seek.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.head.store(0, Ordering::Relaxed);
    }
}

/// Abstraction over where full page images are stored.
pub trait DiskManager: Send + Sync {
    /// Read the image of `id`.
    fn read_page(&self, id: PageId) -> StorageResult<Page>;
    /// Write the image of `id`.
    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()>;
    /// Number of pages currently addressable.
    fn num_pages(&self) -> u32;
    /// Grow the disk so ids `0..pages` are addressable.
    fn ensure_capacity(&self, pages: u32) -> StorageResult<()>;
    /// Force pending writes to stable storage.
    fn sync(&self) -> StorageResult<()>;
    /// Snapshot of I/O counters.
    fn stats(&self) -> DiskStats;
    /// Zero the I/O counters (start of an experiment phase).
    fn reset_stats(&self);
}

/// A RAM-backed disk: the standard substrate for experiments and crash tests.
pub struct InMemoryDisk {
    pages: Mutex<Vec<Page>>,
    counters: StatCounters,
    /// Simulated per-I/O latency (experiments use this to give lock hold
    /// times a realistic I/O component).
    latency: std::time::Duration,
}

impl InMemoryDisk {
    /// Create a disk with `pages` zeroed pages.
    pub fn new(pages: u32) -> InMemoryDisk {
        Self::with_latency(pages, std::time::Duration::ZERO)
    }

    /// Create a disk that sleeps `latency` on every page read/write.
    pub fn with_latency(pages: u32, latency: std::time::Duration) -> InMemoryDisk {
        InMemoryDisk {
            pages: Mutex::named((0..pages).map(|_| Page::new()).collect(), "disk.pages"),
            counters: StatCounters::default(),
            latency,
        }
    }

    fn simulate_latency(&self) {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }
}

impl DiskManager for InMemoryDisk {
    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.simulate_latency();
        let pages = self.pages.lock();
        let p = pages
            .get(id.index())
            .ok_or(StorageError::PageOutOfBounds(id))?
            .clone();
        self.counters.record(id, false);
        Ok(p)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.simulate_latency();
        let mut pages = self.pages.lock();
        let slot = pages
            .get_mut(id.index())
            .ok_or(StorageError::PageOutOfBounds(id))?;
        *slot = page.clone();
        self.counters.record(id, true);
        Ok(())
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn ensure_capacity(&self, pages: u32) -> StorageResult<()> {
        let mut v = self.pages.lock();
        while (v.len() as u32) < pages {
            v.push(Page::new());
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

/// A file-backed disk for durability-shaped testing.
pub struct FileDisk {
    file: Mutex<File>,
    num_pages: AtomicU64,
    counters: StatCounters,
}

impl FileDisk {
    /// Open (or create) a page file at `path` with at least `pages` pages.
    pub fn open(path: &Path, pages: u32) -> StorageResult<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let existing = (file.metadata()?.len() as usize / PAGE_SIZE) as u32;
        let total = existing.max(pages);
        file.set_len(total as u64 * PAGE_SIZE as u64)?;
        Ok(FileDisk {
            file: Mutex::named(file, "disk.file"),
            num_pages: AtomicU64::new(total as u64),
            counters: StatCounters::default(),
        })
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        if (id.0 as u64) >= self.num_pages.load(Ordering::Acquire) {
            return Err(StorageError::PageOutOfBounds(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        let mut buf = [0u8; PAGE_SIZE];
        file.read_exact(&mut buf)?;
        self.counters.record(id, false);
        Ok(Page::from_bytes(&buf))
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        if (id.0 as u64) >= self.num_pages.load(Ordering::Acquire) {
            return Err(StorageError::PageOutOfBounds(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        file.write_all(page.bytes())?;
        self.counters.record(id, true);
        Ok(())
    }

    fn num_pages(&self) -> u32 {
        self.num_pages.load(Ordering::Acquire) as u32
    }

    fn ensure_capacity(&self, pages: u32) -> StorageResult<()> {
        let file = self.file.lock();
        let cur = self.num_pages.load(Ordering::Acquire);
        if (pages as u64) > cur {
            file.set_len(pages as u64 * PAGE_SIZE as u64)?;
            self.num_pages.store(pages as u64, Ordering::Release);
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Lsn, PageType};

    fn roundtrip(disk: &dyn DiskManager) {
        let mut p = Page::new();
        p.format(PageType::Leaf, 0);
        p.set_lsn(Lsn(77));
        p.set_low_mark(123);
        disk.write_page(PageId(3), &p).unwrap();
        let back = disk.read_page(PageId(3)).unwrap();
        assert_eq!(back.lsn(), Lsn(77));
        assert_eq!(back.low_mark(), 123);
        assert_eq!(back.page_type(), Some(PageType::Leaf));
    }

    #[test]
    fn memory_disk_round_trips_pages() {
        let disk = InMemoryDisk::new(8);
        roundtrip(&disk);
    }

    #[test]
    fn file_disk_round_trips_pages() {
        let dir = std::env::temp_dir().join(format!("obr-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let disk = FileDisk::open(&path, 8).unwrap();
        roundtrip(&disk);
        drop(disk);
        // Re-open: data must persist.
        let disk2 = FileDisk::open(&path, 8).unwrap();
        assert_eq!(disk2.read_page(PageId(3)).unwrap().lsn(), Lsn(77));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_read_is_error() {
        let disk = InMemoryDisk::new(2);
        assert!(disk.read_page(PageId(2)).is_err());
        assert!(disk.write_page(PageId(9), &Page::new()).is_err());
    }

    #[test]
    fn ensure_capacity_grows_but_never_shrinks() {
        let disk = InMemoryDisk::new(2);
        disk.ensure_capacity(10).unwrap();
        assert_eq!(disk.num_pages(), 10);
        disk.ensure_capacity(4).unwrap();
        assert_eq!(disk.num_pages(), 10);
    }

    #[test]
    fn stats_count_reads_writes_and_seeks() {
        let disk = InMemoryDisk::new(64);
        disk.write_page(PageId(0), &Page::new()).unwrap();
        disk.write_page(PageId(10), &Page::new()).unwrap();
        disk.read_page(PageId(10)).unwrap();
        disk.read_page(PageId(60)).unwrap();
        let s = disk.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        // Seeks: 0 -> 10 (10) -> 10 (0) -> 60 (50) = 60.
        assert_eq!(s.seek_distance, 60);
        disk.reset_stats();
        assert_eq!(disk.stats(), DiskStats::default());
    }

    #[test]
    fn stats_since_subtracts() {
        let disk = InMemoryDisk::new(4);
        disk.read_page(PageId(0)).unwrap();
        let before = disk.stats();
        disk.read_page(PageId(1)).unwrap();
        disk.read_page(PageId(2)).unwrap();
        let delta = disk.stats().since(&before);
        assert_eq!(delta.reads, 2);
    }

    #[test]
    fn first_access_costs_no_seek() {
        let disk = InMemoryDisk::new(64);
        disk.read_page(PageId(42)).unwrap();
        assert_eq!(disk.stats().seek_distance, 0);
    }
}
