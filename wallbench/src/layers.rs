//! Counting wrappers for the traced run: a `BlockDevice` under each level
//! file and a `WalStore` under the log. They time and count every call,
//! forward everything else unchanged — including `device_id`, so the
//! simulated head-position accounting is identical with and without them.

use iq_storage::{BlockDevice, IqResult, SimClock, WalStore};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Totals shared by every wrapper of one index (statistics only, so
/// `Relaxed` suffices: no other data is published through them).
#[derive(Default)]
pub struct Counters {
    reads: AtomicU64,
    blocks_read: AtomicU64,
    read_ns: AtomicU64,
    bytes_written: AtomicU64,
    write_ns: AtomicU64,
    wal_bytes: AtomicU64,
    wal_syncs: AtomicU64,
    wal_sync_ns: AtomicU64,
    wal_ns: AtomicU64,
}

/// A point-in-time copy of [`Counters`]; differences of two snapshots
/// attribute work to the calls between them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    pub reads: u64,
    pub blocks_read: u64,
    pub read_ns: u64,
    pub bytes_written: u64,
    pub write_ns: u64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub wal_sync_ns: u64,
    /// Wall time inside every WAL call (append, read, sync, truncate).
    pub wal_ns: u64,
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            reads: self.reads.load(Relaxed),
            blocks_read: self.blocks_read.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            wal_syncs: self.wal_syncs.load(Relaxed),
            wal_sync_ns: self.wal_sync_ns.load(Relaxed),
            wal_ns: self.wal_ns.load(Relaxed),
        }
    }
}

impl Snapshot {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            reads: self.reads - earlier.reads,
            blocks_read: self.blocks_read - earlier.blocks_read,
            read_ns: self.read_ns - earlier.read_ns,
            bytes_written: self.bytes_written - earlier.bytes_written,
            write_ns: self.write_ns - earlier.write_ns,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            wal_sync_ns: self.wal_sync_ns - earlier.wal_sync_ns,
            wal_ns: self.wal_ns - earlier.wal_ns,
        }
    }

    /// Wall time spent below the tree in storage and WAL calls.
    pub fn io_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.wal_ns
    }
}

impl std::ops::AddAssign for Snapshot {
    fn add_assign(&mut self, o: Snapshot) {
        self.reads += o.reads;
        self.blocks_read += o.blocks_read;
        self.read_ns += o.read_ns;
        self.bytes_written += o.bytes_written;
        self.write_ns += o.write_ns;
        self.wal_bytes += o.wal_bytes;
        self.wal_syncs += o.wal_syncs;
        self.wal_sync_ns += o.wal_sync_ns;
        self.wal_ns += o.wal_ns;
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts and times the calls into one raw level device.
pub struct CountingDevice {
    inner: Box<dyn BlockDevice>,
    c: Arc<Counters>,
}

impl CountingDevice {
    pub fn wrap(inner: Box<dyn BlockDevice>, c: &Arc<Counters>) -> Box<dyn BlockDevice> {
        Box::new(Self {
            inner,
            c: Arc::clone(c),
        })
    }

    fn wrote<T>(&self, t0: Instant, bytes: usize, r: IqResult<T>) -> IqResult<T> {
        self.c.write_ns.fetch_add(elapsed_ns(t0), Relaxed);
        if r.is_ok() {
            self.c.bytes_written.fetch_add(bytes as u64, Relaxed);
        }
        r
    }
}

impl BlockDevice for CountingDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.read_blocks(clock, start, buf);
        self.c.read_ns.fetch_add(elapsed_ns(t0), Relaxed);
        self.c.reads.fetch_add(1, Relaxed);
        self.c
            .blocks_read
            .fetch_add((buf.len() / self.inner.block_size()) as u64, Relaxed);
        r
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let t0 = Instant::now();
        let r = self.inner.append(clock, data);
        let padded = data.len().next_multiple_of(self.inner.block_size());
        self.wrote(t0, padded, r)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.write_blocks(clock, start, data);
        self.wrote(t0, data.len(), r)
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.truncate_blocks(clock, nblocks);
        self.wrote(t0, 0, r)
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }
}

/// Counts and times the calls into the write-ahead log's store.
pub struct CountingWal {
    inner: Box<dyn WalStore>,
    c: Arc<Counters>,
}

impl CountingWal {
    pub fn wrap(inner: Box<dyn WalStore>, c: &Arc<Counters>) -> Box<dyn WalStore> {
        Box::new(Self {
            inner,
            c: Arc::clone(c),
        })
    }

    fn timed<T>(&self, t0: Instant, r: IqResult<T>) -> IqResult<T> {
        self.c.wal_ns.fetch_add(elapsed_ns(t0), Relaxed);
        r
    }
}

impl WalStore for CountingWal {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn append(&mut self, clock: &mut SimClock, bytes: &[u8]) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.append(clock, bytes);
        if r.is_ok() {
            self.c.wal_bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        self.timed(t0, r)
    }

    fn read_at(&self, clock: &mut SimClock, off: u64, buf: &mut [u8]) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.read_at(clock, off, buf);
        self.timed(t0, r)
    }

    fn sync(&mut self, clock: &mut SimClock) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.sync(clock);
        self.c.wal_sync_ns.fetch_add(elapsed_ns(t0), Relaxed);
        self.c.wal_syncs.fetch_add(1, Relaxed);
        self.timed(t0, r)
    }

    fn truncate(&mut self, clock: &mut SimClock, len: u64) -> IqResult<()> {
        let t0 = Instant::now();
        let r = self.inner.truncate(clock, len);
        self.timed(t0, r)
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }
}
