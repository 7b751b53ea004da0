//! Per-block CRC32 checksumming.
//!
//! [`ChecksummedDevice`] wraps any [`BlockDevice`] and reserves the last
//! four bytes of every *physical* block for a CRC32 (IEEE) of the block's
//! payload. Layers above see a device whose logical block size is four
//! bytes smaller; every read verifies the checksum of every block it
//! touches and fails with [`IqError::ChecksumMismatch`] naming the first
//! corrupt block. Writes compute checksums transparently.
//!
//! This is the same discipline production storage engines apply per WAL
//! frame or per file page: a flipped bit anywhere in a block — payload or
//! padding — is detected on the next read instead of silently corrupting
//! query answers.
//!
//! # CRC tiers
//!
//! Every block read verifies a full block, so the CRC runs at memory speed.
//! [`crc32_update`] picks a tier once per process:
//!
//! * **folded** (x86-64 with `pclmulqdq` + `sse4.1`): 128-bit carry-less
//!   multiply folding over 16-byte lanes, ~0.5 µs per 8 KiB block;
//! * **portable** (everywhere else, or when `IQ_FORCE_SCALAR=1` is set at
//!   startup): slicing-by-16 in safe Rust, ~5 µs per 8 KiB block.
//!
//! Both are bit-identical to the byte-at-a-time table CRC (the test
//! oracle), so the on-disk checksums do not depend on the tier.

use crate::device::BlockDevice;
use crate::error::{IqError, IqResult};
use crate::model::SimClock;
use std::sync::OnceLock;

/// Bytes reserved per physical block for the CRC32 trailer.
pub const CHECKSUM_BYTES: usize = 4;

/// CRC32 (IEEE 802.3, reflected, init/final `0xFFFF_FFFF`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks with `state` starting at `0xFFFF_FFFF`,
/// xor with `0xFFFF_FFFF` at the end.
///
/// Dispatches once per process to the fastest tier the CPU supports (see
/// the module docs). Every tier returns the same value as the
/// byte-at-a-time table CRC, bit for bit.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    static FOLDED: OnceLock<bool> = OnceLock::new();
    let folded = *FOLDED.get_or_init(|| {
        let forced_scalar =
            std::env::var("IQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
        !forced_scalar && clmul_supported()
    });
    if folded {
        crc32_folded(state, bytes)
    } else {
        crc32_portable(state, bytes)
    }
}

/// Whether the CPU can run the carry-less-multiply folding tier.
fn clmul_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Shortest input the folded tier takes; shorter ones are cheaper through
/// the tables than through the fold setup and final reduction.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_LEN: usize = 128;

/// Fast tier: folds whole 16-byte chunks with `pclmulqdq` and hands the
/// under-16-byte tail (and any input under [`FOLD_MIN_LEN`], or a CPU
/// without the instructions) to [`crc32_portable`].
fn crc32_folded(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_LEN && clmul_supported() {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: pclmulqdq and sse4.1 were detected at runtime just above.
        // `body` is at least 128 bytes long and a multiple of 16.
        let state = unsafe { fold_clmul(state, body) };
        return crc32_portable(state, tail);
    }
    crc32_portable(state, bytes)
}

/// Folds `bytes` into the raw CRC register `state` with 128-bit carry-less
/// multiplies (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ", Intel 2009): four lanes while 64 bytes remain, one
/// lane per 16 bytes after that, then 128 → 64 bits and a Barrett
/// reduction to the 32-bit register. `bytes` must be at least 64 bytes
/// long and a multiple of 16.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // x^(k·32) mod P(x) folding constants for the reflected polynomial
    // 0xEDB88320, P(x) itself, and the Barrett constant μ = x^64 / P(x).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;
    debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
    // One 16-byte lane `x` folded forward over 128 bits onto `next`.
    macro_rules! fold {
        ($x:expr, $k:expr, $next:expr) => {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128::<0x00>($x, $k),
                    _mm_clmulepi64_si128::<0x11>($x, $k),
                ),
                $next,
            )
        };
    }
    // Typed 16-byte lanes: every load reads exactly one whole lane.
    let (lanes, _) = bytes.as_chunks::<16>();
    let load = |lane: &[u8; 16]| _mm_loadu_si128(lane.as_ptr().cast());

    let (head, rest) = lanes.split_at(4);
    let mut x1 = _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load(&head[1]);
    let mut x3 = load(&head[2]);
    let mut x4 = load(&head[3]);
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut quads = rest.chunks_exact(4);
    for quad in &mut quads {
        x1 = fold!(x1, k1k2, load(&quad[0]));
        x2 = fold!(x2, k1k2, load(&quad[1]));
        x3 = fold!(x3, k1k2, load(&quad[2]));
        x4 = fold!(x4, k1k2, load(&quad[3]));
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold!(x1, k3k4, x2);
    x = fold!(x, k3k4, x3);
    x = fold!(x, k3k4, x4);
    for lane in quads.remainder() {
        x = fold!(x, k3k4, load(lane));
    }

    // 128 → 64 bits.
    let low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
    );
    let k5 = _mm_set_epi64x(0, K5);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        _mm_srli_si128::<4>(x),
    );
    // Barrett reduction 64 → 32 bits.
    let poly_mu = _mm_set_epi64x(MU, P);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
}

/// Portable tier: slicing-by-16 over [`CRC_TABLES`], one 16-byte chunk per
/// step, then byte at a time for the tail.
fn crc32_portable(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
        let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
        let byte = |w: u32, k: u32| ((w >> (8 * k)) & 0xFF) as usize;
        crc = t[15][byte(a, 0)]
            ^ t[14][byte(a, 1)]
            ^ t[13][byte(a, 2)]
            ^ t[12][byte(a, 3)]
            ^ t[11][byte(b, 0)]
            ^ t[10][byte(b, 1)]
            ^ t[9][byte(b, 2)]
            ^ t[8][byte(b, 3)]
            ^ t[7][byte(c, 0)]
            ^ t[6][byte(c, 1)]
            ^ t[5][byte(c, 2)]
            ^ t[4][byte(c, 3)]
            ^ t[3][byte(d, 0)]
            ^ t[2][byte(d, 1)]
            ^ t[1][byte(d, 2)]
            ^ t[0][byte(d, 3)];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// `CRC_TABLES[k][b]`: the register contribution of byte `b` followed by
/// `k` zero bytes. Row 0 is the classic byte-at-a-time table.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = build_crc_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// A checksumming layer over any block device. See the module docs.
pub struct ChecksummedDevice {
    inner: Box<dyn BlockDevice>,
    /// Logical (payload) block size = physical − [`CHECKSUM_BYTES`].
    logical_bs: usize,
}

impl ChecksummedDevice {
    /// Wraps `inner`, reserving the trailing [`CHECKSUM_BYTES`] of each of
    /// its blocks.
    ///
    /// # Panics
    /// Panics if the inner block size cannot hold a checksum plus at least
    /// one payload byte (programmer error: such a device is useless).
    pub fn new(inner: Box<dyn BlockDevice>) -> Self {
        let physical = inner.block_size();
        assert!(
            physical > CHECKSUM_BYTES,
            "block size {physical} too small for a checksum trailer"
        );
        Self {
            inner,
            logical_bs: physical - CHECKSUM_BYTES,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn BlockDevice {
        self.inner.as_ref()
    }

    /// Verifies one physical block image, returning its payload range.
    fn verify_block(&self, clock: &mut SimClock, block: u64, physical: &[u8]) -> IqResult<()> {
        let stored = u32::from_le_bytes(
            physical[self.logical_bs..self.logical_bs + CHECKSUM_BYTES]
                .try_into()
                .expect("4-byte trailer"),
        );
        let computed = crc32(&physical[..self.logical_bs]);
        if stored != computed {
            clock.note_corrupt_block();
            return Err(IqError::ChecksumMismatch {
                block,
                stored,
                computed,
            });
        }
        Ok(())
    }

    /// Builds the physical image (payload + CRC trailer per block) of
    /// logical `data`, padding the last block's payload with zeros.
    fn physical_image(&self, data: &[u8]) -> Vec<u8> {
        let physical_bs = self.inner.block_size();
        let nblocks = data.len().div_ceil(self.logical_bs);
        let mut out = Vec::with_capacity(nblocks * physical_bs);
        let mut payload = vec![0u8; self.logical_bs];
        for i in 0..nblocks {
            let lo = i * self.logical_bs;
            let hi = ((i + 1) * self.logical_bs).min(data.len());
            payload.fill(0);
            if lo < data.len() {
                payload[..hi - lo].copy_from_slice(&data[lo..hi]);
            }
            out.extend_from_slice(&payload);
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        out
    }
}

impl BlockDevice for ChecksummedDevice {
    fn block_size(&self) -> usize {
        self.logical_bs
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        assert_eq!(buf.len() % self.logical_bs, 0, "partial-block read");
        let nblocks = (buf.len() / self.logical_bs) as u64;
        let physical_bs = self.inner.block_size();
        let mut raw = vec![0u8; nblocks as usize * physical_bs];
        self.inner.read_blocks(clock, start, &mut raw)?;
        for i in 0..nblocks as usize {
            let phys = &raw[i * physical_bs..(i + 1) * physical_bs];
            self.verify_block(clock, start + i as u64, phys)?;
            buf[i * self.logical_bs..(i + 1) * self.logical_bs]
                .copy_from_slice(&phys[..self.logical_bs]);
        }
        Ok(())
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        if data.is_empty() {
            return Ok(self.inner.num_blocks());
        }
        let image = self.physical_image(data);
        self.inner.append(clock, &image)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        assert_eq!(data.len() % self.logical_bs, 0, "partial-block write");
        if data.is_empty() {
            return Ok(());
        }
        let image = self.physical_image(data);
        self.inner.write_blocks(clock, start, &image)
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        // Logical and physical block counts agree (1:1 mapping).
        self.inner.truncate_blocks(clock, nblocks)
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use proptest::prelude::*;

    /// The byte-at-a-time table CRC every tier must reproduce bit for bit.
    fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = CRC_TABLES[0][idx] ^ (crc >> 8);
        }
        crc
    }

    type CrcFn = fn(u32, &[u8]) -> u32;

    /// Every tier, by name: forced portable, forced folded (portable on a
    /// CPU without `pclmulqdq`), and the dispatched entry point.
    const TIERS: [(&str, CrcFn); 3] = [
        ("portable", crc32_portable),
        ("folded", crc32_folded),
        ("dispatched", crc32_update),
    ];

    /// Deterministic pseudo-random bytes (xorshift32).
    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn tiers_match_oracle_at_every_short_length() {
        // Every length across the 16-byte chunk, 64-byte quad and 128-byte
        // fold thresholds, at every start alignment.
        let buf = pattern(600 + 16, 0x5EED);
        for offset in 0..16 {
            for len in 0..=600 {
                let bytes = &buf[offset..offset + len];
                let want = crc32_bytewise(!0, bytes);
                for (tier, f) in TIERS {
                    assert_eq!(f(!0, bytes), want, "{tier} {offset}+{len}");
                }
            }
        }
    }

    #[test]
    fn golden_crcs_are_unchanged() {
        // Recorded with the byte-at-a-time table CRC before the dispatched
        // tiers existed: the on-disk checksums must never move.
        for (len, want) in [
            (0usize, 0x0000_0000u32),
            (1, 0xCE6E_8EEF),
            (127, 0xD2BD_3646),
            (128, 0x61B6_2895),
            (8188, 0x5D90_5AC5),
            (3 * 8188 + 5, 0xC570_C8EC),
        ] {
            let bytes = pattern(len, 0x9E37_79B9);
            assert_eq!(crc32(&bytes), want, "len {len}");
            for (tier, f) in TIERS {
                assert_eq!(f(!0, &bytes) ^ !0, want, "{tier} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Both tiers equal the oracle at block sizes up to three 8 KiB
        /// pages, from misaligned starts and arbitrary register states.
        #[test]
        fn tiers_match_oracle_at_block_sizes(
            len in 0usize..=3 * 8192,
            offset in 0usize..16,
            state in 0u32..=u32::MAX,
            seed in 0u32..=u32::MAX,
        ) {
            let buf = pattern(offset + len, seed);
            let bytes = &buf[offset..];
            let want = crc32_bytewise(state, bytes);
            for (_, f) in TIERS {
                prop_assert_eq!(f(state, bytes), want);
            }
        }

        /// Streaming is split-invariant: any cut of the input into two
        /// chunks gives the checksum of the whole.
        #[test]
        fn update_is_split_invariant(
            len in 0usize..=3 * 8192,
            cut_frac in 0.0f64..=1.0,
            state in 0u32..=u32::MAX,
            seed in 0u32..=u32::MAX,
        ) {
            let bytes = pattern(len, seed);
            let (a, b) = bytes.split_at((len as f64 * cut_frac) as usize);
            prop_assert_eq!(
                crc32_update(crc32_update(state, a), b),
                crc32_update(state, &bytes)
            );
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_any_single_byte_change() {
        let data = [7u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            let mut tampered = data;
            tampered[i] ^= 0x40;
            assert_ne!(crc32(&tampered), base, "byte {i}");
        }
    }

    #[test]
    fn roundtrip_through_checksums() {
        let mut dev = ChecksummedDevice::new(Box::new(MemDevice::new(64)));
        assert_eq!(dev.block_size(), 60);
        let mut clock = SimClock::default();
        let data = vec![0xABu8; 60 * 3];
        let start = dev.append(&mut clock, &data).unwrap();
        assert_eq!(start, 0);
        assert_eq!(dev.num_blocks(), 3);
        assert_eq!(dev.read_to_vec(&mut clock, 0, 3).unwrap(), data);
        let patch = vec![0x11u8; 60];
        dev.write_blocks(&mut clock, 1, &patch).unwrap();
        assert_eq!(dev.read_to_vec(&mut clock, 1, 1).unwrap(), patch);
    }

    #[test]
    fn corruption_is_detected_and_located() {
        let mut inner = MemDevice::new(64);
        let mut clock = SimClock::default();
        // Build valid checksummed content for 4 blocks.
        {
            let mut dev = ChecksummedDevice::new(Box::new(MemDevice::new(64)));
            let data: Vec<u8> = (0..60 * 4).map(|i| i as u8).collect();
            dev.append(&mut clock, &data).unwrap();
            // Copy the physical image into `inner`.
            let raw = dev.inner().read_to_vec(&mut clock, 0, 4).unwrap();
            inner.append(&mut clock, &raw).unwrap();
        }
        // Flip one payload byte of physical block 2.
        let mut raw = inner.read_to_vec(&mut clock, 2, 1).unwrap();
        raw[17] ^= 0x01;
        inner.write_blocks(&mut clock, 2, &raw).unwrap();

        let dev = ChecksummedDevice::new(Box::new(inner));
        assert!(dev.read_to_vec(&mut clock, 0, 2).is_ok());
        let err = dev.read_to_vec(&mut clock, 0, 4).unwrap_err();
        assert_eq!(err.corrupt_block(), Some(2));
        assert!(clock.stats().corrupt_blocks >= 1);
    }

    #[test]
    fn corruption_in_8k_blocks_is_located_in_every_fold_region() {
        const PHYSICAL: usize = 8192;
        const LOGICAL: usize = PHYSICAL - CHECKSUM_BYTES;
        let mut clock = SimClock::default();
        let data = pattern(LOGICAL * 3, 0xB10C);
        let mut dev = ChecksummedDevice::new(Box::new(MemDevice::new(PHYSICAL)));
        dev.append(&mut clock, &data).unwrap();
        let raw = dev.inner().read_to_vec(&mut clock, 0, 3).unwrap();
        // 8188 = 511 · 16 + 12: byte 5 sits in the first fold lane, byte
        // 4000 in a middle lane, byte 8180 in the 12-byte portable tail.
        for (block, byte) in [(0u64, 5usize), (1, 4000), (2, LOGICAL - 8)] {
            let mut tampered = raw.clone();
            tampered[block as usize * PHYSICAL + byte] ^= 0x10;
            let mut backing = MemDevice::new(PHYSICAL);
            backing.append(&mut clock, &tampered).unwrap();
            let dev = ChecksummedDevice::new(Box::new(backing));
            match dev.read_to_vec(&mut clock, 0, 3) {
                Err(IqError::ChecksumMismatch { block: b, .. }) => {
                    assert_eq!(b, block, "byte {byte}");
                }
                other => panic!("byte {byte} of block {block}: {other:?}"),
            }
        }
        assert_eq!(dev.read_to_vec(&mut clock, 0, 3).unwrap(), data);
    }

    #[test]
    fn trailer_corruption_is_detected_too() {
        let mut dev = ChecksummedDevice::new(Box::new(MemDevice::new(32)));
        let mut clock = SimClock::default();
        dev.append(&mut clock, &[5u8; 28]).unwrap();
        // Tamper with the stored checksum itself via a raw device view.
        let raw = dev.inner().read_to_vec(&mut clock, 0, 1).unwrap();
        let mut tampered = raw.clone();
        tampered[31] ^= 0xFF;
        let mut backing = MemDevice::new(32);
        backing.append(&mut clock, &tampered).unwrap();
        let dev = ChecksummedDevice::new(Box::new(backing));
        assert!(matches!(
            dev.read_to_vec(&mut clock, 0, 1),
            Err(IqError::ChecksumMismatch { block: 0, .. })
        ));
    }

    #[test]
    fn costs_match_physical_access() {
        // Checksumming adds no simulated I/O beyond the inner reads.
        let mut dev = ChecksummedDevice::new(Box::new(MemDevice::new(64)));
        let mut c1 = SimClock::default();
        dev.append(&mut c1, &vec![1u8; 60 * 8]).unwrap();
        c1.reset();
        dev.read_to_vec(&mut c1, 0, 8).unwrap();
        let mut plain = MemDevice::new(64);
        let mut c2 = SimClock::default();
        plain.append(&mut c2, &vec![1u8; 64 * 8]).unwrap();
        c2.reset();
        plain.read_to_vec(&mut c2, 0, 8).unwrap();
        assert_eq!(c1.io_time(), c2.io_time());
        assert_eq!(c1.stats().seeks, c2.stats().seeks);
    }
}
