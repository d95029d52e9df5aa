//! Self-contained hash functions.
//!
//! * **CRC-32** (IEEE 802.3) — ZIP entry checksums in `marketscope-apk`.
//! * **FNV-1a 64** — fast feature hashing for library detection and clone
//!   candidate bucketing.
//! * **MD5** — APK content digests. The paper uses MD5 to ask "are two
//!   listings byte-identical?" (Section 5.3); we need identity semantics
//!   only, so MD5's cryptographic weakness is irrelevant here. [`Md5`]
//!   streams, so a digest over several fields needs no joined copy.
//!
//! CRC-32 is slice-by-8 over `const`-built tables and MD5 compresses
//! blocks in place: both sit on the per-APK decode and encode paths.

/// CRC-32 (IEEE) of `data`, as used by ZIP local file headers.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Slice-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// Streaming CRC-32: feed chunks into `state` (start from `0xFFFF_FFFF`,
/// finish by XOR with `0xFFFF_FFFF`).
pub(crate) fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// FNV-1a 64-bit hash of `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, data)
}

/// Streaming FNV-1a 64: feed chunks into `state` (start from the FNV
/// offset basis `0xcbf29ce484222325`).
pub fn fnv1a64_update(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Combine two 64-bit hashes order-sensitively (for hierarchical feature
/// hashing of package trees).
pub fn mix64(a: u64, b: u64) -> u64 {
    // SplitMix64-style finalizer over the XOR-rotate combination.
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(b | 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const MD5_S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const MD5_K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// MD5 digest of `data` (RFC 1321).
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finish()
}

/// Streaming MD5 (RFC 1321): [`Md5::update`] compresses whole 64-byte
/// blocks straight from the caller's slice and buffers only the tail, so
/// hashing several fields costs no concatenated copy of them.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Bytes fed so far (the padding encodes it in bits, mod 2^64).
    len: u64,
    /// The partial block not yet compressed; `tail_len` bytes are live.
    tail: [u8; 64],
    tail_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// A fresh hasher.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            tail: [0; 64],
            tail_len: 0,
        }
    }

    /// Feed `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.tail_len > 0 {
            let take = (64 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 64 {
                return;
            }
            md5_compress(&mut self.state, &self.tail);
            self.tail_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            md5_compress(&mut self.state, block);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Pad (0x80, zeros, bit length LE) and return the digest.
    pub fn finish(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        let n = self.tail_len;
        self.tail[n] = 0x80;
        self.tail[n + 1..].fill(0);
        if n >= 56 {
            md5_compress(&mut self.state, &self.tail);
            self.tail = [0; 64];
        }
        self.tail[56..].copy_from_slice(&bit_len.to_le_bytes());
        md5_compress(&mut self.state, &self.tail);
        let mut out = [0u8; 16];
        for (o, s) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&s.to_le_bytes());
        }
        out
    }
}

/// One 64-byte MD5 block: four rounds of sixteen steps.
fn md5_compress(state: &mut [u32; 4], block: &[u8]) {
    let mut m = [0u32; 16];
    for (w, b) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for (i, &x) in m.iter().enumerate() {
        let f = (b & c) | (!b & d);
        (a, b, c, d) = (d, md5_step(a, b, f, i, x), b, c);
    }
    for i in 16..32 {
        let f = (d & b) | (!d & c);
        (a, b, c, d) = (d, md5_step(a, b, f, i, m[(5 * i + 1) % 16]), b, c);
    }
    for i in 32..48 {
        let f = b ^ c ^ d;
        (a, b, c, d) = (d, md5_step(a, b, f, i, m[(3 * i + 5) % 16]), b, c);
    }
    for i in 48..64 {
        let f = c ^ (b | !d);
        (a, b, c, d) = (d, md5_step(a, b, f, i, m[(7 * i) % 16]), b, c);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Step `i`: the new `b` from `a`, `b`, the round function `f` and the
/// message word `x`.
#[inline(always)]
fn md5_step(a: u32, b: u32, f: u32, i: usize, x: u32) -> u32 {
    let sum = a.wrapping_add(f).wrapping_add(MD5_K[i]).wrapping_add(x);
    b.wrapping_add(sum.rotate_left(MD5_S[i]))
}

/// Lower-case hex rendering of a digest.
pub fn to_hex(digest: &[u8]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{bytes, check, usize_in};
    use crate::rng::DetRng;

    /// The bit-at-a-time CRC the tables are derived from: the oracle.
    fn crc32_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        state
    }

    /// One-shot MD5 over a padded copy of the input: the oracle for the
    /// streaming tail handling.
    fn md5_padded(data: &[u8]) -> [u8; 16] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
        for block in msg.chunks_exact(64) {
            md5_compress(&mut state, block);
        }
        let mut out = [0u8; 16];
        for (o, s) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Split `data` into random chunks: mostly short (crossing the 8- and
    /// 64-byte boundaries), sometimes long.
    fn chunks<'a>(rng: &mut DetRng, mut data: &'a [u8]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        while !data.is_empty() {
            let cap = if rng.chance(0.8) { 70 } else { 4_096 };
            let n = usize_in(rng, 0..cap + 1).min(data.len());
            out.push(&data[..n]);
            data = &data[n..];
        }
        out
    }

    #[test]
    fn crc32_slice_by_8_matches_bitwise() {
        check("hash::crc32_slice_by_8", 256, |rng| {
            let len = usize_in(rng, 0..2_049);
            let buf = bytes(rng, len + 8..len + 9);
            for start in 0..8 {
                let data = &buf[start..start + len];
                let want = crc32_bitwise(0xFFFF_FFFF, data);
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, data),
                    want,
                    "len {len} at {start}"
                );
                let mut st = 0xFFFF_FFFF;
                for chunk in chunks(rng, data) {
                    st = crc32_update(st, chunk);
                }
                assert_eq!(st, want, "chunked, len {len} at {start}");
            }
        });
    }

    #[test]
    fn md5_streaming_matches_oneshot() {
        check("hash::md5_streaming", 4, |rng| {
            for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 1_000_000] {
                let data = bytes(rng, len..len + 1);
                let want = md5(&data);
                assert_eq!(want, md5_padded(&data), "one-shot vs padded, len {len}");
                let mut h = Md5::new();
                for chunk in chunks(rng, &data) {
                    h.update(chunk);
                }
                assert_eq!(h.finish(), want, "chunked, len {len}");
            }
        });
    }

    #[test]
    fn md5_rfc1321_vectors() {
        assert_eq!(to_hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(to_hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(to_hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            to_hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            to_hex(&md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            to_hex(&md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn crc32_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data = b"hello crc streaming world";
        let mut st = 0xFFFF_FFFFu32;
        for chunk in data.chunks(7) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn fnv_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mix64_is_order_sensitive() {
        assert_ne!(mix64(1, 2), mix64(2, 1));
        assert_eq!(mix64(1, 2), mix64(1, 2));
    }
}
