//! A minimal ZIP implementation (the APK container format).
//!
//! Android packages are ZIP archives. We implement the subset APKs need
//! for this study: stored (uncompressed) entries, CRC-32 integrity, a
//! central directory, and the end-of-central-directory record. Compression
//! is deliberately out of scope — the analyses care about *content
//! identity*, not size — and real stores often re-sign/re-pack stored
//! entries anyway (e.g. 360's Jiagubao wrapping).
//!
//! The reader is defensive: it never trusts a length field without bounds
//! checks, verifies every CRC, rejects duplicate entry names, and caps the
//! entry count, so arbitrary bytes cannot cause panics or memory blowups.

use crate::error::ApkError;
use marketscope_core::hash::crc32;

const LOCAL_SIG: u32 = 0x0403_4B50;
const CENTRAL_SIG: u32 = 0x0201_4B50;
const EOCD_SIG: u32 = 0x0605_4B50;
const EOCD_MIN: usize = 22;
/// Fixed part of a local file header and of a central directory record.
const LOCAL_HEADER: usize = 30;
const CENTRAL_HEADER: usize = 46;
/// Upper bound on entries we will read from untrusted archives.
const MAX_ENTRIES: usize = 65_535;
/// Upper bound on a single entry name length.
const MAX_NAME: usize = 4_096;

/// One file inside a ZIP archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipEntry {
    /// Entry path, e.g. `classes.dex`.
    pub name: String,
    /// Uncompressed payload.
    pub data: Vec<u8>,
}

/// An in-memory ZIP archive: an ordered list of uniquely named entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZipArchive {
    entries: Vec<ZipEntry>,
}

impl ZipArchive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry. Returns an error on duplicate names (ZIP tolerates
    /// them; Android and our analyses do not).
    pub fn add(&mut self, name: &str, data: Vec<u8>) -> Result<(), ApkError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(ApkError::Zip("entry name empty or too long"));
        }
        if self.entries.iter().any(|e| e.name == name) {
            return Err(ApkError::Zip("duplicate entry name"));
        }
        self.entries.push(ZipEntry {
            name: name.to_owned(),
            data,
        });
        Ok(())
    }

    /// The entries in archive order.
    pub fn entries(&self) -> &[ZipEntry] {
        &self.entries
    }

    /// Serialize to ZIP bytes (stored entries, one central directory).
    pub fn to_bytes(&self) -> Vec<u8> {
        let names: usize = self.entries.iter().map(|e| e.name.len()).sum();
        let payload: usize = self.entries.iter().map(|e| e.data.len()).sum();
        let size =
            (LOCAL_HEADER + CENTRAL_HEADER) * self.entries.len() + 2 * names + payload + EOCD_MIN;
        let mut out = Vec::with_capacity(size);
        let mut crcs = Vec::with_capacity(self.entries.len());
        // Local file headers and payloads.
        for e in &self.entries {
            let crc = crc32(&e.data);
            crcs.push((crc, out.len() as u32));
            let name = e.name.as_bytes();
            let size = e.data.len() as u32;
            put_u32(&mut out, LOCAL_SIG);
            put_u16(&mut out, 20); // version needed
            put_u16(&mut out, 0); // flags
            put_u16(&mut out, 0); // method: stored
            put_u16(&mut out, 0); // mod time
            put_u16(&mut out, 0); // mod date
            put_u32(&mut out, crc);
            put_u32(&mut out, size);
            put_u32(&mut out, size);
            put_u16(&mut out, name.len() as u16);
            put_u16(&mut out, 0); // extra len
            out.extend_from_slice(name);
            out.extend_from_slice(&e.data);
        }
        // Central directory, one record per entry.
        let cd_offset = out.len() as u32;
        for (e, &(crc, offset)) in self.entries.iter().zip(&crcs) {
            let name = e.name.as_bytes();
            let size = e.data.len() as u32;
            put_u32(&mut out, CENTRAL_SIG);
            put_u16(&mut out, 20); // version made by
            put_u16(&mut out, 20); // version needed
            put_u16(&mut out, 0); // flags
            put_u16(&mut out, 0); // method
            put_u16(&mut out, 0); // time
            put_u16(&mut out, 0); // date
            put_u32(&mut out, crc);
            put_u32(&mut out, size);
            put_u32(&mut out, size);
            put_u16(&mut out, name.len() as u16);
            put_u16(&mut out, 0); // extra
            put_u16(&mut out, 0); // comment
            put_u16(&mut out, 0); // disk start
            put_u16(&mut out, 0); // internal attrs
            put_u32(&mut out, 0); // external attrs
            put_u32(&mut out, offset);
            out.extend_from_slice(name);
        }
        let cd_size = out.len() as u32 - cd_offset;
        // EOCD.
        put_u32(&mut out, EOCD_SIG);
        put_u16(&mut out, 0); // disk
        put_u16(&mut out, 0); // cd disk
        put_u16(&mut out, self.entries.len() as u16);
        put_u16(&mut out, self.entries.len() as u16);
        put_u32(&mut out, cd_size);
        put_u32(&mut out, cd_offset);
        put_u16(&mut out, 0); // comment len
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Parse ZIP bytes, verifying structure and every entry CRC.
    pub fn parse(bytes: &[u8]) -> Result<ZipArchive, ApkError> {
        let entries = read_entries(bytes)?
            .into_iter()
            .map(|(name, data)| ZipEntry {
                name: name.to_owned(),
                data: data.to_vec(),
            })
            .collect();
        Ok(ZipArchive { entries })
    }
}

/// The ZIP reader: walk the central directory of `bytes`, checking every
/// length field against the buffer, every entry's CRC and name
/// uniqueness, and return the entries — `(name, payload)` borrowed from
/// `bytes` — in archive order. [`ZipArchive::parse`] owns what this
/// returns; the APK decoder reads it in place.
pub(crate) fn read_entries(bytes: &[u8]) -> Result<Vec<(&str, &[u8])>, ApkError> {
    let eocd = find_eocd(bytes)?;
    let entry_count = read_u16(bytes, eocd + 10)? as usize;
    if entry_count > MAX_ENTRIES {
        return Err(ApkError::Bounds {
            what: "zip entry count",
            value: entry_count as u64,
        });
    }
    let cd_size = read_u32(bytes, eocd + 12)? as usize;
    let cd_offset = read_u32(bytes, eocd + 16)? as usize;
    if cd_offset
        .checked_add(cd_size)
        .map_or(true, |end| end > eocd)
    {
        return Err(ApkError::Zip("central directory out of bounds"));
    }
    let mut entries: Vec<(&str, &[u8])> = Vec::with_capacity(entry_count.min(1024));
    let mut pos = cd_offset;
    for _ in 0..entry_count {
        if read_u32(bytes, pos)? != CENTRAL_SIG {
            return Err(ApkError::Zip("bad central directory signature"));
        }
        let method = read_u16(bytes, pos + 10)?;
        if method != 0 {
            return Err(ApkError::Zip("unsupported compression method"));
        }
        let crc = read_u32(bytes, pos + 16)?;
        let size = read_u32(bytes, pos + 20)? as usize;
        let usize_ = read_u32(bytes, pos + 24)? as usize;
        if size != usize_ {
            return Err(ApkError::Zip("stored entry size mismatch"));
        }
        let name_len = read_u16(bytes, pos + 28)? as usize;
        let extra_len = read_u16(bytes, pos + 30)? as usize;
        let comment_len = read_u16(bytes, pos + 32)? as usize;
        let local_offset = read_u32(bytes, pos + 42)? as usize;
        if name_len == 0 || name_len > MAX_NAME {
            return Err(ApkError::Zip("bad central entry name length"));
        }
        let name_start = pos + CENTRAL_HEADER;
        let name_end = name_start
            .checked_add(name_len)
            .filter(|&e| e <= cd_offset + cd_size)
            .ok_or(ApkError::Zip("central entry name out of bounds"))?;
        let name = std::str::from_utf8(&bytes[name_start..name_end])
            .map_err(|_| ApkError::Zip("entry name not utf-8"))?;
        // Resolve the local header and payload.
        if read_u32(bytes, local_offset)? != LOCAL_SIG {
            return Err(ApkError::Zip("bad local header signature"));
        }
        let l_name_len = read_u16(bytes, local_offset + 26)? as usize;
        let l_extra_len = read_u16(bytes, local_offset + 28)? as usize;
        let data_start = local_offset + LOCAL_HEADER + l_name_len + l_extra_len;
        let data_end = data_start
            .checked_add(size)
            .filter(|&e| e <= cd_offset)
            .ok_or(ApkError::Zip("entry payload out of bounds"))?;
        let data = &bytes[data_start..data_end];
        if crc32(data) != crc {
            return Err(ApkError::CrcMismatch {
                name: name.to_owned(),
            });
        }
        if entries.iter().any(|(n, _)| *n == name) {
            return Err(ApkError::Zip("duplicate entry name"));
        }
        entries.push((name, data));
        pos = name_end + extra_len + comment_len;
    }
    Ok(entries)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u16(b: &[u8], pos: usize) -> Result<u16, ApkError> {
    b.get(pos..pos + 2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]))
        .ok_or(ApkError::Zip("truncated u16"))
}
fn read_u32(b: &[u8], pos: usize) -> Result<u32, ApkError> {
    b.get(pos..pos + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or(ApkError::Zip("truncated u32"))
}

/// Locate the EOCD record: scan backward over a possible trailing comment.
fn find_eocd(bytes: &[u8]) -> Result<usize, ApkError> {
    if bytes.len() < EOCD_MIN {
        return Err(ApkError::Zip("too short for EOCD"));
    }
    let floor = bytes.len().saturating_sub(EOCD_MIN + u16::MAX as usize);
    let mut pos = bytes.len() - EOCD_MIN;
    loop {
        if read_u32(bytes, pos)? == EOCD_SIG {
            // The comment length must match the remaining bytes exactly.
            let comment_len = read_u16(bytes, pos + 20)? as usize;
            if pos + EOCD_MIN + comment_len == bytes.len() {
                return Ok(pos);
            }
        }
        if pos == floor {
            return Err(ApkError::Zip("EOCD not found"));
        }
        pos -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ZipArchive {
        let mut z = ZipArchive::new();
        z.add("AndroidManifest.xml", b"manifest-bytes".to_vec())
            .unwrap();
        z.add("classes.dex", vec![0u8; 1000]).unwrap();
        z.add("META-INF/CERT.SF", b"sig".to_vec()).unwrap();
        z
    }

    /// The payload of the entry named `name`.
    fn entry<'a>(zip: &'a ZipArchive, name: &str) -> Option<&'a [u8]> {
        let entry = zip.entries.iter().find(|e| e.name == name)?;
        Some(&entry.data)
    }

    #[test]
    fn round_trip() {
        let z = sample();
        let bytes = z.to_bytes();
        let back = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(back, z);
        assert_eq!(entry(&back, "classes.dex").unwrap().len(), 1000);
        assert_eq!(back.entries.len(), 3);
    }

    #[test]
    fn empty_archive_round_trips() {
        let z = ZipArchive::new();
        let back = ZipArchive::parse(&z.to_bytes()).unwrap();
        assert_eq!(back.entries().len(), 0);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut z = ZipArchive::new();
        z.add("a.txt", vec![1]).unwrap();
        assert_eq!(
            z.add("a.txt", vec![2]),
            Err(ApkError::Zip("duplicate entry name"))
        );
    }

    #[test]
    fn detects_payload_corruption() {
        let z = sample();
        let mut bytes = z.to_bytes();
        // Flip one byte inside the classes.dex payload region.
        let dex_off = bytes.windows(11).position(|w| w == b"classes.dex").unwrap() + 11;
        bytes[dex_off + 5] ^= 0xFF;
        match ZipArchive::parse(&bytes) {
            Err(ApkError::CrcMismatch { name }) => assert_eq!(name, "classes.dex"),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample().to_bytes();
        // Any strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(ZipArchive::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(ZipArchive::parse(&[]).is_err());
        assert!(ZipArchive::parse(b"not a zip at all").is_err());
        let junk: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert!(ZipArchive::parse(&junk).is_err());
    }

    #[test]
    fn rejects_bad_signature_fields() {
        let z = sample();
        let mut bytes = z.to_bytes();
        let n = bytes.len();
        // Corrupt the EOCD entry count (offset 10 within the 22-byte EOCD).
        bytes[n - 22 + 10] = 0xFF;
        bytes[n - 22 + 11] = 0xFF;
        assert!(ZipArchive::parse(&bytes).is_err());
    }

    #[test]
    fn tolerates_trailing_comment_space() {
        // Build a zip and append an EOCD with a comment by hand: our writer
        // emits no comment, so simulate by rewriting the comment length and
        // appending bytes.
        let z = sample();
        let mut bytes = z.to_bytes();
        let n = bytes.len();
        bytes[n - 2] = 5; // comment length = 5
        bytes.extend_from_slice(b"hello");
        let back = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(back.entries().len(), 3);
    }

    #[test]
    fn name_validation() {
        let mut z = ZipArchive::new();
        assert!(z.add("", vec![]).is_err());
        let long = "x".repeat(5000);
        assert!(z.add(&long, vec![]).is_err());
    }

    #[test]
    fn large_entry_round_trip() {
        let mut z = ZipArchive::new();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i * 31 % 256) as u8).collect();
        z.add("assets/big.bin", payload.clone()).unwrap();
        let back = ZipArchive::parse(&z.to_bytes()).unwrap();
        assert_eq!(entry(&back, "assets/big.bin").unwrap(), payload.as_slice());
    }
}
