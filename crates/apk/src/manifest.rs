//! The binary `AndroidManifest.xml` model.
//!
//! Real APKs carry a compiled "AXML" manifest. We encode the same facts the
//! paper's analyses consume — package name, version code and name, minimum
//! and target SDK levels, declared permissions, a human-readable app label,
//! the store category hint, and the declared components (activities,
//! services, broadcast receivers) whose classes are the static-analysis
//! entry points — in a compact binary layout inspired by AXML: a magic
//! header, a length-prefixed UTF-8 string pool, and typed attribute
//! records that reference the pool.
//!
//! Component classes ride at the end of the string pool, followed by
//! one kind byte per component. Any other version word is refused.

use crate::error::ApkError;
use bytes::{Buf, BufMut};
use marketscope_core::{PackageName, VersionCode};

const MAGIC: u32 = 0x0041_584D; // "AXM\0"-ish
const VERSION: u16 = 2;
const HEADER_LEN: usize = 18;
const MAX_STRINGS: usize = 65_536;
const MAX_STRING_LEN: usize = 4_096;
const MAX_PERMISSIONS: usize = 512;
const MAX_COMPONENTS: usize = 256;

/// The kind of a declared manifest component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// `<activity>` — UI entry point.
    Activity,
    /// `<service>` — background entry point.
    Service,
    /// `<receiver>` — broadcast entry point.
    Receiver,
}

impl ComponentKind {
    fn to_byte(self) -> u8 {
        match self {
            ComponentKind::Activity => 0,
            ComponentKind::Service => 1,
            ComponentKind::Receiver => 2,
        }
    }

    fn from_byte(b: u8) -> Option<ComponentKind> {
        match b {
            0 => Some(ComponentKind::Activity),
            1 => Some(ComponentKind::Service),
            2 => Some(ComponentKind::Receiver),
            _ => None,
        }
    }
}

/// One declared component: the framework instantiates its class, making
/// it a root of the app's call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// What kind of component the manifest declares.
    pub kind: ComponentKind,
    /// JVM-style class descriptor, e.g. `Lcom/kugou/android/Main;`,
    /// matching a class name in the DEX.
    pub class: String,
}

/// The facts declared by an app's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Application package name (unique app identity across markets).
    pub package: PackageName,
    /// Monotonic release number.
    pub version_code: VersionCode,
    /// Human-readable version, e.g. `"8.7.0"`.
    pub version_name: String,
    /// Minimum supported Android API level (Figure 3's subject).
    pub min_sdk: u8,
    /// Targeted API level.
    pub target_sdk: u8,
    /// Human-readable app label ("app name"); fake apps mimic this while
    /// changing the package (Section 6.1).
    pub app_label: String,
    /// Declared permissions, e.g. `android.permission.CAMERA`.
    pub permissions: Vec<String>,
    /// The developer-reported store category string (possibly junk).
    pub category: String,
    /// Declared components — the reachability entry points. When empty,
    /// analyses treat the entry points as unknown (every method is
    /// conservatively reachable).
    pub components: Vec<Component>,
}

impl Manifest {
    /// Encode to the binary manifest layout.
    pub fn encode(&self) -> Vec<u8> {
        // String pool: package, version name, label, category, then
        // permissions, then component classes.
        let mut pool: Vec<&str> = vec![
            self.package.as_str(),
            &self.version_name,
            &self.app_label,
            &self.category,
        ];
        pool.extend(self.permissions.iter().map(String::as_str));
        pool.extend(self.components.iter().map(|c| c.class.as_str()));

        let mut out = Vec::with_capacity(128 + pool.iter().map(|s| s.len() + 2).sum::<usize>());
        out.put_u32_le(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u32_le(self.version_code.0);
        out.put_u8(self.min_sdk);
        out.put_u8(self.target_sdk);
        out.put_u16_le(self.permissions.len() as u16);
        out.put_u16_le(self.components.len() as u16);
        out.put_u16_le(pool.len() as u16);
        for s in pool {
            let b = s.as_bytes();
            out.put_u16_le(b.len() as u16);
            out.put_slice(b);
        }
        for c in &self.components {
            out.put_u8(c.kind.to_byte());
        }
        out
    }

    /// Decode from the binary manifest layout. Total: every malformed
    /// input produces `ApkError::Manifest`, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, ApkError> {
        let mut buf = bytes;
        if buf.remaining() < HEADER_LEN {
            return Err(ApkError::Manifest("truncated header"));
        }
        if buf.get_u32_le() != MAGIC {
            return Err(ApkError::Manifest("bad magic"));
        }
        if buf.get_u16_le() != VERSION {
            return Err(ApkError::Manifest("unsupported version"));
        }
        let version_code = VersionCode(buf.get_u32_le());
        let min_sdk = buf.get_u8();
        let target_sdk = buf.get_u8();
        let perm_count = buf.get_u16_le() as usize;
        let comp_count = buf.get_u16_le() as usize;
        let pool_count = buf.get_u16_le() as usize;
        if perm_count > MAX_PERMISSIONS {
            return Err(ApkError::Bounds {
                what: "permission count",
                value: perm_count as u64,
            });
        }
        if comp_count > MAX_COMPONENTS {
            return Err(ApkError::Bounds {
                what: "component count",
                value: comp_count as u64,
            });
        }
        if pool_count > MAX_STRINGS || pool_count != 4 + perm_count + comp_count {
            return Err(ApkError::Manifest("inconsistent string pool count"));
        }
        let mut pool = Vec::with_capacity(pool_count);
        for _ in 0..pool_count {
            if buf.remaining() < 2 {
                return Err(ApkError::Manifest("truncated string length"));
            }
            let len = buf.get_u16_le() as usize;
            if len > MAX_STRING_LEN {
                return Err(ApkError::Bounds {
                    what: "string length",
                    value: len as u64,
                });
            }
            if buf.remaining() < len {
                return Err(ApkError::Manifest("truncated string"));
            }
            let s = std::str::from_utf8(&buf[..len])
                .map_err(|_| ApkError::Manifest("string not utf-8"))?
                .to_owned();
            buf.advance(len);
            pool.push(s);
        }
        let mut kinds = Vec::with_capacity(comp_count);
        for _ in 0..comp_count {
            if !buf.has_remaining() {
                return Err(ApkError::Manifest("truncated component kind"));
            }
            let kind = ComponentKind::from_byte(buf.get_u8())
                .ok_or(ApkError::Manifest("unknown component kind"))?;
            kinds.push(kind);
        }
        if buf.has_remaining() {
            return Err(ApkError::Manifest("trailing bytes"));
        }
        let package =
            PackageName::new(&pool[0]).map_err(|_| ApkError::Manifest("invalid package name"))?;
        let components = kinds
            .into_iter()
            .zip(pool[4 + perm_count..].iter())
            .map(|(kind, class)| Component {
                kind,
                class: class.clone(),
            })
            .collect();
        Ok(Manifest {
            package,
            version_code,
            version_name: pool[1].clone(),
            min_sdk,
            target_sdk,
            app_label: pool[2].clone(),
            category: pool[3].clone(),
            permissions: pool[4..4 + perm_count].to_vec(),
            components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            package: PackageName::new("com.kugou.android").unwrap(),
            version_code: VersionCode(870),
            version_name: "8.7.0".into(),
            min_sdk: 9,
            target_sdk: 25,
            app_label: "酷狗音乐".into(),
            permissions: vec![
                "android.permission.INTERNET".into(),
                "android.permission.READ_PHONE_STATE".into(),
            ],
            category: "Music".into(),
            components: vec![
                Component {
                    kind: ComponentKind::Activity,
                    class: "Lcom/kugou/android/Main;".into(),
                },
                Component {
                    kind: ComponentKind::Service,
                    class: "Lcom/kugou/android/PlayerService;".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn round_trip_no_permissions() {
        let mut m = sample();
        m.permissions.clear();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn round_trip_no_components() {
        let mut m = sample();
        m.components.clear();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_component_kind() {
        let bytes = sample().encode();
        // Kind bytes are the last two bytes of the encoding.
        let mut bytes = bytes;
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(ApkError::Manifest("unknown component kind"))
        ));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(Manifest::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(Manifest::decode(&bytes).is_err());
        // The retired version 1: the same header minus the component
        // count, valid only for component-free manifests.
        let mut old = Manifest {
            components: vec![],
            ..sample()
        }
        .encode();
        old[4] = 1;
        old.drain(14..16);
        assert!(matches!(
            Manifest::decode(&old),
            Err(ApkError::Manifest("unsupported version"))
        ));
    }

    #[test]
    fn rejects_invalid_package_in_pool() {
        let mut m = sample();
        // Force an invalid package through a hand-crafted pool by encoding
        // then corrupting the first pool string ("com.kugou.android").
        m.version_name = "x".into();
        let mut bytes = m.encode();
        // First pool string starts right after the 18-byte header +
        // 2-byte len.
        let start = HEADER_LEN + 2;
        bytes[start] = b'9'; // "9om.kugou.android" → invalid first segment
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(ApkError::Manifest("invalid package name"))
        ));
    }

    #[test]
    fn unicode_label_survives() {
        let m = sample();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back.app_label, "酷狗音乐");
    }

    #[test]
    fn garbage_never_panics() {
        for len in [0usize, 1, 15, 16, 18, 64, 1000] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let _ = Manifest::decode(&junk);
        }
    }
}
