//! The `classes.dex` code-container model.
//!
//! Real DEX files hold class definitions, a string pool and method bodies.
//! Our model keeps exactly the views the paper's analyses consume:
//!
//! * **class names** in JVM descriptor form (`Lcom/foo/Bar;`) — package
//!   trees drive LibRadar-style third-party-library detection;
//! * per-method **framework API-call ids** — the 45k-dimension feature
//!   vectors of the WuKong-style clone detector, and the reachable-API
//!   set of the PScout-style over-privilege analysis;
//! * per-method **code-segment hashes** — the second, code-level phase of
//!   clone detection ("share more than 85% of the code segments");
//! * per-method **intra-app invocation edges** — the call graph the
//!   reachability pass walks from manifest-declared entry points.
//!
//! Layout (`dex036`): magic + counts, then length-prefixed class
//! records, each method carrying an invoke list of
//! `(class_index, method_index)` pairs. As with the manifest, decoding
//! is total and bounds-checked, and rejects any other magic as well as
//! dangling edges (refs to classes or methods that do not exist).

use crate::apicalls::{ApiCallId, API_DIMENSIONS};
use crate::error::ApkError;
use bytes::Buf;

const MAGIC: u64 = 0x6465_7830_3336_0000; // "dex036"-flavoured
const MAX_CLASSES: usize = 65_536;
const MAX_METHODS: usize = 4_096;
const MAX_CALLS: usize = 65_536;
const MAX_INVOKES: usize = 65_536;
const MAX_NAME_LEN: usize = 1_024;

/// A reference to another method in the same DEX file: indices into
/// `DexFile::classes` and that class's `methods`. Both fit `u16` by the
/// format's own bounds (`MAX_CLASSES` = 65 536 classes → max index
/// 65 535; `MAX_METHODS` = 4 096 per class → max index 4 095).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodRef {
    /// Index of the target class in `DexFile::classes`.
    pub class: u16,
    /// Index of the target method within that class's `methods`.
    pub method: u16,
}

/// One method in a class: its API-call footprint, a hash of its code
/// segment, and the intra-app methods it invokes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodDef {
    /// Framework API calls performed by this method's body.
    pub api_calls: Vec<ApiCallId>,
    /// A stable hash of the method's instruction stream. Two methods with
    /// equal hashes are "the same code segment" for clone detection.
    pub code_hash: u64,
    /// Intra-app call edges: other methods in the same DEX this method's
    /// body invokes.
    pub invokes: Vec<MethodRef>,
}

/// One class definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// JVM-style descriptor, e.g. `Lcom/umeng/analytics/A;`.
    pub name: String,
    /// The class's methods.
    pub methods: Vec<MethodDef>,
}

impl ClassDef {
    /// The Java package of this class in dotted form
    /// (`Lcom/umeng/analytics/A;` → `com.umeng.analytics`), or `None`
    /// for malformed descriptors or default-package classes.
    pub fn java_package(&self) -> Option<String> {
        self.package_path().map(|pkg| pkg.replace('/', "."))
    }

    /// The package part of the descriptor as written, slash-separated
    /// (`Lcom/umeng/analytics/A;` → `com/umeng/analytics`); `None` exactly
    /// when [`ClassDef::java_package`] is.
    pub(crate) fn package_path(&self) -> Option<&str> {
        let inner = self.name.strip_prefix('L')?.strip_suffix(';')?;
        Some(inner.rsplit_once('/')?.0)
    }
}

/// The decoded `classes.dex` payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DexFile {
    /// All class definitions.
    pub classes: Vec<ClassDef>,
}

impl DexFile {
    /// Total number of methods across classes.
    pub fn method_count(&self) -> usize {
        self.classes.iter().map(|c| c.methods.len()).sum()
    }

    /// Total number of invocation edges across methods.
    pub fn edge_count(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| c.methods.iter())
            .map(|m| m.invokes.len())
            .sum()
    }

    /// Iterate every API call in the file (with multiplicity).
    pub fn api_calls(&self) -> impl Iterator<Item = ApiCallId> + '_ {
        self.classes
            .iter()
            .flat_map(|c| c.methods.iter())
            .flat_map(|m| m.api_calls.iter().copied())
    }

    /// Iterate every code-segment hash in the file.
    pub fn code_segments(&self) -> impl Iterator<Item = u64> + '_ {
        self.classes
            .iter()
            .flat_map(|c| c.methods.iter())
            .map(|m| m.code_hash)
    }

    /// Encode to the binary layout, edges included, into a buffer sized
    /// once from the file's counts.
    pub fn encode(&self) -> Vec<u8> {
        let method_size = |m: &MethodDef| 12 + 4 * (m.api_calls.len() + m.invokes.len());
        let class_size =
            |c: &ClassDef| 4 + c.name.len() + c.methods.iter().map(method_size).sum::<usize>();
        let size = 12 + self.classes.iter().map(class_size).sum::<usize>();
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.classes.len() as u32).to_le_bytes());
        for c in &self.classes {
            let name = c.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&(c.methods.len() as u16).to_le_bytes());
            for m in &c.methods {
                out.extend_from_slice(&m.code_hash.to_le_bytes());
                out.extend_from_slice(&(m.api_calls.len() as u16).to_le_bytes());
                for a in &m.api_calls {
                    out.extend_from_slice(&a.0.to_le_bytes());
                }
                out.extend_from_slice(&(m.invokes.len() as u16).to_le_bytes());
                for r in &m.invokes {
                    out.extend_from_slice(&r.class.to_le_bytes());
                    out.extend_from_slice(&r.method.to_le_bytes());
                }
            }
        }
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Decode from the binary layout; total and bounds-checked,
    /// including for dangling invocation edges.
    pub fn decode(bytes: &[u8]) -> Result<DexFile, ApkError> {
        let mut buf = bytes;
        if buf.remaining() < 12 {
            return Err(ApkError::Dex("truncated header"));
        }
        if buf.get_u64_le() != MAGIC {
            return Err(ApkError::Dex("bad magic"));
        }
        let class_count = buf.get_u32_le() as usize;
        if class_count > MAX_CLASSES {
            return Err(ApkError::Bounds {
                what: "class count",
                value: class_count as u64,
            });
        }
        let mut classes = Vec::with_capacity(class_count.min(1024));
        for _ in 0..class_count {
            if buf.remaining() < 2 {
                return Err(ApkError::Dex("truncated class name length"));
            }
            let name_len = buf.get_u16_le() as usize;
            if name_len == 0 || name_len > MAX_NAME_LEN {
                return Err(ApkError::Bounds {
                    what: "class name length",
                    value: name_len as u64,
                });
            }
            if buf.remaining() < name_len {
                return Err(ApkError::Dex("truncated class name"));
            }
            let name = std::str::from_utf8(&buf[..name_len])
                .map_err(|_| ApkError::Dex("class name not utf-8"))?
                .to_owned();
            buf.advance(name_len);
            if buf.remaining() < 2 {
                return Err(ApkError::Dex("truncated method count"));
            }
            let method_count = buf.get_u16_le() as usize;
            if method_count > MAX_METHODS {
                return Err(ApkError::Bounds {
                    what: "method count",
                    value: method_count as u64,
                });
            }
            let mut methods = Vec::with_capacity(method_count.min(256));
            for _ in 0..method_count {
                if buf.remaining() < 10 {
                    return Err(ApkError::Dex("truncated method header"));
                }
                let code_hash = buf.get_u64_le();
                let call_count = buf.get_u16_le() as usize;
                if call_count > MAX_CALLS {
                    return Err(ApkError::Bounds {
                        what: "call count",
                        value: call_count as u64,
                    });
                }
                if buf.remaining() < call_count * 4 {
                    return Err(ApkError::Dex("truncated call list"));
                }
                let (call_bytes, rest) = buf.split_at(call_count * 4);
                buf = rest;
                let mut api_calls = Vec::with_capacity(call_count);
                for b in call_bytes.chunks_exact(4) {
                    let raw = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                    let id = ApiCallId::new(raw).ok_or(ApkError::Bounds {
                        what: "api call id",
                        value: raw as u64,
                    })?;
                    api_calls.push(id);
                }
                if buf.remaining() < 2 {
                    return Err(ApkError::Dex("truncated invoke count"));
                }
                let invoke_count = buf.get_u16_le() as usize;
                if invoke_count > MAX_INVOKES {
                    return Err(ApkError::Bounds {
                        what: "invoke count",
                        value: invoke_count as u64,
                    });
                }
                if buf.remaining() < invoke_count * 4 {
                    return Err(ApkError::Dex("truncated invoke list"));
                }
                let (invoke_bytes, rest) = buf.split_at(invoke_count * 4);
                buf = rest;
                let mut invokes = Vec::with_capacity(invoke_count);
                for b in invoke_bytes.chunks_exact(4) {
                    let class = u16::from_le_bytes([b[0], b[1]]);
                    let method = u16::from_le_bytes([b[2], b[3]]);
                    // Class index validated against the header count
                    // here; the method index is validated post-decode
                    // once the target class's method list is known.
                    if (class as usize) >= class_count {
                        return Err(ApkError::Bounds {
                            what: "invoke class index",
                            value: class as u64,
                        });
                    }
                    invokes.push(MethodRef { class, method });
                }
                methods.push(MethodDef {
                    api_calls,
                    code_hash,
                    invokes,
                });
            }
            classes.push(ClassDef { name, methods });
        }
        if buf.has_remaining() {
            return Err(ApkError::Dex("trailing bytes"));
        }
        // Dangling-method check: every edge must land on a method that
        // actually exists in its (already bounds-checked) target class.
        for c in &classes {
            for m in &c.methods {
                for r in &m.invokes {
                    if (r.method as usize) >= classes[r.class as usize].methods.len() {
                        return Err(ApkError::Bounds {
                            what: "invoke method index",
                            value: r.method as u64,
                        });
                    }
                }
            }
        }
        Ok(DexFile { classes })
    }
}

/// Sanity helper used by tests and generators: largest valid API id.
pub const MAX_API_ID: u32 = API_DIMENSIONS - 1;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DexFile {
        DexFile {
            classes: vec![
                ClassDef {
                    name: "Lcom/kugou/android/Main;".into(),
                    methods: vec![
                        MethodDef {
                            api_calls: vec![ApiCallId(1), ApiCallId(500), ApiCallId(44_000)],
                            code_hash: 0xDEAD_BEEF,
                            invokes: vec![
                                MethodRef {
                                    class: 0,
                                    method: 1,
                                },
                                MethodRef {
                                    class: 1,
                                    method: 0,
                                },
                            ],
                        },
                        MethodDef {
                            api_calls: vec![],
                            code_hash: 0x1234,
                            invokes: vec![],
                        },
                    ],
                },
                ClassDef {
                    name: "Lcom/umeng/analytics/A;".into(),
                    methods: vec![MethodDef {
                        api_calls: vec![ApiCallId(7)],
                        code_hash: 42,
                        invokes: vec![],
                    }],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let d = sample();
        assert_eq!(DexFile::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn empty_dex_round_trips() {
        let d = DexFile::default();
        assert_eq!(DexFile::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn java_package_extraction() {
        let c = ClassDef {
            name: "Lcom/umeng/analytics/A;".into(),
            methods: vec![],
        };
        assert_eq!(c.java_package().unwrap(), "com.umeng.analytics");
        let c = ClassDef {
            name: "LMain;".into(),
            methods: vec![],
        };
        assert_eq!(c.java_package(), None);
        let c = ClassDef {
            name: "garbage".into(),
            methods: vec![],
        };
        assert_eq!(c.java_package(), None);
    }

    #[test]
    fn iterators_cover_everything() {
        let d = sample();
        assert_eq!(d.method_count(), 3);
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.api_calls().count(), 4);
        let segs: Vec<u64> = d.code_segments().collect();
        assert_eq!(segs, vec![0xDEAD_BEEF, 0x1234, 42]);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(DexFile::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_out_of_range_api_id() {
        let mut d = sample();
        d.classes[0].methods[0].api_calls[0] = ApiCallId(API_DIMENSIONS); // invalid by fiat
        let bytes = d.encode();
        assert!(matches!(
            DexFile::decode(&bytes),
            Err(ApkError::Bounds {
                what: "api call id",
                ..
            })
        ));
    }

    #[test]
    fn rejects_dangling_class_ref() {
        let mut d = sample();
        d.classes[0].methods[0].invokes[0] = MethodRef {
            class: 9,
            method: 0,
        };
        assert!(matches!(
            DexFile::decode(&d.encode()),
            Err(ApkError::Bounds {
                what: "invoke class index",
                ..
            })
        ));
    }

    #[test]
    fn rejects_dangling_method_ref() {
        let mut d = sample();
        // Class 1 exists but has only one method; index 5 dangles.
        d.classes[0].methods[0].invokes[0] = MethodRef {
            class: 1,
            method: 5,
        };
        assert!(matches!(
            DexFile::decode(&d.encode()),
            Err(ApkError::Bounds {
                what: "invoke method index",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_magic_and_trailing() {
        let mut bytes = sample().encode();
        bytes[0] ^= 1;
        assert!(DexFile::decode(&bytes).is_err());
        // The retired edge-free "dex035" layout: an empty file in it was
        // magic + zero class count. Unknown layouts are refused.
        let mut old = 0x6465_7830_3335_0000u64.to_le_bytes().to_vec();
        old.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            DexFile::decode(&old),
            Err(ApkError::Dex("bad magic"))
        ));
        let mut bytes = sample().encode();
        bytes.push(7);
        assert!(DexFile::decode(&bytes).is_err());
    }

    #[test]
    fn garbage_never_panics() {
        for seed in 0..50u64 {
            let junk: Vec<u8> = (0..(seed * 13 % 200))
                .map(|i| ((i * seed + 3) % 256) as u8)
                .collect();
            let _ = DexFile::decode(&junk);
        }
    }
}
