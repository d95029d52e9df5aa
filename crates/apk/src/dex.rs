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
//! In memory a [`DexFile`] is flat: one pool holding every class name
//! back to back, a class table whose rows end a name span and a method
//! range, a method table whose rows hold a code hash and end a call range
//! and an invoke range, and two arrays those ranges index, one of API
//! calls and one of invocation edges. A range starts where the previous
//! row's ended, so nothing is allocated per class or per method: decoding
//! an app fills five arrays. [`ClassView`] and [`MethodView`] read the
//! model; [`DexFile::push_class`], [`DexFile::push_method`] and
//! [`DexFile::append`] write it, append-only.
//!
//! Layout (`dex036`, unchanged by the flat model): magic + class count,
//! then length-prefixed class records, each method carrying an invoke
//! list of `(class_index, method_index)` pairs. As with the manifest,
//! decoding is total and bounds-checked, and rejects any other magic as
//! well as dangling edges (refs to classes or methods that do not
//! exist). Encoding refuses exactly the models whose bytes decoding would
//! refuse or could not carry.

use crate::apicalls::{ApiCallId, API_DIMENSIONS};
use crate::error::ApkError;
use bytes::Buf;
use std::ops::Range;

const MAGIC: u64 = 0x6465_7830_3336_0000; // "dex036"-flavoured
const MAX_CLASSES: usize = 65_536;
const MAX_METHODS: usize = 4_096;
const MAX_NAME_LEN: usize = 1_024;

/// A reference to another method in the same DEX file: a class index and
/// a method index within that class. Both fit `u16` by the format's own
/// bounds (`MAX_CLASSES` = 65 536 classes → max index 65 535;
/// `MAX_METHODS` = 4 096 per class → max index 4 095).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodRef {
    /// Index of the target class.
    pub class: u16,
    /// Index of the target method within that class.
    pub method: u16,
}

/// A class-table row: where the class's name span and method range end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClassRow {
    name_end: usize,
    method_end: usize,
}

/// A method-table row: the code hash, and where the method's call range
/// and invoke range end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MethodRow {
    code_hash: u64,
    call_end: usize,
    invoke_end: usize,
}

/// The decoded `classes.dex` payload, as flat tables (see the module
/// docs). Two files are equal exactly when they hold the same classes,
/// in the same order, with the same methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DexFile {
    names: String,
    classes: Vec<ClassRow>,
    methods: Vec<MethodRow>,
    calls: Vec<ApiCallId>,
    invokes: Vec<MethodRef>,
}

/// A read-only view of one class of a [`DexFile`].
#[derive(Clone, Copy)]
pub struct ClassView<'a> {
    dex: &'a DexFile,
    index: usize,
    name: &'a str,
    methods: (usize, usize),
}

/// A read-only view of one method of a [`DexFile`].
#[derive(Clone, Copy)]
pub struct MethodView<'a> {
    code_hash: u64,
    calls: &'a [ApiCallId],
    invokes: &'a [MethodRef],
}

impl<'a> ClassView<'a> {
    /// Position of the class in its file.
    pub fn index(&self) -> usize {
        self.index
    }

    /// JVM-style descriptor, e.g. `Lcom/umeng/analytics/A;`.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The Java package of this class in dotted form
    /// (`Lcom/umeng/analytics/A;` → `com.umeng.analytics`), or `None`
    /// for malformed descriptors or default-package classes.
    pub fn java_package(&self) -> Option<String> {
        self.package_path().map(|pkg| pkg.replace('/', "."))
    }

    /// The package part of the descriptor as written, slash-separated
    /// (`Lcom/umeng/analytics/A;` → `com/umeng/analytics`); `None` exactly
    /// when [`ClassView::java_package`] is.
    pub(crate) fn package_path(&self) -> Option<&'a str> {
        let inner = self.name.strip_prefix('L')?.strip_suffix(';')?;
        Some(inner.rsplit_once('/')?.0)
    }

    /// The file-wide indices of this class's methods (see
    /// [`DexFile::method`]).
    pub(crate) fn method_range(&self) -> Range<usize> {
        self.methods.0..self.methods.1
    }

    /// Number of methods in the class.
    pub fn method_count(&self) -> usize {
        self.methods.1 - self.methods.0
    }

    /// The class's methods, in order.
    pub fn methods(&self) -> impl ExactSizeIterator<Item = MethodView<'a>> + 'a {
        let dex = self.dex;
        self.method_range().map(move |m| dex.method(m))
    }
}

impl<'a> MethodView<'a> {
    /// A stable hash of the method's instruction stream. Two methods with
    /// equal hashes are "the same code segment" for clone detection.
    pub fn code_hash(&self) -> u64 {
        self.code_hash
    }

    /// Framework API calls performed by this method's body.
    pub fn api_calls(&self) -> &'a [ApiCallId] {
        self.calls
    }

    /// Intra-app call edges: other methods in the same DEX this method's
    /// body invokes.
    pub fn invokes(&self) -> &'a [MethodRef] {
        self.invokes
    }
}

impl DexFile {
    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total number of methods across classes.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Total number of invocation edges across methods.
    pub fn edge_count(&self) -> usize {
        self.invokes.len()
    }

    /// Class `index`. Panics if there is no such class.
    pub fn class(&self, index: usize) -> ClassView<'_> {
        let row = self.classes[index];
        let (name_start, method_start) = match index.checked_sub(1) {
            Some(prev) => (self.classes[prev].name_end, self.classes[prev].method_end),
            None => (0, 0),
        };
        ClassView {
            dex: self,
            index,
            name: &self.names[name_start..row.name_end],
            methods: (method_start, row.method_end),
        }
    }

    /// Every class, in order.
    pub fn classes(&self) -> impl DoubleEndedIterator<Item = ClassView<'_>> + ExactSizeIterator {
        (0..self.classes.len()).map(|c| self.class(c))
    }

    /// Method `index`, counting every class's methods in class order.
    /// Panics if there is no such method.
    pub fn method(&self, index: usize) -> MethodView<'_> {
        let row = self.methods[index];
        let (call_start, invoke_start) = match index.checked_sub(1) {
            Some(prev) => (self.methods[prev].call_end, self.methods[prev].invoke_end),
            None => (0, 0),
        };
        MethodView {
            code_hash: row.code_hash,
            calls: &self.calls[call_start..row.call_end],
            invokes: &self.invokes[invoke_start..row.invoke_end],
        }
    }

    /// Every method, in class order.
    pub(crate) fn methods(&self) -> impl ExactSizeIterator<Item = MethodView<'_>> {
        (0..self.methods.len()).map(|m| self.method(m))
    }

    /// The class holding method `method` (a file-wide index).
    pub(crate) fn method_class(&self, method: usize) -> usize {
        self.classes.partition_point(|c| c.method_end <= method)
    }

    /// The file-wide index of the method an edge lands on, or `None` when
    /// it dangles.
    pub(crate) fn resolve(&self, edge: MethodRef) -> Option<usize> {
        let class = usize::from(edge.class);
        let end = self.classes.get(class)?.method_end;
        let start = class
            .checked_sub(1)
            .map_or(0, |c| self.classes[c].method_end);
        let method = start + usize::from(edge.method);
        (method < end).then_some(method)
    }

    /// Iterate every API call in the file (with multiplicity).
    pub fn api_calls(&self) -> impl Iterator<Item = ApiCallId> + '_ {
        self.calls.iter().copied()
    }

    /// Iterate every code-segment hash in the file.
    pub fn code_segments(&self) -> impl Iterator<Item = u64> + '_ {
        self.methods.iter().map(|m| m.code_hash)
    }

    /// Append a class named `name` with no methods: the methods pushed
    /// next belong to it.
    pub fn push_class(&mut self, name: &str) {
        self.names.push_str(name);
        self.classes.push(ClassRow {
            name_end: self.names.len(),
            method_end: self.methods.len(),
        });
    }

    /// Append a method to the class pushed last. Edges may name classes
    /// not pushed yet; [`DexFile::encode`] refuses any left dangling.
    /// Panics if no class was pushed.
    pub fn push_method(&mut self, code_hash: u64, calls: &[ApiCallId], invokes: &[MethodRef]) {
        let Some(class) = self.classes.last_mut() else {
            panic!("DexFile::push_method before any push_class");
        };
        self.calls.extend_from_slice(calls);
        self.invokes.extend_from_slice(invokes);
        self.methods.push(MethodRow {
            code_hash,
            call_end: self.calls.len(),
            invoke_end: self.invokes.len(),
        });
        class.method_end = self.methods.len();
    }

    /// Append every class of `other` after this file's classes. `other`'s
    /// edges keep pointing at its own classes: their class indices move
    /// up by this file's class count.
    pub fn append(&mut self, other: &DexFile) {
        let names = self.names.len();
        let classes = self.classes.len();
        let methods = self.methods.len();
        let calls = self.calls.len();
        let invokes = self.invokes.len();
        self.names.push_str(&other.names);
        self.classes.extend(other.classes.iter().map(|c| ClassRow {
            name_end: names + c.name_end,
            method_end: methods + c.method_end,
        }));
        self.methods.extend(other.methods.iter().map(|m| MethodRow {
            code_hash: m.code_hash,
            call_end: calls + m.call_end,
            invoke_end: invokes + m.invoke_end,
        }));
        self.calls.extend_from_slice(&other.calls);
        self.invokes.extend(other.invokes.iter().map(|r| MethodRef {
            // Saturates only past the 65 536 classes the format carries,
            // a model `encode` refuses.
            class: u16::try_from(classes + usize::from(r.class)).unwrap_or(u16::MAX),
            method: r.method,
        }));
    }

    /// Drop the spare capacity the writer grew, for a model kept long.
    pub fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.classes.shrink_to_fit();
        self.methods.shrink_to_fit();
        self.calls.shrink_to_fit();
        self.invokes.shrink_to_fit();
    }

    /// Encode to the binary layout, edges included, into a buffer sized
    /// once from the file's counts. Refuses with [`ApkError::Bounds`]
    /// every model `decode` would not read back as itself: more classes
    /// than the format holds, an empty or overlong class name, more
    /// methods per class than it holds, more calls or edges per method
    /// than a `u16` count carries, an API id outside the feature space,
    /// and an edge to a class or method that does not exist.
    pub fn encode(&self) -> Result<Vec<u8>, ApkError> {
        let bounds = |what, value: usize| ApkError::Bounds {
            what,
            value: value as u64,
        };
        if self.classes.len() > MAX_CLASSES {
            return Err(bounds("class count", self.classes.len()));
        }
        let size = 12
            + 4 * self.classes.len()
            + self.names.len()
            + 12 * self.methods.len()
            + 4 * (self.calls.len() + self.invokes.len());
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.classes.len() as u32).to_le_bytes());
        for class in self.classes() {
            let name = class.name().as_bytes();
            if name.is_empty() || name.len() > MAX_NAME_LEN {
                return Err(bounds("class name length", name.len()));
            }
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            if class.method_count() > MAX_METHODS {
                return Err(bounds("method count", class.method_count()));
            }
            out.extend_from_slice(&(class.method_count() as u16).to_le_bytes());
            for m in class.methods() {
                out.extend_from_slice(&m.code_hash().to_le_bytes());
                let calls = m.api_calls();
                let count =
                    u16::try_from(calls.len()).map_err(|_| bounds("call count", calls.len()))?;
                out.extend_from_slice(&count.to_le_bytes());
                for a in calls {
                    if a.0 >= API_DIMENSIONS {
                        return Err(bounds("api call id", a.0 as usize));
                    }
                    out.extend_from_slice(&a.0.to_le_bytes());
                }
                let invokes = m.invokes();
                let count = u16::try_from(invokes.len())
                    .map_err(|_| bounds("invoke count", invokes.len()))?;
                out.extend_from_slice(&count.to_le_bytes());
                for &r in invokes {
                    if usize::from(r.class) >= self.classes.len() {
                        return Err(bounds("invoke class index", r.class.into()));
                    }
                    if self.resolve(r).is_none() {
                        return Err(bounds("invoke method index", r.method.into()));
                    }
                    out.extend_from_slice(&r.class.to_le_bytes());
                    out.extend_from_slice(&r.method.to_le_bytes());
                }
            }
        }
        debug_assert_eq!(out.len(), size);
        Ok(out)
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
        // Every class record takes at least four bytes.
        let mut dex = DexFile {
            classes: Vec::with_capacity(class_count.min(buf.remaining() / 4)),
            ..DexFile::default()
        };
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
                .map_err(|_| ApkError::Dex("class name not utf-8"))?;
            dex.names.push_str(name);
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
            for _ in 0..method_count {
                if buf.remaining() < 10 {
                    return Err(ApkError::Dex("truncated method header"));
                }
                let code_hash = buf.get_u64_le();
                let call_count = buf.get_u16_le() as usize;
                if buf.remaining() < call_count * 4 {
                    return Err(ApkError::Dex("truncated call list"));
                }
                let (call_bytes, rest) = buf.split_at(call_count * 4);
                buf = rest;
                let ids = call_bytes
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                if let Some(raw) = ids.clone().find(|&raw| raw >= API_DIMENSIONS) {
                    return Err(ApkError::Bounds {
                        what: "api call id",
                        value: raw as u64,
                    });
                }
                dex.calls.extend(ids.map(ApiCallId));
                if buf.remaining() < 2 {
                    return Err(ApkError::Dex("truncated invoke count"));
                }
                let invoke_count = buf.get_u16_le() as usize;
                if buf.remaining() < invoke_count * 4 {
                    return Err(ApkError::Dex("truncated invoke list"));
                }
                let (invoke_bytes, rest) = buf.split_at(invoke_count * 4);
                buf = rest;
                let refs = invoke_bytes.chunks_exact(4).map(|b| MethodRef {
                    class: u16::from_le_bytes([b[0], b[1]]),
                    method: u16::from_le_bytes([b[2], b[3]]),
                });
                // Class index validated against the header count here;
                // the method index is validated post-decode once the
                // target class's method range is known.
                if let Some(r) = refs.clone().find(|r| usize::from(r.class) >= class_count) {
                    return Err(ApkError::Bounds {
                        what: "invoke class index",
                        value: r.class as u64,
                    });
                }
                dex.invokes.extend(refs);
                dex.methods.push(MethodRow {
                    code_hash,
                    call_end: dex.calls.len(),
                    invoke_end: dex.invokes.len(),
                });
            }
            dex.classes.push(ClassRow {
                name_end: dex.names.len(),
                method_end: dex.methods.len(),
            });
        }
        if buf.has_remaining() {
            return Err(ApkError::Dex("trailing bytes"));
        }
        // Dangling-method check: every edge must land on a method that
        // actually exists in its (already bounds-checked) target class.
        if let Some(r) = dex.invokes.iter().find(|r| dex.resolve(**r).is_none()) {
            return Err(ApkError::Bounds {
                what: "invoke method index",
                value: r.method as u64,
            });
        }
        Ok(dex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(class: u16, method: u16) -> MethodRef {
        MethodRef { class, method }
    }

    fn sample() -> DexFile {
        let mut d = DexFile::default();
        d.push_class("Lcom/kugou/android/Main;");
        d.push_method(
            0xDEAD_BEEF,
            &[ApiCallId(1), ApiCallId(500), ApiCallId(44_000)],
            &[edge(0, 1), edge(1, 0)],
        );
        d.push_method(0x1234, &[], &[]);
        d.push_class("Lcom/umeng/analytics/A;");
        d.push_method(42, &[ApiCallId(7)], &[]);
        d
    }

    /// Offset of the sample's first API call and first edge in its
    /// encoding: header, name length, name, method count, code hash and
    /// call count; then three calls and the invoke count.
    const FIRST_CALL: usize = 12 + 2 + "Lcom/kugou/android/Main;".len() + 2 + 8 + 2;
    const FIRST_EDGE: usize = FIRST_CALL + 3 * 4 + 2;

    #[test]
    fn round_trip() {
        let d = sample();
        assert_eq!(DexFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn empty_dex_round_trips() {
        let d = DexFile::default();
        assert_eq!(DexFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn java_package_extraction() {
        let mut d = DexFile::default();
        for name in ["Lcom/umeng/analytics/A;", "LMain;", "garbage"] {
            d.push_class(name);
        }
        assert_eq!(d.class(0).java_package().unwrap(), "com.umeng.analytics");
        assert_eq!(d.class(0).package_path().unwrap(), "com/umeng/analytics");
        assert_eq!(d.class(1).java_package(), None);
        assert_eq!(d.class(2).java_package(), None);
    }

    #[test]
    fn iterators_cover_everything() {
        let d = sample();
        assert_eq!(d.class_count(), 2);
        assert_eq!(d.method_count(), 3);
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.api_calls().count(), 4);
        let segs: Vec<u64> = d.code_segments().collect();
        assert_eq!(segs, vec![0xDEAD_BEEF, 0x1234, 42]);
        let names: Vec<&str> = d.classes().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["Lcom/kugou/android/Main;", "Lcom/umeng/analytics/A;"]
        );
        assert_eq!(d.class(0).method_range(), 0..2);
        assert_eq!(d.class(1).method_range(), 2..3);
        assert_eq!(
            d.class(1).methods().next().unwrap().api_calls(),
            [ApiCallId(7)]
        );
        assert_eq!(d.method(0).invokes(), [edge(0, 1), edge(1, 0)]);
        assert_eq!(d.method(1).api_calls(), []);
        let owners: Vec<usize> = (0..3).map(|m| d.method_class(m)).collect();
        assert_eq!(owners, [0, 0, 1]);
        assert_eq!(d.resolve(edge(1, 0)), Some(2));
        assert_eq!(d.resolve(edge(1, 1)), None);
        assert_eq!(d.resolve(edge(2, 0)), None);
    }

    #[test]
    fn a_class_without_methods_owns_an_empty_range() {
        let mut d = DexFile::default();
        d.push_class("La/A;");
        d.push_method(1, &[], &[]);
        d.push_class("La/Empty;");
        d.push_class("La/B;");
        d.push_method(2, &[], &[edge(0, 0)]);
        assert_eq!(d.class(1).method_count(), 0);
        assert_eq!(d.class(2).method_range(), 1..2);
        assert_eq!(d.method_class(1), 2);
        assert_eq!(DexFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn append_shifts_the_appended_edges() {
        let mut d = sample();
        d.append(&sample());
        assert_eq!(d.class_count(), 4);
        assert_eq!(d.class(2).name(), "Lcom/kugou/android/Main;");
        assert_eq!(d.method(3).invokes(), [edge(2, 1), edge(3, 0)]);
        assert_eq!(d.method(5).api_calls(), [ApiCallId(7)]);
        assert_eq!(d.class(3).method_range(), 5..6);
        // The same file written class by class.
        let mut by_hand = sample();
        by_hand.push_class("Lcom/kugou/android/Main;");
        by_hand.push_method(
            0xDEAD_BEEF,
            &[ApiCallId(1), ApiCallId(500), ApiCallId(44_000)],
            &[edge(2, 1), edge(3, 0)],
        );
        by_hand.push_method(0x1234, &[], &[]);
        by_hand.push_class("Lcom/umeng/analytics/A;");
        by_hand.push_method(42, &[ApiCallId(7)], &[]);
        assert_eq!(d, by_hand);
        assert_eq!(DexFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample().encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(DexFile::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_out_of_range_api_id() {
        let mut bytes = sample().encode().unwrap();
        bytes[FIRST_CALL..FIRST_CALL + 4].copy_from_slice(&API_DIMENSIONS.to_le_bytes());
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
        let mut bytes = sample().encode().unwrap();
        bytes[FIRST_EDGE..FIRST_EDGE + 4].copy_from_slice(&[9, 0, 0, 0]);
        assert!(matches!(
            DexFile::decode(&bytes),
            Err(ApkError::Bounds {
                what: "invoke class index",
                ..
            })
        ));
    }

    #[test]
    fn rejects_dangling_method_ref() {
        // Class 1 exists but has only one method; index 5 dangles.
        let mut bytes = sample().encode().unwrap();
        bytes[FIRST_EDGE..FIRST_EDGE + 4].copy_from_slice(&[1, 0, 5, 0]);
        assert!(matches!(
            DexFile::decode(&bytes),
            Err(ApkError::Bounds {
                what: "invoke method index",
                ..
            })
        ));
    }

    /// One single-method class named `name`, with `calls` and `invokes`.
    fn one_class(name: &str, calls: &[ApiCallId], invokes: &[MethodRef]) -> DexFile {
        let mut d = DexFile::default();
        d.push_class(name);
        d.push_method(0, calls, invokes);
        d
    }

    fn refused(d: &DexFile) -> &'static str {
        match d.encode() {
            Err(ApkError::Bounds { what, .. }) => what,
            other => panic!("encoded: {other:?}"),
        }
    }

    #[test]
    fn encode_refuses_what_decode_would_not_read_back() {
        let name = "La/B;";
        assert_eq!(refused(&one_class("", &[], &[])), "class name length");
        let long = format!("L{};", "a".repeat(MAX_NAME_LEN));
        assert_eq!(refused(&one_class(&long, &[], &[])), "class name length");
        let calls = vec![ApiCallId(3); usize::from(u16::MAX) + 1];
        assert_eq!(refused(&one_class(name, &calls, &[])), "call count");
        let invokes = vec![edge(0, 0); usize::from(u16::MAX) + 1];
        assert_eq!(refused(&one_class(name, &[], &invokes)), "invoke count");
        let bad_id = [ApiCallId(API_DIMENSIONS)];
        assert_eq!(refused(&one_class(name, &bad_id, &[])), "api call id");
        assert_eq!(
            refused(&one_class(name, &[], &[edge(1, 0)])),
            "invoke class index"
        );
        assert_eq!(
            refused(&one_class(name, &[], &[edge(0, 1)])),
            "invoke method index"
        );
        let mut d = DexFile::default();
        d.push_class(name);
        for _ in 0..=MAX_METHODS {
            d.push_method(0, &[], &[]);
        }
        assert_eq!(refused(&d), "method count");
        let mut d = DexFile::default();
        for _ in 0..=MAX_CLASSES {
            d.push_class(name);
        }
        assert_eq!(refused(&d), "class count");
        // The largest counts the format carries still round-trip.
        let calls = vec![ApiCallId(3); usize::from(u16::MAX)];
        let invokes = vec![edge(0, 0); usize::from(u16::MAX)];
        let long = format!("L{};", "a".repeat(MAX_NAME_LEN - 2));
        let d = one_class(&long, &calls, &invokes);
        assert_eq!(DexFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn rejects_bad_magic_and_trailing() {
        let mut bytes = sample().encode().unwrap();
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
        let mut bytes = sample().encode().unwrap();
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
