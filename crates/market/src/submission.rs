//! The developer-submission pipeline (Section 2.1).
//!
//! The paper registered a developer account on every market and compared
//! their publication rules. The simulated stores enforce the same ones on
//! `POST /upload`:
//!
//! * **Copyright checks** — all markets but HiApk and PC Online require a
//!   "Software Copyright Certificate" (the `x-copyright-cert` header);
//! * **Lenovo MM** only accepts registered companies
//!   (`x-company-cert` header);
//! * **OPPO** only accepts specific categories (wallpaper/theme →
//!   our `Personalization`);
//! * **App China** caps APKs at 50 MB;
//! * **360** requires the developer to pack the app with Jiagubao before
//!   submission (a `Lcom/jiagu/` wrapper class must be present);
//! * markets with **vetting** answer `pending` with their Table 1 vetting
//!   time; the two no-vetting stores answer `listed` immediately.

use marketscope_apk::ParsedApk;
use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_ecosystem::profile;
use std::collections::BTreeMap;

/// App China's documented size cap (Section 2.1).
pub(crate) const APP_CHINA_SIZE_LIMIT: usize = 50 * 1024 * 1024;

/// Outcome of a submission.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SubmissionOutcome {
    /// Listed immediately (no vetting process).
    Listed,
    /// Queued for vetting; value is the expected vetting time in days.
    Pending(f64),
    /// Rejected with a market-policy reason.
    Rejected(&'static str),
}

/// Evaluate a submission against one market's publication rules.
pub(crate) fn evaluate(
    market: MarketId,
    headers: &BTreeMap<String, String>,
    body: &[u8],
) -> SubmissionOutcome {
    let p = profile(market);
    // Size gate first: App China's 50 MB cap applies before anything is
    // parsed (their uploader refuses the file outright).
    if market == MarketId::AppChina && body.len() > APP_CHINA_SIZE_LIMIT {
        return SubmissionOutcome::Rejected("APK exceeds the 50 MB limit");
    }
    // Copyright certificate (all markets but HiApk and PC Online).
    if p.copyright_check && !headers.contains_key("x-copyright-cert") {
        return SubmissionOutcome::Rejected("software copyright certificate required");
    }
    // Lenovo MM: registered companies only.
    if market == MarketId::LenovoMm && !headers.contains_key("x-company-cert") {
        return SubmissionOutcome::Rejected("individual developers may not publish");
    }
    // The APK itself must parse.
    let Ok(apk) = ParsedApk::parse(body) else {
        return SubmissionOutcome::Rejected("malformed APK");
    };
    if !apk.signature_valid {
        return SubmissionOutcome::Rejected("developer signature does not verify");
    }
    // OPPO: restricted categories (wallpaper/theme apps).
    if market == MarketId::OppoMarket && apk.manifest.category != "Personalization" {
        return SubmissionOutcome::Rejected("category not accepted by this store");
    }
    // 360: must be packed with Jiagubao before entering the market.
    if p.requires_obfuscation
        && !apk
            .dex
            .classes()
            .any(|c| c.name().starts_with("Lcom/jiagu/"))
    {
        return SubmissionOutcome::Rejected("app must be packed with Jiagubao first");
    }
    match p.vetting_days {
        Some(days) if p.app_vetting => SubmissionOutcome::Pending(days),
        _ => SubmissionOutcome::Listed,
    }
}

/// Render an outcome as the upload endpoint's JSON response body.
pub(crate) fn outcome_json(outcome: &SubmissionOutcome) -> Json {
    match outcome {
        SubmissionOutcome::Listed => Json::obj([("status", Json::from("listed"))]),
        SubmissionOutcome::Pending(days) => Json::obj([
            ("status", Json::from("pending")),
            ("vetting_days", Json::from(*days)),
        ]),
        SubmissionOutcome::Rejected(reason) => Json::obj([
            ("status", Json::from("rejected")),
            ("reason", Json::from(*reason)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::builder::ApkBuilder;
    use marketscope_apk::dex::DexFile;
    use marketscope_apk::manifest::Manifest;
    use marketscope_core::{DeveloperKey, PackageName, VersionCode};

    fn apk(category: &str, jiagu: bool) -> Vec<u8> {
        let manifest = Manifest {
            package: PackageName::new("com.dev.submission").unwrap(),
            version_code: VersionCode(1),
            version_name: "1.0".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "Submission".into(),
            permissions: vec![],
            category: category.into(),
            components: vec![],
        };
        let mut dex = DexFile::default();
        dex.push_class("Lcom/dev/submission/Main;");
        dex.push_method(7, &[], &[]);
        if jiagu {
            dex.push_class("Lcom/jiagu/StubLoader;");
        }
        ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("submitter"))
            .unwrap()
    }

    fn headers(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn copyright_certificate_is_required_almost_everywhere() {
        let body = apk("Tools", false);
        for m in [
            MarketId::TencentMyapp,
            MarketId::BaiduMarket,
            MarketId::HuaweiMarket,
        ] {
            assert!(matches!(
                evaluate(m, &headers(&[]), &body),
                SubmissionOutcome::Rejected("software copyright certificate required")
            ));
        }
        // The two stores without copyright checks list or vet without it.
        assert!(!matches!(
            evaluate(MarketId::HiApk, &headers(&[]), &body),
            SubmissionOutcome::Rejected(_)
        ));
        assert!(!matches!(
            evaluate(MarketId::PcOnline, &headers(&[]), &body),
            SubmissionOutcome::Rejected(_)
        ));
    }

    #[test]
    fn vetting_times_match_table1() {
        let body = apk("Tools", false);
        let h = headers(&[("x-copyright-cert", "cert-123")]);
        match evaluate(MarketId::HuaweiMarket, &h, &body) {
            SubmissionOutcome::Pending(days) => assert_eq!(days, 4.0),
            other => panic!("{other:?}"),
        }
        match evaluate(MarketId::TencentMyapp, &h, &body) {
            SubmissionOutcome::Pending(days) => assert_eq!(days, 1.0),
            other => panic!("{other:?}"),
        }
        // No vetting → listed immediately.
        assert_eq!(
            evaluate(MarketId::HiApk, &headers(&[]), &body),
            SubmissionOutcome::Listed
        );
    }

    #[test]
    fn lenovo_requires_a_company() {
        let body = apk("Tools", false);
        let individual = headers(&[("x-copyright-cert", "c")]);
        assert!(matches!(
            evaluate(MarketId::LenovoMm, &individual, &body),
            SubmissionOutcome::Rejected("individual developers may not publish")
        ));
        let company = headers(&[("x-copyright-cert", "c"), ("x-company-cert", "acme")]);
        assert!(matches!(
            evaluate(MarketId::LenovoMm, &company, &body),
            SubmissionOutcome::Pending(_)
        ));
    }

    #[test]
    fn oppo_restricts_categories() {
        let h = headers(&[("x-copyright-cert", "c")]);
        assert!(matches!(
            evaluate(MarketId::OppoMarket, &h, &apk("Tools", false)),
            SubmissionOutcome::Rejected("category not accepted by this store")
        ));
        assert!(matches!(
            evaluate(MarketId::OppoMarket, &h, &apk("Personalization", false)),
            SubmissionOutcome::Pending(_)
        ));
    }

    #[test]
    fn market_360_requires_jiagu_packing() {
        let h = headers(&[("x-copyright-cert", "c")]);
        assert!(matches!(
            evaluate(MarketId::Market360, &h, &apk("Tools", false)),
            SubmissionOutcome::Rejected("app must be packed with Jiagubao first")
        ));
        assert!(matches!(
            evaluate(MarketId::Market360, &h, &apk("Tools", true)),
            SubmissionOutcome::Pending(_)
        ));
    }

    #[test]
    fn app_china_size_cap() {
        let oversized = vec![0u8; APP_CHINA_SIZE_LIMIT + 1];
        assert!(matches!(
            evaluate(MarketId::AppChina, &headers(&[]), &oversized),
            SubmissionOutcome::Rejected("APK exceeds the 50 MB limit")
        ));
        // Other stores don't apply the cap (they fail later, on parsing).
        assert!(matches!(
            evaluate(MarketId::HiApk, &headers(&[]), &oversized),
            SubmissionOutcome::Rejected("malformed APK")
        ));
    }

    #[test]
    fn malformed_and_badly_signed_apks_are_rejected() {
        let h = headers(&[("x-copyright-cert", "c")]);
        assert!(matches!(
            evaluate(MarketId::TencentMyapp, &h, b"not an apk"),
            SubmissionOutcome::Rejected("malformed APK")
        ));
    }

    /// `POST /upload` a game to a live store over a plain socket; returns
    /// the status code and the JSON body.
    fn upload(addr: std::net::SocketAddr, certs: &[(&str, &str)]) -> (u16, Json) {
        use marketscope_net::http::{Method, Request, Response};
        use std::io::Read;
        let mut req = Request::get("/upload");
        req.method = Method::Post;
        req.body = apk("Game", false);
        req.headers = headers(certs);
        req.headers.insert("connection".into(), "close".into());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        req.write_to(&mut stream).unwrap();
        let mut wire = Vec::new();
        stream.read_to_end(&mut wire).unwrap();
        let (resp, _) = Response::parse_partial(&wire).unwrap().unwrap();
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status.code(), doc)
    }

    #[test]
    fn upload_route_answers_over_the_wire() {
        use marketscope_ecosystem::{generate, Scale, WorldConfig};
        let world = std::sync::Arc::new(generate(WorldConfig {
            seed: 6,
            scale: Scale { divisor: 60_000 },
        }));
        let server = crate::MarketServer::spawn(world, MarketId::TencentMyapp).unwrap();

        let (code, doc) = upload(server.addr(), &[]);
        assert_eq!(code, 400, "{doc:?}");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("software copyright certificate required")
        );

        let (code, doc) = upload(server.addr(), &[("x-copyright-cert", "SCC-2017-0042")]);
        assert_eq!(code, 200, "{doc:?}");
        let status = doc.get("status").and_then(Json::as_str);
        assert!(matches!(status, Some("pending" | "listed")), "{doc:?}");
    }

    #[test]
    fn outcome_json_shapes() {
        assert_eq!(
            outcome_json(&SubmissionOutcome::Listed).to_string_compact(),
            r#"{"status":"listed"}"#
        );
        let pending = outcome_json(&SubmissionOutcome::Pending(3.0)).to_string_compact();
        assert!(pending.contains("pending") && pending.contains("vetting_days"));
        let rejected = outcome_json(&SubmissionOutcome::Rejected("nope")).to_string_compact();
        assert!(rejected.contains("rejected") && rejected.contains("nope"));
    }
}
